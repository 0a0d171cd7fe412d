"""Convenience API: sort any-length bit sequences on any network.

The paper assumes power-of-two inputs "with no loss of generality"; this
module supplies the generality: inputs of arbitrary length are padded
with 1's up to the next power of two (padding 1's sort to the bottom and
are stripped), so downstream users get a plain ``sort_bits`` call.

Three serving-oriented features live here as well:

* the sorter cache is a **bounded, thread-safe LRU** — long-running
  services calling :func:`sort_bits` across many sizes/networks no
  longer grow memory without bound, and concurrent callers cannot race
  the build (``clear_cache`` / ``set_cache_limit`` / ``cache_info`` are
  the management hooks);
* ``sort_bits(..., supervised=True)`` routes the call through the
  :class:`repro.runtime.Supervisor` — the sort runs on self-checking
  hardware (:mod:`repro.circuits.checkers`) under a recovery policy, so
  a faulty netlist is detected online and the call still returns the
  correct answer via fallback;
* :func:`sort_bits_many` sorts a whole batch of sequences in input
  order — a plain loop over :func:`sort_bits` that validates every
  sequence before sorting any.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Netlist
from ..circuits.simulate import simulate
from ..errors import BuildError, SimulationError
from .fish_sorter import FishSorter
from .mux_merger import build_mux_merger_sorter
from .prefix_sorter import build_prefix_sorter

#: netlist cache shared by :func:`sort_bits` calls — bounded LRU,
#: guarded by :data:`_CACHE_LOCK` (builds for large n take seconds; the
#: lock makes concurrent first-calls build once, not n_threads times).
_CACHE: "OrderedDict[Tuple[str, int], Union[Netlist, FishSorter]]" = OrderedDict()
_CACHE_LOCK = threading.RLock()
_CACHE_LIMIT = 32
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}

NETWORKS = ("mux_merger", "prefix", "fish")


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()


def _build_sorter(n: int, network: str):
    if network == "mux_merger":
        return build_mux_merger_sorter(n)
    if network == "prefix":
        return build_prefix_sorter(n)
    if network == "fish":
        return FishSorter(n)
    raise BuildError(f"unknown network {network!r}; choose one of {NETWORKS}")


def make_sorter(n: int, network: str = "mux_merger"):
    """Build (and cache) a sorter instance for exactly ``n`` inputs.

    ``n`` must be a power of two here; :func:`sort_bits` handles padding.
    Returns a :class:`~repro.circuits.netlist.Netlist` for the
    combinational networks and a :class:`FishSorter` for ``"fish"``.
    Cached in a bounded thread-safe LRU (see :func:`cache_info`).
    """
    key = (network, n)
    with _CACHE_LOCK:
        sorter = _CACHE.get(key)
        if sorter is not None:
            _CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            return sorter
        # Build under the lock: concurrent first-calls must not each pay
        # the (multi-second at large n) construction, and an unknown
        # network name must fail before touching the cache.
        sorter = _build_sorter(n, network)
        _CACHE_STATS["misses"] += 1
        _CACHE[key] = sorter
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1
        return sorter


def sort_bits(
    bits,
    network: str = "mux_merger",
    pipelined: bool = False,
    supervised: bool = False,
) -> np.ndarray:
    """Sort a 0/1 sequence of any length on the chosen adaptive network.

    Pads with 1's to the next power of two, sorts, and strips the
    padding (1's are the maximal element, so the first ``len(bits)``
    outputs are exactly the sorted original sequence).

    With ``supervised=True`` the sort runs through the shared
    :class:`repro.runtime.Supervisor` for this network: self-checking
    hardware, alarm watching, retry, and graceful degradation down to a
    behavioral fallback — the call returns a correct answer even when
    the cached netlist is faulty (see :func:`supervisor_stats`).
    """
    if supervised:
        from ..runtime import get_supervisor

        return get_supervisor(network).sort(bits, pipelined=pipelined)
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    if arr.size and arr.max() > 1:
        raise SimulationError("sort_bits expects a 0/1 sequence")
    if arr.size <= 1:
        return arr.copy()
    n = next_power_of_two(max(arr.size, 4 if network == "fish" else 2))
    padded = np.concatenate([arr, np.ones(n - arr.size, dtype=np.uint8)])
    sorter = make_sorter(n, network)
    if network == "fish":
        out, _ = sorter.sort(padded, pipelined=pipelined)
    else:
        out = simulate(sorter, padded[None, :])[0]
    return out[: arr.size]


def sort_bits_many(
    seqs: Sequence,
    network: str = "mux_merger",
    pipelined: bool = False,
    supervised: bool = False,
) -> List[np.ndarray]:
    """Sort many 0/1 sequences; results come back in input order.

    The batch equivalent of :func:`sort_bits` (same padding, same
    networks, same ``supervised`` routing).  Every sequence is checked
    for 0/1 values before any is sorted, so a bad entry raises
    :class:`~repro.errors.SimulationError` without partial work.
    """
    arrays = [np.asarray(s, dtype=np.uint8).ravel() for s in seqs]
    for arr in arrays:
        if arr.size and arr.max() > 1:
            raise SimulationError("sort_bits_many expects 0/1 sequences")
    return [
        sort_bits(arr, network=network, pipelined=pipelined,
                  supervised=supervised)
        for arr in arrays
    ]


def clear_cache() -> None:
    """Drop all cached sorter instances and reset the hit/miss counters
    (frees memory in long sessions; used by tests for isolation)."""
    with _CACHE_LOCK:
        _CACHE.clear()
        _CACHE_STATS.update(hits=0, misses=0, evictions=0)


def set_cache_limit(limit: int) -> None:
    """Resize the LRU (evicting oldest entries if shrinking)."""
    global _CACHE_LIMIT
    if limit < 1:
        raise BuildError(f"cache limit must be >= 1, got {limit}")
    with _CACHE_LOCK:
        _CACHE_LIMIT = limit
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1


def cache_info() -> Dict[str, int]:
    """Snapshot of the sorter LRU: size, limit, hits, misses, evictions."""
    with _CACHE_LOCK:
        return {
            "size": len(_CACHE),
            "limit": _CACHE_LIMIT,
            **_CACHE_STATS,
        }

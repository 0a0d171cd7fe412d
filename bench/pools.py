"""Seeded input pools and their expected answers (NumPy only).

Everything here runs before the set-up clock starts, so it must not
import :mod:`repro`: the benchmark times ``import repro`` as part of
set-up.  The same ``seed`` always yields the same pools.  A pool holds at
most :data:`POOL_MAX` inputs and the workload loops cycle through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

POOL_MAX = 65_536
#: Width of every served request and of the recovery workload.
SERVE_N = 64
#: Fabric widths of the library workloads (each drawn equally often).
LIBRARY_WIDTHS = (64, 256, 1024)
LIBRARY_POOL = 8_192
RECOVERY_POOL = 16_384

#: Request kinds of a serve pool.
SORT, CONCENTRATE, ROUTE = 0, 1, 2


def balanced_codes(rng: np.random.Generator, counts: Dict[int, int],
                   size: int) -> np.ndarray:
    """``size`` codes in blocks holding exactly ``counts[code]`` of each
    code, shuffled within each block.

    A block-balanced sequence keeps the mix of every stretch of the pool
    at its nominal share, so a run that only reaches the first few
    thousand entries sees the same mix on every seed.
    """
    block = np.repeat(np.array(list(counts), dtype=np.int8),
                      list(counts.values()))
    n_blocks = -(-size // block.size)
    tiled = np.tile(block, (n_blocks, 1))
    return rng.permuted(tiled, axis=1).ravel()[:size]


def random_bits(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, n), dtype=np.uint8)


@dataclass
class ServePool:
    """Served requests: a kind per entry, its payload and expected answer."""

    kinds: np.ndarray  #: (P,) int8 — SORT / CONCENTRATE / ROUTE
    bits: np.ndarray  #: (P, n) uint8 payload of sort / concentrate entries
    expected: np.ndarray  #: (P, n) uint8 sorted (or reversed-sorted) row
    perms: np.ndarray  #: (n_route, n) int64 permutations of route entries
    perm_slot: np.ndarray  #: (P,) index into ``perms`` (-1 if not a route)

    def __len__(self) -> int:
        return int(self.kinds.size)


def serve_pool(seed: int, mix: Dict[int, int],
               size: int = POOL_MAX) -> ServePool:
    """Pool for a serve workload; ``mix`` gives per-kind counts per block
    (e.g. ``{SORT: 8, CONCENTRATE: 1, ROUTE: 1}``)."""
    n = SERVE_N
    rng = np.random.default_rng([seed, 1])
    kinds = balanced_codes(rng, mix, size)
    bits = random_bits(rng, size, n)
    expected = np.sort(bits, axis=1)
    conc = kinds == CONCENTRATE
    expected[conc] = expected[conc][:, ::-1]
    routes = np.flatnonzero(kinds == ROUTE)
    perms = np.argsort(rng.random((routes.size, n)), axis=1)
    perm_slot = np.full(size, -1, dtype=np.int64)
    perm_slot[routes] = np.arange(routes.size)
    return ServePool(kinds, bits, expected, perms, perm_slot)


def poisson_schedule(seed: int, rate: float, duration_s: float) -> np.ndarray:
    """Arrival offsets (seconds from the start) of a Poisson process."""
    rng = np.random.default_rng([seed, 2])
    expect = int(rate * duration_s)
    gaps = rng.exponential(1.0 / rate, size=expect + 8 * int(expect ** 0.5) + 64)
    times = np.cumsum(gaps)
    return times[times < duration_s]


@dataclass
class LibraryPool:
    """Variable-length rows for ``sort_bits`` / ``Supervisor.sort_verbose``.

    Row ``i`` is ``bits[i, :lengths[i]]``; its sorted form is
    ``lengths[i] - ones[i]`` zeros followed by ``ones[i]`` ones.
    """

    widths: np.ndarray  #: (P,) padded fabric width of each row
    lengths: np.ndarray  #: (P,) row length, uniform in (width/2, width]
    bits: np.ndarray  #: (P, max width) uint8; only ``[:length]`` is used
    ones: np.ndarray  #: (P,) popcount of the used prefix

    def __len__(self) -> int:
        return int(self.widths.size)

    def row(self, i: int) -> np.ndarray:
        return self.bits[i, : self.lengths[i]]


def library_pool(seed: int, size: int = LIBRARY_POOL) -> LibraryPool:
    widths = LIBRARY_WIDTHS
    rng = np.random.default_rng([seed, 3])
    codes = balanced_codes(rng, {i: 1 for i in range(len(widths))}, size)
    w = np.asarray(widths, dtype=np.int64)[codes]
    lengths = rng.integers(w // 2 + 1, w + 1)
    bits = random_bits(rng, size, max(widths))
    bits[np.arange(max(widths))[None, :] >= lengths[:, None]] = 0
    return LibraryPool(w, lengths, bits, bits.sum(axis=1, dtype=np.int64))


def recovery_pool(seed: int, size: int = RECOVERY_POOL) -> LibraryPool:
    """Full-width ``SERVE_N``-bit rows (no padding path) for the recovery
    load."""
    rng = np.random.default_rng([seed, 4])
    bits = random_bits(rng, size, SERVE_N)
    full = np.full(size, SERVE_N, dtype=np.int64)
    return LibraryPool(full, full.copy(), bits,
                       bits.sum(axis=1, dtype=np.int64))


def interleave(flags: np.ndarray) -> np.ndarray:
    """Order that spreads the ``True`` entries of ``flags`` evenly.

    Each class keeps its own order; the result places the ``k``-th of
    ``m`` flagged entries at relative position ``(k + 0.5) / m``, so
    every stretch of the reordered pool holds the pool's overall share
    of flagged entries.
    """
    pos = np.empty(flags.size)
    for cls in (True, False):
        idx = np.flatnonzero(flags == cls)
        pos[idx] = (np.arange(idx.size) + 0.5) / max(idx.size, 1)
    return np.argsort(pos, kind="stable")


#: Probe rows for the recovery workload's fault rule: a fixed seed,
#: independent of ``--seed``, so every run picks the same fault.
PROBE_SEED = 20_240_611
PROBE_ROWS = 512


def probe_rows() -> np.ndarray:
    return random_bits(np.random.default_rng(PROBE_SEED), PROBE_ROWS, SERVE_N)

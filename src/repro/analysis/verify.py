"""Sorting-network verification helpers.

Exhaustive verification exploits the zero-one principle's converse
direction trivially: a *binary* sorter is correct iff it sorts all
``2**n`` binary sequences, which the vectorized simulator checks in one
batched call for n up to ~20.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..circuits.netlist import Netlist
from ..circuits.simulate import exhaustive_inputs, simulate


def verify_sorter_exhaustive(netlist: Netlist, batch_bits: int = 16) -> bool:
    """Check a binary-sorter netlist on every input (n <= ~20).

    Splits the ``2**n`` input batch into chunks of ``2**batch_bits`` rows
    to bound memory.
    """
    n = len(netlist.inputs)
    if n > 22:
        raise ValueError(f"exhaustive check infeasible for n={n}")
    total = 1 << n
    chunk = 1 << min(batch_bits, n)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        batch = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        out = simulate(netlist, batch)
        if not np.array_equal(out, np.sort(batch, axis=1)):
            return False
    return True


def verify_sorter_random(
    sort_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    trials: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Check any callable binary sorter on random inputs."""
    rng = rng or np.random.default_rng(0)
    for _ in range(trials):
        x = rng.integers(0, 2, n).astype(np.uint8)
        out = np.asarray(sort_fn(x))
        if not np.array_equal(out, np.sort(x)):
            return False
    return True


def verify_netlist_random(
    netlist: Netlist, trials: int = 256, rng: Optional[np.random.Generator] = None
) -> bool:
    """Random batched verification for netlists too wide to exhaust."""
    rng = rng or np.random.default_rng(0)
    n = len(netlist.inputs)
    batch = rng.integers(0, 2, size=(trials, n)).astype(np.uint8)
    out = simulate(netlist, batch)
    return bool(np.array_equal(out, np.sort(batch, axis=1)))

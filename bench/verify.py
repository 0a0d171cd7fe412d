"""Correctness gate: every answer is checked against ground truth.

The workload loops append each answer to a :class:`Store` during the timed window
and these functions check the whole store afterwards, so checking costs
nothing inside the window.  Answers made of bits are stored packed
(``np.packbits``), so memory grows by a few bytes per request.  Each
check returns a boolean mask, one entry per stored answer; a ``False``
entry is a wrong answer.

* sort: the row equals ``np.sort`` of the input;
* concentrate: the row equals the reversed ``np.sort`` and ``granted``
  equals the input's popcount;
* route: ``payload[result] == arange(n)``.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from pools import CONCENTRATE, ROUTE, LibraryPool, ServePool

#: Filler for a route answer that is missing: never a valid port.
NO_PORT = 255


class Store:
    """Append-only records in chunks allocated as they fill.

    Each record is a row of ``width`` values of ``dtype`` (or, with
    ``width=None``, one element of a structured ``dtype``).  Appending
    never copies what is already stored.
    """

    def __init__(self, width: Optional[int], dtype, chunk: int = 16_384) -> None:
        self.shape = (chunk,) if width is None else (chunk, width)
        self.dtype = np.dtype(dtype)
        self._chunks: List[np.ndarray] = []
        self.size = 0

    def append(self, value) -> None:
        """Append one record; a row shorter than ``width`` is zero-padded
        and a scalar fills the whole row."""
        k = self.size % self.shape[0]
        if k == 0:
            self._chunks.append(np.zeros(self.shape, self.dtype))
        chunk = self._chunks[-1]
        if chunk.ndim == 1 or np.ndim(value) == 0:
            chunk[k] = value
        else:
            chunk[k, : len(value)] = value
        self.size += 1

    def rows(self) -> np.ndarray:
        if not self._chunks:
            return np.zeros((0,) + self.shape[1:], self.dtype)
        return np.concatenate(self._chunks)[: self.size]


@functools.lru_cache(maxsize=None)
def _high_bits(n: int) -> int:
    return int.from_bytes(b"\xfe" * n, "little")


def pack_bits(row: np.ndarray) -> Optional[np.ndarray]:
    """``np.packbits(row)``, or ``None`` unless ``row`` is a uint8 array
    of 0s and 1s — packing maps every nonzero byte to 1, so only such a
    row packs without losing what the answer said."""
    if row.dtype != np.uint8 or (
            int.from_bytes(row.tobytes(), "little") & _high_bits(row.size)):
        return None
    return np.packbits(row)


def check_serve(pool: ServePool, idx: np.ndarray, packed: np.ndarray,
                routes: np.ndarray, granted: np.ndarray) -> np.ndarray:
    """Check served answers.

    ``idx[j]`` is the pool entry behind answer ``j``; ``packed[j]`` holds
    a sort or concentrate answer as packed bits and ``granted[j]`` the
    concentrate grant count.  ``routes`` holds the route answers, one
    row per route entry of ``idx`` in order.
    """
    idx = np.asarray(idx, dtype=np.int64)
    kinds = pool.kinds[idx]
    route = kinds == ROUTE
    ok = (packed == np.packbits(pool.expected[idx], axis=1)).all(axis=1)
    conc = kinds == CONCENTRATE
    ok[conc] &= granted[conc] == pool.bits[idx[conc]].sum(axis=1)
    if route.any():
        perms = pool.perms[pool.perm_slot[idx[route]]]
        res = routes.astype(np.int64)
        n = perms.shape[1]
        in_range = (res < n).all(axis=1)
        routed = np.take_along_axis(perms, np.minimum(res, n - 1), axis=1)
        ok[route] = in_range & (routed == np.arange(n)).all(axis=1)
    return ok


def check_sorted(pool: LibraryPool, idx: np.ndarray,
                 packed: np.ndarray) -> np.ndarray:
    """Check ``sort_bits``-style answers; ``packed[j]`` holds the answer
    for pool row ``idx[j]`` as packed bits (zero past its length)."""
    idx = np.asarray(idx, dtype=np.int64)
    lengths = pool.lengths[idx]
    cols = np.arange(packed.shape[1] * 8)[None, :]
    expected = (cols < lengths[:, None]) & (
        cols >= (lengths - pool.ones[idx])[:, None])
    return (packed == np.packbits(expected, axis=1)).all(axis=1)

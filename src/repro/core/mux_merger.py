"""Network 2 — the mux-merger binary sorter (Section III-B, Fig. 6, Table I).

A *mux-merger* merges a bisorted sequence (Definition 3).  By Theorem 3,
cutting a bisorted sequence into quarters leaves at least two quarters
clean, and the other two concatenate to a bisorted sequence of half the
size.  Which case holds is identified by the two "middle bits" — the
uppermost elements of quarters 2 and 4 (wires ``n/4`` and ``3n/4``):

====  ===========================  =====================================
sel   clean quarters               sorted output layout
====  ===========================  =====================================
00    q1 = 0...0,  q3 = 0...0      q1, q3, merge(q2 ++ q4)
01    q1 = 0...0,  q4 = 1...1      q1, merge(q2 ++ q3), q4
10    q2 = 1...1,  q3 = 0...0      q3, merge(q1 ++ q4), q2
11    q2 = 1...1,  q4 = 1...1      merge(q1 ++ q3), q2, q4
====  ===========================  =====================================

The IN-SWAP four-way swapper moves the two non-clean quarters into the
*bottom* two positions, which feed a recursive half-size mux-merger; the
OUT-SWAP then places the clean quarters and the merged half in sorted
order.  In the paper's cycle notation over quarter positions, our derived
settings are:

====  =========  ==========
sel   IN-SWAP    OUT-SWAP
====  =========  ==========
00    (1)(23)(4) (1)(2)(3)(4)
01    (1)(234)   (1)(243)
10    (13)(2)(4) (1)(243)
11    (134)(2)   (13)(24)
====  =========  ==========

These are verified exhaustively by the test-suite (the printed Table I in
the available scan of the paper is partially garbled; any assignment that
(a) feeds the merger a bisorted pair and (b) lets OUT-SWAP emit sorted
output is equivalent — see ``tests/test_mux_merger.py`` for the
middle-attached alternative).

Cost/depth: each merger level spends two n-input four-way swappers
(cost ``2n``, depth 2), giving ``C_m(n) = 4n`` and ``D_m(n) = 2 lg n``;
the full sorter satisfies ``C(n) = 2C(n/2) + 4n = 4n lg n`` with depth
``O(lg^2 n)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist
from ..components.swappers import four_way_swapper

#: ``PERMS[sel][out_quarter] = in_quarter`` (0-indexed), sel = 2*hi + lo.
#: IN-SWAP: route the bisorted pair to the bottom half (positions 3, 4).
IN_SWAP_PERMS: Tuple[Tuple[int, int, int, int], ...] = (
    (0, 2, 1, 3),  # 00: [q1, q3, q2, q4]
    (0, 3, 1, 2),  # 01: [q1, q4, q2, q3]
    (2, 1, 0, 3),  # 10: [q3, q2, q1, q4]
    (3, 1, 0, 2),  # 11: [q4, q2, q1, q3]
)

#: OUT-SWAP: place [bypass1, bypass2, merged_hi, merged_lo] in sorted order.
OUT_SWAP_PERMS: Tuple[Tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),  # 00: already sorted
    (0, 2, 3, 1),  # 01: [q1, m1, m2, q4]
    (0, 2, 3, 1),  # 10: [q3, m1, m2, q2]
    (2, 3, 0, 1),  # 11: [m1, m2, q2, q4]
)


def mux_merger(
    b: CircuitBuilder,
    wires: Sequence[int],
    in_perms: Tuple[Tuple[int, int, int, int], ...] = IN_SWAP_PERMS,
    out_perms: Tuple[Tuple[int, int, int, int], ...] = OUT_SWAP_PERMS,
) -> List[int]:
    """Build a mux-merger over a bisorted input; returns sorted wires.

    ``in_perms``/``out_perms`` default to the derived Table I settings;
    they are parameters so tests can check that every assignment
    satisfying the case analysis is equivalent.  Every recursive
    instance with two or more inputs is recorded as a ``"mux_merger"``
    block.
    """
    n = len(wires)
    if n == 1:
        return list(wires)
    if n > 2 and n % 4:
        raise ValueError(f"mux-merger needs n divisible by 4, got {n}")
    with b.block("mux_merger", wires) as blk:
        if n == 2:
            blk.outputs = list(b.comparator(wires[0], wires[1]))
        else:
            sel_hi = wires[n // 4]
            sel_lo = wires[3 * n // 4]
            # The middle bits double as data and steering; tag them
            # explicitly (the four-way swappers also auto-tag them via
            # their select ports).
            b.tag_control(sel_hi, sel_lo)
            staged = four_way_swapper(b, wires, sel_hi, sel_lo, in_perms)
            merged = mux_merger(b, staged[n // 2 :], in_perms, out_perms)
            blk.outputs = four_way_swapper(
                b, list(staged[: n // 2]) + merged, sel_hi, sel_lo, out_perms
            )
    return blk.outputs


def mux_merger_sorter(b: CircuitBuilder, wires: Sequence[int]) -> List[int]:
    """Build Network 2: recursively bisort, then mux-merge.

    Every recursive instance with two or more inputs is recorded as a
    ``"mux_merger_sorter"`` block.
    """
    n = len(wires)
    if n == 1:
        return list(wires)
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    with b.block("mux_merger_sorter", wires) as blk:
        if n == 2:
            blk.outputs = list(b.comparator(wires[0], wires[1]))
        else:
            upper = mux_merger_sorter(b, wires[: n // 2])
            lower = mux_merger_sorter(b, wires[n // 2 :])
            blk.outputs = mux_merger(b, upper + lower)
    return blk.outputs


def build_mux_merger(
    n: int,
    in_perms: Tuple[Tuple[int, int, int, int], ...] = IN_SWAP_PERMS,
    out_perms: Tuple[Tuple[int, int, int, int], ...] = OUT_SWAP_PERMS,
) -> Netlist:
    """Standalone mux-merger netlist (expects a bisorted input)."""
    b = CircuitBuilder(f"mux-merger-{n}")
    wires = b.add_inputs(n)
    return b.build(mux_merger(b, wires, in_perms, out_perms))


def build_mux_merger_sorter(n: int) -> Netlist:
    """Standalone Network 2 netlist for ``n`` inputs."""
    b = CircuitBuilder(f"mux-merger-sorter-{n}")
    wires = b.add_inputs(n)
    return b.build(mux_merger_sorter(b, wires))


# -- behavioral (oracle) versions ---------------------------------------------


def classify_bisorted(bits: np.ndarray) -> int:
    """Return the 2-bit select value of a bisorted sequence (Table I)."""
    n = bits.size
    return int((bits[n // 4] << 1) | bits[3 * n // 4])


def mux_merge_behavioral(bits: np.ndarray) -> np.ndarray:
    """NumPy oracle mirroring the mux-merger recursion (Table I cases)."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    if n <= 1:
        return bits.copy()
    if n == 2:
        return np.sort(bits)
    q = n // 4
    q1, q2, q3, q4 = (bits[i * q : (i + 1) * q] for i in range(4))
    sel = classify_bisorted(bits)
    if sel == 0:
        return np.concatenate([q1, q3, mux_merge_behavioral(np.concatenate([q2, q4]))])
    if sel == 1:
        return np.concatenate([q1, mux_merge_behavioral(np.concatenate([q2, q3])), q4])
    if sel == 2:
        return np.concatenate([q3, mux_merge_behavioral(np.concatenate([q1, q4])), q2])
    return np.concatenate([mux_merge_behavioral(np.concatenate([q1, q3])), q2, q4])


def mux_merger_sort_behavioral(bits) -> np.ndarray:
    """NumPy oracle of the full Network 2 recursion."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    if n <= 2:
        return np.sort(bits)
    half = n // 2
    upper = mux_merger_sort_behavioral(bits[:half])
    lower = mux_merger_sort_behavioral(bits[half:])
    return mux_merge_behavioral(np.concatenate([upper, lower]))

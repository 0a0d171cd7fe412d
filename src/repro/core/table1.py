"""Programmatic derivation of Table I (mux-merger swap settings).

The printed Table I in the available scan of the paper is partially
garbled, so :mod:`repro.core.mux_merger` documents a hand derivation.
This module *searches* the full space of four-way-swapper settings and
returns every assignment that realizes the merger, making the derivation
checkable rather than asserted:

* for each select case, the IN-SWAP must put the two non-clean quarters
  (in either order) into the bottom two slots, and the two clean
  quarters (in either order) into the top two slots — 4 candidate
  permutations per case;
* given an IN choice, the OUT-SWAP is *determined* by where the final
  layout needs each quarter, except that identical clean quarters
  (cases 00 and 11) may also swap with each other — so 1 or 2 candidates.

Every combination is then verified exhaustively against all bisorted
inputs at n = 16.  The shipped tables are asserted to be members of the
valid set (see ``tests/test_table1_derivation.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..circuits.simulate import simulate
from .mux_merger import build_mux_merger
from .sequences import enumerate_bisorted, sorts_rows

Perm = Tuple[int, int, int, int]

#: per select case: (clean quarter indices, pair quarter indices, final
#: layout as a list of slots: "c0"/"c1" = clean quarters in input order,
#: "m0"/"m1" = merged halves)
CASES: Dict[int, Tuple[Tuple[int, int], Tuple[int, int], List[str]]] = {
    0: ((0, 2), (1, 3), ["c0", "c1", "m0", "m1"]),  # zeros first
    1: ((0, 3), (1, 2), ["c0", "m0", "m1", "c1"]),
    2: ((2, 1), (0, 3), ["c0", "m0", "m1", "c1"]),  # c0 = q3 (zeros)
    3: ((1, 3), (0, 2), ["m0", "m1", "c0", "c1"]),
}


def candidate_in_perms(sel: int) -> List[Perm]:
    """IN-SWAP candidates: clean quarters on top, the pair at the bottom."""
    clean, pair, _ = CASES[sel]
    out: List[Perm] = []
    for top in itertools.permutations(clean):
        for bottom in itertools.permutations(pair):
            out.append((top[0], top[1], bottom[0], bottom[1]))
    return out


def matching_out_perms(sel: int, in_perm: Perm) -> List[Perm]:
    """OUT-SWAP candidates completing ``in_perm`` to the sorted layout.

    The OUT swapper sees [bypass0, bypass1, m0, m1] (the IN result with
    the bottom half merged) and must emit the case's final layout.  The
    merged halves are ordered (m0 then m1); clean quarters with *equal
    contents* are interchangeable.
    """
    clean, _, layout = CASES[sel]
    # where each symbolic item currently sits after the merge
    position_of = {"m0": 2, "m1": 3}
    # bypass slots hold the clean quarters in in_perm order
    bypass = [in_perm[0], in_perm[1]]
    # symbolic names: c0/c1 = clean quarters in CASES order
    for i, name in enumerate(("c0", "c1")):
        q = clean[i]
        position_of[name] = bypass.index(q)
    variants = [position_of]
    if sel in (0, 3):  # both clean quarters identical: swappable
        swapped = dict(position_of)
        swapped["c0"], swapped["c1"] = position_of["c1"], position_of["c0"]
        variants.append(swapped)
    out: List[Perm] = []
    for pos in variants:
        perm = tuple(pos[layout[slot]] for slot in range(4))
        if perm not in out:
            out.append(perm)  # type: ignore[arg-type]
    return out  # type: ignore[return-value]


@dataclass(frozen=True)
class Table1Assignment:
    """One complete, verified Table I setting."""

    in_perms: Tuple[Perm, Perm, Perm, Perm]
    out_perms: Tuple[Perm, Perm, Perm, Perm]


def _verify(in_perms, out_perms, n: int = 16) -> bool:
    net = build_mux_merger(n, tuple(in_perms), tuple(out_perms))
    x = np.stack(list(enumerate_bisorted(n)))
    return bool(sorts_rows(x, simulate(net, x)).all())


def derive_table1(verify_n: int = 16, max_results: int = 64) -> List[Table1Assignment]:
    """Search and exhaustively verify all Table I assignments.

    Per-case candidates multiply to ``prod(|IN_c| * |OUT_c|)``
    combinations; all structurally consistent ones are verified by
    simulation over every bisorted input of length ``verify_n``.
    """
    per_case: List[List[Tuple[Perm, Perm]]] = []
    for sel in range(4):
        options = []
        for ip in candidate_in_perms(sel):
            for op in matching_out_perms(sel, ip):
                options.append((ip, op))
        per_case.append(options)
    results: List[Table1Assignment] = []
    for combo in itertools.product(*per_case):
        in_perms = tuple(c[0] for c in combo)
        out_perms = tuple(c[1] for c in combo)
        if _verify(in_perms, out_perms, verify_n):
            results.append(Table1Assignment(in_perms, out_perms))
            if len(results) >= max_results:
                break
    return results

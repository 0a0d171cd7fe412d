"""Network 1 — the prefix binary sorter (Section III-A, Fig. 5).

Recursive structure over ``n`` inputs:

1. sort each half recursively (each recursive sorter also emits the
   ones-count of its inputs);
2. add the two half counts with a prefix adder — this is the "lg n-bit
   prefix adder that gives the count of the number of 1's in the entire
   input sequence ... by recursively adding the numbers of 1's in the two
   half-size input sequences";
3. two-way shuffle the concatenation of the sorted halves — by Theorem 1
   the result is in ``A_n``;
4. sort the ``A_n`` member with the patch-up network steered by the count
   (:mod:`repro.core.patchup`).

Paper claims: cost ``3n lg n + O(lg^2 n)``, depth
``3 lg^2 n + 2 lg n lg lg n``.  Our adders are real gate-level circuits
(Kogge–Stone by default, ripple-carry for the ablation), so measured
constants differ slightly from the paper's idealized ``3 lg n``-cost
adder; EXPERIMENTS.md reports both.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.builder import CircuitBuilder
from ..circuits.netlist import Netlist
from ..components.prefix_adder import add_counts, half_adder_count
from ..components.shuffle import two_way_shuffle
from .patchup import patchup_behavioral, patchup_network
from .sequences import shuffle_concat


def prefix_sorter(
    b: CircuitBuilder, wires: Sequence[int], adder: str = "prefix"
) -> Tuple[List[int], List[int]]:
    """Build Network 1 over ``wires``.

    Returns ``(sorted_wires, count_bits)`` where ``count_bits`` is the
    ones-count of the inputs, LSB first, ``lg n + 1`` bits wide.  Every
    recursive instance with two or more inputs is recorded as a
    ``"prefix_sorter"`` block whose outputs are the sorted wires
    followed by the count bits.
    """
    n = len(wires)
    if n == 1:
        # count of a single bit is the bit itself
        return list(wires), [wires[0]]
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    with b.block("prefix_sorter", wires) as blk:
        if n == 2:
            lo, hi = b.comparator(wires[0], wires[1])
            out, count = [lo, hi], half_adder_count(b, wires[0], wires[1])
        else:
            half = n // 2
            upper, cu = prefix_sorter(b, wires[:half], adder=adder)
            lower, cl = prefix_sorter(b, wires[half:], adder=adder)
            count = add_counts(b, cu, cl, adder=adder)
            shuffled = two_way_shuffle(upper + lower)
            out = patchup_network(b, shuffled, count)
        blk.outputs = out + count
    return out, count


def build_prefix_sorter(
    n: int, adder: str = "prefix", emit_count: bool = False
) -> Netlist:
    """Standalone Network 1 netlist for ``n`` inputs.

    With ``emit_count`` the ones-count bits are appended to the outputs
    (useful to applications that want the concentrator's request count
    for free).
    """
    b = CircuitBuilder(f"prefix-sorter-{n}")
    wires = b.add_inputs(n)
    sorted_wires, count = prefix_sorter(b, wires, adder=adder)
    outputs = sorted_wires + (count if emit_count else [])
    return b.build(outputs)


def prefix_sort_behavioral(bits) -> np.ndarray:
    """NumPy oracle mirroring the Network 1 recursion step by step."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    if n <= 1:
        return bits.copy()
    if n == 2:
        return np.sort(bits)
    half = n // 2
    upper = prefix_sort_behavioral(bits[:half])
    lower = prefix_sort_behavioral(bits[half:])
    shuffled = shuffle_concat(upper, lower)
    return patchup_behavioral(shuffled)

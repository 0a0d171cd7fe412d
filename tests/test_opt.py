"""Unit tests for the optimizers: netlist dead pruning
(:func:`prune_dead`) and the bit-level folding the JIT does while
lowering."""

import numpy as np
import pytest

from repro.baselines.columnsort import build_columnsort_network
from repro.baselines.muller_preparata import build_muller_preparata_sorter
from repro.circuits import (
    CircuitBuilder,
    exhaustive_inputs,
    jit,
    prune_dead,
    simulate,
)
from repro.core import build_mux_merger_sorter, build_prefix_sorter


def _same_behavior(a, b, n=None):
    n = n or len(a.inputs)
    if n <= 14:
        inp = exhaustive_inputs(n)
    else:
        inp = np.random.default_rng(0).integers(0, 2, (200, n)).astype(np.uint8)
    return np.array_equal(simulate(a, inp), simulate(b, inp))


class TestPruneDead:
    def test_removes_dangling_logic(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        out = b.and_(x, y)
        _dead = b.xor(b.or_(x, y), y)
        net = b.build([out])
        pruned = prune_dead(net)
        assert pruned.cost() == 1
        assert _same_behavior(net, pruned)

    def test_keeps_everything_live(self):
        net = build_mux_merger_sorter(8)
        assert prune_dead(net).cost() == net.cost()

    def test_transitive_deadness(self):
        b = CircuitBuilder()
        x = b.add_input()
        d1 = b.not_(x)
        d2 = b.not_(d1)  # chain feeding nothing
        net = b.build([b.buf(x)])
        assert prune_dead(net).cost() == 0


class TestFoldConstants:
    """Constants fold while :func:`jit.lower` emits the bit program;
    dead-code elimination then drops what folding orphaned."""

    @staticmethod
    def _ops(net):
        return jit.eliminate_dead(jit.lower(net)).n_ops

    @staticmethod
    def _run(net, rows):
        return jit.compile_jit(net).execute(
            np.array(rows, dtype=np.uint8)).tolist()

    def test_and_with_zero(self):
        b = CircuitBuilder()
        x = b.add_input()
        net = b.build([b.and_(x, b.const(0))])
        assert self._ops(net) == 0
        assert self._run(net, [[1]]) == [[0]]

    def test_or_with_zero_aliases(self):
        b = CircuitBuilder()
        x = b.add_input()
        net = b.build([b.or_(x, b.const(0))])
        assert self._ops(net) == 0
        assert self._run(net, [[1]]) == [[1]]

    def test_xor_with_one_becomes_not(self):
        b = CircuitBuilder()
        x = b.add_input()
        net = b.build([b.xor(x, b.const(1))])
        assert jit.lower(net).nodes[-1] == ("XOR", 1, 2)  # NOT x
        assert self._ops(net) == 1
        assert self._run(net, [[1]]) == [[0]]

    def test_self_input_gates(self):
        b = CircuitBuilder()
        x = b.add_input()
        net = b.build([b.and_(x, x), b.xor(x, x), b.xnor(x, x)])
        assert self._ops(net) == 0
        assert self._run(net, [[1]]) == [[1, 0, 1]]
        assert self._run(net, [[0]]) == [[0, 0, 1]]

    def test_comparator_with_constant(self):
        b = CircuitBuilder()
        x = b.add_input()
        lo, hi = b.comparator(x, b.const(1))
        net = b.build([lo, hi])
        assert self._ops(net) == 0
        assert self._run(net, [[0]]) == [[0, 1]]
        assert self._run(net, [[1]]) == [[1, 1]]

    def test_switch_with_constant_control(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        o = b.switch2(x, y, b.const(1))
        net = b.build(list(o))
        assert self._ops(net) == 0
        assert self._run(net, [[1, 0]]) == [[0, 1]]

    def test_mux_demux_with_constant_select(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        m = b.mux2(x, y, b.const(0))
        d0, d1 = b.demux2(x, b.const(1))
        net = b.build([m, d0, d1])
        # the mux's XOR is emitted before its select folds, then swept
        assert jit.lower(net).n_ops == 1
        assert self._ops(net) == 0
        assert self._run(net, [[1, 0]]) == [[1, 0, 1]]

    def test_cascade_folds_through(self):
        b = CircuitBuilder()
        x = b.add_input()
        k = b.and_(b.const(1), b.const(1))  # folds to 1
        net = b.build([b.and_(x, k)])
        assert self._ops(net) == 0


class TestOptimize:
    @pytest.mark.parametrize(
        "builder", [build_mux_merger_sorter, build_prefix_sorter,
                    build_muller_preparata_sorter, build_columnsort_network]
    )
    def test_behavior_preserved(self, builder):
        net = builder(8)
        pruned = prune_dead(net)
        assert _same_behavior(net, pruned)
        assert pruned.cost() <= net.cost()

    def test_trims_mp_decoder_dead_slots(self):
        net = build_muller_preparata_sorter(16)
        assert (net.cost(), prune_dead(net).cost()) == (139, 124)

    def test_trims_columnsort_pad_comparators(self):
        net = build_columnsort_network(16)
        assert (net.cost(), prune_dead(net).cost()) == (171, 169)

    def test_idempotent(self):
        once = prune_dead(build_muller_preparata_sorter(8))
        assert prune_dead(once).elements == once.elements

    def test_tight_networks_untouched(self):
        """A mux-merger sorter has no dead logic at either level."""
        net = build_mux_merger_sorter(16)
        assert prune_dead(net).cost() == net.cost()
        assert jit.compile_jit(net).stats["removed"] == 0

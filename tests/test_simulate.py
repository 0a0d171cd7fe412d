"""Unit tests for the vectorized and payload-carrying interpreters."""

import numpy as np
import pytest

from repro.circuits import (
    NO_PAYLOAD,
    CircuitBuilder,
    exhaustive_inputs,
    simulate,
    simulate_payload,
)
from repro.circuits.simulate import simulate_engine, simulate_jit
from repro.errors import SimulationError


def _comparator_net():
    b = CircuitBuilder()
    x, y = b.add_inputs(2)
    lo, hi = b.comparator(x, y)
    return b.build([lo, hi])


class TestSimulate:
    def test_single_vector_promoted_to_batch(self):
        net = _comparator_net()
        assert simulate(net, [1, 0]).shape == (1, 2)

    def test_batch_shape(self):
        net = _comparator_net()
        out = simulate(net, exhaustive_inputs(2))
        assert out.shape == (4, 2)
        assert out.dtype == np.uint8

    def test_comparator_truth_table(self):
        net = _comparator_net()
        out = simulate(net, exhaustive_inputs(2))
        assert out.tolist() == [[0, 0], [0, 1], [0, 1], [1, 1]]

    def test_wrong_width_rejected(self):
        net = _comparator_net()
        with pytest.raises(ValueError, match="expected 2 inputs"):
            simulate(net, [[1, 0, 1]])

    def test_3d_input_rejected(self):
        net = _comparator_net()
        with pytest.raises(ValueError, match="1-D or 2-D"):
            simulate(net, np.zeros((2, 2, 2), dtype=np.uint8))

    @pytest.mark.parametrize("run", [simulate, simulate_jit, simulate_engine])
    def test_non_binary_uint8_rejected(self, run):
        """Contiguous uint8 input is range-checked like any other batch
        (the backends would otherwise return different garbage)."""
        net = _comparator_net()
        with pytest.raises(SimulationError, match="0/1"):
            run(net, np.array([[2, 0]], dtype=np.uint8))
        with pytest.raises(SimulationError, match="0/1"):
            run(net, np.full((70, 2), 3, dtype=np.uint8))  # packed path

    def test_demux_unselected_output_zero(self):
        b = CircuitBuilder()
        x, s = b.add_inputs(2)
        o0, o1 = b.demux2(x, s)
        net = b.build([o0, o1])
        assert simulate(net, [[1, 0]]).tolist() == [[1, 0]]
        assert simulate(net, [[1, 1]]).tolist() == [[0, 1]]


class TestExhaustiveInputs:
    def test_rows_are_binary_expansions(self):
        got = exhaustive_inputs(3)
        assert got.shape == (8, 3)
        assert got[5].tolist() == [1, 0, 1]

    def test_lexicographic_order(self):
        got = exhaustive_inputs(2)
        assert got.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_n_zero(self):
        assert exhaustive_inputs(0).shape == (1, 0)

    def test_refuses_huge_n(self):
        with pytest.raises(ValueError):
            exhaustive_inputs(25)


class TestPayloadSimulation:
    def test_comparator_swaps_payloads_when_unordered(self):
        net = _comparator_net()
        t, p = simulate_payload(net, [[1, 0]], [[7, 8]])
        assert t.tolist() == [[0, 1]]
        assert p.tolist() == [[8, 7]]

    def test_comparator_ties_pass_straight(self):
        net = _comparator_net()
        for bits in ([0, 0], [1, 1]):
            t, p = simulate_payload(net, [bits], [[7, 8]])
            assert p.tolist() == [[7, 8]]

    def test_ordered_pair_passes_straight(self):
        net = _comparator_net()
        t, p = simulate_payload(net, [[0, 1]], [[7, 8]])
        assert p.tolist() == [[7, 8]]

    def test_switch2_routes_payloads(self):
        b = CircuitBuilder()
        x, y, c = b.add_inputs(3)
        o = b.switch2(x, y, c)
        net = b.build(list(o))
        t, p = simulate_payload(net, [[1, 0, 1]], [[5, 6, -1]])
        assert p.tolist() == [[6, 5]]

    def test_gate_output_has_no_payload(self):
        b = CircuitBuilder()
        x, y = b.add_inputs(2)
        net = b.build([b.and_(x, y)])
        t, p = simulate_payload(net, [[1, 1]], [[5, 6]])
        assert p.tolist() == [[NO_PAYLOAD]]

    def test_demux_unselected_branch_idle_payload(self):
        b = CircuitBuilder()
        x, s = b.add_inputs(2)
        o0, o1 = b.demux2(x, s)
        net = b.build([o0, o1])
        t, p = simulate_payload(net, [[1, 0]], [[9, -1]])
        assert p.tolist() == [[9, NO_PAYLOAD]]

    def test_switch4_routes_payloads(self):
        perms = ((0, 1, 2, 3),) * 3 + ((3, 2, 1, 0),)
        b = CircuitBuilder()
        data = b.add_inputs(4)
        s1, s0 = b.add_inputs(2)
        net = b.build(list(b.switch4(data, s1, s0, perms)))
        t, p = simulate_payload(
            net, [[0, 1, 0, 1, 1, 1]], [[10, 11, 12, 13, -1, -1]]
        )
        assert p.tolist() == [[13, 12, 11, 10]]

    def test_shape_mismatch_rejected(self):
        net = _comparator_net()
        with pytest.raises(ValueError, match="same shape"):
            simulate_payload(net, [[1, 0]], [[1, 2, 3]])

    def test_payload_multiset_preserved_through_sorter(self, rng):
        from repro.core import build_mux_merger_sorter

        net = build_mux_merger_sorter(16)
        tags = rng.integers(0, 2, (32, 16)).astype(np.uint8)
        pays = np.tile(np.arange(16, dtype=np.int64), (32, 1))
        t, p = simulate_payload(net, tags, pays)
        for row_t, row_p, row_in in zip(t, p, tags):
            assert sorted(row_p.tolist()) == list(range(16))
            # each payload keeps its tag
            for tag, pay in zip(row_t, row_p):
                assert tag == row_in[pay]

"""Unit tests for the fault-model layer and its supporting machinery.

Covers :mod:`repro.circuits.faults` (application semantics, enumeration,
deterministic sampling), the builder's control-wire tagging, strict
netlist validation, engine wire taps, Model-B transient glitches, the
resilience classifier, and the serialize-cache staleness fix.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis.resilience import (
    DETECTED,
    MASKED,
    SILENT,
    classify,
    damage_metrics,
    format_resilience_table,
    monotone_rows,
    ones_displacement,
    row_inversions,
    summarize,
)
from repro.circuits import (
    CircuitBuilder,
    ControlInvert,
    Netlist,
    OutputSwap,
    PipelinedNetlist,
    StuckAt,
    TransientFlip,
    apply_fault,
    apply_faults,
    control_wires,
    enumerate_faults,
    exhaustive_inputs,
    fault_set_id,
    get_plan,
    k_fault_sets,
    prune_dead,
    sample_faults,
    simulate,
)
from repro.circuits.faults import derived_control_wires, driven_wires
from repro.circuits.simulate import simulate_interpreted
from repro.core import build_mux_merger_sorter, build_prefix_sorter


def _tiny_sorter4() -> Netlist:
    """A 4-input sorter with a SWITCH2 so control tagging is exercised."""
    b = CircuitBuilder("tiny4")
    w = b.add_inputs(4)
    a0, a1 = b.comparator(w[0], w[1])
    b0, b1 = b.comparator(w[2], w[3])
    lo0, lo1 = b.comparator(a0, b0)
    hi0, hi1 = b.comparator(a1, b1)
    m0, m1 = b.comparator(lo1, hi0)
    return b.build([lo0, m0, m1, hi1])


class TestFaultApplication:
    def test_stuck_at_rewires_readers_and_outputs(self):
        net = _tiny_sorter4()
        w = net.elements[0].outs[0]  # first comparator's min output
        for v in (0, 1):
            mut = apply_fault(net, StuckAt(w, v))
            mut.validate(strict=True)
            assert mut.n_wires == net.n_wires + 1
            # nothing reads the original wire any more
            assert all(w not in e.ins for e in mut.elements)
            assert w not in mut.outputs
            assert mut.constants[net.n_wires] == v

    def test_stuck_input_wire_forces_constant_output_column(self):
        net = _tiny_sorter4()
        mut = apply_fault(net, StuckAt(net.inputs[0], 1))
        out = simulate(mut, exhaustive_inputs(4))
        assert (out.sum(axis=1) >= 1).all()  # the stuck 1 always present

    def test_output_swap_reverses_and_rejects_gates(self):
        net = _tiny_sorter4()
        mut = apply_fault(net, OutputSwap(0))
        assert mut.elements[0].outs == tuple(reversed(net.elements[0].outs))
        b = CircuitBuilder("gate")
        x, y = b.add_inputs(2)
        gnet = b.build([b.and_(x, y)])
        with pytest.raises(ValueError, match="not a routing element"):
            apply_fault(gnet, OutputSwap(0))

    def test_control_invert_splices_not_after_driver(self):
        net = _tiny_sorter4()
        w = net.elements[0].outs[1]
        mut = apply_fault(net, ControlInvert(w))
        mut.validate(strict=True)
        assert len(mut.elements) == len(net.elements) + 1
        # behavior: inverted wire flips downstream min/max of that path
        assert not np.array_equal(
            simulate(mut, exhaustive_inputs(4)), simulate(net, exhaustive_inputs(4))
        )

    def test_original_netlist_never_modified(self):
        net = _tiny_sorter4()
        before = (tuple(net.elements), net.n_wires, tuple(net.outputs))
        apply_faults(net, [OutputSwap(0), StuckAt(0, 1), ControlInvert(1)])
        assert (tuple(net.elements), net.n_wires, tuple(net.outputs)) == before

    def test_multi_fault_swap_indices_refer_to_original_elements(self):
        # ControlInvert inserts an element; OutputSwap(4) must still hit
        # the original element #4 because swaps are applied first.
        net = _tiny_sorter4()
        mut = apply_faults(net, [ControlInvert(net.elements[0].outs[0]), OutputSwap(4)])
        mut.validate(strict=True)
        swapped = [
            e for e in mut.elements
            if e.outs == tuple(reversed(net.elements[4].outs))
        ]
        assert swapped

    def test_engine_interpreter_agree_on_every_single_fault(self):
        net = _tiny_sorter4()
        X = exhaustive_inputs(4)
        for f in enumerate_faults(net, kinds=("stuck", "swap", "control")):
            mut = apply_fault(net, f)
            assert np.array_equal(
                simulate(mut, X), simulate_interpreted(mut, X)
            ), f.id


class TestEnumerationAndSampling:
    def test_universe_contents(self):
        net = _tiny_sorter4()
        uni = enumerate_faults(net)
        stuck = [f for f in uni if isinstance(f, StuckAt)]
        swaps = [f for f in uni if isinstance(f, OutputSwap)]
        assert len(stuck) == 2 * len(driven_wires(net))
        assert len(swaps) == 5  # every comparator
        trans = enumerate_faults(net, kinds=("transient",), cycles=[0, 1])
        assert len(trans) == 2 * len(driven_wires(net))  # no constants here
        with pytest.raises(ValueError, match="cycles"):
            enumerate_faults(net, kinds=("transient",))

    def test_sampling_is_deterministic_and_capped(self):
        net = build_prefix_sorter(8)
        uni = enumerate_faults(net)
        s1 = sample_faults(uni, 10, seed=7)
        s2 = sample_faults(uni, 10, seed=7)
        assert s1 == s2 and len(s1) == 10
        assert sample_faults(uni, 10, seed=8) != s1
        assert sample_faults(uni, 10 ** 6, seed=7) == list(uni)

    def test_k_fault_sets(self):
        net = _tiny_sorter4()
        uni = enumerate_faults(net, kinds=("swap",))
        full = k_fault_sets(uni, 2)
        assert len(full) == 10  # C(5, 2)
        capped = k_fault_sets(uni, 2, limit=4, seed=3)
        assert len(capped) == 4 == len(set(capped))
        assert capped == k_fault_sets(uni, 2, limit=4, seed=3)

    def test_fault_set_id_stable(self):
        assert fault_set_id(StuckAt(3, 1)) == "stuck@w3=1"
        assert (
            fault_set_id([OutputSwap(2), TransientFlip(1, 4)])
            == "swap@e2+flip@w1@t4"
        )


class TestControlWireTagging:
    def test_builder_auto_tags_switch_controls(self):
        b = CircuitBuilder("sw")
        x, y = b.add_inputs(2)
        c = b.add_input()
        net = b.build(list(b.switch2(x, y, c)))
        assert c in net.control_wires
        assert derived_control_wires(net) == {c}

    def test_explicit_tags_union_with_derived(self):
        b = CircuitBuilder("t")
        x, y = b.add_inputs(2)
        b.tag_control(y)
        net = b.build([b.and_(x, y)])
        assert control_wires(net) == {y}
        with pytest.raises(ValueError):
            b.tag_control(99)

    def test_core_builders_tag_steering(self):
        for builder in (build_prefix_sorter, build_mux_merger_sorter):
            net = builder(8)
            assert net.control_wires, builder.__name__
            net.validate(strict=True)

    def test_optimize_preserves_control_tags(self):
        net = build_prefix_sorter(8)
        assert prune_dead(net).control_wires == net.control_wires


class TestStrictValidate:
    """Construction validates eagerly, so broken netlists are forged by
    mutating ``elements`` in place — exactly the hand-editing scenario
    ``validate(strict=True)`` exists to debug."""

    @staticmethod
    def _valid_pair() -> Netlist:
        from repro.circuits.elements import Element

        return Netlist(
            4,
            [Element("NOT", (0,), (2,), None), Element("NOT", (2,), (3,), None)],
            [0, 1],
            [3],
            {},
        )

    def test_undriven_read_names_element(self):
        from repro.circuits.elements import Element

        net = self._valid_pair()
        net.elements[0] = Element("AND", (0, 1), (2,), None)
        net.elements[1] = Element("AND", (2, 9), (3,), None)
        with pytest.raises(ValueError, match=r"element #1 \(AND\) reads wire 9"):
            net.validate()

    def test_strict_collects_all_problems(self):
        from repro.circuits.elements import Element

        net = self._valid_pair()
        net.elements[0] = Element("NOT", (5,), (2,), None)   # out-of-range read
        net.elements[1] = Element("NOT", (0,), (1,), None)   # redrives input 1
        with pytest.raises(ValueError) as err:
            net.validate(strict=True)
        msg = str(err.value)
        # all three collected: bad read, duplicate driver, and the output
        # left undriven by the rewired element #1
        assert "out of range" in msg
        assert "multiple drivers" in msg
        assert "undriven" in msg
        assert "3 validation problem" in msg

    def test_strict_distinguishes_out_of_order_from_floating(self):
        net = self._valid_pair()
        net.elements.reverse()  # element reads wire 2 before its driver
        with pytest.raises(ValueError, match="before its driver"):
            net.validate(strict=True)

    def test_strict_checks_control_wire_range(self):
        net = self._valid_pair()
        net.control_wires = frozenset({99})
        with pytest.raises(ValueError, match="control wire"):
            net.validate(strict=True)


class TestEngineTaps:
    def test_taps_match_rewired_outputs(self):
        net = build_prefix_sorter(8)
        taps = sorted(control_wires(net))
        X = exhaustive_inputs(8)
        out, tapped = get_plan(net).execute(X, taps=taps)
        # ground truth: the same netlist with outputs = tapped wires
        probe = Netlist(
            net.n_wires, net.elements, net.inputs, taps, net.constants,
            name="probe", control_wires=net.control_wires,
        )
        assert np.array_equal(tapped, simulate_interpreted(probe, X))
        assert np.array_equal(out, np.sort(X, axis=1))

    def test_packed_and_unpacked_taps_agree(self):
        net = build_mux_merger_sorter(8)
        taps = sorted(control_wires(net))[:4]
        X = exhaustive_inputs(8)
        plan = get_plan(net)
        out_p, tap_p = plan.execute_packed(X, taps=taps)
        out_u, tap_u = plan.execute_unpacked(X, taps=taps)
        assert np.array_equal(tap_p, tap_u)
        assert np.array_equal(out_p, out_u)


class TestTransients:
    def test_transient_corrupts_only_inflight_group(self):
        net = build_mux_merger_sorter(4)
        groups = [[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 1]]
        clean = PipelinedNetlist(net)
        ref, _ = clean.run([list(g) for g in groups])
        # flip an input wire at the clock when group 1 is latched
        glitched = PipelinedNetlist(net, transients=[TransientFlip(net.inputs[0], 1)])
        out, _ = glitched.run([list(g) for g in groups])
        assert out[0] == ref[0] and out[2] == ref[2]
        assert out[1] != ref[1]

    def test_tuple_transients_accepted_and_reset_clears_clock(self):
        net = build_mux_merger_sorter(4)
        p = PipelinedNetlist(net, transients=[(net.inputs[1], 0)])
        first, _ = p.run([[0, 1, 1, 0]])
        p.reset()
        again, _ = p.run([[0, 1, 1, 0]])
        assert first == again  # deterministic across reset

    def test_transient_wire_range_checked(self):
        net = build_mux_merger_sorter(4)
        with pytest.raises(ValueError, match="out of range"):
            PipelinedNetlist(net, transients=[(net.n_wires + 3, 0)])


class TestResilience:
    def test_row_metrics(self):
        rows = np.array(
            [[0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0]], dtype=np.uint8
        )
        # [1,0,1,0]: (1 before 0) pairs are (0,1), (0,3), (2,3) -> 3;
        # its ones sit at {0,2} vs sorted {2,3} -> displacement 3 too
        assert row_inversions(rows).tolist() == [0, 4, 3]
        assert ones_displacement(rows).tolist() == [0, 4, 3]
        assert monotone_rows(rows).tolist() == [True, False, False]

    def test_classify_three_ways(self):
        expected = np.array([[0, 0, 1, 1]] * 2, dtype=np.uint8)
        assert classify(expected, expected) == MASKED
        broken = expected.copy()
        broken[0] = [1, 0, 0, 1]  # non-monotone
        assert classify(broken, expected) == DETECTED
        silent = expected.copy()
        silent[0] = [0, 1, 1, 1]  # monotone but wrong popcount
        assert classify(silent, expected) == SILENT

    def test_damage_metrics_and_summary_table(self):
        expected = np.array([[0, 0, 1, 1]], dtype=np.uint8)
        out = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        d = damage_metrics(out, expected)
        assert d["wrong_rows"] == 1 and d["max_inversions"] == 4
        assert d["mean_hamming"] == 4.0 and d["max_popcount_delta"] == 0
        records = [
            {"network": "x", "kind": "stuck", "outcome": DETECTED,
             "damage": d, "divergences": 0},
            {"network": "x", "kind": "stuck", "outcome": MASKED,
             "damage": damage_metrics(expected, expected), "divergences": 0},
        ]
        summary = summarize(records)
        assert summary[0]["total"] == 2 and summary[0]["detected_rate"] == 0.5
        table = format_resilience_table(summary)
        assert "detected%" in table and "stuck" in table


class TestSerializeControlWiresAndCache:
    def test_control_wires_round_trip(self, tmp_path):
        from repro.circuits import from_json, load, save, to_json

        net = build_prefix_sorter(8)
        assert from_json(to_json(net)).control_wires == net.control_wires
        p = tmp_path / "net.json"
        save(net, p)
        assert load(p, cache=False).control_wires == net.control_wires

    def test_key_omitted_when_empty(self):
        from repro.circuits import to_json

        net = _tiny_sorter4()
        assert not net.control_wires
        assert "control_wires" not in json.loads(to_json(net))

    def test_cache_reload_on_atomic_replace_with_forged_mtime(self, tmp_path):
        """(mtime_ns, size) collision across os.replace must not serve
        the stale netlist: the content hash fallback has to reload."""
        from repro.circuits import load, save

        p = tmp_path / "net.json"
        save(build_prefix_sorter(4), p)
        st = os.stat(p)
        first = load(p)
        assert first is load(p)  # plain cache hit
        # atomically replace with a same-length file, forging the mtime
        other = tmp_path / "other.json"
        save(build_mux_merger_sorter(4), other)
        text = other.read_text()
        text = text + " " * (st.st_size - len(text))  # pad to same size
        assert len(text) == st.st_size, "test needs same-size payloads"
        other.write_text(text)
        os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(other, p)
        st2 = os.stat(p)
        assert (st2.st_mtime_ns, st2.st_size) == (st.st_mtime_ns, st.st_size)
        second = load(p)
        assert second is not first
        assert second.name != first.name

    def test_cache_rehash_tolerates_inode_change_same_content(self, tmp_path):
        from repro.circuits import load, save

        p = tmp_path / "net.json"
        save(build_prefix_sorter(4), p)
        st = os.stat(p)
        first = load(p)
        # byte-identical copy swapped in with a forged mtime: same content,
        # new inode — the hash fallback may keep serving the cached object
        twin = tmp_path / "twin.json"
        twin.write_bytes(p.read_bytes())
        os.utime(twin, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(twin, p)
        assert load(p) is first


class TestFishFaultHooks:
    def test_clone_with_group_sorter_checks_width(self):
        from repro.core.fish_sorter import FishSorter

        fs = FishSorter(16)
        with pytest.raises(ValueError, match="inputs"):
            fs.clone_with_group_sorter(build_prefix_sorter(8))

    def test_clone_substitutes_without_touching_original(self):
        from repro.core.fish_sorter import FishSorter

        fs = FishSorter(16)
        mut = apply_fault(fs.group_sorter, OutputSwap(0))
        clone = fs.clone_with_group_sorter(mut)
        assert clone.group_sorter is mut
        assert fs.group_sorter is not mut
        bits = np.array([1, 0] * 8, dtype=np.uint8)
        out, _ = fs.sort_cycle_accurate(bits)
        assert np.array_equal(out, np.sort(bits))

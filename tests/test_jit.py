"""Tests for the bit-slice JIT (repro.circuits.jit).

The load-bearing guarantees:

* **differential** — jit ≡ engine ≡ interpreter, bit for bit, on random
  netlists (every element kind, control-tagged steering wires),
  exhaustively for small sorters, and on *faulted* netlists (mutants are
  netlist rewrites, so they must flow through codegen unchanged);
* **the optimizer is semantics-preserving** — folding and sharing while
  lowering, then dead-code elimination; a hypothesis property over
  randomly built netlists;
* **plans are cached in memory only** — keyed by the netlist object,
  never serialized or written to a file;
* **routing policy** — ``REPRO_JIT`` override, size thresholds, and the
  warm-up counter that keeps one-shot fault-campaign mutants from
  triggering compile storms.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import engine as engine_mod
from repro.circuits import jit, serialize
from repro.circuits.checkers import with_checkers
from repro.circuits.faults import (
    ControlInvert,
    OutputSwap,
    StuckAt,
    apply_fault,
    control_wires,
    enumerate_faults,
    sample_faults,
)
from repro.circuits.fuzz import random_netlist
from repro.circuits.simulate import (
    exhaustive_inputs,
    simulate,
    simulate_engine,
    simulate_interpreted,
    simulate_jit,
)
from repro.core.api import make_sorter
from repro.core.mux_merger import build_mux_merger_sorter
from repro.errors import SimulationError


def _check_all_backends(net, batch):
    """jit ≡ engine ≡ interpreter on one batch."""
    ref = simulate_interpreted(net, batch)
    eng = simulate_engine(net, batch)
    out = jit.compile_jit(net).execute(batch)
    raw = jit.compile_jit(net, optimize=False).execute(batch)
    assert np.array_equal(ref, eng)
    assert np.array_equal(ref, out)
    assert np.array_equal(ref, raw)
    return ref


class TestDifferential:
    @pytest.mark.parametrize("network", ["prefix", "mux_merger"])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_exhaustive_small_sorters(self, network, n):
        """Acceptance: exhaustive n≤8 jit-vs-interpreter parity."""
        net = make_sorter(n, network)
        _check_all_backends(net, exhaustive_inputs(n))

    def test_random_netlists_all_kinds(self, rng):
        for _ in range(25):
            net = random_netlist(rng, n_inputs=6, n_elements=40,
                                 n_outputs=5)
            assert net.control_wires  # steering paths are tagged
            _check_all_backends(net, exhaustive_inputs(6))

    def test_batch_of_one(self, rng):
        net = make_sorter(16, "prefix")
        plan = jit.compile_jit(net)
        for _ in range(8):
            row = rng.integers(0, 2, size=(1, 16)).astype(np.uint8)
            assert np.array_equal(simulate_interpreted(net, row),
                                  plan.execute(row))

    def test_large_batch_crosses_word_boundaries(self, rng):
        net = make_sorter(8, "mux_merger")
        plan = jit.compile_jit(net)
        for batch_size in (63, 64, 65, 127, 200):
            batch = rng.integers(0, 2, size=(batch_size, 8)).astype(np.uint8)
            assert np.array_equal(simulate_interpreted(net, batch),
                                  plan.execute(batch))

    def test_faulted_netlists(self, rng):
        """Mutants are netlist rewrites; they flow through codegen
        unchanged and every backend agrees on the *broken* behavior."""
        net = make_sorter(8, "prefix")
        batch = exhaustive_inputs(8)
        clean = simulate_interpreted(net, batch)
        steering = sorted(set(control_wires(net)) - set(net.inputs))
        faults = [
            StuckAt(net.inputs[0], 1),
            ControlInvert(steering[0]),
            OutputSwap(next(i for i, e in enumerate(net.elements)
                            if len(e.outs) >= 2)),
        ] + list(sample_faults(enumerate_faults(net), 5, seed=3))
        changed = 0
        for fault in faults:
            mutant = apply_fault(net, fault)
            out = _check_all_backends(mutant, batch)
            changed += int(not np.array_equal(out, clean))
        assert changed  # at least one mutant visibly misbehaves

    def test_mutant_gets_its_own_plan(self):
        net = make_sorter(8, "prefix")
        steering = sorted(set(control_wires(net)) - set(net.inputs))
        mutant = apply_fault(net, ControlInvert(steering[0]))
        batch = exhaustive_inputs(8)
        plan, broken = jit.get_jit_plan(net), jit.get_jit_plan(mutant)
        assert broken is not plan
        assert np.array_equal(plan.execute(batch),
                              simulate_interpreted(net, batch))
        assert np.array_equal(broken.execute(batch),
                              simulate_interpreted(mutant, batch))
        assert not np.array_equal(plan.execute(batch), broken.execute(batch))

    def test_wrong_arity_rejected(self):
        net = make_sorter(8, "prefix")
        with pytest.raises(SimulationError):
            simulate_jit(net, np.zeros((4, 5), dtype=np.uint8))


class TestOptimizePasses:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_passes_preserve_semantics(self, seed):
        """Property: neither folding/sharing while lowering nor dead-code
        elimination ever changes simulation results, including on
        control-tagged steering paths (random_netlist tags every
        switch/mux select wire)."""
        rng = np.random.default_rng(seed)
        net = random_netlist(rng, n_inputs=5, n_elements=30, n_outputs=4)
        batch = exhaustive_inputs(5)
        ref = simulate_interpreted(net, batch)
        lowered = jit.lower(net)
        programs = [
            jit.lower(net, optimize=False),
            lowered,
            jit.eliminate_dead(lowered),
        ]
        lanes = batch.shape[0]
        packed_ref = None
        for prog in programs:
            ins = [int.from_bytes(
                np.packbits(np.ascontiguousarray(batch[:, k]),
                            bitorder="little").tobytes(), "little")
                for k in range(5)]
            outs = jit.run_program(prog, ins, lanes)
            if packed_ref is None:
                packed_ref = outs
                unpacked = np.zeros((lanes, len(outs)), dtype=np.uint8)
                for j, word in enumerate(outs):
                    for lane in range(lanes):
                        unpacked[lane, j] = (word >> lane) & 1
                assert np.array_equal(unpacked, ref)
            else:
                assert outs == packed_ref

    def test_optimizer_only_removes_ops(self):
        net = make_sorter(16, "prefix")
        naive = jit.lower(net, optimize=False)
        stats = jit.compile_jit(net).stats
        assert stats["ops_after"] <= stats["ops_before"] <= naive.n_ops
        assert stats["removed"] == stats["ops_before"] - stats["ops_after"]

    @pytest.mark.parametrize("network, plain, checked", [
        ("prefix", 3231, 3934),
        ("mux_merger", 4482, 5653),
    ])
    def test_op_counts_pinned(self, network, plain, checked):
        """The n=64 kernels' op counts: the serve fabric (checked
        mux_merger) is where dead-code elimination removes ops."""
        net = make_sorter(64, network)
        full = with_checkers(net, sortedness=True, count=True,
                             control=True).netlist
        assert jit.compile_jit(net).n_ops == plain
        assert jit.compile_jit(full).n_ops == checked

    def test_constant_folding_through_steering(self):
        """A switch whose control wire is constant folds to plain
        routing: the optimized program loses the steering logic."""
        from repro.circuits.builder import CircuitBuilder

        b = CircuitBuilder()
        a, c = b.add_inputs(2)
        sel = b.const(1)
        lo, hi = b.switch2(a, c, sel)
        net = b.build(outputs=[lo, hi])
        prog = jit.eliminate_dead(jit.lower(net))
        assert prog.n_ops == 0  # constant select: outputs are pass-through
        batch = exhaustive_inputs(2)
        assert np.array_equal(simulate_interpreted(net, batch),
                              jit.compile_jit(net).execute(batch))

    def test_codegen_fusion_matches_unfused(self, rng):
        net = random_netlist(rng, n_inputs=6, n_elements=50, n_outputs=6)
        prog = jit.eliminate_dead(jit.lower(net))
        fused = jit.codegen(prog, fuse=True)
        unfused = jit.codegen(prog, fuse=False)
        assert fused.count("\n") < unfused.count("\n")
        batch = exhaustive_inputs(6)
        outs = []
        for src in (fused, unfused):
            ns = {}
            exec(compile(src, "<test>", "exec"), ns)
            fn = next(v for v in ns.values() if callable(v))
            ins = tuple(int.from_bytes(
                np.packbits(np.ascontiguousarray(batch[:, k]),
                            bitorder="little").tobytes(), "little")
                for k in range(6))
            outs.append(fn(ins, (1 << batch.shape[0]) - 1))
        assert outs[0] == outs[1]


class TestPlanCache:
    def test_clear_plan_cache_clears_jit_memory(self):
        jit.clear_memory_cache()
        net = make_sorter(8, "prefix")
        jit.get_jit_plan(net)
        assert jit.cache_info()["memory"] == 1
        engine_mod.clear_plan_cache()
        assert jit.cache_info()["memory"] == 0

    def test_cold_calls_never_serialize_or_write(self, tmp_path,
                                                 monkeypatch, rng):
        """Auto routing counts cold calls and compiles on the warm-up
        call without hashing the netlist's JSON form, and no path of
        the plan cache writes under the user's cache directory."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.delenv(jit.ENV_JIT, raising=False)

        def _refuse(*args, **kwargs):
            raise AssertionError("netlist serialized")

        monkeypatch.setattr(serialize, "to_json", _refuse)
        jit.clear_memory_cache()
        net = build_mux_merger_sorter(64)  # fresh: not memoized
        assert (jit.JIT_MIN_ELEMENTS <= len(net.elements)
                <= jit.JIT_MAX_ELEMENTS)
        batch = rng.integers(0, 2, size=(8, 64)).astype(np.uint8)
        want = simulate_engine(net, batch)
        for _ in range(jit.JIT_WARMUP_CALLS - 1):
            assert np.array_equal(simulate(net, batch), want)
            assert jit.cache_info()["memory"] == 0
        assert np.array_equal(simulate(net, batch), want)
        assert jit.cache_info()["memory"] == 1
        forced = jit.get_jit_plan(build_mux_merger_sorter(64))
        assert np.array_equal(forced.execute(batch), want)
        assert list(tmp_path.iterdir()) == []


class TestRoutingPolicy:
    def test_env_force_on(self, monkeypatch, rng):
        monkeypatch.setenv(jit.ENV_JIT, "1")
        net = random_netlist(rng, n_inputs=4, n_elements=10, n_outputs=3)
        assert jit.maybe_jit(net, 1) is not None  # far below MIN_ELEMENTS

    def test_env_force_off(self, monkeypatch):
        monkeypatch.setenv(jit.ENV_JIT, "0")
        net = make_sorter(8, "prefix")
        assert jit.maybe_jit(net, 64) is None
        with pytest.raises(SimulationError):
            simulate_jit(net, exhaustive_inputs(8))

    def test_auto_size_window(self, monkeypatch, rng):
        monkeypatch.delenv(jit.ENV_JIT, raising=False)
        small = random_netlist(rng, n_inputs=4, n_elements=10, n_outputs=3)
        assert len(small.elements) < jit.JIT_MIN_ELEMENTS
        for _ in range(jit.JIT_WARMUP_CALLS + 1):
            assert jit.maybe_jit(small, 64) is None

    def test_auto_warmup_counter(self, monkeypatch):
        """One-shot simulations never compile; the warm-up call does."""
        monkeypatch.delenv(jit.ENV_JIT, raising=False)
        monkeypatch.setattr(jit, "JIT_MIN_ELEMENTS", 1)
        jit.clear_memory_cache()
        net = make_sorter(8, "prefix")
        for _ in range(jit.JIT_WARMUP_CALLS - 1):
            assert jit.maybe_jit(net, 64) is None
        assert jit.maybe_jit(net, 64) is not None
        # warm now: immediately available on the next call
        assert jit.maybe_jit(net, 64) is not None

    def test_simulate_routes_through_jit_when_forced(self, monkeypatch,
                                                     rng):
        monkeypatch.setenv(jit.ENV_JIT, "1")
        net = make_sorter(8, "mux_merger")
        batch = exhaustive_inputs(8)
        assert np.array_equal(simulate(net, batch),
                              simulate_interpreted(net, batch))
        assert jit.cache_info()["memory"] >= 1

    def test_simulate_engine_never_jits(self, monkeypatch):
        monkeypatch.setenv(jit.ENV_JIT, "1")
        jit.clear_memory_cache()
        net = make_sorter(8, "prefix")
        simulate_engine(net, exhaustive_inputs(8))
        assert jit.cache_info()["memory"] == 0


class TestJitPlanSurface:
    def test_source_is_retained_and_compilable(self):
        net = make_sorter(8, "prefix")
        plan = jit.compile_jit(net)
        assert plan.source.startswith("def _jit_kernel(I, M):")
        ns = {}
        exec(compile(plan.source, "<re-exec>", "exec"), ns)
        batch = exhaustive_inputs(8)
        assert np.array_equal(plan.execute(batch),
                              jit.compile_jit(net).execute(batch))

    def test_stats_and_repr(self):
        net = make_sorter(8, "mux_merger")
        plan = jit.compile_jit(net)
        assert plan.stats["ops_after"] == plan.n_ops
        assert plan.stats["codegen_s"] > 0
        assert plan.n_inputs == 8 and plan.n_outputs == 8

    def test_execute_bits(self):
        net = make_sorter(4, "prefix")
        plan = jit.compile_jit(net)
        batch = exhaustive_inputs(4)
        lanes = batch.shape[0]
        ins = [int.from_bytes(
            np.packbits(np.ascontiguousarray(batch[:, k]),
                        bitorder="little").tobytes(), "little")
            for k in range(4)]
        outs = plan.execute_bits(ins, lanes)
        ref = simulate_interpreted(net, batch)
        for j, word in enumerate(outs):
            for lane in range(lanes):
                assert (word >> lane) & 1 == ref[lane, j]

    def test_get_jit_plan_has_no_optimize_switch(self):
        """The plan cache is keyed on the netlist alone, so it only ever
        holds optimised plans; the unoptimised reference is
        ``compile_jit(optimize=False)``, which bypasses every cache."""
        assert "optimize" not in inspect.signature(jit.get_jit_plan).parameters
        net = make_sorter(16, "prefix")
        assert jit.compile_jit(net, optimize=False).n_ops > \
            jit.get_jit_plan(net).n_ops

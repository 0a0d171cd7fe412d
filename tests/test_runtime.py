"""Tests for the supervised execution runtime (repro.runtime).

Covers the recovery ladder (jit -> engine -> interpreter -> behavioral), the
gate-level + software detection gates, deadline/retry guards, the
structured error hierarchy's backward compatibility, and the statistics
counters — including the acceptance property that a supervisor handed
deliberately broken hardware still returns correct sorted output for
every injected steering fault.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from repro.circuits import ControlInvert, OutputSwap, StuckAt, apply_fault, control_wires
from repro.circuits.checkers import with_checkers
from repro.core import build_prefix_sorter
from repro.core.api import cache_info, clear_cache, make_sorter, set_cache_limit, sort_bits
from repro.errors import (
    BuildError,
    CheckerAlarm,
    DeadlineExceeded,
    ReproError,
    SimulationError,
)
from repro.runtime import (
    RecoveryPolicy,
    Supervisor,
    get_supervisor,
    reset_supervisors,
    run_guarded,
    supervisor_stats,
    time_limit,
)


@pytest.fixture(autouse=True)
def _isolate():
    clear_cache()
    reset_supervisors()
    yield
    clear_cache()
    reset_supervisors()
    set_cache_limit(32)


def _broken_supervisor(network="prefix", n=8, fault=None, **policy_kw):
    """A supervisor whose hardware for width ``n`` carries ``fault``."""
    net = make_sorter(n, network)
    checked = with_checkers(net, sortedness=True, count=True, control=True)
    mutated = apply_fault(checked.netlist, fault) if fault else checked.netlist
    broken = dataclasses.replace(checked, netlist=mutated)
    policy = RecoveryPolicy(max_retries=0, **policy_kw)
    return Supervisor(network, policy=policy, hardware=lambda _n: broken), net


class TestErrorHierarchy:
    def test_build_and_simulation_errors_stay_valueerrors(self):
        # years of callers say `except ValueError` — must keep working
        assert issubclass(BuildError, ValueError)
        assert issubclass(SimulationError, ValueError)
        assert issubclass(BuildError, ReproError)
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_one_base_class_catches_everything(self):
        for exc in (BuildError("x"), SimulationError("x"),
                    CheckerAlarm(("count",)), DeadlineExceeded(1.0)):
            with pytest.raises(ReproError):
                raise exc

    def test_api_raises_structured_types(self):
        with pytest.raises(BuildError):
            sort_bits([1, 0], network="timsort")
        with pytest.raises(SimulationError):
            sort_bits([0, 1, 2])

    def test_checker_alarm_payload(self):
        err = CheckerAlarm(("sortedness", "count"), rows=[3, 7])
        assert err.alarms == ("sortedness", "count")
        assert err.rows == (3, 7)
        assert "sortedness" in str(err)


class TestGuard:
    def test_time_limit_noop_without_budget(self):
        with time_limit(None):
            pass
        with time_limit(0):
            pass

    def test_time_limit_expires(self):
        with pytest.raises(DeadlineExceeded):
            with time_limit(0.05, "nap"):
                time.sleep(5)

    def test_run_guarded_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        assert run_guarded(flaky, retries=3, backoff_s=0, sleep=lambda s: None) == "ok"
        assert calls["n"] == 3

    def test_run_guarded_exponential_backoff(self):
        delays = []

        def always_fail():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            run_guarded(always_fail, retries=3, backoff_s=0.1,
                        backoff_factor=2.0, sleep=delays.append)
        assert delays == [0.1, 0.2, 0.4]

    def test_run_guarded_bounds_total_stall(self):
        start = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            run_guarded(lambda: time.sleep(10), timeout_s=0.05, retries=1,
                        backoff_s=0, sleep=lambda s: None)
        assert time.perf_counter() - start < 2.0


class TestSupervisedHealthy:
    @pytest.mark.parametrize("network", ["mux_merger", "prefix", "fish"])
    def test_matches_unsupervised(self, network, rng):
        for length in (1, 3, 5, 8, 13):
            bits = rng.integers(0, 2, length).astype(np.uint8)
            out = sort_bits(bits, network=network, supervised=True)
            assert out.tolist() == sorted(bits.tolist()), (network, length)

    def test_healthy_calls_resolve_at_jit_tier(self, rng):
        sup = get_supervisor("prefix")
        bits = rng.integers(0, 2, 8).astype(np.uint8)
        out, report = sup.sort_verbose(bits)
        assert out.tolist() == sorted(bits.tolist())
        assert report.tier == "jit"
        assert not report.fell_back and not report.detections

    def test_jit_disabled_resolves_at_engine_tier(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        sup = Supervisor("prefix")
        bits = rng.integers(0, 2, 8).astype(np.uint8)
        out, report = sup.sort_verbose(bits)
        assert out.tolist() == sorted(bits.tolist())
        assert report.tier == "engine"
        # degrading past a disabled tier is not a detection event
        assert not report.detections

    def test_stats_accumulate(self, rng):
        sup = get_supervisor("mux_merger")
        for _ in range(3):
            sup.sort(rng.integers(0, 2, 8).astype(np.uint8))
        snap = supervisor_stats()["mux_merger"]
        assert snap["calls"] == 3
        assert snap["tier_used"].get("jit") == 3
        assert snap["mean_latency_s"] > 0

    def test_rejects_unknown_network(self):
        with pytest.raises(BuildError):
            Supervisor("timsort")


class TestSupervisedRecovery:
    def _steering(self, net):
        wires = sorted(set(control_wires(net)) - set(net.inputs))
        assert wires
        return wires

    def test_steering_fault_detected_and_recovered(self, rng):
        net0 = build_prefix_sorter(8)
        for wire in self._steering(net0)[:4]:
            sup, _ = _broken_supervisor(fault=ControlInvert(wire))
            bits = rng.integers(0, 2, 8).astype(np.uint8)
            out, report = sup.sort_verbose(bits)
            assert out.tolist() == sorted(bits.tolist()), wire
            if report.fell_back:
                assert report.detections  # never a silent fallback

    def test_every_steering_inversion_recovered(self, rng):
        """Acceptance: sort_bits-style supervised calls return correct
        output under EVERY steering inversion, via detection+fallback."""
        net0 = build_prefix_sorter(8)
        probes = [rng.integers(0, 2, 8).astype(np.uint8) for _ in range(4)]
        for wire in self._steering(net0):
            sup, _ = _broken_supervisor(fault=ControlInvert(wire))
            for bits in probes:
                assert sup.sort(bits).tolist() == sorted(bits.tolist()), wire

    def test_input_fault_recovered_by_invariant_gate(self):
        """A stuck primary input defeats the hardware checkers (they see
        the faulted bus) but not the supervisor's software gate, which
        compares against the caller-held input."""
        net0 = build_prefix_sorter(8)
        sup, _ = _broken_supervisor(fault=StuckAt(net0.inputs[0], 1))
        bits = np.zeros(8, dtype=np.uint8)
        out, report = sup.sort_verbose(bits)
        assert out.tolist() == [0] * 8
        assert "invariant" in report.detections
        assert report.tier == "behavioral"

    def test_output_swap_recovered(self, rng):
        net0 = build_prefix_sorter(8)
        swappable = [
            i for i, e in enumerate(net0.elements) if len(e.outs) >= 2
        ]
        sup, _ = _broken_supervisor(fault=OutputSwap(swappable[0]))
        bits = rng.integers(0, 2, 8).astype(np.uint8)
        assert sup.sort(bits).tolist() == sorted(bits.tolist())

    def test_report_counts_attempts_and_retries(self, rng):
        net0 = build_prefix_sorter(8)
        wire = self._steering(net0)[0]
        net = make_sorter(8, "prefix")
        checked = with_checkers(net, control=True)
        broken = dataclasses.replace(
            checked, netlist=apply_fault(checked.netlist, ControlInvert(wire))
        )
        sup = Supervisor(
            "prefix",
            policy=RecoveryPolicy(max_retries=1, backoff_s=0),
            hardware=lambda _n: broken,
        )
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        out, report = sup.sort_verbose(bits)
        assert out.tolist() == sorted(bits.tolist())
        assert report.fell_back
        # the jit rung ran and rejected the row: no retry, no slower
        # hardware rung, one behavioral attempt
        assert report.attempts == 2
        assert report.retries == 0
        assert report.tier == "behavioral"
        assert report.detections

    def test_fish_supervised_recovery(self, rng):
        """Fish hardware override: (sorter, boundary checker) pair."""
        from repro.circuits.checkers import build_output_checker
        from repro.core.fish_sorter import FishSorter

        fs = FishSorter(8)
        target = fs.group_sorter
        steering = sorted(set(control_wires(target)) - set(target.inputs))
        mutant = apply_fault(target, ControlInvert(steering[0]))
        broken = fs.clone_with_group_sorter(mutant)
        checker = build_output_checker(8)
        sup = Supervisor(
            "fish",
            policy=RecoveryPolicy(max_retries=0),
            hardware=lambda _n: (broken, checker),
        )
        for _ in range(4):
            bits = rng.integers(0, 2, 8).astype(np.uint8)
            assert sup.sort(bits).tolist() == sorted(bits.tolist())

    def test_fish_rejection_is_final(self):
        """A rejected fish call is answered behaviorally at once: one
        engine attempt, no retry, then behavioral."""
        from repro.circuits.checkers import build_output_checker
        from repro.core.fish_sorter import FishSorter

        fs = FishSorter(8)
        target = fs.group_sorter
        swappable = [i for i, e in enumerate(target.elements) if len(e.outs) >= 2]
        broken = fs.clone_with_group_sorter(
            apply_fault(target, OutputSwap(swappable[0])))
        sup = Supervisor(
            "fish",
            policy=RecoveryPolicy(max_retries=1, backoff_s=0),
            hardware=lambda _n: (broken, build_output_checker(8)),
        )
        reports = []
        for bits in itertools.product((0, 1), repeat=8):
            row = np.array(bits, dtype=np.uint8)
            out, report = sup.sort_verbose(row)
            assert out.tolist() == sorted(row.tolist())
            reports.append(report)
        rejected = [r for r in reports if r.detections]
        assert rejected  # the fault really bites
        for report in rejected:
            assert report.attempts == 2 and report.retries == 0
            assert report.tier == "behavioral" and report.fell_back


class TestDeadline:
    def test_deadline_falls_back(self, monkeypatch, rng):
        """An engine tier that hangs past the deadline degrades to a
        fallback tier instead of hanging the caller."""
        sup = Supervisor("prefix", policy=RecoveryPolicy(
            max_retries=0, deadline_s=0.05))
        slow = lambda *a, **k: time.sleep(10)
        monkeypatch.setattr(
            type(sup), "_run_tier",
            lambda self, tier, padded, pipelined:
                slow() if tier in ("jit", "engine")
                else np.sort(padded),
        )
        bits = rng.integers(0, 2, 8).astype(np.uint8)
        out, report = sup.sort_verbose(bits)
        assert out.tolist() == sorted(bits.tolist())
        assert report.deadline_hits >= 1
        assert report.fell_back

    def test_policy_validation(self):
        with pytest.raises(BuildError):
            RecoveryPolicy(max_retries=-1)


class TestCacheLRU:
    def test_bounded_eviction(self):
        set_cache_limit(2)
        a = make_sorter(4, "mux_merger")
        make_sorter(8, "mux_merger")
        make_sorter(16, "mux_merger")  # evicts (mux_merger, 4)
        info = cache_info()
        assert info["size"] == 2
        assert info["evictions"] == 1
        assert make_sorter(4, "mux_merger") is not a  # rebuilt

    def test_lru_order_refreshed_on_hit(self):
        set_cache_limit(2)
        a = make_sorter(4, "mux_merger")
        make_sorter(8, "mux_merger")
        assert make_sorter(4, "mux_merger") is a     # hit refreshes 4
        make_sorter(16, "mux_merger")                 # evicts 8, not 4
        assert make_sorter(4, "mux_merger") is a

    def test_stats_and_clear(self):
        make_sorter(4, "prefix")
        make_sorter(4, "prefix")
        info = cache_info()
        assert info["hits"] >= 1 and info["misses"] >= 1
        clear_cache()
        info = cache_info()
        assert info == {"size": 0, "limit": info["limit"], "hits": 0,
                        "misses": 0, "evictions": 0}

    def test_rejects_silly_limit(self):
        with pytest.raises(BuildError):
            set_cache_limit(0)

    def test_thread_safety_under_contention(self):
        import threading

        set_cache_limit(4)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    s = make_sorter(8, "mux_merger")
                    assert s is make_sorter(8, "mux_merger")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


def _only_behavioral_runs(self, tier, padded, pipelined):
    """A ``Supervisor._run_tier`` on which every rung but the behavioral
    one fails."""
    if tier != "behavioral":
        raise SimulationError("chaos")
    return np.sort(padded)


class TestBackoffCap:
    """``RecoveryPolicy.max_backoff_s``: the per-sleep cap that keeps a
    deadline storm from burning more wall-clock sleeping between
    retries than the attempts themselves cost."""

    def test_validation_and_effective_cap(self):
        with pytest.raises(BuildError):
            RecoveryPolicy(max_backoff_s=-0.1)
        assert RecoveryPolicy().backoff_cap_s is None  # unlimited
        assert RecoveryPolicy(deadline_s=0.5).backoff_cap_s == 0.5
        assert RecoveryPolicy(max_backoff_s=0.2,
                              deadline_s=0.5).backoff_cap_s == 0.2
        assert RecoveryPolicy(max_backoff_s=0.0).backoff_cap_s == 0.0

    def test_retry_sleeps_are_capped(self, monkeypatch, rng):
        sup = Supervisor("prefix", policy=RecoveryPolicy(
            max_retries=2, backoff_s=1e-3, backoff_factor=10.0,
            max_backoff_s=2e-3))
        monkeypatch.setattr(type(sup), "_run_tier", _only_behavioral_runs)
        slept = []
        monkeypatch.setattr(
            "repro.runtime.supervisor.time.sleep", slept.append)
        bits = rng.integers(0, 2, 8).astype(np.uint8)
        out, report = sup.sort_verbose(bits)
        assert out.tolist() == sorted(bits.tolist())
        assert report.tier == "behavioral"
        assert report.fell_back and report.retries == 6  # 2 per failing rung
        # uncapped each rung would sleep 1ms then 10ms; the cap clamps
        # every second retry to 2ms (the backoff restarts per rung)
        assert slept == [pytest.approx(1e-3), pytest.approx(2e-3)] * 3

    def test_uncapped_policy_still_grows(self, monkeypatch, rng):
        sup = Supervisor("prefix", policy=RecoveryPolicy(
            max_retries=2, backoff_s=1e-3, backoff_factor=10.0))
        monkeypatch.setattr(type(sup), "_run_tier", _only_behavioral_runs)
        slept = []
        monkeypatch.setattr(
            "repro.runtime.supervisor.time.sleep", slept.append)
        bits = rng.integers(0, 2, 8).astype(np.uint8)
        sup.sort_verbose(bits)
        assert slept == [pytest.approx(1e-3), pytest.approx(1e-2)] * 3

"""Tests for the chaos injectors driving ``tools/soak.py``.

Every injector must be (a) gated by its :class:`Schedule` — quiet when
the window is off — and (b) seeded-deterministic, so a resumed soak
replays the identical chaos timeline the uninterrupted run saw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    CHAOS_INJECTORS,
    DeadlineStorm,
    FaultStorm,
    Schedule,
    TraceTruncator,
    WorkerKillStorm,
    realize_fault,
    seeded_schedule,
)
from repro.circuits import apply_faults, enumerate_faults, simulate
from repro.core import make_sorter
from repro.errors import BuildError


def test_registry_names():
    assert CHAOS_INJECTORS == ("faults", "kills", "deadlines", "obstrunc")


# -- schedules ----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(period=st.integers(1, 20), duty=st.floats(0.01, 1.0),
       phase=st.integers(0, 19))
def test_schedule_duty_cycle_is_exact(period, duty, phase):
    sched = Schedule(period=period, duty=duty, phase=phase)
    on = max(1, int(round(duty * period))) if duty < 1.0 else period
    hits = sum(sched.active(i) for i in range(10 * period))
    assert hits == 10 * on


def test_schedule_edges():
    assert not any(Schedule(period=0, duty=0.5).active(i) for i in range(8))
    assert not any(Schedule(period=4, duty=0.0).active(i) for i in range(8))
    assert all(Schedule(period=4, duty=1.0).active(i) for i in range(8))


@settings(max_examples=20, deadline=None)
@given(period=st.integers(1, 16), index=st.integers(0, 200))
def test_schedule_window_is_stable_across_a_cycle(period, index):
    sched = Schedule(period=period, duty=0.5, phase=3)
    base = (index + 3) // period
    assert sched.window(index) == base


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_seeded_schedule_phase_is_deterministic_and_bounded(seed):
    a = seeded_schedule(seed, "faults", period=8, duty=0.25)
    b = seeded_schedule(seed, "faults", period=8, duty=0.25)
    assert a == b
    assert 0 <= a.phase < 8
    # Different injector names should not all fire in lockstep for at
    # least *some* seed; just assert the phase depends on the name.
    phases = {seeded_schedule(s, "kills", 8, 0.25).phase for s in range(16)}
    assert len(phases) > 1


# -- payload injectors --------------------------------------------------------


def test_fault_storm_seed_is_window_stable_and_gated():
    sched = Schedule(period=4, duty=0.5, phase=0)  # on for chunks 0,1 of 4
    storm = FaultStorm(sched, seed=7)
    assert storm.fault_seed(2) is None and storm.fault_seed(3) is None
    assert storm.fault_seed(0) == storm.fault_seed(1)  # same window
    assert storm.fault_seed(0) != storm.fault_seed(4)  # next window moves
    again = FaultStorm(Schedule(period=4, duty=0.5, phase=0), seed=7)
    assert again.fault_seed(0) == storm.fault_seed(0)


def test_realize_fault_is_deterministic_and_skips_inputs():
    net = make_sorter(8, "mux_merger")
    inputs = set(net.inputs)
    for fault_seed in (0, 1, 12345, 2**30):
        (fault,) = realize_fault(net, fault_seed)
        assert fault.wire not in inputs
        (fault2,) = realize_fault(net, fault_seed)
        assert fault == fault2
    universe = set(enumerate_faults(net, kinds=("stuck", "control")))
    (fault,) = realize_fault(net, 99)
    assert fault in universe


def test_realized_fault_is_applicable():
    net = make_sorter(8, "mux_merger")
    mutant = apply_faults(net, realize_fault(net, 42))
    rng = np.random.default_rng(0)
    x = (rng.random((4, 8)) < 0.5).astype(np.uint8)
    out = simulate(mutant, x)  # must still evaluate, right or wrong
    assert out.shape == x.shape


def test_deadline_storm():
    storm = DeadlineStorm(Schedule(period=2, duty=0.5), deadline_s=1e-3)
    vals = [storm.deadline(i) for i in range(4)]
    assert vals == [1e-3, None, 1e-3, None]
    with pytest.raises(BuildError):
        DeadlineStorm(Schedule(period=2, duty=0.5), deadline_s=0.0)


# -- environment injectors ----------------------------------------------------


def test_trace_truncator_chops_the_tail(tmp_path):
    trace = tmp_path / "trace.jsonl"
    body = b'{"name": "x"}\n' * 100
    trace.write_bytes(body)
    trunc = TraceTruncator(Schedule(period=2, duty=0.5), trace, seed=5,
                           max_bytes=64)
    assert trunc.perturb(1) is None
    assert trace.read_bytes() == body
    summary = trunc.perturb(0)
    cut = summary["truncated_bytes"]
    assert 1 <= cut <= 64
    assert trace.read_bytes() == body[: len(body) - cut]


def test_trace_truncator_missing_file(tmp_path):
    trunc = TraceTruncator(Schedule(period=1, duty=1.0),
                           tmp_path / "none.jsonl", seed=0)
    assert trunc.perturb(0)["note"] == "no trace file"


def test_kill_storm_is_schedule_gated_and_reentrant():
    storm = WorkerKillStorm(Schedule(period=2, duty=0.5, phase=0), seed=0,
                            interval_s=0.01, max_kills=1)
    assert storm.start(1) is False  # off-window: no thread
    assert storm.start(0) is True
    assert storm.start(0) is False  # already running
    storm.stop()
    storm.stop()  # idempotent
    assert storm.kills_sent == 0  # no workers existed to kill


def test_kill_storm_context_manager_stops():
    with WorkerKillStorm(Schedule(period=1, duty=1.0), seed=0,
                         interval_s=0.01, max_kills=1) as storm:
        assert storm.start(0) is True
    assert storm._thread is None

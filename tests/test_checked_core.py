"""One checked-execution core: the same faulty fabric gives the same
answer through every checked path, and the batch ladder degrades rung by
rung (``repro.runtime.supervisor.checked_run``)."""

import dataclasses
import hashlib
import importlib.util
import pathlib

import numpy as np
import pytest

import repro.runtime.supervisor as supervisor
from repro.circuits import OutputSwap, apply_fault
from repro.errors import SimulationError
from repro.runtime import RecoveryPolicy, Supervisor
from repro.serve import FabricExecutor

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_soak():
    spec = importlib.util.spec_from_file_location("soak", REPO / "tools" / "soak.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def broken():
    checked = FabricExecutor("mux_merger").checked(16)
    return dataclasses.replace(
        checked, netlist=apply_fault(checked.netlist, OutputSwap(13)))


@pytest.fixture
def rows(rng):
    return rng.integers(0, 2, (48, 16)).astype(np.uint8)


def _fail(*_args, **_kwargs):
    raise SimulationError("rung down")


def test_one_core_one_answer(broken, rows, monkeypatch):
    ex = FabricExecutor("mux_merger")
    monkeypatch.setattr(ex, "checked", lambda width: broken)
    outcome = ex.run_batch(16, rows)
    assert outcome.recovered > 0  # the fault really bites
    assert np.array_equal(outcome.data, np.sort(rows, axis=1))

    sup = Supervisor("mux_merger", policy=RecoveryPolicy(max_retries=0),
                     hardware=lambda n: broken)
    supervised = np.stack([sup.sort_verbose(row)[0] for row in rows])
    assert np.array_equal(supervised, outcome.data)

    soak = _load_soak()
    soak._WCTX["checked"][("mux_merger", 16, "broken")] = broken
    real_run, seen = supervisor.checked_run, []

    def spy(checked, batch):
        seen.append(real_run(checked, batch))
        return seen[-1]

    monkeypatch.setattr(supervisor, "checked_run", spy)
    record = soak._soak_chunk(
        ("cell", 0, "batch", "mux_merger", list(rows), "broken", None))
    (final, _alarms, accepted, tier), = seen
    assert tier == outcome.tier
    assert np.array_equal(final, outcome.data)
    assert np.array_equal(accepted, outcome.accepted)
    digest = hashlib.sha256()
    for row in outcome.data:
        digest.update(np.uint32(row.size).tobytes())
        digest.update(row.tobytes())
    assert record["digest"] == digest.hexdigest()
    assert record["_measured"]["silent"] == 0
    assert record["_measured"]["recovered"] == outcome.recovered


@pytest.mark.parametrize("down, tier", [
    ((), "jit"),
    (("simulate_jit",), "engine"),
    (("simulate_jit", "simulate_engine"), "interpreter"),
])
def test_batch_ladder_names_the_rung_that_ran(rows, monkeypatch, down, tier):
    for name in down:
        monkeypatch.setattr(supervisor, name, _fail)
    outcome = FabricExecutor("mux_merger").run_batch(16, rows)
    assert outcome.tier == tier
    assert outcome.accepted.all()
    assert np.array_equal(outcome.data, np.sort(rows, axis=1))


def test_jit_disabled_runs_the_engine(rows, monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    assert FabricExecutor("mux_merger").run_batch(16, rows).tier == "engine"


def test_every_hardware_rung_down_recovers_behaviorally(rows, monkeypatch):
    for name in ("simulate_jit", "simulate_engine", "simulate_interpreted"):
        monkeypatch.setattr(supervisor, name, _fail)
    outcome = FabricExecutor("mux_merger").run_batch(16, rows)
    assert outcome.tier == "behavioral"
    assert not outcome.accepted.any()
    assert outcome.recovered == outcome.lanes
    assert outcome.invariant_fails == 0 and outcome.detections == {}
    assert np.array_equal(outcome.data, np.sort(rows, axis=1))

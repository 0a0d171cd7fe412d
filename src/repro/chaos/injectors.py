"""Chaos injector implementations (see the package docstring).

Two shapes of injector:

* **payload injectors** (:class:`FaultStorm`, :class:`DeadlineStorm`)
  resolve to per-chunk flags in the soak *parent* — a fault seed, a
  deadline budget — that travel inside the work-item payload and are
  applied by whichever worker process executes the chunk.  This keeps
  them fully deterministic even under a crash-isolated process pool.
* **environment injectors** (:class:`TraceTruncator`,
  :class:`WorkerKillStorm`) perturb shared state the workers depend on
  — the obs trace file, the worker processes themselves — from the
  parent, between or during rounds.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import BuildError

__all__ = [
    "CHAOS_INJECTORS",
    "DeadlineStorm",
    "FaultStorm",
    "Schedule",
    "TraceTruncator",
    "WorkerKillStorm",
    "realize_fault",
    "seeded_schedule",
]

#: Injector names understood by ``tools/soak.py --chaos``.
CHAOS_INJECTORS = ("faults", "kills", "deadlines", "obstrunc")


def _stable_hash(*parts) -> int:
    h = 0xCBF29CE484222325
    for p in parts:
        for ch in str(p):
            h = ((h ^ ord(ch)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFF


@dataclass(frozen=True)
class Schedule:
    """Deterministic periodic on/off windows over an integer index.

    Active for the first ``round(duty * period)`` indices of every
    ``period``-long cycle, phase-shifted by ``phase`` (seeded via
    :func:`seeded_schedule` so different injectors don't all fire in
    lockstep).  ``period <= 0`` or ``duty <= 0`` is never active;
    ``duty >= 1`` is always active.
    """

    period: int
    duty: float
    phase: int = 0

    def active(self, index: int) -> bool:
        if self.period <= 0 or self.duty <= 0:
            return False
        if self.duty >= 1.0:
            return True
        on = max(1, int(round(self.duty * self.period)))
        return (int(index) + self.phase) % self.period < on

    def window(self, index: int) -> int:
        """The cycle number ``index`` falls in (stable across a window —
        used to hold one injected fault steady for a whole window)."""
        if self.period <= 0:
            return 0
        return (int(index) + self.phase) // self.period


def seeded_schedule(seed: int, name: str, period: int, duty: float) -> Schedule:
    """A :class:`Schedule` with a seed-derived phase per injector name."""
    phase = _stable_hash(seed, name) % max(int(period), 1)
    return Schedule(period=int(period), duty=float(duty), phase=phase)


# ---------------------------------------------------------------------------
# Payload injectors
# ---------------------------------------------------------------------------


class FaultStorm:
    """Schedules deterministic netlist-fault swaps into the load path.

    While active, every chunk carries a ``fault_seed`` derived from the
    soak seed and the schedule *window* (not the chunk — so one broken
    circuit stays in place for a whole window and compiled mutant plans
    amortize).  Workers turn the seed into an actual fault via
    :func:`realize_fault` against their local copy of the hardware.
    """

    name = "faults"

    def __init__(self, schedule: Schedule, seed: int) -> None:
        self.schedule = schedule
        self.seed = int(seed)

    def fault_seed(self, chunk_index: int) -> Optional[int]:
        if not self.schedule.active(chunk_index):
            return None
        return _stable_hash(self.seed, "fault", self.schedule.window(chunk_index))


def realize_fault(netlist, fault_seed: int) -> Tuple:
    """Deterministically pick one injectable fault for ``netlist``.

    Enumerates the stuck-at and control-inversion universe on driven,
    *non-primary-input* wires (an input-wire stuck-at sits upstream of
    the gate-level checkers' fault-secure region; the software invariant
    gate still catches it, but excluding it keeps "every injected fault
    is checker-detectable or masked" a clean invariant for the soak) and
    indexes into it with the seed.  Every process that evaluates the
    same ``(netlist, fault_seed)`` derives the same fault.
    """
    from ..circuits import enumerate_faults

    inputs = set(netlist.inputs)
    faults = [
        f for f in enumerate_faults(netlist, kinds=("stuck", "control"))
        if getattr(f, "wire", -1) not in inputs
    ]
    if not faults:
        raise BuildError("netlist has no injectable non-input faults")
    return (faults[int(fault_seed) % len(faults)],)


class DeadlineStorm:
    """Schedules tiny per-attempt deadline budgets onto chunks.

    While active, chunks carry ``deadline_s`` (default 200 µs — small
    enough that circuit tiers miss it, surfacing deadline hits, retries,
    and backoff capping; the driver's recovery path still produces the
    correct answer).
    """

    name = "deadlines"

    def __init__(self, schedule: Schedule, deadline_s: float = 2e-4) -> None:
        if deadline_s <= 0:
            raise BuildError("deadline_s must be > 0")
        self.schedule = schedule
        self.deadline_s = float(deadline_s)

    def deadline(self, chunk_index: int) -> Optional[float]:
        return self.deadline_s if self.schedule.active(chunk_index) else None


# ---------------------------------------------------------------------------
# Environment injectors
# ---------------------------------------------------------------------------


class TraceTruncator:
    """Chops a seeded number of bytes off the obs trace file's tail.

    Emulates a sink dying mid-write (disk full, SIGKILL): the file may
    end mid-line, and the next append from the still-open sink creates
    one garbled joint line.  Downstream readers must survive both —
    ``read_trace(strict=False)`` / ``trace_report.py --lenient`` do.
    """

    name = "obstrunc"

    def __init__(self, schedule: Schedule, trace_path, seed: int,
                 max_bytes: int = 512) -> None:
        self.schedule = schedule
        self.trace_path = os.fspath(trace_path)
        self.rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), _stable_hash("obstrunc")])
        )
        self.max_bytes = int(max_bytes)

    def perturb(self, round_index: int) -> Optional[Dict[str, object]]:
        if not self.schedule.active(round_index):
            return None
        try:
            size = os.path.getsize(self.trace_path)
        except OSError:
            return {"injector": self.name, "truncated_bytes": 0,
                    "note": "no trace file"}
        if size == 0:
            return {"injector": self.name, "truncated_bytes": 0}
        cut = min(size, 1 + int(self.rng.integers(self.max_bytes)))
        try:
            os.truncate(self.trace_path, size - cut)
        except OSError:
            return {"injector": self.name, "truncated_bytes": 0,
                    "note": "truncate failed"}
        return {"injector": self.name, "truncated_bytes": int(cut)}


class WorkerKillStorm:
    """SIGKILLs random live :mod:`repro.parallel` workers during a round.

    Runs as a parent-side thread while a scheduled round is in flight:
    every ``interval_s`` it kills one of the current process's live
    multiprocessing children (with seeded probability ``kill_prob``), up
    to ``max_kills`` per round.  The executor quarantines exactly the
    in-flight item and replenishes the pool; the soak driver re-runs the
    quarantined chunk, so the storm costs latency, never answers.
    """

    name = "kills"

    def __init__(self, schedule: Schedule, seed: int,
                 interval_s: float = 0.05, kill_prob: float = 0.5,
                 max_kills: int = 4) -> None:
        self.schedule = schedule
        self.rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), _stable_hash("kills")])
        )
        self.interval_s = float(interval_s)
        self.kill_prob = float(kill_prob)
        self.max_kills = int(max_kills)
        self.kills_sent = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _storm(self) -> None:
        import multiprocessing as mp

        sent = 0
        while not self._stop.is_set() and sent < self.max_kills:
            if self._stop.wait(self.interval_s):
                break
            if self.rng.random() >= self.kill_prob:
                continue
            children = [p for p in mp.active_children() if p.pid]
            if not children:
                continue
            victim = children[int(self.rng.integers(len(children)))]
            try:
                os.kill(victim.pid, signal.SIGKILL)
                sent += 1
                self.kills_sent += 1
            except (OSError, TypeError):
                continue

    def start(self, round_index: int) -> bool:
        """Begin a storm for this round if scheduled; returns whether
        the storm is running."""
        if not self.schedule.active(round_index) or self._thread is not None:
            return False
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._storm, name="chaos-kill-storm", daemon=True
        )
        self._thread.start()
        return True

    def stop(self) -> None:
        """End the current storm (no-op when none is running)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "WorkerKillStorm":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

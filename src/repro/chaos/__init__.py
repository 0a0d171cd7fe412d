"""Schedulable chaos injectors that run concurrently with load.

Where :mod:`repro.circuits.faults` enumerates *what* can break, this
package decides *when* it breaks — during a live soak, against the
repo's real failure surfaces:

* **hardware faults** (:class:`FaultStorm`) — netlist fault rewrites
  swapped into the execution path mid-run, realized deterministically
  from a seed by :func:`realize_fault`;
* **process kills** (:class:`WorkerKillStorm`) — SIGKILL storms against
  the live :mod:`repro.parallel` worker pool;
* **deadline storms** (:class:`DeadlineStorm`) — tiny per-attempt
  ``time_limit`` budgets that make every tier miss its deadline;
* **observability truncation** (:class:`TraceTruncator`) — the obs
  file sink's tail chopped off mid-run, the crash-damage mode
  :func:`repro.obs.read_trace` is specified to survive.

Every injector carries a :class:`Schedule` — a deterministic on/off
window function over chunk/round indices — and derives all randomness
from the soak seed, so *which* windows are chaotic, *which* fault is
injected, and *how many* trace bytes are cut are identical run to run.  (The
one honest exception: which in-flight item a SIGKILL lands on is a race
by nature; the storm's schedule and kill count are still seeded.)

``tools/soak.py`` is the driver that wires these into a request stream
from :mod:`repro.workloads` and asserts the SLOs; see docs/SOAK.md.
"""

from .injectors import (
    CHAOS_INJECTORS,
    DeadlineStorm,
    FaultStorm,
    Schedule,
    TraceTruncator,
    WorkerKillStorm,
    realize_fault,
    seeded_schedule,
)

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

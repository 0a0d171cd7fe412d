"""Supervised execution runtime: detection, fallback, and recovery.

PR 2 classified faults *offline*; this package survives them *online*.
Sorts run on self-checking hardware (:mod:`repro.circuits.checkers`)
under a wall-clock deadline, every result clears both the gate-level
alarms and a software invariant gate, and failures walk a graceful
degradation ladder — JIT kernel → compiled engine → interpreter oracle
→ behavioral ``np.sort`` — governed by a :class:`RecoveryPolicy` with
bounded retry and exponential backoff.  ``core.api.sort_bits(..., supervised=True)``
routes through the shared per-network :func:`get_supervisor`.

:mod:`repro.runtime.guard` provides the underlying deadline/retry
primitives, reused by the campaign tools for per-item timeouts and
poison-item quarantine.
"""

from .guard import deadline_supported, run_guarded, time_limit
from .supervisor import (
    CallReport,
    RecoveryPolicy,
    Supervisor,
    SupervisorStats,
    get_supervisor,
    reset_supervisors,
    supervisor_stats,
)

__all__ = [
    "CallReport",
    "RecoveryPolicy",
    "Supervisor",
    "SupervisorStats",
    "deadline_supported",
    "get_supervisor",
    "reset_supervisors",
    "run_guarded",
    "supervisor_stats",
    "time_limit",
]

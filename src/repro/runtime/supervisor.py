"""Supervised sort execution: detect, retry, degrade, recover.

The :class:`Supervisor` is the online counterpart of PR 2's offline
fault campaigns.  Every sort runs on **self-checking hardware** (the
network with :func:`repro.circuits.checkers.with_checkers` attached, or
the fish sorter paired with a boundary
:class:`~repro.circuits.checkers.OutputChecker`) under a wall-clock
deadline, and the result must clear two independent gates before being
returned:

1. the gate-level alarm wires (sortedness / ones-count / control
   duplicate-and-compare) must all be quiet, and
2. a behavioral invariant check in software — output monotone and its
   population count equal to the *caller-held* input's.  This second
   gate closes the checkers' fault-secure boundary: a stuck primary
   input fools the hardware checker (which observes the faulted bus) but
   not the supervisor, which still holds the pre-corruption input.

A rung that *runs* decides the call, as in :func:`checked_run`.  The
sorters are deterministic and every rung evaluates the same checked
hardware bit-identically, so a row one rung rejects (an alarm or an
invariant failure) would be rejected again by a retry or a slower rung:
the supervisor records the detections and answers with the behavioral
``np.sort`` of the held input at once.  A rung that *fails to run* (an
engine exception or the deadline) triggers the :class:`RecoveryPolicy`:
bounded retry with exponential backoff at the current tier, then
degradation down the execution ladder — code-generated JIT kernel →
compiled engine → element-at-a-time interpreter oracle → behavioral
``np.sort``.  Either way a supervised call returns the *correct* answer
even when the circuit itself is faulty (the acceptance criterion of the
supervised fault campaigns).  Per-call statistics (detections, alarm
counts, tier usage, retries, latencies) accumulate in
:class:`SupervisorStats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..circuits.checkers import CheckedNetlist, build_output_checker, with_checkers
from ..circuits.simulate import simulate_engine, simulate_interpreted, simulate_jit
from ..core.sequences import sorts_rows
from ..errors import BuildError, CheckerAlarm, DeadlineExceeded, ReproError, SimulationError
from .guard import time_limit

__all__ = [
    "CallReport",
    "RecoveryPolicy",
    "Supervisor",
    "SupervisorStats",
    "checked_pass",
    "checked_run",
    "get_supervisor",
    "reset_supervisors",
    "supervisor_stats",
]

#: Execution tiers, fastest first.  ``jit`` runs the code-generated
#: bit-slice kernel (:mod:`repro.circuits.jit`; degraded past when
#: ``REPRO_JIT=0`` disables it), ``engine`` is pinned to the fused-step
#: interpreter so the two compiled rungs stay independent.  ``jit`` and
#: ``interpreter`` are both skipped for the fish network (its phases are
#: behavioral objects, not netlists, and already run through both
#: engines).  Every checked path walks this one ladder.
TIERS = ("jit", "engine", "interpreter", "behavioral")

#: Alarm pseudo-name for the supervisor's software invariant gate.
INVARIANT = "invariant"


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the supervisor does when a tier fails to run.

    ``max_retries`` re-runs of a tier that raised or hit its deadline
    (exponential backoff from ``backoff_s`` by ``backoff_factor``) before
    degrading to the next tier; a tier that runs and rejects the row is
    never retried (see :class:`Supervisor`).  ``deadline_s`` is the
    per-attempt wall-clock budget (``None`` disables it);
    ``control_checker`` additionally attaches the duplicate-and-compare
    steering checker to combinational hardware.

    ``max_backoff_s`` caps each backoff sleep.  Unset, it defaults to
    ``deadline_s`` when a deadline is configured: uncapped,
    ``backoff_s * backoff_factor**k`` grows without bound and a call
    under a deadline storm can burn more wall-clock *sleeping between
    retries* than its entire per-attempt budget — the failure mode the
    chaos soak's deadline injector surfaces.
    """

    max_retries: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: Optional[float] = None
    deadline_s: Optional[float] = None
    control_checker: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise BuildError("max_retries must be >= 0")
        if self.max_backoff_s is not None and self.max_backoff_s < 0:
            raise BuildError("max_backoff_s must be >= 0")

    @property
    def backoff_cap_s(self) -> Optional[float]:
        """Effective per-sleep cap: ``max_backoff_s``, else the deadline
        budget, else unlimited."""
        if self.max_backoff_s is not None:
            return self.max_backoff_s
        return self.deadline_s


@dataclass
class CallReport:
    """What happened during one supervised sort."""

    tier: str  #: tier that produced the accepted result
    attempts: int  #: total attempts across all tiers
    retries: int  #: attempts beyond the first per tier
    detections: Tuple[str, ...]  #: alarm names observed along the way
    fell_back: bool  #: resolved below the first tier
    deadline_hits: int  #: attempts killed by the deadline
    latency_s: float  #: wall-clock of the whole call


@dataclass
class SupervisorStats:
    """Aggregate counters across supervised calls (see :meth:`snapshot`)."""

    calls: int = 0
    detected_calls: int = 0
    fallback_calls: int = 0
    retries: int = 0
    deadline_hits: int = 0
    alarms: Dict[str, int] = field(default_factory=dict)
    tier_used: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)

    _LATENCY_WINDOW = 1024

    def record(self, report: CallReport) -> None:
        self.calls += 1
        if report.detections:
            self.detected_calls += 1
        if report.fell_back:
            self.fallback_calls += 1
        self.retries += report.retries
        self.deadline_hits += report.deadline_hits
        for name in report.detections:
            self.alarms[name] = self.alarms.get(name, 0) + 1
        self.tier_used[report.tier] = self.tier_used.get(report.tier, 0) + 1
        self.latencies_s.append(report.latency_s)
        if len(self.latencies_s) > self._LATENCY_WINDOW:
            del self.latencies_s[: -self._LATENCY_WINDOW]

    def snapshot(self) -> Dict[str, object]:
        lat = self.latencies_s
        return {
            "calls": self.calls,
            "detected_calls": self.detected_calls,
            "fallback_calls": self.fallback_calls,
            "retries": self.retries,
            "deadline_hits": self.deadline_hits,
            "alarms": dict(self.alarms),
            "tier_used": dict(self.tier_used),
            "mean_latency_s": float(np.mean(lat)) if lat else 0.0,
            "max_latency_s": float(np.max(lat)) if lat else 0.0,
        }


def rejection_names(alarm_names, alarm_row) -> Tuple[str, ...]:
    """Why a row was rejected: the alarms set in ``alarm_row``, else
    :data:`INVARIANT` (only the software gate refused it)."""
    fired = tuple(name for name, bit in zip(alarm_names, alarm_row) if bit)
    return fired or (INVARIANT,)


def checked_pass(
    checked: CheckedNetlist, rows: np.ndarray, tier: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one rung of :data:`TIERS` over a ``(lanes, width)`` batch.

    Returns the data rows, the per-row alarms (one column per
    ``checked.alarm_names``) and the accepted mask: alarms quiet and
    :func:`sorts_rows` true against the caller-held ``rows``.  Raises
    when the tier cannot run.
    """
    if tier == "behavioral":
        data = np.sort(rows, axis=1)
        alarms = np.zeros((rows.shape[0], len(checked.alarm_names)), np.uint8)
    else:
        # Looked up at call time so patched kernels are the ones run.
        run = {
            "jit": simulate_jit,
            "engine": simulate_engine,
            "interpreter": simulate_interpreted,
        }[tier]
        data, alarms = checked.split(run(checked.netlist, rows))
    return data, alarms, ~alarms.any(axis=1) & sorts_rows(rows, data)


def checked_run(
    checked: CheckedNetlist, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """:func:`checked_pass` down :data:`TIERS` until a rung runs; rows
    it rejects become ``np.sort`` of the held input, so the result is
    never partial.  Returns ``(data, alarms, accepted, tier)``.
    """
    for tier in TIERS[:-1]:
        try:
            data, alarms, accepted = checked_pass(checked, rows, tier)
            break
        except (ReproError, RuntimeError):
            continue
    else:
        tier = TIERS[-1]
        data, alarms, accepted = checked_pass(checked, rows, tier)
    if not accepted.all():
        data = np.where(accepted[:, None], data, np.sort(rows, axis=1))
    return data, alarms, accepted, tier


class Supervisor:
    """Run sorts on self-checking hardware with detection and recovery.

    ``network`` is one of ``core.api.NETWORKS``.  ``hardware`` optionally
    overrides how the (checked) circuit for a given width is obtained —
    a callable ``n -> CheckedNetlist`` for the combinational networks,
    or ``n -> (FishSorter, OutputChecker)`` for ``"fish"``.  The fault
    campaigns use this hook to hand the supervisor deliberately *broken*
    hardware and assert that every call still returns a correct, sorted
    result (via detection + fallback).
    """

    def __init__(
        self,
        network: str = "mux_merger",
        policy: Optional[RecoveryPolicy] = None,
        hardware: Optional[Callable[[int], object]] = None,
    ) -> None:
        from ..core.api import NETWORKS

        if network not in NETWORKS:
            raise BuildError(
                f"unknown network {network!r}; choose one of {NETWORKS}"
            )
        self.network = network
        self.policy = policy or RecoveryPolicy()
        self.stats = SupervisorStats()
        self._hardware = hardware
        self._cache: Dict[int, object] = {}
        self._lock = threading.RLock()

    # -- hardware -------------------------------------------------------------

    def _get_hardware(self, n: int):
        with self._lock:
            hw = self._cache.get(n)
            if hw is None:
                hw = (
                    self._hardware(n)
                    if self._hardware is not None
                    else self._build_hardware(n)
                )
                self._cache[n] = hw
            return hw

    def _build_hardware(self, n: int):
        from ..core.api import make_sorter

        if self.network == "fish":
            return make_sorter(n, "fish"), build_output_checker(n)
        plain = make_sorter(n, self.network)
        return with_checkers(
            plain,
            sortedness=True,
            count=True,
            control=self.policy.control_checker,
        )

    def reset(self) -> None:
        """Drop cached hardware and statistics."""
        with self._lock:
            self._cache.clear()
            self.stats = SupervisorStats()

    # -- tiers ----------------------------------------------------------------

    def _run_tier(
        self, tier: str, padded: np.ndarray, pipelined: bool
    ) -> np.ndarray:
        """One attempt at ``tier``: a batch of one through the shared
        acceptance check, raising :class:`CheckerAlarm` (alarm names, or
        ``"invariant"`` when only the software gate rejects) on refusal.
        A refusal is final: :meth:`_supervise` answers it from the
        behavioral rung without retrying."""
        rows = padded[None, :]
        if tier == "behavioral":
            return np.sort(padded)
        hw = self._get_hardware(padded.size)
        if self.network == "fish":
            # The fish sorter is a behavioral object, not a netlist, so
            # only the engine rung runs it (see TIERS).
            sorter, checker = hw
            out, _report = sorter.sort(padded, pipelined=pipelined)
            data = np.asarray(out, dtype=np.uint8)[None, :]
            alarms = checker.alarms(rows, data)
            accepted = ~alarms.any(axis=1) & sorts_rows(rows, data)
        else:
            checker = hw
            data, alarms, accepted = checked_pass(hw, rows, tier)
        if not accepted[0]:
            raise CheckerAlarm(rejection_names(checker.alarm_names, alarms[0]))
        return data[0]

    # -- public API -----------------------------------------------------------

    def sort(self, bits, pipelined: bool = False) -> np.ndarray:
        """Sort like :func:`repro.core.api.sort_bits`, supervised."""
        out, _report = self.sort_verbose(bits, pipelined=pipelined)
        return out

    def run_many(
        self, seqs, pipelined: bool = False
    ) -> Tuple[List[np.ndarray], List[CallReport]]:
        """Supervised sort of a whole batch; results in input order.

        Returns ``(outputs, reports)`` — one sorted array and one
        :class:`CallReport` per input sequence, each from
        :meth:`sort_verbose`, so every report is folded into this
        supervisor's :class:`SupervisorStats`.
        """
        outs, reports = [], []
        for seq in seqs:
            out, report = self.sort_verbose(seq, pipelined=pipelined)
            outs.append(out)
            reports.append(report)
        return outs, reports

    def sort_verbose(
        self, bits, pipelined: bool = False
    ) -> Tuple[np.ndarray, CallReport]:
        """Supervised sort returning the :class:`CallReport` as well."""
        from ..core.api import next_power_of_two

        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size and arr.max() > 1:
            raise SimulationError("sort_bits expects a 0/1 sequence")
        started = time.perf_counter()
        if arr.size <= 1:
            report = CallReport("behavioral", 1, 0, (), False, 0,
                                time.perf_counter() - started)
            self.stats.record(report)
            return arr.copy(), report
        n = next_power_of_two(max(arr.size, 4 if self.network == "fish" else 2))
        padded = np.concatenate([arr, np.ones(n - arr.size, dtype=np.uint8)])
        if obs.OBS.enabled:
            with obs.OBS.tracer.span(
                "supervisor.sort", network=self.network, n=int(arr.size)
            ) as attrs:
                data, report = self._supervise(padded, pipelined, started)
                attrs.update(
                    tier=report.tier,
                    attempts=report.attempts,
                    retries=report.retries,
                    detections=list(report.detections),
                    fell_back=report.fell_back,
                    deadline_hits=report.deadline_hits,
                )
            self._record_metrics(report)
        else:
            data, report = self._supervise(padded, pipelined, started)
        self.stats.record(report)
        return data[: arr.size], report

    def _record_metrics(self, report: CallReport) -> None:
        """Fold one call's report into the global metrics registry
        (only reached when :mod:`repro.obs` is enabled)."""
        reg = obs.OBS.registry
        net = self.network
        reg.counter("repro_supervisor_calls_total",
                    "Supervised sorts by accepted tier",
                    network=net, tier=report.tier).inc()
        if report.fell_back:
            reg.counter("repro_supervisor_fallbacks_total",
                        "Calls resolved below the first tier",
                        network=net, tier=report.tier).inc()
        if report.retries:
            reg.counter("repro_supervisor_retries_total",
                        "Attempts beyond the first per tier",
                        network=net).inc(report.retries)
        if report.deadline_hits:
            reg.counter("repro_supervisor_deadline_hits_total",
                        "Attempts killed by the deadline",
                        network=net).inc(report.deadline_hits)
        for alarm in report.detections:
            reg.counter("repro_supervisor_alarms_total",
                        "Alarm detections by alarm name",
                        network=net, alarm=alarm).inc()
        reg.histogram("repro_supervisor_latency_seconds",
                      "Wall-clock of supervised sorts",
                      network=net).observe(report.latency_s)

    def _supervise(
        self, padded: np.ndarray, pipelined: bool, started: float
    ) -> Tuple[np.ndarray, CallReport]:
        policy = self.policy
        detections: List[str] = []
        attempts = retries = deadline_hits = 0
        last_error: Optional[BaseException] = None
        rejected = False
        tiers = [
            t for t in TIERS
            if not (self.network == "fish" and t in ("jit", "interpreter"))
        ]
        # All trace_event calls are no-ops unless repro.obs is enabled;
        # they journal every decision the retry/degradation ladder takes.
        for tier_index, tier in enumerate(tiers):
            if rejected and tier != TIERS[-1]:
                continue
            if tier_index:
                obs.trace_event("supervisor.degrade", network=self.network,
                                to_tier=tier, attempts=attempts)
            delay = policy.backoff_s
            cap = policy.backoff_cap_s
            for attempt in range(policy.max_retries + 1):
                attempts += 1
                if attempt:
                    retries += 1
                    sleep_s = delay if cap is None else min(delay, cap)
                    obs.trace_event("supervisor.retry", network=self.network,
                                    tier=tier, attempt=attempt,
                                    delay_s=sleep_s)
                    if sleep_s > 0:
                        time.sleep(sleep_s)
                    delay *= policy.backoff_factor
                try:
                    with time_limit(policy.deadline_s, f"{tier} sort"):
                        data = self._run_tier(tier, padded, pipelined)
                    report = CallReport(
                        tier=tier,
                        attempts=attempts,
                        retries=retries,
                        detections=tuple(dict.fromkeys(detections)),
                        fell_back=tier_index > 0,
                        deadline_hits=deadline_hits,
                        latency_s=time.perf_counter() - started,
                    )
                    obs.trace_event("supervisor.accept", network=self.network,
                                    tier=tier, attempts=attempts)
                    return data, report
                except CheckerAlarm as exc:
                    # The rung ran and rejected the row; every rung runs
                    # the same deterministic hardware, so only the
                    # behavioral rung can answer it.
                    detections.extend(exc.alarms)
                    last_error = exc
                    rejected = True
                    obs.trace_event("supervisor.alarm", network=self.network,
                                    tier=tier, attempt=attempt,
                                    alarms=list(exc.alarms))
                    break
                except DeadlineExceeded as exc:
                    deadline_hits += 1
                    last_error = exc
                    obs.trace_event("supervisor.deadline",
                                    network=self.network, tier=tier,
                                    attempt=attempt,
                                    budget_s=policy.deadline_s)
                except (SimulationError, RuntimeError) as exc:
                    last_error = exc
                    obs.trace_event("supervisor.error", network=self.network,
                                    tier=tier, attempt=attempt,
                                    error=repr(exc))
        # Every tier (including behavioral) failed — propagate the last
        # cause wrapped in the structured hierarchy.
        obs.trace_event("supervisor.exhausted", network=self.network,
                        attempts=attempts, error=repr(last_error))
        if isinstance(last_error, ReproError):
            raise last_error
        raise SimulationError(f"supervised sort failed: {last_error!r}")


# ---------------------------------------------------------------------------
# Shared per-network supervisors (used by core.api.sort_bits)
# ---------------------------------------------------------------------------

_SUPERVISORS: Dict[str, Supervisor] = {}
_SUPERVISORS_LOCK = threading.RLock()


def get_supervisor(network: str = "mux_merger") -> Supervisor:
    """The process-wide shared :class:`Supervisor` for ``network``
    (created on first use; backs ``sort_bits(..., supervised=True)``)."""
    with _SUPERVISORS_LOCK:
        sup = _SUPERVISORS.get(network)
        if sup is None:
            sup = Supervisor(network)
            _SUPERVISORS[network] = sup
        return sup


def reset_supervisors() -> None:
    """Drop all shared supervisors (tests use this for isolation)."""
    with _SUPERVISORS_LOCK:
        _SUPERVISORS.clear()


def supervisor_stats() -> Dict[str, Dict[str, object]]:
    """Snapshot of every shared supervisor's statistics, by network."""
    with _SUPERVISORS_LOCK:
        return {k: s.stats.snapshot() for k, s in _SUPERVISORS.items()}

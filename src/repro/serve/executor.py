"""Checked batch execution for the service: one fabric pass per batch.

The executor owns the *fabric*: per-width self-checking netlists
(:func:`repro.circuits.checkers.with_checkers` — sortedness +
ones-count + control duplicate-and-compare alarms) built once and
reused across the whole request stream, the pipelined-reuse pattern
Piotrów's periodic merging networks motivate.  Each flushed batch runs
as **one** simulation pass; at >= 64 lanes the engine's bit-packed
uint64 path kicks in, which is where batching turns into throughput.

Each batch walks the supervised runtime's ladder
(:func:`repro.runtime.supervisor.checked_run`: JIT → engine →
element-at-a-time interpreter → behavioral sort).  A row is accepted
when its alarm wires are quiet and :func:`repro.core.sequences.sorts_rows`
holds against the caller-held input — a *complete* check on 0/1 rows,
so an accepted row is provably correct.  Rejected rows are **recovered
behaviorally** (``np.sort`` of the held input) before the response is
assembled — a degraded-but-correct answer, never a silent corruption.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..circuits.checkers import CheckedNetlist, with_checkers
# Unused here, but bench/spans.py patches them by name.
from ..circuits.simulate import simulate, simulate_interpreted  # noqa: F401
from ..core.api import make_sorter, next_power_of_two
from ..errors import BuildError
from ..runtime.supervisor import checked_run, rejection_names
from .. import obs

__all__ = ["BatchOutcome", "FabricExecutor"]


@dataclass
class BatchOutcome:
    """Result of one batch pass: verified rows plus what it took."""

    data: np.ndarray  #: (lanes, width) final rows, all provably correct
    accepted: np.ndarray  #: bool mask — rows the hardware answer survived
    tier: str  #: the rung of ``supervisor.TIERS`` that ran
    alarms: int  #: rows with any checker alarm set
    invariant_fails: int  #: alarm-quiet rows failing monotone/popcount
    recovered: int  #: rows replaced by behavioral recovery
    wall_s: float  #: execution wall-clock for the whole pass
    #: lane -> alarm names that rejected it (:class:`CallReport` vocabulary)
    detections: Dict[int, Tuple[str, ...]]

    @property
    def lanes(self) -> int:
        return int(self.data.shape[0])


class FabricExecutor:
    """Per-width checked fabric with batch execution and recovery."""

    def __init__(self, network: str = "mux_merger", control: bool = True) -> None:
        from ..core.api import NETWORKS

        if network not in NETWORKS:
            raise BuildError(
                f"unknown network {network!r}; choose one of {NETWORKS}"
            )
        if network == "fish":
            raise BuildError(
                "the service fabric needs a combinational network "
                "(checkers attach directly); choose prefix or mux_merger"
            )
        self.network = network
        self.control = bool(control)
        self._checked: Dict[int, CheckedNetlist] = {}
        self._lock = threading.Lock()

    # -- hardware -------------------------------------------------------------

    def checked(self, width: int) -> CheckedNetlist:
        """The self-checking netlist for ``width`` (built once, reused)."""
        if width < 2 or width & (width - 1):
            raise BuildError(f"fabric width must be a power of two >= 2, got {width}")
        with self._lock:
            hw = self._checked.get(width)
            if hw is None:
                plain = make_sorter(width, self.network)
                hw = with_checkers(
                    plain, sortedness=True, count=True, control=self.control
                )
                self._checked[width] = hw
            return hw

    def pad_width(self, n: int) -> int:
        """Fabric width serving an ``n``-bit row (next power of two)."""
        return next_power_of_two(max(int(n), 2))

    # -- execution ------------------------------------------------------------

    def run_batch(self, width: int, rows: np.ndarray) -> BatchOutcome:
        """Execute one same-width batch with checking and recovery.

        ``rows`` is ``(lanes, width)`` uint8, already padded to the
        fabric width.  Never raises for hardware/checker trouble — every
        failure mode degrades to a behaviorally recovered (correct) row.
        """
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise BuildError(f"batch must be (lanes, {width}), got {rows.shape}")
        started = time.perf_counter()
        checked = self.checked(width)
        data, alarms, accepted, tier = checked_run(checked, rows)
        alarm_rows = alarms.any(axis=1)
        n_alarm = int(alarm_rows.sum())
        n_invariant = int((~accepted & ~alarm_rows).sum())
        detections = {
            int(lane): rejection_names(checked.alarm_names, alarms[lane])
            for lane in np.flatnonzero(~accepted)
        }
        if tier == "behavioral":  # no hardware answer survived
            accepted = np.zeros(rows.shape[0], dtype=bool)
        n_recovered = int((~accepted).sum())
        wall_s = time.perf_counter() - started
        if obs.OBS.enabled:
            self._record_metrics(width, rows.shape[0], tier, n_alarm,
                                 n_recovered, wall_s)
        return BatchOutcome(
            data=data,
            accepted=accepted,
            tier=tier,
            alarms=n_alarm,
            invariant_fails=n_invariant,
            recovered=n_recovered,
            wall_s=wall_s,
            detections=detections,
        )

    def _record_metrics(self, width, lanes, tier, alarms, recovered, wall_s):
        reg = obs.OBS.registry
        net = self.network
        reg.counter("repro_serve_batches_total",
                    "Batches executed by accepted tier",
                    network=net, tier=tier).inc()
        reg.counter("repro_serve_lanes_total",
                    "Fabric lanes executed", network=net).inc(lanes)
        if alarms:
            reg.counter("repro_serve_alarm_rows_total",
                        "Batch rows with checker alarms", network=net).inc(alarms)
        if recovered:
            reg.counter("repro_serve_recovered_rows_total",
                        "Rows replaced by behavioral recovery",
                        network=net).inc(recovered)
        reg.histogram("repro_serve_batch_seconds",
                      "Wall-clock per batch pass", network=net,
                      width=width).observe(wall_s)

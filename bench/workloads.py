"""The five workloads: set-up, warm-up, timed window, then checking.

Each workload runs in its own process (see ``worker.py``).  The order
inside that process is fixed:

1. build the input pool from the seed (NumPy only, before any clock);
2. set-up, timed: ``import repro`` up to the first steady-state answer —
   netlist build, checkers and the JIT compile of every width used;
3. an untimed warm-up at full load;
4. the timed window (with ``trace``, its first half runs untraced and
   its second half traced, so the run also measures tracing overhead);
5. every stored answer is checked against ground truth.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import resource
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

import pools
import spans as sp
from metrics import percentile_ms
from pools import CONCENTRATE, ROUTE, SORT
from verify import NO_PORT, Store, check_serve, check_sorted, pack_bits

#: name -> why, in the order ``run.py`` runs them.
WORKLOADS: Dict[str, str] = {
    "serve_saturated": "512 closed-loop clients keep batches full, so fabric, "
                       "acceptance, route assembly and per-lane futures set "
                       "throughput; the coalescer age wait is bypassed",
    "serve_paced": "open-loop Poisson 3000 req/s: batches stay small and "
                   "flush on age, so the coalescer wait dominates latency "
                   "and the fabric does little",
    "library_sort": "one sort_bits caller over widths 64/256/1024 with "
                    "padding isolates the simulate kernel; no checkers, "
                    "supervisor or service",
    "supervised_sort": "the library_sort inputs through Supervisor.sort_verbose "
                       "on healthy hardware: kernel plus checkers plus the "
                       "acceptance gate, no fallback",
    "supervised_recovery": "n=64 on hardware with one output-swap fault: "
                           "about 12% of calls walk the retry and "
                           "degradation ladder",
}

SERVE_MIX = {
    "serve_saturated": {SORT: 8, CONCENTRATE: 1, ROUTE: 1},
    "serve_paced": {SORT: 9, CONCENTRATE: 1},
}
SATURATED_CLIENTS = 512
PACED_RATE = 3000.0
#: Slices of the timed window whose median is each timing metric.
SUB_WINDOWS = 5
#: Fault rule band: alarm share of the probe rows.
FAULT_BAND = (0.08, 0.16)

#: One record per request of the timed window.  ``start`` is when the
#: request was sent (open loop: when it was due); ``aux`` is the grant
#: count of a concentrate or ``CallReport.fell_back`` of a supervised
#: sort; ``late`` is how late an open-loop request was sent.
LOG = np.dtype([("idx", "i4"), ("start", "f8"), ("latency", "f4"),
                ("status", "i1"), ("aux", "f4"), ("late", "f4")])
# Request outcomes.  MALFORMED is an answer of the wrong shape, or a
# route naming a port outside [0, n); it counts as a wrong answer.
OK, SHED, ERROR, EXCEPTION, MALFORMED = 0, 1, 2, 3, 4


@dataclasses.dataclass(frozen=True)
class Phases:
    """Absolute ``time.monotonic`` marks of one run's load."""

    window: float  #: timed window start (warm-up ends)
    traced: float  #: traced half start (== ``end`` when not tracing)
    end: float  #: timed window end

    @classmethod
    def starting_now(cls, warmup_s: float, seconds: float,
                     trace: bool) -> "Phases":
        window = time.monotonic() + warmup_s
        end = window + seconds
        return cls(window, window + seconds / 2 if trace else end, end)


class Log:
    """The timed window's request records and their answers."""

    def __init__(self, answer_bits: int, route_n: int = 0) -> None:
        self.records = Store(None, LOG)
        self.packed = Store(answer_bits // 8, np.uint8)  #: bit answers
        self.routes = Store(route_n, np.uint8) if route_n else None


@dataclasses.dataclass
class Run:
    """What one workload run collected."""

    setup_s: float
    log: Log
    phases: Optional[Phases] = None
    peak_rss_mb: float = 0.0  #: read when the load stops, before checking
    ok: Optional[np.ndarray] = None  #: per-row correctness after checking
    info: Dict[str, object] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    recorder: Optional[sp.Recorder] = None  #: spans of a traced run
    first_error: str = ""


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Library workloads: one synchronous caller
# ---------------------------------------------------------------------------

def _sync_loop(call: Callable[[int], Tuple[np.ndarray, float]],
               lengths: np.ndarray, phases: Phases, run: Run,
               on_traced: Optional[Callable[[], None]]) -> None:
    """Closed loop over the pool until ``phases.end``; ``call(i)``
    returns the answer for pool entry ``i`` (``lengths[i]`` bits) and an
    auxiliary value."""
    records, packed = run.log.records, run.log.packed
    n_pool = lengths.size
    k = 0
    while True:
        t0 = time.monotonic()
        if t0 >= phases.end:
            return
        if on_traced is not None and t0 >= phases.traced:
            on_traced()
            on_traced = None
        i = k % n_pool
        k += 1
        out, aux, status = None, 0.0, OK
        try:
            out, aux = call(i)
        except Exception as exc:  # a failed call is counted, not fatal
            status = EXCEPTION
            run.first_error = run.first_error or repr(exc)
        t1 = time.monotonic()
        if t0 < phases.window:
            continue
        bits = None
        if status == OK:
            bits = pack_bits(out) if out.shape == (lengths[i],) else None
            status = OK if bits is not None else MALFORMED
        records.append((i, t0, t1 - t0, status, aux, 0.0))
        packed.append(() if bits is None else bits)


def _library_setup(workload: str, pool: pools.LibraryPool):
    """Set-up for the library workloads; returns ``call(i)``."""
    import repro.core.api as api
    from repro.runtime import Supervisor

    first = {w: int(np.flatnonzero(pool.widths == w)[0])
             for w in pools.LIBRARY_WIDTHS}
    if workload == "library_sort":
        # The shipped auto-routing JIT-compiles a netlist on its third
        # simulate call; eight calls per width reach the steady state.
        for i in first.values():
            for _ in range(8):
                api.sort_bits(pool.row(i))

        return lambda i: (api.sort_bits(pool.row(i)), 0.0)

    sup = Supervisor("mux_merger")
    for i in first.values():
        for _ in range(2):  # the first call compiles the checked netlist
            sup.sort_verbose(pool.row(i))

    def call(i):
        out, report = sup.sort_verbose(pool.row(i))
        return out, float(report.fell_back)

    return call


def choose_fault(plain, checked, probe: np.ndarray) -> Tuple[int, float]:
    """The recovery workload's fault, chosen by rule.

    The lowest-index routing element ``i`` of ``plain`` such that
    ``OutputSwap(i)`` applied to ``checked`` (the same netlist with
    checkers attached; element indices carry over) raises an alarm on a
    share of ``probe`` rows inside :data:`FAULT_BAND`.
    """
    from repro.circuits import faults
    from repro.circuits.simulate import simulate

    for i, element in enumerate(plain.elements):
        if element.kind not in faults.SWAPPABLE_KINDS:
            continue
        mutant = faults.apply_fault(checked.netlist, faults.OutputSwap(i))
        rate = float(checked.alarm_rows(simulate(mutant, probe)).mean())
        if FAULT_BAND[0] <= rate <= FAULT_BAND[1]:
            return i, rate
    raise RuntimeError("no output-swap fault raises alarms inside "
                       f"{FAULT_BAND} of the probe rows")


def _recovery_setup(pool: pools.LibraryPool):
    import repro.core.api as api
    from repro.circuits import checkers, faults
    from repro.circuits.simulate import simulate
    from repro.runtime import Supervisor

    plain = api.make_sorter(pools.SERVE_N, "mux_merger")
    checked = checkers.with_checkers(plain, sortedness=True, count=True,
                                     control=True)
    probe = pools.probe_rows()
    index, rate = choose_fault(plain, checked, probe)
    broken = dataclasses.replace(checked, netlist=faults.apply_fault(
        checked.netlist, faults.OutputSwap(index)))
    sup = Supervisor("mux_merger", hardware=lambda n: broken)
    alarmed = broken.alarm_rows(simulate(broken.netlist, probe))
    quiet_row = probe[int(np.flatnonzero(~alarmed)[0])]
    for row in (quiet_row, quiet_row, probe[int(np.flatnonzero(alarmed)[0])]):
        sup.sort_verbose(row)

    def call(i):
        out, report = sup.sort_verbose(pool.bits[i])
        return out, float(report.fell_back)

    def spread_alarms() -> float:
        """Untimed: reorder the pool so alarming rows are spread evenly
        (every stretch of the run then sees the pool's alarm share)."""
        flags = broken.alarm_rows(simulate(broken.netlist, pool.bits))
        order = pools.interleave(flags)
        pool.bits, pool.ones = pool.bits[order], pool.ones[order]
        return float(flags.mean())

    info = {"fault": faults.OutputSwap(index).id,
            "fault_probe_alarm_rate": rate}
    return call, spread_alarms, info


def run_library(workload: str, seed: int, seconds: float, warmup_s: float,
                trace: bool, setup_only: bool) -> Run:
    recovery = workload == "supervised_recovery"
    pool = pools.recovery_pool(seed) if recovery else pools.library_pool(seed)
    rec = sp.Recorder()
    t0 = time.monotonic()
    import repro  # noqa: F401  (timed: importing is part of set-up)

    if trace:
        sp.patch_setup(rec)
    info: Dict[str, object] = {}
    if recovery:
        call, spread_alarms, info = _recovery_setup(pool)
    else:
        call = _library_setup(workload, pool)
    setup_end = time.monotonic()
    run = Run(setup_end - t0, Log(pool.bits.shape[1]), info=info)
    rec.restore()
    if setup_only:
        return run
    if recovery:
        run.info["pool_alarm_share"] = spread_alarms()
    run.phases = phases = Phases.starting_now(warmup_s, seconds, trace)
    try:
        _sync_loop(call, pool.lengths, phases, run,
                   (lambda: sp.patch_hot(rec)) if trace else None)
    finally:
        rec.restore()
    run.peak_rss_mb = _rss_mb()
    records = run.log.records.rows()
    run.ok = check_sorted(pool, records["idx"], run.log.packed.rows())
    if workload != "library_sort":
        run.info["fallback_frac"] = (float(records["aux"].mean())
                                     if records.size else 0.0)
    if trace:
        run.layers = sp.layer_metrics(rec, phases.traced, phases.end, setup_end)
        run.recorder = rec
    return run


# ---------------------------------------------------------------------------
# Serve workloads: one asyncio thread plus the service's fabric thread
# ---------------------------------------------------------------------------

def _serve_request(protocol, pool: pools.ServePool, i: int, tag: str):
    kind = pool.kinds[i]
    if kind == SORT:
        return protocol.sort_request(pool.bits[i], tag)
    if kind == CONCENTRATE:
        return protocol.concentrate_request(pool.bits[i], tag)
    return protocol.route_request(pool.perms[pool.perm_slot[i]], tag)


def _record(run: Run, pool: pools.ServePool, i: int, start: float,
            end: float, resp, late: float = 0.0) -> None:
    n = pools.SERVE_N
    route = pool.kinds[i] == ROUTE
    result = resp.result
    status = {"ok": OK, "shed": SHED}.get(resp.status, ERROR)
    bits = None
    if status == OK:
        if result is None or result.shape != (n,):
            status = MALFORMED
        elif route:  # stored one byte per port
            if not 0 <= result.min() <= result.max() < n:
                status = MALFORMED
        elif (bits := pack_bits(result)) is None:
            status = MALFORMED
    if status == ERROR:
        run.first_error = run.first_error or resp.error
    granted = resp.granted if resp.granted is not None else 0
    log = run.log
    log.records.append((i, start, end - start, status, granted, late))
    log.packed.append(() if bits is None else bits)
    if route:
        log.routes.append(result if status == OK else NO_PORT)


async def _serve_main(workload: str, pool: pools.ServePool, seed: int,
                      seconds: float, warmup_s: float, trace: bool,
                      setup_only: bool, t0: float) -> Run:
    from repro.serve import SortingService, protocol

    rec = sp.Recorder()
    if trace:
        sp.patch_setup(rec)
    svc = SortingService()
    await svc.start()
    try:
        # Eight sorts compile the fabric's JIT plan (auto-routing
        # compiles on the third pass); then one of every other kind.
        warm = [int(np.flatnonzero(pool.kinds == SORT)[0])] * 8
        warm += [int(np.flatnonzero(pool.kinds == k)[0])
                 for k in (CONCENTRATE, ROUTE) if (pool.kinds == k).any()]
        for i in warm:
            await svc.submit(_serve_request(protocol, pool, i, "setup"))
        setup_end = time.monotonic()
        run = Run(setup_end - t0, Log(pools.SERVE_N, route_n=pools.SERVE_N))
        rec.restore()
        if setup_only:
            return run

        run.phases = phases = Phases.starting_now(warmup_s, seconds, trace)

        async def install_tracing():
            await asyncio.sleep(max(0.0, phases.traced - time.monotonic()))
            sp.patch_hot(rec, svc)

        tracer = asyncio.ensure_future(install_tracing()) if trace else None
        if workload == "serve_saturated":
            await _saturated(svc, protocol, pool, phases, run)
        else:
            await _paced(svc, protocol, pool, seed, warmup_s, seconds,
                         phases, run)
        if tracer is not None:
            await tracer
    finally:
        await svc.stop()
        rec.restore()
    run.peak_rss_mb = _rss_mb()
    records = run.log.records.rows()
    run.ok = check_serve(pool, records["idx"], run.log.packed.rows(),
                         run.log.routes.rows(), records["aux"].astype(np.int64))
    if trace:
        run.layers = sp.layer_metrics(rec, phases.traced, phases.end, setup_end)
        run.recorder = rec
    return run


async def _saturated(svc, protocol, pool, phases: Phases, run: Run) -> None:
    """Closed loop: each client awaits its reply before the next send."""
    counter = itertools.count()
    n_pool = len(pool)

    async def client():
        while True:
            start = time.monotonic()
            if start >= phases.end:
                return
            k = next(counter)
            i = k % n_pool
            resp = await svc.submit(_serve_request(protocol, pool, i, str(k)))
            if start >= phases.window:
                _record(run, pool, i, start, time.monotonic(), resp)

    await asyncio.gather(*(client() for _ in range(SATURATED_CLIENTS)))


async def _paced(svc, protocol, pool, seed: int, warmup_s: float,
                 seconds: float, phases: Phases, run: Run) -> None:
    """Open loop: Poisson arrivals from one producer; each request is
    timed from when it was due, and the producer's lateness is kept."""
    base = phases.window - warmup_s
    due = base + pools.poisson_schedule(seed, PACED_RATE, warmup_s + seconds)
    n_pool = len(pool)
    pending = set()

    async def one(j: int, due_at: float, sent: float):
        i = j % n_pool
        resp = await svc.submit(_serve_request(protocol, pool, i, str(j)))
        if due_at >= phases.window:
            _record(run, pool, i, due_at, time.monotonic(), resp,
                    sent - due_at)

    j = 0
    while j < due.size:
        now = time.monotonic()
        while j < due.size and due[j] <= now:
            task = asyncio.ensure_future(one(j, float(due[j]), now))
            pending.add(task)
            task.add_done_callback(pending.discard)
            j += 1
        if j < due.size:
            await asyncio.sleep(float(due[j]) - time.monotonic())
    while pending:
        await asyncio.gather(*list(pending))


def run_serve(workload: str, seed: int, seconds: float, warmup_s: float,
              trace: bool, setup_only: bool) -> Run:
    pool = pools.serve_pool(seed, SERVE_MIX[workload])
    t0 = time.monotonic()
    import repro  # noqa: F401  (timed: importing is part of set-up)

    return asyncio.run(_serve_main(workload, pool, seed, seconds, warmup_s,
                                   trace, setup_only, t0))


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------

def summarize(run: Run) -> Dict[str, object]:
    """Counts, end-to-end metrics and diagnostics of a checked run.

    The end-to-end metrics cover the untraced part of the window (all
    of it unless the run was traced); each request counts in the part
    its start (or, open loop, its due time) falls in.  That part is cut
    into :data:`SUB_WINDOWS` equal slices and each timing metric is the
    median of its per-slice values, so a burst of outside load during
    one slice moves it less than a whole-window mean or quantile.
    """
    ph = run.phases
    records = run.log.records.rows()
    status = records["status"]
    wrong = ((status == OK) & ~run.ok) | (status == MALFORMED)
    good = (status == OK) & run.ok
    latency = records["latency"].astype(float)
    untraced = records["start"] < ph.traced
    half = ph.traced - ph.window
    attempted = int(records.size)
    failed = int((~good).sum())
    out: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "wrong": int(wrong.sum()),
        "shed": int((status == SHED).sum()),
        "errors": int((status == ERROR).sum()),
        "exceptions": int((status == EXCEPTION).sum()),
        "first_error": run.first_error,
        "setup_s": run.setup_s,
    }
    sel = good & untraced
    edges = np.linspace(ph.window, ph.traced, SUB_WINDOWS + 1)
    part = np.searchsorted(edges, records["start"], side="right") - 1
    slices = [sel & (part == k) for k in range(SUB_WINDOWS)]
    metrics = {
        "throughput_ops_s": float(np.median(
            [m.sum() for m in slices])) / (half / SUB_WINDOWS),
        "latency_p50_ms": float(np.median(
            [percentile_ms(latency[m], 50) for m in slices])),
        "latency_p90_ms": float(np.median(
            [percentile_ms(latency[m], 90) for m in slices])),
        "setup_s": run.setup_s,
        "peak_rss_mb": run.peak_rss_mb,
    }
    diag = {
        "bench.client.latency_p99_ms": percentile_ms(latency[sel], 99),
        "bench.client.gen_late_p99_ms": percentile_ms(records["late"][untraced], 99),
        "bench.client.failed_frac": failed / attempted if attempted else 0.0,
        "bench.client.trace_overhead_frac": 0.0,
    }
    if ph.end > ph.traced:
        traced_tput = float((good & ~untraced).sum()) / (ph.end - ph.traced)
        diag["bench.client.trace_overhead_frac"] = (
            1.0 - traced_tput / metrics["throughput_ops_s"]
            if metrics["throughput_ops_s"] else 0.0)
    out["metrics"] = metrics
    out["diagnostics"] = diag
    return out

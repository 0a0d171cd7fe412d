#!/usr/bin/env python
"""Chaos-soak reliability harness: trace-driven load + concurrent chaos.

Usage::

    python tools/soak.py --requests 50000 --chaos all --jobs 2 \
        [--workloads uniform,poisson,bursty,zipf,adversarial,mixed] \
        [--network mux_merger] [--n 16] [--out SOAK.json] \
        [--bench-out benchmarks/results/BENCH_workloads.json] \
        [--trace soak_trace.jsonl] [--metrics soak_metrics.json]

The soak pushes a deterministic request matrix — one *cell* per
:mod:`repro.workloads` workload — through the repo's real serving
surfaces while :mod:`repro.chaos` injectors attack the run, and then
holds the outcome to SLOs:

* **p99 request latency** below ``--slo-p99``;
* **zero silent corruption** — every accepted answer is replayed
  against ``np.sort`` ground truth; one accepted wrong answer fails
  the soak;
* **bounded quarantine rate** — chunks lost to killed/hung workers,
  re-run in-process, must stay under ``--slo-quarantine-rate``;
* **no-progress watchdog** — a worker stuck past ``--watchdog``
  seconds on one chunk is killed (``parallel.stalled`` in the trace)
  and its chunk quarantined, so a wedged pool cannot stall the soak;
* **chaos efficacy** — every enabled injector must demonstrably bite
  (faults detected, deadlines hit, kills landed, cache bytes flipped,
  trace truncated-yet-readable); a chaos soak whose chaos never fired
  proves nothing and FAILs.

Each cell's requests are cut into *chunks* (the parallel work unit,
``--chunk`` requests each, shipped to :func:`repro.parallel.run_items`
workers) and chunks into *rounds* (the checkpoint unit).  A seeded
draw runs each chunk in one of two modes:

* ``batch`` — the whole chunk run on self-checking hardware
  (:func:`repro.circuits.checkers.with_checkers`) through the shared
  checked ladder (:func:`repro.runtime.supervisor.checked_run`, the
  serve fabric's path); alarm rows and software-invariant failures
  (monotone + caller-held ones count) are recovered behaviorally;
* ``supervised`` — request-at-a-time through a live
  :class:`repro.runtime.Supervisor` (retry, backoff cap, degradation
  ladder), the path deadline storms genuinely preempt.

Chaos comes in two shapes.  *Payload* injectors (``faults``,
``deadlines``) resolve to per-chunk flags in the parent — a seeded
fault to rewrite into the worker's netlist, a tiny per-attempt
deadline — so they are exactly reproducible.  *Environment* injectors
(``kills``, ``obstrunc``) attack shared state from the parent: SIGKILL
storms against live pool workers during a round and trace-file tail
truncation between rounds.

**Crash safety and determinism.**  The soak checkpoints atomically
after every round and resumes after SIGKILL exactly like
``fault_campaign.py`` (``--no-resume`` to start over).  The output
document ``--out`` contains only seed-determined content — config,
schedules, per-chunk output digests, the verdict — so the same seed
reproduces it byte-for-byte, interrupted or not, at any ``--jobs``.
Wall-clock facts (latency, throughput, quarantine events, the chaos
log) go to the sibling ``--measured-out`` document, and per-cell
records to ``--bench-out`` in the ``BENCH_workloads.json`` format
gated by ``tools/compare_sweeps.py``.  See docs/SOAK.md.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import sys
import time

# Allow `python tools/soak.py` without an exported PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and os.path.abspath(_SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(_SRC))

import numpy as np

FORMAT_VERSION = 1
NETWORKS = ("mux_merger", "prefix")  # combinational: checkers attach directly

#: Latency histogram: log2 buckets over [1 µs, ~1100 s]; bucket b holds
#: latencies <= 1e-6 * 2**b.  Coarse, but the SLO bound sits orders of
#: magnitude above the expected values, so bucket-upper-bound p99 is a
#: safely conservative estimate.
_LAT_BASE_S = 1e-6
_LAT_BUCKETS = 50


def _lat_bucket(latency_s: float) -> int:
    if latency_s <= _LAT_BASE_S:
        return 0
    return min(_LAT_BUCKETS, int(math.ceil(math.log2(latency_s / _LAT_BASE_S))))


def _hist_add(hist, bucket: int, count: int = 1) -> None:
    key = str(bucket)
    hist[key] = hist.get(key, 0) + count


def _hist_p99(hist) -> float:
    total = sum(hist.values())
    if not total:
        return 0.0
    need = math.ceil(0.99 * total)
    seen = 0
    for key in sorted(hist, key=int):
        seen += hist[key]
        if seen >= need:
            return _LAT_BASE_S * (2 ** int(key))
    return _LAT_BASE_S * (2 ** _LAT_BUCKETS)  # pragma: no cover


# ---------------------------------------------------------------------------
# Worker-side execution
#
# Each process (pool workers and the parent's in-process re-run path)
# builds hardware lazily from the payload alone: everything is keyed on
# (network, width, fault_seed), so any process derives identical state.
# ---------------------------------------------------------------------------

_WCTX = {"checked": {}, "sups": {}}


def _soak_worker_init(_arg) -> None:
    _WCTX["checked"] = {}
    _WCTX["sups"] = {}


def _checked_hardware(network: str, n: int, fault_seed):
    """Self-checking (and, under a fault storm, deliberately broken)
    hardware for width ``n`` — cached per process."""
    key = (network, n, fault_seed)
    hw = _WCTX["checked"].get(key)
    if hw is not None:
        return hw
    from repro.chaos import realize_fault
    from repro.circuits import apply_faults
    from repro.circuits.checkers import with_checkers
    from repro.core.api import make_sorter

    plain = make_sorter(n, network)
    checked = with_checkers(plain, sortedness=True, count=True, control=True)
    if fault_seed is not None:
        # Enumerate on the plain netlist (the fault targets the sorter,
        # not the checker logic); with_checkers keeps all wire ids
        # valid, so the same fault objects apply to the checked netlist.
        faults = realize_fault(plain, fault_seed)
        checked = dataclasses.replace(
            checked, netlist=apply_faults(checked.netlist, faults)
        )
    _WCTX["checked"][key] = checked
    return checked


def _supervisor_for(network: str, fault_seed, deadline_s):
    """A supervisor wired to (possibly broken) checked hardware with the
    soak's recovery policy — cached per process."""
    from repro.runtime import RecoveryPolicy, Supervisor

    key = (network, fault_seed, deadline_s)
    sup = _WCTX["sups"].get(key)
    if sup is None:
        policy = RecoveryPolicy(
            max_retries=1,
            backoff_s=5e-4,
            backoff_factor=2.0,
            max_backoff_s=1e-3,  # a deadline storm must not become a sleep storm
            deadline_s=deadline_s,
            control_checker=True,
        )
        sup = Supervisor(
            network, policy=policy,
            hardware=lambda n: _checked_hardware(network, n, fault_seed),
        )
        _WCTX["sups"][key] = sup
    return sup


def _pad_rows(rows, width: int, npad: int) -> np.ndarray:
    batch = np.stack(rows).astype(np.uint8)
    if npad > width:
        pad = np.ones((batch.shape[0], npad - width), dtype=np.uint8)
        batch = np.concatenate([batch, pad], axis=1)
    return batch


def _soak_chunk(payload) -> dict:
    """Execute one chunk of requests; returns the chunk record.

    The record's ``digest`` covers every final output row in request
    order; because every wrong or unverifiable answer is recovered to
    ground truth before digesting, the digest is a pure function of the
    input stream — the anchor of the soak's byte-for-byte determinism.
    """
    from repro.core.api import next_power_of_two
    from repro.errors import ReproError
    from repro.runtime.supervisor import checked_run

    (cell, chunk_index, mode, network, rows, fault_seed, deadline_s) = payload
    started = time.perf_counter()
    stats = {
        "alarms": 0, "invariant": 0, "recovered": 0, "silent": 0,
        "deadline_hits": 0, "retries": 0, "fallbacks": 0, "exhausted": 0,
    }
    lat_hist = {}
    outputs = [None] * len(rows)

    if mode == "batch":
        by_width = {}
        for pos, row in enumerate(rows):
            by_width.setdefault(row.size, []).append(pos)
        for width, positions in sorted(by_width.items()):
            npad = next_power_of_two(max(width, 2))
            batch = _pad_rows([rows[p] for p in positions], width, npad)
            checked = _checked_hardware(network, npad, fault_seed)
            final, alarms, accepted, _tier = checked_run(checked, batch)
            alarm_rows = alarms.any(axis=1)
            wrong = (final != np.sort(batch, axis=1)).any(axis=1)
            stats["alarms"] += int(alarm_rows.sum())
            stats["invariant"] += int((~accepted & ~alarm_rows).sum())
            stats["silent"] += int((accepted & wrong).sum())
            stats["recovered"] += int((~accepted).sum())
            for local, pos in enumerate(positions):
                outputs[pos] = final[local, :width]
    else:  # supervised
        sup = _supervisor_for(network, fault_seed, deadline_s)
        for pos, row in enumerate(rows):
            t0 = time.perf_counter()
            try:
                out, report = sup.sort_verbose(row)
                stats["alarms"] += len(report.detections)
                stats["deadline_hits"] += report.deadline_hits
                stats["retries"] += report.retries
                stats["fallbacks"] += int(report.fell_back)
                if report.fell_back or report.detections:
                    stats["recovered"] += 1
            except ReproError:
                # Every tier (including behavioral) lost to the storm:
                # the driver is the recovery of last resort.
                out = np.sort(row)
                stats["exhausted"] += 1
                stats["recovered"] += 1
            expected = np.sort(row)
            if not np.array_equal(out, expected):
                stats["silent"] += 1
                out = expected
            outputs[pos] = out
            _hist_add(lat_hist, _lat_bucket(time.perf_counter() - t0))

    wall_s = time.perf_counter() - started
    if mode == "batch" and rows:
        _hist_add(lat_hist, _lat_bucket(wall_s / len(rows)), len(rows))

    digest = hashlib.sha256()
    for out in outputs:
        digest.update(np.uint32(out.size).tobytes())
        digest.update(np.ascontiguousarray(out, dtype=np.uint8).tobytes())
    return {
        "cell": cell,
        "chunk": chunk_index,
        "mode": mode,
        "rows": len(rows),
        "fault_seed": fault_seed,
        "deadline": deadline_s is not None,
        "digest": digest.hexdigest(),
        "_measured": {"wall_s": wall_s, "lat_hist": lat_hist, **stats},
    }


# ---------------------------------------------------------------------------
# Parent-side enumeration and chaos wiring
# ---------------------------------------------------------------------------


def _build_chaos(args, active):
    """Instantiate the enabled injectors with seeded schedules.

    ``faults``/``deadlines`` schedule over the per-cell *chunk* index
    (period ``--chaos-period``); the environment injectors schedule over
    the global *round* counter at a denser cadence so that a short soak
    still exercises them several times.
    """
    from repro.chaos import (
        DeadlineStorm,
        FaultStorm,
        TraceTruncator,
        WorkerKillStorm,
        seeded_schedule,
    )

    chaos = {}
    if "faults" in active:
        chaos["faults"] = FaultStorm(
            seeded_schedule(args.seed, "faults", args.chaos_period, args.chaos_duty),
            args.seed,
        )
    if "deadlines" in active:
        chaos["deadlines"] = DeadlineStorm(
            seeded_schedule(args.seed, "deadlines", args.chaos_period, args.chaos_duty),
            deadline_s=args.deadline_s,
        )
    round_period, round_duty = 4, 0.5
    if "kills" in active:
        # One kill per active round keeps the quarantine-rate SLO
        # honest: the storm must hurt, not dominate.
        chaos["kills"] = WorkerKillStorm(
            seeded_schedule(args.seed, "kills", round_period, round_duty),
            args.seed, interval_s=0.02, kill_prob=1.0, max_kills=1,
        )
    if "obstrunc" in active:
        chaos["obstrunc"] = TraceTruncator(
            seeded_schedule(args.seed, "obstrunc", round_period, round_duty),
            args.trace, args.seed,
        )
    return chaos


def _schedule_doc(chaos) -> dict:
    return {
        name: {
            "period": inj.schedule.period,
            "duty": inj.schedule.duty,
            "phase": inj.schedule.phase,
        }
        for name, inj in sorted(chaos.items())
    }


def _enumerate_cell(args, cell: str, per_cell: int, chaos):
    """Deterministic chunk list for one cell: ``[(chunk_id, payload),
    ...]`` plus the cell's input-stream digest."""
    from repro.workloads import make_workload, stable_hash, stream_digest

    wl = make_workload(cell, n=args.n, rate=args.rate, seed=args.seed)
    requests = list(wl.stream(per_cell))
    inputs_digest = stream_digest(requests)
    faults = chaos.get("faults")
    deadlines = chaos.get("deadlines")
    items = []
    for chunk_index in range(0, math.ceil(len(requests) / args.chunk)):
        sl = requests[chunk_index * args.chunk:(chunk_index + 1) * args.chunk]
        mode_rng = np.random.default_rng(np.random.SeedSequence(
            [args.seed, stable_hash(cell, chunk_index, "mode")]
        ))
        mode = ("supervised" if mode_rng.random() < args.supervised_fraction
                else "batch")
        payload = (
            cell, chunk_index, mode, args.network,
            [req.bits for req in sl],
            faults.fault_seed(chunk_index) if faults else None,
            deadlines.deadline(chunk_index) if deadlines else None,
        )
        items.append((f"{cell}/c{chunk_index:05d}", payload))
    return items, inputs_digest


# ---------------------------------------------------------------------------
# SLO evaluation
# ---------------------------------------------------------------------------


def _evaluate_slo(args, active, totals, lat_hist, quarantine, total_chunks,
                  chaos_totals, obs_consistent) -> dict:
    p99 = _hist_p99(lat_hist)
    q_rate = (len(quarantine) / total_chunks) if total_chunks else 0.0
    gates = {
        "p99_latency": {
            "bound_s": args.slo_p99, "value_s": p99,
            "ok": p99 <= args.slo_p99,
        },
        "silent_corruption": {
            "bound": 0, "value": totals["silent"],
            "ok": totals["silent"] == 0,
        },
        "quarantine_rate": {
            "bound": args.slo_quarantine_rate, "value": q_rate,
            "ok": q_rate <= args.slo_quarantine_rate,
        },
        # Reaching evaluation at all means every round made progress
        # under the watchdog; stalls surface as quarantines above.
        "progress": {"watchdog_s": args.watchdog, "ok": True},
    }
    if obs_consistent is not None:
        gates["metrics_consistent"] = {"ok": bool(obs_consistent)}
    if "faults" in active:
        detections = totals["alarms"] + totals["invariant"]
        gates["chaos_faults_detected"] = {
            "value": detections, "ok": detections > 0,
        }
    if "deadlines" in active:
        gates["chaos_deadlines_hit"] = {
            "value": totals["deadline_hits"], "ok": totals["deadline_hits"] > 0,
        }
    if "kills" in active:
        gates["chaos_kills_landed"] = {
            "value": chaos_totals["kills_sent"],
            "ok": chaos_totals["kills_sent"] > 0,
        }
    if "obstrunc" in active:
        gates["chaos_trace_truncated"] = {
            "value": chaos_totals["trunc_bytes"],
            "trace_events": chaos_totals["trace_events"],
            "ok": (chaos_totals["trunc_bytes"] > 0
                   and chaos_totals["trace_events"] > 0),
        }
    return gates


def _read_trace_survivors(trace_path) -> int:
    """Parsed record count of the (possibly truncated) trace file —
    the obstrunc injector's readability proof."""
    import repro.obs as obs

    try:
        return len(obs.read_trace(trace_path, strict=False))
    except (OSError, ValueError):
        return 0


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--requests", type=int, default=50_000,
                        help="total requests across the whole matrix")
    parser.add_argument("--workloads",
                        default="uniform,poisson,bursty,zipf,adversarial,mixed")
    parser.add_argument("--chaos", default="",
                        help="comma list of injectors, or 'all' "
                             "(faults,kills,deadlines,obstrunc)")
    parser.add_argument("--network", default="mux_merger", choices=NETWORKS)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="declared mean request rate per workload")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--chunk", type=int, default=128,
                        help="requests per parallel work unit")
    parser.add_argument("--round-chunks", type=int, default=16,
                        help="chunks per round (the checkpoint unit)")
    parser.add_argument("--supervised-fraction", type=float, default=0.25,
                        help="fraction of chunks run request-at-a-time "
                             "through a live Supervisor")
    parser.add_argument("--chaos-period", type=int, default=8,
                        help="fault/deadline schedule period in chunks")
    parser.add_argument("--chaos-duty", type=float, default=0.25,
                        help="fault/deadline schedule duty cycle")
    parser.add_argument("--deadline-s", type=float, default=2e-4,
                        help="per-attempt budget during deadline storms")
    parser.add_argument("--watchdog", type=float, default=60.0,
                        help="per-chunk no-progress budget; a worker "
                             "stuck longer is killed and the chunk "
                             "quarantined")
    parser.add_argument("--slo-p99", type=float, default=0.25,
                        help="p99 request latency bound in seconds")
    parser.add_argument("--slo-quarantine-rate", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0x50AC)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("SOAK.json"))
    parser.add_argument("--measured-out", type=pathlib.Path, default=None,
                        help="wall-clock report (default: <out>_measured.json)")
    parser.add_argument("--bench-out", type=pathlib.Path, default=None,
                        help="emit BENCH_workloads.json records here")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="enable repro.obs and append a JSON-lines trace")
    parser.add_argument("--metrics", type=pathlib.Path, default=None,
                        help="export the metrics registry on exit")
    parser.add_argument("--no-resume", action="store_true")
    args = parser.parse_args(argv)

    from repro.chaos import CHAOS_INJECTORS
    from repro.workloads import WORKLOADS

    workloads = [s for s in args.workloads.split(",") if s]
    for name in workloads:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
            return 2
    if args.chaos.strip() == "all":
        active = list(CHAOS_INJECTORS)
    else:
        active = [s for s in args.chaos.split(",") if s]
    for name in active:
        if name not in CHAOS_INJECTORS:
            print(f"unknown injector {name!r} (choose from {', '.join(CHAOS_INJECTORS)})")
            return 2
    if "obstrunc" in active and args.trace is None:
        print("obstrunc chaos needs --trace (there is no trace file to truncate)")
        return 2
    if not workloads or args.requests < len(workloads):
        print("need at least one request per workload")
        return 2

    if args.measured_out is None:
        args.measured_out = args.out.with_name(args.out.stem + "_measured.json")

    import repro.obs as obs
    from repro.ioutil import atomic_write_json, atomic_write_text
    from repro.parallel import run_items

    if args.trace or args.metrics:
        obs.enable(trace_path=args.trace)

    chaos = _build_chaos(args, active)
    per_cell = args.requests // len(workloads)
    meta = {
        "version": FORMAT_VERSION,
        "seed": args.seed,
        "requests": args.requests,
        "workloads": workloads,
        "chaos": sorted(active),
        "network": args.network,
        "n": args.n,
        "rate": args.rate,
        "chunk": args.chunk,
        "supervised_fraction": args.supervised_fraction,
        "chaos_period": args.chaos_period,
        "chaos_duty": args.chaos_duty,
        "deadline_s": args.deadline_s,
        "complete": False,
    }

    # -- resume ---------------------------------------------------------------
    chunks = {cell: {} for cell in workloads}  # cell -> {chunk_index: record}
    quarantine = []
    measured = {
        "lat_hist": {}, "cells": {}, "chaos_log": [],
        "kills_sent": 0, "rounds": 0,
    }
    if args.out.is_file() and not args.no_resume:
        try:
            prior = json.loads(args.out.read_text())
        except (ValueError, OSError):
            prior = None  # unreadable checkpoint: start over
        pmeta = (prior or {}).get("meta", {})
        same = all(pmeta.get(k) == v for k, v in meta.items() if k != "complete")
        if prior and pmeta.get("version") == FORMAT_VERSION and same:
            if pmeta.get("complete"):
                print(f"{args.out} is already a complete soak document "
                      f"(--no-resume to re-run)")
                return 0 if prior.get("verdict") == "PASS" else 1
            for cell, recs in prior.get("chunks", {}).items():
                chunks[cell] = {int(k): v for k, v in recs.items()}
            quarantine = prior.get("quarantine", [])
            measured = prior.get("measured", measured)
            done_n = sum(len(v) for v in chunks.values())
            print(f"resuming from {args.out}: {done_n} chunks done"
                  + (f", {len(quarantine)} quarantine events" if quarantine else ""))
        elif prior:
            print(f"checkpoint {args.out} is from different settings; starting over")

    def checkpoint():
        atomic_write_json(args.out, {
            "meta": meta,
            "chunks": {c: {str(k): v for k, v in sorted(recs.items())}
                       for c, recs in chunks.items()},
            "quarantine": quarantine,
            "measured": measured,
        })

    def cell_stats(cell):
        return measured["cells"].setdefault(cell, {
            "alarms": 0, "invariant": 0, "recovered": 0, "silent": 0,
            "deadline_hits": 0, "retries": 0, "fallbacks": 0,
            "exhausted": 0, "requests": 0, "wall_s": 0.0,
            "quarantine_events": 0, "lat_hist": {},
        })

    session = {"requests": 0}  # this process only: the metrics registry
    # resets on restart, so the consistency cross-check below must not
    # count requests resumed from the checkpoint.

    def emit(record):
        m = record.pop("_measured")
        cell = record["cell"]
        chunks[cell][record["chunk"]] = record
        session["requests"] += record["rows"]
        stats = cell_stats(cell)
        for key in ("alarms", "invariant", "recovered", "silent",
                    "deadline_hits", "retries", "fallbacks", "exhausted"):
            stats[key] += m[key]
        stats["requests"] += record["rows"]
        stats["wall_s"] += m["wall_s"]
        for bucket, count in m["lat_hist"].items():
            _hist_add(measured["lat_hist"], int(bucket), count)
            _hist_add(stats["lat_hist"], int(bucket), count)
        if obs.enabled():
            obs.counter("repro_soak_requests_total",
                        "Soak requests by (cell, mode).",
                        cell=cell, mode=record["mode"]).inc(record["rows"])
            if m["silent"]:
                obs.counter("repro_soak_silent_total",
                            "Accepted-but-wrong soak answers.",
                            cell=cell).inc(m["silent"])

    # -- the matrix -----------------------------------------------------------
    kills = chaos.get("kills")
    if kills is not None:  # carry the landed-kill tally across resumes
        kills.kills_sent = int(measured.get("kills_sent", 0))
    started = time.perf_counter()
    round_counter = int(measured.get("rounds", 0))
    inputs_digests = {}
    for cell in workloads:
        items, inputs_digests[cell] = _enumerate_cell(args, cell, per_cell, chaos)
        todo = [(cid, payload) for cid, payload in items
                if payload[1] not in chunks[cell]]
        print(f"[{cell}] {len(items)} chunks ({len(items) - len(todo)} done, "
              f"{len(todo)} to run)")
        for at in range(0, len(todo), args.round_chunks):
            round_items = todo[at:at + args.round_chunks]
            # Environment chaos between rounds: chop the trace tail
            # while nothing is in flight.
            injector = chaos.get("obstrunc")
            if injector is not None:
                summary = injector.perturb(round_counter)
                if summary is not None:
                    measured["chaos_log"].append(
                        {"round": round_counter, **summary})
                    obs.trace_event("soak.chaos", round=round_counter,
                                    **summary)
            requeue = []

            def on_outcome(outcome):
                if outcome.ok:
                    emit(outcome.value)
                    return
                event = outcome.quarantine_record()
                quarantine.append(event)
                cell_stats(cell)["quarantine_events"] += 1
                obs.trace_event("soak.quarantine", item=outcome.id,
                                error=outcome.error)
                print(f"quarantined {outcome.id}: {outcome.error}")
                by_id = {cid: payload for cid, payload in round_items}
                requeue.append((outcome.id, by_id[outcome.id]))

            with obs.trace_span("soak.round", cell=cell, round=round_counter,
                                chunks=len(round_items)):
                storming = kills.start(round_counter) if kills else False
                try:
                    run_items(
                        round_items, _soak_chunk, jobs=args.jobs,
                        worker_init=_soak_worker_init, init_arg=None,
                        span="soak.chunk", on_outcome=on_outcome,
                        hang_budget_s=args.watchdog,
                    )
                finally:
                    if storming:
                        kills.stop()
                        measured["kills_sent"] = kills.kills_sent
            # Chunks lost to the storm re-run in-process: the storm may
            # cost latency and quarantine events, never answers.
            for cid, payload in requeue:
                emit(_soak_chunk(payload))
            round_counter += 1
            measured["rounds"] = round_counter
            checkpoint()

    wall_s = time.perf_counter() - started

    # -- verdict --------------------------------------------------------------
    totals = {key: sum(s[key] for s in measured["cells"].values())
              for key in ("alarms", "invariant", "recovered", "silent",
                          "deadline_hits", "retries", "fallbacks",
                          "exhausted", "requests")}
    total_chunks = sum(len(v) for v in chunks.values())
    chaos_totals = {
        "kills_sent": int(measured.get("kills_sent", 0)),
        "trunc_bytes": sum(int(e.get("truncated_bytes", 0))
                           for e in measured["chaos_log"]
                           if e.get("injector") == "obstrunc"),
        "trace_events": (_read_trace_survivors(args.trace)
                         if args.trace else 0),
    }
    obs_consistent = None
    if obs.enabled():
        counted = sum(
            inst.value
            for (name, _pairs), inst in obs.registry()._sorted_items()
            if name == "repro_soak_requests_total"
        )
        obs_consistent = int(counted) == session["requests"]
    gates = _evaluate_slo(args, active, totals, measured["lat_hist"],
                          quarantine, total_chunks, chaos_totals,
                          obs_consistent)
    verdict = "PASS" if all(g["ok"] for g in gates.values()) else "FAIL"
    obs.trace_event("soak.verdict", verdict=verdict,
                    **{name: g["ok"] for name, g in gates.items()})

    # -- the deterministic soak document --------------------------------------
    cells_doc = {}
    for cell in workloads:
        records = [chunks[cell][k] for k in sorted(chunks[cell])]
        combined = hashlib.sha256()
        for rec in records:
            combined.update(rec["digest"].encode())
        cells_doc[cell] = {
            "requests": sum(r["rows"] for r in records),
            "inputs_digest": inputs_digests[cell],
            "outputs_digest": combined.hexdigest(),
            "chunks": records,
        }
    meta["complete"] = True
    # Only the gates' pass/fail bits enter the deterministic document;
    # their measured values (p99, kill counts, ...) are wall-clock facts
    # and live in the measured companion.
    atomic_write_json(args.out, {
        "meta": meta,
        "schedules": _schedule_doc(chaos),
        "cells": cells_doc,
        "slo": {name: gate["ok"] for name, gate in gates.items()},
        "verdict": verdict,
    })

    # -- measured companions --------------------------------------------------
    p99 = _hist_p99(measured["lat_hist"])
    cell_reports = {}
    for cell in workloads:
        stats = measured["cells"].get(cell, {})
        cwall = stats.get("wall_s", 0.0)
        cell_reports[cell] = {
            **{k: v for k, v in stats.items() if k != "lat_hist"},
            "p99_s": _hist_p99(stats.get("lat_hist", {})),
            "throughput_rps": (stats.get("requests", 0) / cwall) if cwall else 0.0,
        }
    atomic_write_json(args.measured_out, {
        "soak": str(args.out),
        "verdict": verdict,
        "wall_s": wall_s,
        "p99_s": p99,
        "slo": gates,
        "quarantine": quarantine,
        "chaos": {"log": measured["chaos_log"], **chaos_totals},
        "cells": cell_reports,
    })
    if args.bench_out is not None:
        chaos_label = "+".join(sorted(active)) if active else "none"
        bench = [
            {
                "workload": cell,
                "chaos": chaos_label,
                "network": args.network,
                "n": args.n,
                "requests": cell_reports[cell].get("requests", 0),
                "throughput_rps": cell_reports[cell]["throughput_rps"],
                "p99_s": cell_reports[cell]["p99_s"],
                "quarantine_rate": (
                    cell_reports[cell].get("quarantine_events", 0)
                    / max(len(chunks[cell]), 1)
                ),
                "silent_corruption": cell_reports[cell].get("silent", 0),
                "slo_pass": verdict == "PASS",
                "floor_rps": 200.0,
            }
            for cell in workloads
        ]
        args.bench_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(args.bench_out, bench)
        print(f"wrote {args.bench_out}: {len(bench)} workload records")

    if obs.enabled():
        obs.flush_activity()
        if args.metrics:
            reg = obs.registry()
            text = (reg.to_prometheus() if str(args.metrics).endswith(".prom")
                    else reg.to_json())
            atomic_write_text(args.metrics, text)

    print(f"wrote {args.out} (+ {args.measured_out})")
    print(f"requests: {totals['requests']}  chunks: {total_chunks}  "
          f"quarantined: {len(quarantine)}  wall: {wall_s:.1f}s")
    print(f"detections: alarms={totals['alarms']} "
          f"invariant={totals['invariant']} recovered={totals['recovered']} "
          f"deadline_hits={totals['deadline_hits']} "
          f"exhausted={totals['exhausted']}")
    print(f"p99 latency: {p99 * 1e3:.2f} ms  silent corruption: {totals['silent']}")
    for name, gate in gates.items():
        print(f"  [{'ok' if gate['ok'] else 'FAIL'}] {name}: "
              + ", ".join(f"{k}={v}" for k, v in gate.items() if k != "ok"))
    print(f"verdict: {verdict}")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Render a repro.obs JSON-lines trace as a human-readable report.

Usage::

    python tools/trace_report.py trace.jsonl [--top 10] [--json] [--lenient]

Sections (each emitted only when the trace has the matching events):

* **header** — event counts per record name, plus a warning when the
  final line was truncated (a SIGKILLed writer loses at most one line;
  the reader tolerates exactly that, see
  :func:`repro.obs.tracing.read_trace`);
* **hot levels** — per-netlist kernel time by (level, kind), aggregated
  from the ``attrs["steps"]`` profile of every ``engine.execute`` span —
  where the compiled engine actually spends its time;
* **switch activity** — a text heatmap per netlist from
  ``engine.activity`` summaries: one cell per level, intensity =
  mean toggle fraction of the routing elements in that level; plus the
  busiest elements and adaptive control wires (the empirical view of the
  paper's Table I control behaviour);
* **jit** — compile-amortization table per netlist from ``jit.compile``
  / ``jit.execute`` spans: one-off codegen seconds against cumulative
  kernel seconds (and lanes evaluated), with an amortized / NOT
  amortized verdict per netlist;
* **supervisor** — outcome table aggregated from ``supervisor.sort``
  spans and ``supervisor.*`` decision events (accepts, fallbacks,
  retries, alarms, deadline hits per network);
* **items** — ``sweep.item`` / ``campaign.item`` / ``parallel.item``
  (and batch-shard) span statistics, plus every quarantine,
  ``parallel.worker_lost``, and ``parallel.stalled`` event;
* **soak** — chaos-soak outcome from ``tools/soak.py`` traces:
  rounds and chunks per workload cell, every chaos injection
  (``soak.chaos``) grouped by injector, quarantine events, and the
  final ``soak.verdict`` with its per-gate pass/fail bits.

When per-pid worker shards (``<trace>.shard-<pid>``) are still sitting
next to the trace — a parallel run whose parent died before merging —
they are read too, so nothing a worker recorded is lost.

``--json`` dumps the aggregated report as JSON instead of text (for
scripting); ``--lenient`` skips corrupt mid-file lines instead of
failing.  Exit status: 0 on success, 2 on unreadable input.
"""

import argparse
import json
import os
import pathlib
import sys
from collections import Counter, defaultdict

# Allow `python tools/trace_report.py` without an exported PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and os.path.abspath(_SRC) not in map(os.path.abspath, sys.path):
    sys.path.insert(0, os.path.abspath(_SRC))

#: Heatmap intensity ramp, least to most active.
RAMP = " .:-=+*#%@"


def shade(frac: float) -> str:
    """Map a toggle fraction in [0, 1] to one ramp character."""
    frac = min(max(float(frac), 0.0), 1.0)
    return RAMP[min(int(frac * len(RAMP)), len(RAMP) - 1)]


def load_events(path, lenient: bool = False):
    """Read the trace, tolerating a truncated final line.

    Per-pid worker shards (``<path>.shard-<pid>``) left behind when a
    parallel run's parent died before merging are read too — leniently,
    since a killed worker's final line may be truncated — so the report
    always covers everything the run recorded.
    """
    from repro.obs import read_trace, shard_paths

    result = read_trace(path, strict=not lenient)
    shards = shard_paths(path)
    if shards:
        print(f"note: reading {len(shards)} unmerged worker shard(s)",
              file=sys.stderr)
        for shard in shards:
            extra = read_trace(shard, strict=False)
            result.events.extend(extra.events)
            result.corrupt += extra.corrupt
    return result


def hot_levels(events, top: int):
    """Aggregate per-(netlist, level, kind) kernel seconds from
    ``engine.execute`` spans."""
    agg = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    for ev in events:
        if ev.get("name") != "engine.execute":
            continue
        attrs = ev.get("attrs", {})
        net = attrs.get("netlist", "?")
        for level, kind, dt, n_el in attrs.get("steps", ()):
            cell = agg[net][(int(level), str(kind))]
            cell[0] += float(dt)
            cell[1] += 1
            cell[2] = int(n_el)
    out = {}
    for net, cells in agg.items():
        rows = [
            {"level": lv, "kind": kind, "seconds": round(t, 6),
             "calls": calls, "elements": n_el}
            for (lv, kind), (t, calls, n_el) in cells.items()
        ]
        rows.sort(key=lambda r: -r["seconds"])
        out[net] = rows[:top]
    return out


def activity_maps(events):
    """Latest ``engine.activity`` summary per netlist (later wins —
    counts are cumulative, so the last flush is the most complete)."""
    latest = {}
    for ev in events:
        if ev.get("name") == "engine.activity":
            attrs = ev.get("attrs", {})
            latest[attrs.get("netlist", "?")] = attrs
    return latest


def jit_amortization(events):
    """Per-netlist JIT compile-vs-execute aggregation.

    One ``jit.compile`` span is a one-off codegen cost; every
    ``jit.execute`` span afterwards is where it pays off.  The report
    shows both sides so a trace answers "did compiling amortize?"
    directly: ``amortized`` is true once the cumulative engine-side
    estimate exceeds the codegen spend — conservatively approximated as
    executions * mean execute time, i.e. assuming the engine were merely
    as fast as the kernel.
    """
    agg = defaultdict(lambda: {
        "compiles": 0, "codegen_s": 0.0, "ops": 0,
        "executions": 0, "execute_s": 0.0, "lanes": 0,
    })
    for ev in events:
        name = ev.get("name")
        attrs = ev.get("attrs", {})
        net = attrs.get("netlist", "?")
        if name == "jit.compile":
            cell = agg[net]
            cell["compiles"] += 1
            cell["codegen_s"] += float(attrs.get("codegen_s")
                                       or ev.get("dur", 0.0))
            cell["ops"] = int(attrs.get("ops", 0))
        elif name == "jit.execute":
            cell = agg[net]
            cell["executions"] += 1
            cell["execute_s"] += float(ev.get("dur", 0.0))
            cell["lanes"] += int(attrs.get("batch", 0))
            cell["ops"] = cell["ops"] or int(attrs.get("ops", 0))
    out = {}
    for net, cell in agg.items():
        execs = cell["executions"]
        mean_exec = cell["execute_s"] / execs if execs else 0.0
        out[net] = {
            "compiles": cell["compiles"],
            "codegen_s": round(cell["codegen_s"], 6),
            "executions": execs,
            "execute_s": round(cell["execute_s"], 6),
            "lanes": cell["lanes"],
            "ops": cell["ops"],
            "mean_execute_s": round(mean_exec, 6),
            "amortized": bool(cell["execute_s"] >= cell["codegen_s"]),
        }
    return out


def supervisor_table(events):
    """Per-network supervisor outcome aggregation."""
    table = defaultdict(lambda: Counter())
    alarms = defaultdict(Counter)
    for ev in events:
        name = ev.get("name", "")
        attrs = ev.get("attrs", {})
        if name == "supervisor.sort":
            net = attrs.get("network", "?")
            table[net]["calls"] += 1
            table[net]["retries"] += int(attrs.get("retries", 0))
            table[net]["deadline_hits"] += int(attrs.get("deadline_hits", 0))
            if attrs.get("fell_back"):
                table[net]["fallbacks"] += 1
            tier = attrs.get("tier")
            if tier:
                table[net][f"tier:{tier}"] += 1
            for alarm in attrs.get("detections", ()):
                alarms[net][alarm] += 1
        elif name.startswith("supervisor."):
            kind = name.split(".", 1)[1]
            net = attrs.get("network", "")
            key = net or "-"
            table[key][f"event:{kind}"] += 1
    return (
        {net: dict(c) for net, c in table.items()},
        {net: dict(c) for net, c in alarms.items()},
    )


def item_stats(events):
    """sweep.item / campaign.item span statistics + quarantine events."""
    stats = {}
    quarantined = []
    for span_name in ("sweep.item", "campaign.item", "parallel.item",
                      "soak.chunk"):
        spans = [ev for ev in events if ev.get("name") == span_name]
        if not spans:
            continue
        durs = [float(ev.get("dur", 0.0)) for ev in spans]
        failed = [ev for ev in spans if ev.get("attrs", {}).get("ok") is False]
        stats[span_name] = {
            "items": len(spans),
            "failed": len(failed),
            "total_s": round(sum(durs), 6),
            "mean_s": round(sum(durs) / len(durs), 6),
            "max_s": round(max(durs), 6),
            "slowest": max(spans, key=lambda ev: float(ev.get("dur", 0.0)))
                       .get("attrs", {}).get("item"),
        }
    for ev in events:
        if ev.get("name") in ("sweep.quarantine", "campaign.quarantine",
                              "soak.quarantine", "parallel.worker_lost",
                              "parallel.stalled"):
            quarantined.append({"event": ev.get("name"), **ev.get("attrs", {})})
    return stats, quarantined


def soak_outcome(events):
    """Chaos-soak aggregation from ``tools/soak.py`` trace records.

    Returns ``{}`` when the trace has no soak events (the section is
    skipped), else per-cell round/chunk counts, chaos injections grouped
    by injector, quarantine totals, and the final verdict event.
    """
    cells = defaultdict(lambda: {"rounds": 0, "chunks": 0, "wall_s": 0.0})
    chaos = defaultdict(lambda: {"injections": 0, "last": None})
    quarantines = 0
    verdict = None
    for ev in events:
        name = ev.get("name")
        attrs = ev.get("attrs", {})
        if name == "soak.round":
            cell = cells[attrs.get("cell", "?")]
            cell["rounds"] += 1
            cell["chunks"] += int(attrs.get("chunks", 0))
            cell["wall_s"] += float(ev.get("dur", 0.0))
        elif name == "soak.chaos":
            entry = chaos[attrs.get("injector", "?")]
            entry["injections"] += 1
            entry["last"] = {k: v for k, v in attrs.items() if k != "injector"}
        elif name == "soak.quarantine":
            quarantines += 1
        elif name == "soak.verdict":
            verdict = attrs  # later wins: the final gate evaluation
    if not (cells or chaos or verdict):
        return {}
    return {
        "cells": {c: dict(v) for c, v in sorted(cells.items())},
        "chaos": {c: dict(v) for c, v in sorted(chaos.items())},
        "quarantines": quarantines,
        "verdict": verdict,
    }


def build_report(events, truncated: bool, corrupt: int, top: int) -> dict:
    sup_table, sup_alarms = supervisor_table(events)
    stats, quarantined = item_stats(events)
    return {
        "events": len(events),
        "truncated_tail": bool(truncated),
        "corrupt_lines_skipped": int(corrupt),
        "counts": dict(Counter(ev.get("name", "?") for ev in events)),
        "hot_levels": hot_levels(events, top),
        "activity": activity_maps(events),
        "jit": jit_amortization(events),
        "supervisor": sup_table,
        "supervisor_alarms": sup_alarms,
        "items": stats,
        "quarantined": quarantined,
        "soak": soak_outcome(events),
    }


def _print_header(report) -> None:
    print(f"trace: {report['events']} events")
    if report["truncated_tail"]:
        print("  note: final line truncated (in-flight write at kill) — dropped")
    if report["corrupt_lines_skipped"]:
        print(f"  note: {report['corrupt_lines_skipped']} corrupt lines skipped")
    for name, count in sorted(report["counts"].items()):
        print(f"  {name:<24} {count}")


def _print_hot_levels(report, top: int) -> None:
    if not report["hot_levels"]:
        return
    print("\nhot levels (kernel seconds by level, kind)")
    for net, rows in sorted(report["hot_levels"].items()):
        total = sum(r["seconds"] for r in rows) or 1.0
        print(f"  {net}:")
        for r in rows[:top]:
            bar = "#" * max(1, int(20 * r["seconds"] / total))
            print(f"    L{r['level']:<3} {r['kind']:<12} "
                  f"{r['seconds']:.6f}s x{r['calls']:<4} "
                  f"({r['elements']} elems) {bar}")


def _print_activity(report, top: int) -> None:
    if not report["activity"]:
        return
    print("\nswitch activity (mean toggle fraction per level; ramp '"
          + RAMP + "')")
    for net, summary in sorted(report["activity"].items()):
        levels = summary.get("levels", [])
        cells = "".join(shade(lv.get("mean_frac", 0.0)) for lv in levels)
        print(f"  {net} ({summary.get('lanes', 0)} lanes, "
              f"{summary.get('switching_elements', 0)} switching elements): "
              f"[{cells}]")
        for el in summary.get("top_elements", [])[:top]:
            print(f"    element #{el['element']:<5} {el['kind']:<12} "
                  f"L{el['level']:<3} crossed {el['frac']:.3f}")
        wires = summary.get("top_wires", [])[:top]
        if wires:
            line = ", ".join(f"w{w['wire']}={w['frac']:.3f}" for w in wires)
            print(f"    busiest control wires: {line}")


def _print_jit(report) -> None:
    if not report.get("jit"):
        return
    print("\njit compile amortization")
    for net, s in sorted(report["jit"].items()):
        verdict = "amortized" if s["amortized"] else "NOT amortized"
        print(f"  {net} ({s['ops']} ops): "
              f"{s['compiles']} compile(s) {s['codegen_s']:.3f}s, "
              f"{s['executions']} exec {s['execute_s']:.4f}s "
              f"({s['lanes']} lanes, mean {s['mean_execute_s']:.5f}s) "
              f"-> {verdict}")


def _print_supervisor(report) -> None:
    if not report["supervisor"]:
        return
    print("\nsupervisor outcomes")
    for net, counts in sorted(report["supervisor"].items()):
        base = {k: v for k, v in counts.items()
                if not k.startswith(("tier:", "event:"))}
        print(f"  {net}: " + ", ".join(f"{k}={v}" for k, v in sorted(base.items())))
        tiers = {k[5:]: v for k, v in counts.items() if k.startswith("tier:")}
        if tiers:
            print("    accepted tiers: "
                  + ", ".join(f"{t}={c}" for t, c in sorted(tiers.items())))
        evs = {k[6:]: v for k, v in counts.items() if k.startswith("event:")}
        if evs:
            print("    decisions: "
                  + ", ".join(f"{t}={c}" for t, c in sorted(evs.items())))
        alarms = report["supervisor_alarms"].get(net)
        if alarms:
            print("    alarms: "
                  + ", ".join(f"{a}={c}" for a, c in sorted(alarms.items())))


def _print_items(report) -> None:
    if not (report["items"] or report["quarantined"]):
        return
    print("\nitems")
    for span, s in sorted(report["items"].items()):
        print(f"  {span}: {s['items']} items ({s['failed']} failed), "
              f"total {s['total_s']:.3f}s, mean {s['mean_s']:.4f}s, "
              f"max {s['max_s']:.4f}s ({s['slowest']})")
    for q in report["quarantined"]:
        if q.get("event") == "parallel.stalled":
            held = ", ".join(
                f"{w.get('item')}@pid{w.get('pid')} ({w.get('elapsed_s', 0):.1f}s)"
                for w in q.get("in_flight", [])
            )
            print(f"  STALLED {q.get('stalled_item')} past "
                  f"{q.get('hard_budget_s', 0):.1f}s; in flight: {held}")
        else:
            print(f"  QUARANTINED {q.get('item')}: "
                  f"{q.get('error') or q.get('reason')}")


def _print_soak(report) -> None:
    soak = report.get("soak")
    if not soak:
        return
    print("\nchaos soak")
    for cell, s in soak["cells"].items():
        print(f"  {cell}: {s['chunks']} chunks over {s['rounds']} round(s), "
              f"{s['wall_s']:.2f}s")
    for injector, s in soak["chaos"].items():
        last = s.get("last") or {}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(last.items())
                           if k not in ("round",))
        print(f"  chaos {injector}: {s['injections']} injection(s)"
              + (f" (last: {detail})" if detail else ""))
    if soak["quarantines"]:
        print(f"  quarantine events: {soak['quarantines']}")
    verdict = soak.get("verdict")
    if verdict:
        gates = {k: v for k, v in verdict.items() if k != "verdict"}
        failed = [k for k, ok in gates.items() if not ok]
        print(f"  verdict: {verdict.get('verdict')}"
              + (f" (failed gates: {', '.join(sorted(failed))})" if failed
                 else f" ({len(gates)} gates ok)"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", type=pathlib.Path,
                        help="JSON-lines trace file written by repro.obs")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking section")
    parser.add_argument("--json", action="store_true",
                        help="emit the aggregated report as JSON")
    parser.add_argument("--lenient", action="store_true",
                        help="skip corrupt mid-file lines instead of failing")
    args = parser.parse_args(argv)

    try:
        result = load_events(args.trace, lenient=args.lenient)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    report = build_report(
        result.events, result.truncated, result.corrupt, args.top
    )
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    _print_header(report)
    _print_hot_levels(report, args.top)
    _print_activity(report, args.top)
    _print_jit(report)
    _print_supervisor(report)
    _print_items(report)
    _print_soak(report)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Reader (e.g. `| head`, `| grep -q`) closed the pipe early;
        # that is not an error for a report tool.
        sys.stderr.close()
        raise SystemExit(0)

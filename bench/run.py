"""End-to-end benchmark of the three user paths, with per-layer attribution.

Run from the repository root::

    python bench/run.py --seed 0                      # all workloads
    python bench/run.py --workload serve_paced --seed 3
    python bench/run.py --workload library_sort --trace 1 --spans spans.jsonl
    python bench/run.py --workload all --repeat 5 --out results/parent

Each workload runs in a fresh child process with an empty JIT plan
cache and no ``REPRO_*`` environment overrides, so set-up is always
cold and the shipped defaults are what gets measured.  An untraced run
prints the end-to-end metrics; ``--trace 1`` prints the per-layer ones.
Every answer is checked against ground truth; a wrong answer makes the
run exit 1.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from workloads import WORKLOADS  # noqa: E402  (numpy only, no repro)
from metrics import END_TO_END, PER_LAYER, UNITS, env_stamp, spread  # noqa: E402

#: A single (workload, seed) run must finish inside this many seconds.
RUN_BUDGET_S = 170.0
#: Untimed warm-up before the window, and cold set-ups per run (their
#: median is ``setup_s``); ``--quick`` shrinks both.
WARMUP_S, SETUPS = 1.5, 5


class BenchError(RuntimeError):
    pass


def _child(args: List[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process with a fresh JIT cache."""
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="jit-", dir=build)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_JIT_CACHE"] = cache
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
        if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, warmup: float,
             trace: bool, setups: int, spans: Optional[str]) -> dict:
    """One run of one workload; returns its result document."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    args = base + ["--seconds", str(seconds), "--warmup", str(warmup),
                   "--trace", str(int(trace))]
    if spans:
        args += ["--spans", spans]
    doc = _child(args, deadline)
    setup = [doc["setup_s"]]
    if not trace:
        # Set-up is a median of several cold starts, each in its own
        # process with its own empty plan cache.
        for _ in range(setups - 1):
            setup.append(_child(base + ["--seconds", "0", "--warmup", "0",
                                        "--setup-only"], deadline)["setup_s"])
    doc["setup_runs_s"] = setup
    doc["metrics"]["setup_s"] = spread(setup)["median"]
    if trace:
        values = {**doc["layers"], **doc["diagnostics"]}
        names = [n for n, _, _ in PER_LAYER]
    else:
        values = doc["metrics"]
        names = [n for n, _, _ in END_TO_END]
    doc.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               env=env_stamp(ROOT),
               result={n: {"value": float(values[n]), "unit": UNITS[n]}
                       for n in names})
    return doc


def _print_run(doc: dict) -> None:
    w = doc["workload"]
    for name, rec in doc["result"].items():
        print(f"{w:20s} {name:42s} {rec['value']:14.6g} {rec['unit']}")
    counts = {k: doc[k] for k in ("attempted", "failed", "wrong", "shed",
                                  "errors", "exceptions")}
    print(f"{w:20s} counts {json.dumps(counts)}")
    info = dict(doc["info"])
    if not doc["trace"]:
        info.update(doc["diagnostics"])
        info["setup_runs_s"] = doc["setup_runs_s"]
    if info:
        print(f"{w:20s} info {json.dumps(info)}")
    if doc["first_error"]:
        print(f"{w:20s} first error: {doc['first_error']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="timed window per run (default 12)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: print per-layer metrics instead of end-to-end")
    ap.add_argument("--spans", help="with --trace 1, write spans as JSONL "
                    "(one file per workload: NAME.jsonl -> NAME.<workload>.jsonl)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds SEED..SEED+K-1; prints "
                    "each metric's median, IQR and relative spread")
    ap.add_argument("--quick", action="store_true",
                    help="1 s window, short warm-up, one set-up (smoke test)")
    ap.add_argument("--out", help="directory to write one JSON document per run")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT} has no src/repro; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    warmup, setups = WARMUP_S, SETUPS
    if args.quick:
        args.seconds, warmup, setups = 1.0, 0.3, 1
    if args.seconds <= 0 or args.repeat < 1:
        ap.error("--seconds and --repeat must be positive")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    runs: Dict[str, List[dict]] = {w: [] for w in workloads}
    try:
        for w in workloads:
            for r in range(args.repeat):
                seed = args.seed + r
                spans = None
                if args.trace and args.spans:
                    stem, ext = os.path.splitext(args.spans)
                    multi = len(workloads) > 1 or args.repeat > 1
                    spans = (f"{stem}.{w}.s{seed}{ext}" if multi
                             else args.spans)
                doc = run_once(w, seed, args.seconds, warmup,
                               bool(args.trace), setups, spans)
                runs[w].append(doc)
                _print_run(doc)
                if args.out:
                    path = os.path.join(
                        args.out, f"{w}.s{seed}.t{int(doc['trace'])}.json")
                    with open(path, "w") as fh:
                        json.dump(doc, fh, indent=1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics: Dict[str, dict] = {}
    for w, docs in runs.items():
        merged = {}
        for name, rec in docs[0]["result"].items():
            s = spread([d["result"][name]["value"] for d in docs])
            merged[name] = {"value": s["median"], "unit": rec["unit"]}
            if args.repeat > 1:
                print(f"{w:20s} {name:42s} median {s['median']:.6g} "
                      f"iqr {s['iqr']:.4g} spread {s['rel_spread']:.3f} "
                      f"(n={s['n']})")
        metrics[w] = merged
    docs = [d for ds in runs.values() for d in ds]
    wrong = sum(d["wrong"] for d in docs)
    result = {
        "correct": wrong == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics[workloads[0]] if len(workloads) == 1 else metrics,
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

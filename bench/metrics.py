"""Metric names, units and directions, plus the statistics the tools share.

BENCHMARK.json at the repository root lists the same metrics with the
regression bound of each end-to-end one; ``test_bench.py`` checks that
the two agree.
"""

from __future__ import annotations

import os
import platform
import statistics
from typing import Dict, Sequence, Tuple

#: (name, unit, better) of every end-to-end metric, printed by an
#: untraced run of each workload.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("throughput_ops_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, printed by a traced
#: run of each workload (0 where the workload bypasses the layer).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serve.admission.acquires", "count", "higher"),
    ("serve.admission.shed_frac", "frac", "lower"),
    ("serve.admission.in_flight_mean", "lanes", "lower"),
    ("serve.coalescer.batches", "count", "higher"),
    ("serve.coalescer.lanes_per_batch", "lanes", "higher"),
    ("serve.coalescer.age_flush_frac", "frac", "lower"),
    ("serve.coalescer.wait_p50_ms", "ms", "lower"),
    ("serve.coalescer.wait_p90_ms", "ms", "lower"),
    ("serve.executor.batch_ms_p50", "ms", "lower"),
    ("serve.executor.busy_frac", "frac", "lower"),
    ("serve.executor.self_us_per_batch", "us", "lower"),
    ("serve.executor.recovered_rows", "count", "lower"),
    ("serve.service.post_batch_ms_p50", "ms", "lower"),
    ("serve.service.stage_share.wait", "frac", "lower"),
    ("serve.service.stage_share.fabric", "frac", "higher"),
    ("serve.service.stage_share.post", "frac", "lower"),
    ("circuits.simulate.calls", "count", "higher"),
    ("circuits.simulate.us_per_row", "us", "lower"),
    ("circuits.simulate.busy_frac", "frac", "lower"),
    ("circuits.simulate.jit_frac", "frac", "higher"),
    ("circuits.jit.compile_s", "s", "lower"),
    ("circuits.jit.plans", "count", "lower"),
    ("circuits.jit.disk_hits", "count", "higher"),
    ("circuits.checkers.calls", "count", "higher"),
    ("circuits.checkers.us_per_call", "us", "lower"),
    ("circuits.checkers.busy_frac", "frac", "lower"),
    ("runtime.supervisor.self_us_per_call", "us", "lower"),
    ("runtime.supervisor.attempts_per_call", "count", "lower"),
    ("runtime.supervisor.useful_attempt_frac", "frac", "higher"),
    ("runtime.supervisor.fallback_frac", "frac", "lower"),
    ("runtime.supervisor.tier_frac.jit", "frac", "higher"),
    ("runtime.supervisor.tier_frac.engine", "frac", "lower"),
    ("runtime.supervisor.tier_frac.interpreter", "frac", "lower"),
    ("runtime.supervisor.tier_frac.behavioral", "frac", "lower"),
    ("core.api.self_us_per_call", "us", "lower"),
    ("core.api.cache_misses", "count", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.checkers_s", "s", "lower"),
    ("setup.compile_s", "s", "lower"),
    ("bench.client.latency_p99_ms", "ms", "lower"),
    ("bench.client.gen_late_p99_ms", "ms", "lower"),
    ("bench.client.trace_overhead_frac", "frac", "lower"),
    ("bench.client.failed_frac", "frac", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def percentile_ms(latencies_s, q: float) -> float:
    """The ``q``-th percentile of latencies in seconds, in milliseconds."""
    import numpy as np

    lat = np.asarray(latencies_s, dtype=float)
    return float(np.percentile(lat, q)) * 1e3 if lat.size else 0.0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the
    median (the benchmark's measure of run-to-run spread)."""
    vals = [float(v) for v in values]
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "rel_spread": (q3 - q1) / abs(med) if med else 0.0,
            "n": len(vals)}


def _git_sha(root: str) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(root: str) -> Dict[str, object]:
    import numpy as np

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {"cpus": cpus, "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": _git_sha(root),
            "machine": platform.machine()}

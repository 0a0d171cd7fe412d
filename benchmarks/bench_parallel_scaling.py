"""Serial batch throughput and process-pool dispatch benchmark.

Writes two records to ``benchmarks/results/BENCH_parallel.json`` in the
engine-bench record shape understood by ``tools/compare_sweeps.py`` —
each record carries ``speedup`` plus a per-record ``floor``, so the same
``check_floor`` gate that protects engine throughput also protects
these, and each carries the ``cpus`` it was measured on:

* ``mode="serial"`` — absolute throughput (sequences per second) of
  :func:`repro.core.sort_bits_many`, a plain loop over ``sort_bits``.
  Outputs are asserted equal to ``np.sort`` before the timing is
  trusted.
* ``mode="dispatch"`` — the raw :func:`repro.parallel.run_items`
  round-trip on trivial items, bounding the crash-isolated executor's
  per-item dispatch overhead (the pool behind ``tools/sweep.py --jobs``
  and ``tools/fault_campaign.py --jobs``).

Both floors are set far below any sane machine, so only a collapse of
the measured path trips them.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.core import clear_cache, sort_bits, sort_bits_many
from repro.parallel import run_items

#: Workload: BATCH sequences of length N on the prefix sorter.
NETWORK = "prefix"
N = 256
BATCH = 48
#: Timing protocol: best of SAMPLES serial runs.
SAMPLES = 3


def _batch(rng: np.random.Generator):
    return [rng.integers(0, 2, size=N, dtype=np.uint8) for _ in range(BATCH)]


def _time_serial(seqs):
    best = float("inf")
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        out = sort_bits_many(seqs, network=NETWORK)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_serial_and_dispatch_series(results_dir, rng, emit):
    cpus = os.cpu_count() or 1
    seqs = _batch(rng)

    clear_cache()
    sort_bits(seqs[0], network=NETWORK)  # warm the sorter cache once
    serial_s, serial_out = _time_serial(seqs)
    for got, src in zip(serial_out, seqs):
        assert np.array_equal(got, np.sort(src))

    records = []
    rows = [("mode", "time_s", "rate", "floor", "cpus")]

    # "speedup" is absolute throughput (sorted sequences per second); the
    # floor sits over 10x under the rate recorded in BENCH_parallel.json
    # (2-CPU host), so only a real collapse of the serial path trips it.
    records.append({
        "network": NETWORK,
        "n": N,
        "batch": BATCH,
        "mode": "serial",
        "serial_s": round(serial_s, 6),
        "parallel_s": round(serial_s, 6),
        "speedup": round(BATCH / serial_s, 2),
        "floor": 100.0,
        "cpus": cpus,
    })
    rows.append(("serial", f"{serial_s:.4f}",
                 f"{records[0]['speedup']} items/s", "100.0/s", str(cpus)))

    # Executor dispatch overhead: trivial items, so the measured time is
    # almost purely fork + pipe round-trips.
    n_items = 32
    t0 = time.perf_counter()
    outcomes = run_items(
        [(f"i{k}", k) for k in range(n_items)], _identity, jobs=2,
    )
    dispatch_s = time.perf_counter() - t0
    assert [o.value for o in outcomes] == list(range(n_items))
    per_item_ms = 1000.0 * dispatch_s / n_items
    records.append({
        "network": "executor",
        "n": n_items,
        "batch": n_items,
        "mode": "dispatch",
        "serial_s": 0.0,
        "parallel_s": round(dispatch_s, 6),
        # For the gate: "speedup" is items per second here, floored well
        # below any sane machine so only a pathological regression trips.
        "speedup": round(n_items / dispatch_s, 2),
        "floor": 5.0,
        "cpus": cpus,
    })
    rows.append(("dispatch", f"{dispatch_s:.4f}",
                 f"{per_item_ms:.1f}ms/item", "5.0/s", str(cpus)))

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    table = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows
    )
    emit(f"serial batch + executor dispatch, {BATCH} x n={N} {NETWORK} "
         f"({cpus} cpu)\n{table}")

    out_path = results_dir / "BENCH_parallel.json"
    out_path.write_text(json.dumps(records, indent=1) + "\n")

    # Floors, then prove the compare_sweeps gate accepts the artifact
    # (self-compare: zero drift by construction, floor check still runs).
    for r in records:
        assert r["speedup"] >= r["floor"], r
    gate = subprocess.run(
        [sys.executable,
         os.path.join(os.path.dirname(__file__), "..", "tools",
                      "compare_sweeps.py"),
         str(out_path), str(out_path)],
        capture_output=True, text=True,
    )
    assert gate.returncode == 0, gate.stdout + gate.stderr


def _identity(payload):
    return payload

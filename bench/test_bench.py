"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/

Two ``--quick`` runs of every workload (about 1 s timed each, one
untraced and one traced) back most of the checks.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import compare
import metrics
import pools
import spans
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(tmp_path, *args) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    proc = _run(out, "--out", str(out / "docs"))
    return proc.stdout, out / "docs"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc = _run(out, "--trace", "1", "--out", str(out / "docs"),
                "--spans", str(out / "spans.jsonl"))
    return proc.stdout, out


# -- the correctness gate -----------------------------------------------------

def test_serve_verifier_counts_corrupted_answers():
    pool = pools.serve_pool(7, {pools.SORT: 2, pools.CONCENTRATE: 1,
                                pools.ROUTE: 1}, size=64)
    idx = np.arange(len(pool))
    packed = np.packbits(pool.expected, axis=1)
    granted = pool.bits.sum(axis=1)
    route = np.flatnonzero(pool.kinds == pools.ROUTE)
    # The correct route answer is the inverse permutation.
    routes = np.argsort(pool.perms[pool.perm_slot[route]], axis=1).astype(np.uint8)
    assert verify.check_serve(pool, idx, packed, routes, granted).all()

    sort_row = np.flatnonzero(pool.kinds == pools.SORT)[0]
    packed[sort_row] = packed[sort_row][::-1]
    routes[0, [0, 1]] = routes[0, [1, 0]]
    routes[1, 0] = verify.NO_PORT
    granted[np.flatnonzero(pool.kinds == pools.CONCENTRATE)[0]] += 1
    ok = verify.check_serve(pool, idx, packed, routes, granted)
    assert (~ok).sum() == 4
    assert not ok[sort_row] and not ok[route[0]] and not ok[route[1]]


def test_sorted_verifier_counts_corrupted_answers():
    pool = pools.library_pool(3, size=30)
    idx = np.arange(len(pool))
    store = verify.Store(pool.bits.shape[1] // 8, np.uint8, chunk=7)
    for j in idx:
        store.append(np.packbits(np.sort(pool.row(j))))
    packed = store.rows()
    assert packed.shape == (30, 128)
    assert verify.check_sorted(pool, idx, packed).all()
    packed[5, 0] ^= 0x80
    assert (~verify.check_sorted(pool, idx, packed)).sum() == 1


def test_only_zero_one_bytes_are_packed():
    row = np.array([0, 1, 1, 0, 1, 1, 1, 1, 1], np.uint8)
    assert np.array_equal(verify.pack_bits(row), np.packbits(row))
    row[3] = 2  # would pack as a 1
    assert verify.pack_bits(row) is None
    assert verify.pack_bits(np.array([0, 1], np.int64)) is None


def test_pools_repeat_per_seed_and_keep_their_mix():
    mix = workloads.SERVE_MIX["serve_saturated"]
    a, b = pools.serve_pool(1, mix, size=1000), pools.serve_pool(1, mix, size=1000)
    assert np.array_equal(a.bits, b.bits) and np.array_equal(a.perms, b.perms)
    assert (a.kinds[:500] == pools.ROUTE).sum() == 50
    lib = pools.library_pool(1, size=300)
    assert sorted(np.unique(lib.widths, return_counts=True)[1]) == [100] * 3
    assert ((lib.lengths > lib.widths // 2) & (lib.lengths <= lib.widths)).all()
    flags = np.arange(100) < 10
    order = pools.interleave(flags)
    assert sorted(order) == list(range(100))
    assert flags[order][:50].sum() == 5


# -- BENCHMARK.json and the metric tables ---------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert spec["command"][1:] == ["bench/run.py"] and spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        m for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m for m in metrics.PER_LAYER]
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0.1 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- quick runs -------------------------------------------------------------

def _printed(stdout: str):
    """``{(workload, metric): unit}`` of the metric lines printed."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] in metrics.UNITS:
            found[(parts[0], parts[1])] = parts[3]
    return found


def test_quick_run_prints_every_end_to_end_metric(quick):
    stdout, docs = quick
    printed = _printed(stdout)
    for w in workloads.WORKLOADS:
        for name, unit, _ in metrics.END_TO_END:
            assert printed[(w, name)] == unit
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for w in workloads.WORKLOADS:
        with open(docs / f"{w}.s0.t0.json") as fh:
            doc = json.load(fh)
        assert set(doc["env"]) >= {"cpus", "python", "numpy", "git_sha"}
        assert doc["wrong"] == 0 and doc["failed"] == 0
        assert all(v["value"] > 0 for v in doc["result"].values())


def test_recovery_reports_its_fault_and_fallback_share(quick):
    _, docs = quick
    with open(docs / "supervised_recovery.s0.t0.json") as fh:
        info = json.load(fh)["info"]
    assert info["fault"].startswith("swap@e")
    assert workloads.FAULT_BAND[0] <= info["fault_probe_alarm_rate"] <= workloads.FAULT_BAND[1]
    assert 0.08 <= info["fallback_frac"] <= 0.16


def test_traced_run_prints_every_layer_metric_and_spans(traced):
    stdout, out = traced
    printed = _printed(stdout)
    for w in workloads.WORKLOADS:
        for name, unit, _ in metrics.PER_LAYER:
            assert printed[(w, name)] == unit
    names = set()
    for path in out.glob("spans.*.jsonl"):
        with open(path) as fh:
            names.update(json.loads(line)["name"] for line in fh)
    for layer in spans.LAYERS:
        assert any(n.startswith(layer + ".") for n in names), layer
    for w in ("serve_saturated", "serve_paced"):
        with open(out / "docs" / f"{w}.s0.t1.json") as fh:
            layers = json.load(fh)["layers"]
        total = sum(layers[f"serve.service.stage_share.{s}"]
                    for s in ("wait", "fabric", "post"))
        assert abs(total - 1) <= 0.05


def test_fault_rule_selects_a_fault_in_band():
    from repro.circuits.checkers import with_checkers
    from repro.circuits.faults import SWAPPABLE_KINDS
    from repro.core.api import make_sorter

    plain = make_sorter(pools.SERVE_N, "mux_merger")
    checked = with_checkers(plain, sortedness=True, count=True, control=True)
    index, rate = workloads.choose_fault(plain, checked, pools.probe_rows())
    assert workloads.FAULT_BAND[0] <= rate <= workloads.FAULT_BAND[1]
    assert plain.elements[index].kind in SWAPPABLE_KINDS


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    import shutil

    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "library_sort", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- compare.py -------------------------------------------------------------

def _docs(tmp_path, name, values):
    d = tmp_path / name
    d.mkdir()
    for seed, v in enumerate(values):
        result = {m["name"]: {"value": v, "unit": m["unit"]}
                  for m in _spec()["end_to_end"]}
        doc = {"workload": "library_sort", "seed": seed, "trace": False,
               "result": result, "attempted": 100, "failed": 0}
        (d / f"library_sort.s{seed}.t0.json").write_text(json.dumps(doc))
    return str(d)


def test_compare_finds_no_change_between_equal_sets(tmp_path):
    rng = np.random.default_rng(0)
    a = _docs(tmp_path, "a", 100 + rng.normal(0, 1, 10))
    b = _docs(tmp_path, "b", 100 + rng.normal(0, 1, 10))
    rows, bad = compare.compare(a, b, _spec())
    assert not bad and {r["verdict"] for r in rows} == {"unchanged"}


def test_compare_flags_regressions_and_gains(tmp_path):
    base = 100 + np.arange(10) * 0.1
    a = _docs(tmp_path, "a", base)
    b = _docs(tmp_path, "b", base * 1.5)
    rows, bad = compare.compare(a, b, _spec())
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert bad
    assert verdicts["throughput_ops_s"] == "gain"
    assert verdicts["latency_p50_ms"] == "regression"

"""Spans recorded from the benchmark's own files around calls into
each layer, and the per-layer metrics computed from them.

The recorder wraps public callables (module functions, or methods on
objects the benchmark holds) and keeps one record per call in memory:
``(id, name, start, end, parent, rid, note)``.  ``parent`` is the span
open in the calling task or thread (a context variable, so concurrent
asyncio clients and the fabric thread each see their own), ``rid`` a
request id and ``note`` a small value taken from the call's result.
Times come from ``time.monotonic`` — the clock the asyncio loop uses,
so they compare directly with ``ServeResponse.queued_s``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "bench_span", default=None)

#: Span names (the layer is the name minus its last dotted part).
REQUEST = "serve.service.request"
ACQUIRE = "serve.admission.try_acquire"
COALESCE = ("serve.coalescer.add", "serve.coalescer.poll")
RUN_BATCH = "serve.executor.run_batch"
SIMULATE = "circuits.simulate.simulate"
MAYBE_JIT = "circuits.jit.maybe_jit"
COMPILE = "circuits.jit.compile_jit"
SPLIT = "circuits.checkers.split"
CHECK = "circuits.checkers.check"
SORT_VERBOSE = "runtime.supervisor.sort_verbose"
SORT_BITS = "core.api.sort_bits"
BUILD = "setup.make_sorter"
CHECKERS = "setup.with_checkers"

LAYERS = ("serve.admission", "serve.coalescer", "serve.executor",
          "serve.service", "circuits.simulate", "circuits.jit",
          "circuits.checkers", "runtime.supervisor", "core.api", "setup")

Span = Tuple[int, str, float, float, Optional[int], Optional[str], Any]


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, bool, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             note: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        """Traced ``fn``; ``note(args, result)`` runs when it returns."""
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = time.monotonic()
            value = None
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    value = note(args, out)
                return out
            finally:
                t1 = time.monotonic()
                _CURRENT.reset(token)
                spans.append((sid, name, t0, t1, parent, None, value))

        return traced

    def wrap_request(self, submit: Callable) -> Callable:
        """Wrap ``SortingService.submit``; the request id is its tag and
        the note is the response's ``queued_s`` (``None`` unless ok)."""
        spans, ids = self.spans, self._ids

        async def traced(request):
            sid = next(ids)
            token = _CURRENT.set(sid)
            t0 = time.monotonic()
            resp = None
            try:
                resp = await submit(request)
                return resp
            finally:
                t1 = time.monotonic()
                _CURRENT.reset(token)
                spans.append((sid, REQUEST, t0, t1, None, request.tag,
                              resp.queued_s if resp is not None and resp.ok
                              else None))

        return traced

    def patch(self, owner: object, attr: str, name: str,
              note: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Replace ``owner.attr`` (a module function, a class's method or
        an instance's bound method) by a traced wrapper until
        :meth:`restore`."""
        # On a class, wrap the plain function so ``self`` passes through.
        fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.install(owner, attr, self.wrap(fn, name, note))

    def install(self, owner: object, attr: str, fn: Callable) -> None:
        """Set ``owner.attr = fn`` until :meth:`restore`."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, fn)

    def restore(self) -> None:
        for owner, attr, own, value in reversed(self._patches):
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, rid, note in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "rid": rid,
                    "note": note if isinstance(note, (int, float, str, bool,
                                                      type(None)))
                    else repr(note),
                }) + "\n")


# ---------------------------------------------------------------------------
# Patch sets
# ---------------------------------------------------------------------------

def patch_setup(rec: Recorder) -> None:
    """Set-up layer: netlist build, checker attachment, JIT compile."""
    import repro.circuits.jit as jit
    import repro.core.api as api
    import repro.runtime.supervisor as supervisor
    import repro.serve.executor as executor
    from repro.circuits import checkers

    rec.patch(api, "make_sorter", BUILD)
    rec.patch(executor, "make_sorter", BUILD)
    for module in (checkers, executor, supervisor):
        rec.patch(module, "with_checkers", CHECKERS)
    rec.patch(jit, "compile_jit", COMPILE)


def _rows(args) -> int:
    shape = np.shape(args[1])
    return int(shape[0]) if len(shape) == 2 else 1


def patch_hot(rec: Recorder, service=None) -> None:
    """Hot-path layers, wrapped for the traced half of the window."""
    import repro.circuits.jit as jit
    import repro.core.api as api
    import repro.runtime.supervisor as supervisor
    import repro.serve.executor as executor
    from repro.circuits.checkers import CheckedNetlist
    from repro.runtime import Supervisor

    def variant(name):
        return lambda args, out: (name, _rows(args))

    for module, attr, tier in (
            (api, "simulate", "auto"),
            (executor, "simulate", "auto"),
            (executor, "simulate_interpreted", "interpreter"),
            (supervisor, "simulate_jit", "jit"),
            (supervisor, "simulate_engine", "engine"),
            (supervisor, "simulate_interpreted", "interpreter")):
        rec.patch(module, attr, SIMULATE, note=variant(tier))
    rec.patch(jit, "maybe_jit", MAYBE_JIT,
              note=lambda args, plan: plan is not None)
    rec.patch(CheckedNetlist, "split", SPLIT)
    rec.patch(CheckedNetlist, "check", CHECK)
    rec.patch(api, "sort_bits", SORT_BITS)
    rec.patch(Supervisor, "sort_verbose", SORT_VERBOSE,
              note=lambda args, out: (out[1].tier, out[1].attempts,
                                      out[1].fell_back))
    if service is not None:
        gate = service.gate
        rec.patch(gate, "try_acquire", ACQUIRE,
                  note=lambda args, ok: (ok, gate.snapshot()["in_flight"]))

        def flushed(args, out):
            return tuple((len(b), b.reason) for b in out)

        rec.patch(service.coalescer, "add", COALESCE[0], note=flushed)
        rec.patch(service.coalescer, "poll", COALESCE[1], note=flushed)
        rec.patch(service.executor, "run_batch", RUN_BATCH,
                  note=lambda args, o: o.recovered)
        rec.install(service, "submit", rec.wrap_request(service.submit))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class _Index:
    """Spans grouped by name, with per-parent child durations."""

    def __init__(self, spans: List[Span], since: float, until: float) -> None:
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.child_s: Dict[int, float] = defaultdict(float)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        names = {}
        for s in spans:
            names[s[0]] = s[1]
        for s in spans:
            if not since <= s[2] < until:
                continue
            self.by_name[s[1]].append(s)
            if s[4] is not None:
                self.child_s[s[4]] += s[3] - s[2]
                self.children[s[4]].append(s)
        self.names = names

    def get(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.get(name)])

    def self_s(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] - self.child_s.get(s[0], 0.0)
                         for s in self.get(name)])

    def outermost(self, names) -> List[Span]:
        """Spans named in ``names`` whose parent is not one of them."""
        return [s for n in names for s in self.get(n)
                if s[4] is None or self.names.get(s[4]) not in names]


def _mean(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x.mean()) if x.size else 0.0


def _pct(x, q: float) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.percentile(x, q)) if x.size else 0.0


def layer_metrics(rec: Recorder, since: float, until: float,
                  setup_until: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``[since, until)`` (the traced
    window) and of the set-up phase (spans that start before
    ``setup_until``)."""
    import repro.circuits.jit as jit
    import repro.core.api as api

    ix = _Index(rec.spans, since, until)
    setup = _Index(rec.spans, float("-inf"), setup_until)
    window = max(until - since, 1e-9)
    m: Dict[str, float] = {}

    # serve.admission
    acq = [s[6] for s in ix.get(ACQUIRE) if s[6] is not None]
    m["serve.admission.acquires"] = len(acq)
    m["serve.admission.shed_frac"] = _mean([not ok for ok, _ in acq])
    m["serve.admission.in_flight_mean"] = _mean([f for _, f in acq])

    # serve.coalescer
    flushed = [b for n in COALESCE for s in ix.get(n) if s[6] for b in s[6]]
    m["serve.coalescer.batches"] = len(flushed)
    m["serve.coalescer.lanes_per_batch"] = _mean([b[0] for b in flushed])
    m["serve.coalescer.age_flush_frac"] = _mean(
        [b[1] == "age" for b in flushed])
    requests = [s for s in ix.get(REQUEST) if s[6] is not None]
    queued = np.array([s[6] for s in requests])
    m["serve.coalescer.wait_p50_ms"] = _pct(queued, 50) * 1e3
    m["serve.coalescer.wait_p90_ms"] = _pct(queued, 90) * 1e3

    # serve.executor
    batches = sorted(ix.get(RUN_BATCH), key=lambda s: s[2])
    batch_s = ix.durations(RUN_BATCH)
    m["serve.executor.batch_ms_p50"] = _pct(batch_s, 50) * 1e3
    m["serve.executor.busy_frac"] = float(batch_s.sum()) / window
    m["serve.executor.self_us_per_batch"] = _mean(ix.self_s(RUN_BATCH)) * 1e6
    m["serve.executor.recovered_rows"] = sum(s[6] or 0 for s in batches)

    # serve.service: match each request to the batch that served its
    # last lane — the first run_batch starting at or after admission +
    # queued_s — and split its latency into wait / fabric / post.
    starts = np.array([s[2] for s in batches])
    stage = np.zeros(3)
    post = []
    for s in requests:
        k = int(np.searchsorted(starts, s[2] + s[6], side="left"))
        if k >= len(batches) or batches[k][3] > s[3]:
            continue
        b = batches[k]
        stage += (b[2] - s[2], b[3] - b[2], s[3] - b[3])
        post.append(s[3] - b[3])
    total = stage.sum()
    m["serve.service.post_batch_ms_p50"] = _pct(post, 50) * 1e3
    for name, value in zip(("wait", "fabric", "post"), stage):
        m[f"serve.service.stage_share.{name}"] = (
            float(value / total) if total > 0 else 0.0)

    # circuits.simulate
    # A simulate call ran the JIT when it is pinned to it or when the
    # auto-routing maybe_jit inside it returned a plan (BatchOutcome.tier
    # says "engine" either way).
    sims = [s for s in ix.get(SIMULATE) if s[6] is not None]
    sim_s = np.array([s[3] - s[2] for s in sims])
    rows = sum(s[6][1] for s in sims)
    jit_run = {s[4] for s in ix.get(MAYBE_JIT) if s[6]}
    m["circuits.simulate.calls"] = len(sims)
    m["circuits.simulate.us_per_row"] = (
        float(sim_s.sum()) / rows * 1e6 if rows else 0.0)
    m["circuits.simulate.busy_frac"] = float(sim_s.sum()) / window
    m["circuits.simulate.jit_frac"] = _mean(
        [s[6][0] == "jit" or s[0] in jit_run for s in sims])

    # circuits.jit (whole run: compiles happen in set-up)
    info = jit.cache_info()
    compiles = [s for s in rec.spans if s[1] == COMPILE]
    m["circuits.jit.compile_s"] = sum(s[3] - s[2] for s in compiles)
    m["circuits.jit.plans"] = info["memory"]
    m["circuits.jit.disk_hits"] = info["disk"]["hits"]

    # circuits.checkers
    chk = ix.outermost((SPLIT, CHECK))
    chk_s = np.array([s[3] - s[2] for s in chk])
    m["circuits.checkers.calls"] = len(chk)
    m["circuits.checkers.us_per_call"] = _mean(chk_s) * 1e6
    m["circuits.checkers.busy_frac"] = float(chk_s.sum()) / window

    # runtime.supervisor
    reports = [s[6] for s in ix.get(SORT_VERBOSE) if s[6] is not None]
    attempts = np.array([r[1] for r in reports])
    m["runtime.supervisor.self_us_per_call"] = (
        _mean(ix.self_s(SORT_VERBOSE)) * 1e6)
    m["runtime.supervisor.attempts_per_call"] = _mean(attempts)
    m["runtime.supervisor.useful_attempt_frac"] = (
        len(reports) / float(attempts.sum()) if reports else 0.0)
    m["runtime.supervisor.fallback_frac"] = _mean([r[2] for r in reports])
    for tier in ("jit", "engine", "interpreter", "behavioral"):
        m[f"runtime.supervisor.tier_frac.{tier}"] = _mean(
            [r[0] == tier for r in reports])

    # core.api
    m["core.api.self_us_per_call"] = _mean(ix.self_s(SORT_BITS)) * 1e6
    m["core.api.cache_misses"] = api.cache_info()["misses"]

    # setup
    m["setup.build_s"] = float(setup.durations(BUILD).sum())
    m["setup.checkers_s"] = float(setup.durations(CHECKERS).sum())
    m["setup.compile_s"] = float(setup.durations(COMPILE).sum())
    return m

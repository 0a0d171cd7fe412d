"""Compiled level-batched execution engine for netlists.

The interpreters in :mod:`repro.circuits.simulate` walk the element list
one element at a time; for the large-n sorters (hundreds of thousands of
unit elements) the per-element Python dispatch dominates wall-clock.
This module eliminates it by *compiling* a :class:`~repro.circuits.netlist.Netlist`
into a reusable :class:`ExecutionPlan`:

* elements are grouped by topological **execution level** and **kind**
  into :class:`FusedStep` records — every element in a step reads wires
  produced at earlier levels, so the whole step evaluates as one NumPy
  gather (``V[in_idx]`` over the index array of input wires), one
  vectorized kernel for the kind, and one scatter into a single
  preallocated ``(n_wires, batch)`` value matrix;
* a **bit-packed fast path** packs 64 test vectors per ``np.uint64``
  word, so comparators and gates become native bitwise ops and switches
  become mask-selects — this is what makes exhaustive ``2**n``
  zero-one-principle verification cheap at small n;
* a **compiled payload path** routes ``(tag, payload)`` pairs with the
  same fused steps, replacing the per-element loop in
  ``simulate_payload``.

Plans are cached per netlist in a weak-keyed dictionary
(:func:`get_plan`), so repeated benchmark sweeps compile once; the cache
composes with the load cache in :mod:`repro.circuits.serialize` (a
netlist re-loaded from the JSON disk cache is the *same object*, hence
reuses its plan).  The interpreters remain available as
``simulate_interpreted``/``simulate_payload_interpreted`` and serve as
the differential-testing oracle for this engine.

All kernels are written in mask-select form (``(a & ~s) | (b & s)``)
which is simultaneously correct for ``uint8`` 0/1 lanes and for packed
``uint64`` words, so the two paths share one kernel implementation.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import elements as el
from .. import obs
from .netlist import Netlist

#: Payload value used on wires that do not carry data (gate outputs,
#: demultiplexer's unselected branch).  Canonical definition; re-exported
#: by :mod:`repro.circuits.simulate` for backwards compatibility.
NO_PAYLOAD = -1

#: Minimum batch size at which :meth:`ExecutionPlan.execute` switches to
#: the bit-packed path.  Below this the pack/unpack overhead outweighs
#: the 64-lane compression.
PACKED_MIN_BATCH = 64

_ONES8 = np.uint8(1)
_ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class FusedStep:
    """One fused (level, kind) group of elements.

    ``in_idx``/``out_idx`` are ``(n_elements, arity)`` wire-index arrays;
    ``params`` is the stacked ``(n_elements, 4, 4)`` permutation table
    for :data:`~repro.circuits.elements.SWITCH4` steps, else ``None``;
    ``src`` is the same table resolved to wire indices
    (``src[e, sel, out]`` is the wire routed to output ``out`` under
    select code ``sel``), so a SWITCH4 step gathers straight from ``V``.
    ``level`` is the execution level the step runs at (0-based);
    ``eidx`` maps each fused row back to its element's position in the
    source netlist's element list (observability's stable element id).
    """

    __slots__ = ("kind", "in_idx", "out_idx", "params", "level", "eidx",
                 "src")

    kind: str
    in_idx: np.ndarray
    out_idx: np.ndarray
    params: Optional[np.ndarray]
    level: int
    eidx: np.ndarray
    src: Optional[np.ndarray]


def fuse_elements(elements) -> List[FusedStep]:
    """Group a topologically ordered element list into fused steps.

    Every element is assigned an execution level (1 + the max level of
    its input wires; wires not driven within ``elements`` sit at level
    0), then elements sharing ``(level, kind)`` are batched.  All
    elements of a step are mutually independent by construction, and
    steps are emitted in ``(level, kind)`` order, which is a valid
    topological schedule.
    """
    level: Dict[int, int] = {}
    buckets: Dict[Tuple[int, str], List] = {}
    for i, e in enumerate(elements):
        lvl = max((level.get(w, 0) for w in e.ins), default=0)
        buckets.setdefault((lvl, e.kind), []).append((i, e))
        for w in e.outs:
            level[w] = lvl + 1
    steps: List[FusedStep] = []
    for (lvl, kind) in sorted(buckets):
        group = buckets[(lvl, kind)]
        in_idx = np.array([e.ins for _, e in group], dtype=np.intp)
        out_idx = np.array([e.outs for _, e in group], dtype=np.intp)
        eidx = np.array([i for i, _ in group], dtype=np.intp)
        params = src = None
        if kind == el.SWITCH4:
            params = np.array([e.params for _, e in group], dtype=np.intp)
            src = np.take_along_axis(in_idx[:, None, :4], params, axis=2)
        steps.append(FusedStep(kind, in_idx, out_idx, params, lvl, eidx, src))
    return steps


def apply_steps(V: np.ndarray, steps: Sequence[FusedStep], ones) -> None:
    """Run fused steps over a value matrix ``V`` of shape ``(n_wires, B)``.

    ``ones`` is the all-true word for ``V``'s dtype: ``uint8(1)`` for
    0/1 lanes, ``uint64(~0)`` for bit-packed words.  Kernels are written
    in mask-select form so both interpretations share this code.
    """
    for step in steps:
        o = step.out_idx
        kind = step.kind
        if kind == el.SWITCH4:
            hi, lo = V[step.in_idx[:, 4]], V[step.in_idx[:, 5]]
            nhi, nlo = hi ^ ones, lo ^ ones
            masks = (nhi & nlo, nhi & lo, hi & nlo, hi & lo)
            out = masks[0][:, None, :] & V[step.src[:, 0]]
            for s in range(1, 4):
                out |= masks[s][:, None, :] & V[step.src[:, s]]
            V[o] = out
            continue
        A = V[step.in_idx]  # (m, arity, B) gather
        if kind == el.COMPARATOR:
            a, b = A[:, 0], A[:, 1]
            V[o[:, 0]] = a & b
            V[o[:, 1]] = a | b
        elif kind == el.SWITCH2:
            a, b, c = A[:, 0], A[:, 1], A[:, 2]
            nc = c ^ ones
            V[o[:, 0]] = (a & nc) | (b & c)
            V[o[:, 1]] = (b & nc) | (a & c)
        elif kind == el.MUX2:
            a, b, s = A[:, 0], A[:, 1], A[:, 2]
            V[o[:, 0]] = (a & (s ^ ones)) | (b & s)
        elif kind == el.DEMUX2:
            a, s = A[:, 0], A[:, 1]
            V[o[:, 0]] = a & (s ^ ones)
            V[o[:, 1]] = a & s
        elif kind == el.NOT:
            V[o[:, 0]] = A[:, 0] ^ ones
        elif kind == el.AND:
            V[o[:, 0]] = A[:, 0] & A[:, 1]
        elif kind == el.OR:
            V[o[:, 0]] = A[:, 0] | A[:, 1]
        elif kind == el.XOR:
            V[o[:, 0]] = A[:, 0] ^ A[:, 1]
        elif kind == el.NAND:
            V[o[:, 0]] = (A[:, 0] & A[:, 1]) ^ ones
        elif kind == el.NOR:
            V[o[:, 0]] = (A[:, 0] | A[:, 1]) ^ ones
        elif kind == el.XNOR:
            V[o[:, 0]] = (A[:, 0] ^ A[:, 1]) ^ ones
        elif kind == el.BUF:
            V[o[:, 0]] = A[:, 0]
        else:  # pragma: no cover - guarded by Element.validate
            raise ValueError(f"unknown element kind {kind!r}")


def apply_steps_payload(T: np.ndarray, P: np.ndarray,
                        steps: Sequence[FusedStep]) -> None:
    """Run fused steps over tag matrix ``T`` (uint8) and payload matrix
    ``P`` (int64), both ``(n_wires, B)``.  Semantics match
    ``simulate_payload_interpreted`` bit for bit."""
    for step in steps:
        A = T[step.in_idx]
        o = step.out_idx
        kind = step.kind
        if kind == el.COMPARATOR:
            a, b = A[:, 0], A[:, 1]
            pa, pb = P[step.in_idx[:, 0]], P[step.in_idx[:, 1]]
            swap = (a & (b ^ _ONES8)).astype(bool)  # a=1, b=0: exchange
            T[o[:, 0]] = a & b
            T[o[:, 1]] = a | b
            P[o[:, 0]] = np.where(swap, pb, pa)
            P[o[:, 1]] = np.where(swap, pa, pb)
        elif kind == el.SWITCH2:
            a, b, c = A[:, 0], A[:, 1], A[:, 2]
            pa, pb = P[step.in_idx[:, 0]], P[step.in_idx[:, 1]]
            cb = c.astype(bool)
            nc = c ^ _ONES8
            T[o[:, 0]] = (a & nc) | (b & c)
            T[o[:, 1]] = (b & nc) | (a & c)
            P[o[:, 0]] = np.where(cb, pb, pa)
            P[o[:, 1]] = np.where(cb, pa, pb)
        elif kind == el.MUX2:
            a, b, s = A[:, 0], A[:, 1], A[:, 2]
            pa, pb = P[step.in_idx[:, 0]], P[step.in_idx[:, 1]]
            T[o[:, 0]] = (a & (s ^ _ONES8)) | (b & s)
            P[o[:, 0]] = np.where(s.astype(bool), pb, pa)
        elif kind == el.DEMUX2:
            a, s = A[:, 0], A[:, 1]
            pa = P[step.in_idx[:, 0]]
            sb = s.astype(bool)
            T[o[:, 0]] = a & (s ^ _ONES8)
            T[o[:, 1]] = a & s
            P[o[:, 0]] = np.where(sb, NO_PAYLOAD, pa)
            P[o[:, 1]] = np.where(sb, pa, NO_PAYLOAD)
        elif kind == el.SWITCH4:
            data = A[:, :4]
            pdata = P[step.in_idx[:, :4]]
            sel = (A[:, 4].astype(np.intp) << 1) | A[:, 5]  # (m, B)
            # src_all[e, i, lane] = params[e, sel[e, lane], i]
            pt = step.params.transpose(0, 2, 1)  # (m, out, sel)
            src_all = np.take_along_axis(pt, sel[:, None, :], axis=2)
            T[o] = np.take_along_axis(data, src_all, axis=1)
            P[o] = np.take_along_axis(pdata, src_all, axis=1)
        elif kind == el.BUF:
            T[o[:, 0]] = A[:, 0]
            P[o[:, 0]] = P[step.in_idx[:, 0]]
        else:  # control logic: tags only, payload does not propagate
            if kind == el.NOT:
                out = A[:, 0] ^ _ONES8
            elif kind == el.AND:
                out = A[:, 0] & A[:, 1]
            elif kind == el.OR:
                out = A[:, 0] | A[:, 1]
            elif kind == el.XOR:
                out = A[:, 0] ^ A[:, 1]
            elif kind == el.NAND:
                out = (A[:, 0] & A[:, 1]) ^ _ONES8
            elif kind == el.NOR:
                out = (A[:, 0] | A[:, 1]) ^ _ONES8
            elif kind == el.XNOR:
                out = (A[:, 0] ^ A[:, 1]) ^ _ONES8
            else:  # pragma: no cover - guarded by Element.validate
                raise ValueError(f"unknown element kind {kind!r}")
            T[o[:, 0]] = out
            P[o[:, 0]] = NO_PAYLOAD


class ExecutionPlan:
    """A compiled netlist: fused steps plus the interface arrays.

    The plan deliberately does **not** hold a reference to the source
    netlist — plans live as values in a weak-keyed cache and a strong
    back-reference would keep every cached netlist alive forever.
    """

    def __init__(
        self,
        n_wires: int,
        in_wires: np.ndarray,
        out_wires: np.ndarray,
        constants: Tuple[Tuple[int, int], ...],
        steps: List[FusedStep],
        name: str = "netlist",
        control_wires: Sequence[int] = (),
    ) -> None:
        self.n_wires = n_wires
        self.in_wires = in_wires
        self.out_wires = out_wires
        self.constants = constants
        self.steps = steps
        self.name = name
        #: Tagged adaptive steering wires (observability profiles these).
        self.control_wires = np.asarray(sorted(control_wires), dtype=np.intp)
        #: Number of execution levels (longest dependency chain length).
        self.n_levels = 1 + max((s.level for s in steps), default=-1)
        #: Total elements fused into this plan.
        self.n_elements = sum(len(s.in_idx) for s in steps)

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (
            f"ExecutionPlan({self.name!r}, elements={self.n_elements}, "
            f"steps={len(self.steps)}, levels={self.n_levels})"
        )

    # -- observability ---------------------------------------------------------

    def _apply_observed(self, V: np.ndarray, ones, lanes: int, mode: str,
                        P: Optional[np.ndarray] = None) -> None:
        """Instrumented twin of the ``apply_steps`` call in the execute
        paths: drives the *same* kernels one fused step at a time
        (``apply_steps(V, (step,), ...)``), so outputs stay bit-identical,
        while recording per-(level, kind) kernel timings and
        gather/scatter byte counts, an ``engine.execute`` span, and the
        switch-activity profile.  Only reached when ``repro.obs`` is
        enabled."""
        reg = obs.OBS.registry
        item = V.itemsize + (P.itemsize if P is not None else 0)
        cols = V.shape[1]
        with obs.OBS.tracer.span(
            "engine.execute", netlist=self.name, mode=mode, batch=lanes,
            levels=self.n_levels, elements=self.n_elements,
        ) as attrs:
            step_profile = []
            started = time.perf_counter()
            for step in self.steps:
                t0 = time.perf_counter()
                if P is None:
                    apply_steps(V, (step,), ones)
                else:
                    apply_steps_payload(V, P, (step,))
                dt = time.perf_counter() - t0
                step_profile.append(
                    [step.level, step.kind, round(dt, 9), len(step.eidx)]
                )
                reg.counter(
                    "repro_engine_kernel_seconds_total",
                    "Kernel time per fused-step element kind",
                    kind=step.kind,
                ).inc(dt)
                gathered = step.in_idx.size
                if P is None and step.src is not None:
                    # SWITCH4: both selects plus 4 sources per select code
                    gathered = step.src.size + 2 * len(step.src)
                reg.counter(
                    "repro_engine_gather_bytes_total",
                    "Bytes gathered from the value matrix",
                    kind=step.kind,
                ).inc(gathered * cols * item)
                reg.counter(
                    "repro_engine_scatter_bytes_total",
                    "Bytes scattered into the value matrix",
                    kind=step.kind,
                ).inc(step.out_idx.size * cols * item)
            total = time.perf_counter() - started
            attrs["steps"] = step_profile
        reg.counter("repro_engine_executions_total",
                    "Compiled-plan executions", mode=mode).inc()
        reg.counter("repro_engine_lanes_total",
                    "Input vectors evaluated", mode=mode).inc(lanes)
        reg.histogram("repro_engine_execute_seconds",
                      "Wall-clock of one plan execution",
                      netlist=self.name).observe(total)
        if obs.OBS.activity:
            obs.record_execution(self, V, lanes, packed=(mode == "packed"))

    # -- execution -------------------------------------------------------------

    def execute(self, batch: np.ndarray, taps=None) -> np.ndarray:
        """Evaluate a ``(B, n_inputs)`` uint8 batch; returns ``(B, n_out)``.

        Selects the bit-packed path for batches of at least
        :data:`PACKED_MIN_BATCH` rows, the per-lane uint8 path otherwise;
        both are bit-identical to the interpreter on 0/1 inputs.

        ``taps`` — an optional sequence of wire ids — switches the return
        to ``(outputs, tap_values)`` where ``tap_values`` is the
        ``(B, len(taps))`` uint8 matrix of those wires' settled values.
        Fault campaigns use taps to measure *activation*: how often a
        faulted wire's healthy value actually differs from the fault.
        """
        if batch.shape[0] >= PACKED_MIN_BATCH:
            return self.execute_packed(batch, taps)
        return self.execute_unpacked(batch, taps)

    def execute_unpacked(self, batch: np.ndarray, taps=None) -> np.ndarray:
        """Per-lane uint8 evaluation (one byte per test vector)."""
        B = batch.shape[0]
        V = np.empty((self.n_wires, B), dtype=np.uint8)
        if self.in_wires.size:
            V[self.in_wires] = batch.T
        for w, val in self.constants:
            V[w] = val
        if obs.OBS.enabled:
            self._apply_observed(V, _ONES8, B, "unpacked")
        else:
            apply_steps(V, self.steps, _ONES8)
        out = np.ascontiguousarray(V[self.out_wires].T)
        if taps is None:
            return out
        tap_idx = np.asarray(taps, dtype=np.intp)
        return out, np.ascontiguousarray(V[tap_idx].T)

    def execute_packed(self, batch: np.ndarray, taps=None) -> np.ndarray:
        """Bit-packed evaluation: 64 test vectors per uint64 word."""
        B, n_in = batch.shape
        W = (B + 63) // 64
        V = np.empty((self.n_wires, W), dtype=np.uint64)
        if n_in:
            bt = np.ascontiguousarray(batch.T)
            packed = np.packbits(bt, axis=1, bitorder="little")
            if packed.shape[1] != 8 * W:
                pad = np.zeros((n_in, 8 * W - packed.shape[1]), dtype=np.uint8)
                packed = np.concatenate([packed, pad], axis=1)
            V[self.in_wires] = packed.view(np.uint64)
        for w, val in self.constants:
            V[w] = _ONES64 if val else 0
        if obs.OBS.enabled:
            self._apply_observed(V, _ONES64, B, "packed")
        else:
            apply_steps(V, self.steps, _ONES64)

        def unpack(wires: np.ndarray) -> np.ndarray:
            words = np.ascontiguousarray(V[wires])  # (n_sel, W)
            bits = np.unpackbits(
                words.view(np.uint8), axis=1, bitorder="little"
            )[:, :B]
            return np.ascontiguousarray(bits.T)

        out = unpack(self.out_wires)
        if taps is None:
            return out
        return out, unpack(np.asarray(taps, dtype=np.intp))

    def execute_payload(
        self, tags: np.ndarray, payloads: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate tags and integer payloads; returns ``(tags, payloads)``."""
        B = tags.shape[0]
        T = np.empty((self.n_wires, B), dtype=np.uint8)
        P = np.empty((self.n_wires, B), dtype=np.int64)
        if self.in_wires.size:
            T[self.in_wires] = tags.T
            P[self.in_wires] = payloads.T
        for w, val in self.constants:
            T[w] = val
            P[w] = NO_PAYLOAD
        if obs.OBS.enabled:
            self._apply_observed(T, _ONES8, B, "payload", P=P)
        else:
            apply_steps_payload(T, P, self.steps)
        return (
            np.ascontiguousarray(T[self.out_wires].T),
            np.ascontiguousarray(P[self.out_wires].T),
        )


def compile_plan(netlist: Netlist) -> ExecutionPlan:
    """Compile ``netlist`` into a fresh :class:`ExecutionPlan`."""
    return ExecutionPlan(
        n_wires=netlist.n_wires,
        in_wires=np.asarray(netlist.inputs, dtype=np.intp),
        out_wires=np.asarray(netlist.outputs, dtype=np.intp),
        constants=tuple(netlist.constants.items()),
        steps=fuse_elements(netlist.elements),
        name=netlist.name,
        control_wires=netlist.control_wires,
    )


_PLAN_CACHE: "weakref.WeakKeyDictionary[Netlist, ExecutionPlan]" = (
    weakref.WeakKeyDictionary()
)


def get_plan(netlist: Netlist) -> ExecutionPlan:
    """Return the cached plan for ``netlist``, compiling on first use.

    The cache is weak-keyed: dropping the last reference to a netlist
    drops its plan too, so sweeps over thousands of circuits do not
    accumulate compiled state.
    """
    plan = _PLAN_CACHE.get(netlist)
    if plan is None:
        if obs.OBS.enabled:
            with obs.OBS.tracer.span(
                "engine.compile", netlist=netlist.name,
                elements=len(netlist.elements),
            ):
                plan = compile_plan(netlist)
            obs.OBS.registry.counter(
                "repro_engine_compiles_total", "Netlist plan compilations"
            ).inc()
        else:
            plan = compile_plan(netlist)
        _PLAN_CACHE[netlist] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan — both the engine's fused-step plans and
    the JIT's in-memory kernels (mainly for tests and memory profiling).
    The persistent JIT disk cache is *kept*; see
    :func:`clear_disk_cache`."""
    _PLAN_CACHE.clear()
    from . import jit

    jit.clear_memory_cache()


def clear_disk_cache() -> int:
    """Delete every entry of the JIT's persistent compiled-plan cache
    (:mod:`repro.circuits.jit`); returns the number removed."""
    from . import jit

    return jit.clear_disk_cache()


def plan_cache_size() -> int:
    """Number of netlists with a live cached plan."""
    return len(_PLAN_CACHE)


def cache_info() -> dict:
    """Combined snapshot of every compiled-plan cache.

    ``plans`` counts the engine's weak-keyed fused-step plans; ``jit``
    nests the JIT's in-memory kernel count and persistent disk-cache
    statistics (directory, entries, bytes, hit/miss/corruption
    counters).
    """
    from . import jit

    return {"plans": len(_PLAN_CACHE), "jit": jit.cache_info()}

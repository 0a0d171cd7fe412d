"""Vectorized netlist evaluation.

Two evaluation modes share the structural description in
:class:`~repro.circuits.netlist.Netlist`:

* :func:`simulate` — pure bit-level evaluation, vectorized over a batch of
  input vectors (NumPy ``uint8``).  Used for functional verification,
  including *exhaustive* verification over all ``2**n`` binary sequences
  for small ``n``.
* :func:`simulate_payload` — bit-plus-payload evaluation for networks that
  *carry* inputs (the paper's distinction from Boolean sorting circuits,
  Section I).  Every wire holds a tag bit and an opaque integer payload;
  comparators and switches move payloads along with tags, while logic
  gates produce tag-only wires.  This is how concentrators and permuters
  demonstrate that actual data is routed, not merely that sorted bits are
  generated.

Both public entry points are thin wrappers over the compiled
level-batched engine in :mod:`repro.circuits.engine` (plans cached
weak-keyed per netlist, bit-packed fast path for large pure-bit
batches).  The original element-at-a-time interpreters are retained as
:func:`simulate_interpreted` / :func:`simulate_payload_interpreted` —
they are the independent oracle the engine is differentially tested
against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import elements as el
from . import jit as _jit
from .. import obs
from ..errors import SimulationError
from .engine import NO_PAYLOAD, get_plan
from .netlist import Netlist


def _as_batch(inputs) -> np.ndarray:
    arr = np.asarray(inputs)
    # Contiguous uint8 input is not copied (the hot path: engine outputs,
    # exhaustive_inputs, rng.integers(...).astype(uint8)); every batch
    # is range-checked, since the backends disagree on values above 1.
    if arr.dtype != np.uint8 or not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise SimulationError(
            f"inputs must be 1-D or 2-D, got shape {arr.shape}"
        )
    if arr.size and arr.max() > 1:
        raise SimulationError("inputs must be 0/1 values")
    return arr


def simulate(netlist: Netlist, inputs) -> np.ndarray:
    """Evaluate ``netlist`` on a batch of input vectors.

    Runs on the compiled level-batched engine (bit-packed for batches of
    64+ vectors), or — for netlists warm and sized inside the JIT window
    (see :func:`repro.circuits.jit.maybe_jit` and the ``REPRO_JIT``
    override) — on a code-generated straight-line bit-slice kernel.
    Both backends are bit-identical to :func:`simulate_interpreted`.

    Parameters
    ----------
    inputs:
        Array-like of shape ``(batch, n_inputs)`` or ``(n_inputs,)`` with
        0/1 values.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``(batch, n_outputs)``.
    """
    batch = _as_batch(inputs)
    if batch.shape[1] != len(netlist.inputs):
        raise SimulationError(
            f"expected {len(netlist.inputs)} inputs, got {batch.shape[1]}"
        )
    plan = _jit.maybe_jit(netlist, batch.shape[0])
    if plan is not None:
        return plan.execute(batch)
    return get_plan(netlist).execute(batch)


def simulate_engine(netlist: Netlist, inputs) -> np.ndarray:
    """:func:`simulate`, pinned to the fused-step engine (never JIT).

    The supervisor's ``engine`` tier and the JIT's own differential
    tests use this to keep the two compiled backends distinguishable
    regardless of ``REPRO_JIT``.
    """
    batch = _as_batch(inputs)
    if batch.shape[1] != len(netlist.inputs):
        raise SimulationError(
            f"expected {len(netlist.inputs)} inputs, got {batch.shape[1]}"
        )
    return get_plan(netlist).execute(batch)


def simulate_jit(netlist: Netlist, inputs) -> np.ndarray:
    """:func:`simulate`, pinned to the code-generated bit-slice kernel.

    Compiles (or loads from cache) unconditionally — no size threshold,
    no warm-up — unless ``REPRO_JIT=0`` explicitly forbids the JIT, in
    which case a :class:`~repro.errors.SimulationError` is raised so
    tiered callers (the supervisor ladder) fall through to the engine.
    """
    batch = _as_batch(inputs)
    if batch.shape[1] != len(netlist.inputs):
        raise SimulationError(
            f"expected {len(netlist.inputs)} inputs, got {batch.shape[1]}"
        )
    if _jit.jit_mode() == "off":
        raise SimulationError("JIT disabled by REPRO_JIT=0")
    return _jit.get_jit_plan(netlist).execute(batch)


def simulate_interpreted(netlist: Netlist, inputs) -> np.ndarray:
    """Element-at-a-time reference interpreter (the engine's oracle).

    Same contract as :func:`simulate`; kept deliberately independent of
    :mod:`repro.circuits.engine` so differential tests compare two
    implementations that share nothing but the netlist.  (The only
    shared machinery is the passive :mod:`repro.obs` span around the
    run, which observes timing without touching wire values.)
    """
    batch = _as_batch(inputs)
    if batch.shape[1] != len(netlist.inputs):
        raise SimulationError(
            f"expected {len(netlist.inputs)} inputs, got {batch.shape[1]}"
        )
    if not obs.OBS.enabled:
        return _interpret_bits(netlist, batch)
    with obs.OBS.tracer.span(
        "interp.execute", netlist=netlist.name, mode="bit",
        batch=batch.shape[0], elements=len(netlist.elements),
    ):
        return _interpret_bits(netlist, batch)


def _interpret_bits(netlist: Netlist, batch: np.ndarray) -> np.ndarray:
    n_batch = batch.shape[0]
    values: list = [None] * netlist.n_wires
    for i, w in enumerate(netlist.inputs):
        values[w] = batch[:, i]
    for w, v in netlist.constants.items():
        values[w] = np.full(n_batch, v, dtype=np.uint8)

    for e in netlist.elements:
        kind = e.kind
        if kind == el.COMPARATOR:
            a, b = values[e.ins[0]], values[e.ins[1]]
            values[e.outs[0]] = a & b
            values[e.outs[1]] = a | b
        elif kind == el.SWITCH2:
            a, b, c = (values[w] for w in e.ins)
            values[e.outs[0]] = np.where(c, b, a)
            values[e.outs[1]] = np.where(c, a, b)
        elif kind == el.MUX2:
            a, b, s = (values[w] for w in e.ins)
            values[e.outs[0]] = np.where(s, b, a)
        elif kind == el.DEMUX2:
            a, s = values[e.ins[0]], values[e.ins[1]]
            values[e.outs[0]] = np.where(s, 0, a).astype(np.uint8)
            values[e.outs[1]] = np.where(s, a, 0).astype(np.uint8)
        elif kind == el.SWITCH4:
            data = np.stack([values[w] for w in e.ins[:4]])  # (4, batch)
            sel = (values[e.ins[4]].astype(np.intp) << 1) | values[e.ins[5]]
            table = np.asarray(e.params, dtype=np.intp)  # (4 sel, 4 out)
            cols = np.arange(n_batch)
            for i in range(4):
                src = table[sel, i]
                values[e.outs[i]] = data[src, cols]
        elif kind == el.NOT:
            values[e.outs[0]] = values[e.ins[0]] ^ 1
        elif kind == el.AND:
            values[e.outs[0]] = values[e.ins[0]] & values[e.ins[1]]
        elif kind == el.OR:
            values[e.outs[0]] = values[e.ins[0]] | values[e.ins[1]]
        elif kind == el.XOR:
            values[e.outs[0]] = values[e.ins[0]] ^ values[e.ins[1]]
        elif kind == el.NAND:
            values[e.outs[0]] = (values[e.ins[0]] & values[e.ins[1]]) ^ 1
        elif kind == el.NOR:
            values[e.outs[0]] = (values[e.ins[0]] | values[e.ins[1]]) ^ 1
        elif kind == el.XNOR:
            values[e.outs[0]] = (values[e.ins[0]] ^ values[e.ins[1]]) ^ 1
        elif kind == el.BUF:
            values[e.outs[0]] = values[e.ins[0]]
        else:  # pragma: no cover - guarded by Element.validate
            raise ValueError(f"unknown element kind {kind!r}")

    return np.stack([values[w] for w in netlist.outputs], axis=1)


def _as_payload_batch(netlist: Netlist, tags, payloads):
    tag_batch = _as_batch(tags)
    pay_batch = np.asarray(payloads, dtype=np.int64)
    if pay_batch.ndim == 1:
        pay_batch = pay_batch[np.newaxis, :]
    if pay_batch.shape != tag_batch.shape:
        raise SimulationError("tags and payloads must have the same shape")
    if tag_batch.shape[1] != len(netlist.inputs):
        raise SimulationError(
            f"expected {len(netlist.inputs)} inputs, got {tag_batch.shape[1]}"
        )
    return tag_batch, pay_batch


def simulate_payload(
    netlist: Netlist, tags, payloads
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate ``netlist`` carrying an integer payload on every data wire.

    Comparators route the payload with its tag (ties pass straight, so the
    routing is deterministic); switches, multiplexers, and demultiplexers
    route payloads by their control bits.  Logic gates output
    :data:`NO_PAYLOAD`, which is fine because control logic never feeds a
    primary data output in the paper's constructions.

    Runs on the compiled engine's payload path; bit-identical to
    :func:`simulate_payload_interpreted`.

    Returns ``(out_tags, out_payloads)``, both shaped
    ``(batch, n_outputs)``.
    """
    tag_batch, pay_batch = _as_payload_batch(netlist, tags, payloads)
    return get_plan(netlist).execute_payload(tag_batch, pay_batch)


def simulate_payload_interpreted(
    netlist: Netlist, tags, payloads
) -> Tuple[np.ndarray, np.ndarray]:
    """Element-at-a-time payload interpreter (the engine's oracle).

    Same contract as :func:`simulate_payload`.
    """
    tag_batch, pay_batch = _as_payload_batch(netlist, tags, payloads)
    if not obs.OBS.enabled:
        return _interpret_payload(netlist, tag_batch, pay_batch)
    with obs.OBS.tracer.span(
        "interp.execute", netlist=netlist.name, mode="payload",
        batch=tag_batch.shape[0], elements=len(netlist.elements),
    ):
        return _interpret_payload(netlist, tag_batch, pay_batch)


def _interpret_payload(
    netlist: Netlist, tag_batch: np.ndarray, pay_batch: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    n_batch = tag_batch.shape[0]
    tags_v: list = [None] * netlist.n_wires
    pays_v: list = [None] * netlist.n_wires
    no_pay = np.full(n_batch, NO_PAYLOAD, dtype=np.int64)
    for i, w in enumerate(netlist.inputs):
        tags_v[w] = tag_batch[:, i]
        pays_v[w] = pay_batch[:, i]
    for w, v in netlist.constants.items():
        tags_v[w] = np.full(n_batch, v, dtype=np.uint8)
        pays_v[w] = no_pay

    for e in netlist.elements:
        kind = e.kind
        if kind == el.COMPARATOR:
            a, b = tags_v[e.ins[0]], tags_v[e.ins[1]]
            pa, pb = pays_v[e.ins[0]], pays_v[e.ins[1]]
            swap = a & (b ^ 1)  # a=1, b=0: exchange
            tags_v[e.outs[0]] = a & b
            tags_v[e.outs[1]] = a | b
            pays_v[e.outs[0]] = np.where(swap, pb, pa)
            pays_v[e.outs[1]] = np.where(swap, pa, pb)
        elif kind == el.SWITCH2:
            a, b, c = (tags_v[w] for w in e.ins)
            pa, pb = pays_v[e.ins[0]], pays_v[e.ins[1]]
            tags_v[e.outs[0]] = np.where(c, b, a)
            tags_v[e.outs[1]] = np.where(c, a, b)
            pays_v[e.outs[0]] = np.where(c, pb, pa)
            pays_v[e.outs[1]] = np.where(c, pa, pb)
        elif kind == el.MUX2:
            a, b, s = (tags_v[w] for w in e.ins)
            pa, pb = pays_v[e.ins[0]], pays_v[e.ins[1]]
            tags_v[e.outs[0]] = np.where(s, b, a)
            pays_v[e.outs[0]] = np.where(s, pb, pa)
        elif kind == el.DEMUX2:
            a, s = tags_v[e.ins[0]], tags_v[e.ins[1]]
            pa = pays_v[e.ins[0]]
            tags_v[e.outs[0]] = np.where(s, 0, a).astype(np.uint8)
            tags_v[e.outs[1]] = np.where(s, a, 0).astype(np.uint8)
            pays_v[e.outs[0]] = np.where(s, no_pay, pa)
            pays_v[e.outs[1]] = np.where(s, pa, no_pay)
        elif kind == el.SWITCH4:
            data = np.stack([tags_v[w] for w in e.ins[:4]])
            pdata = np.stack([pays_v[w] for w in e.ins[:4]])
            sel = (tags_v[e.ins[4]].astype(np.intp) << 1) | tags_v[e.ins[5]]
            table = np.asarray(e.params, dtype=np.intp)
            cols = np.arange(n_batch)
            for i in range(4):
                src = table[sel, i]
                tags_v[e.outs[i]] = data[src, cols]
                pays_v[e.outs[i]] = pdata[src, cols]
        elif kind == el.BUF:
            tags_v[e.outs[0]] = tags_v[e.ins[0]]
            pays_v[e.outs[0]] = pays_v[e.ins[0]]
        elif kind in el.GATE_KINDS or kind in (el.NOT,):
            # control logic: tags only, payload does not propagate
            ins = [tags_v[w] for w in e.ins]
            if kind == el.NOT:
                out = ins[0] ^ 1
            elif kind == el.AND:
                out = ins[0] & ins[1]
            elif kind == el.OR:
                out = ins[0] | ins[1]
            elif kind == el.XOR:
                out = ins[0] ^ ins[1]
            elif kind == el.NAND:
                out = (ins[0] & ins[1]) ^ 1
            elif kind == el.NOR:
                out = (ins[0] | ins[1]) ^ 1
            elif kind == el.XNOR:
                out = (ins[0] ^ ins[1]) ^ 1
            else:  # pragma: no cover
                raise ValueError(f"unknown gate kind {kind!r}")
            tags_v[e.outs[0]] = out
            pays_v[e.outs[0]] = no_pay
        else:  # pragma: no cover - guarded by Element.validate
            raise ValueError(f"unknown element kind {kind!r}")

    out_tags = np.stack([tags_v[w] for w in netlist.outputs], axis=1)
    out_pays = np.stack([pays_v[w] for w in netlist.outputs], axis=1)
    return out_tags, out_pays


def exhaustive_inputs(n: int) -> np.ndarray:
    """All ``2**n`` binary vectors of length ``n`` as a batch (uint8).

    Row ``i`` is the binary expansion of ``i``, most-significant bit first,
    so iteration order is lexicographic.
    """
    if n < 0:
        raise SimulationError("n must be non-negative")
    if n > 24:
        raise SimulationError(f"refusing to materialize 2**{n} vectors")
    count = 1 << n
    idx = np.arange(count, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)

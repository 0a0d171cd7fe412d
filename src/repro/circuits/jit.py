"""Bit-slice JIT: compile netlists to straight-line bignum kernels.

The compiled engine (:mod:`repro.circuits.engine`) interprets a fused
:class:`~repro.circuits.engine.ExecutionPlan` level by level: every step
still pays a NumPy gather (``V[in_idx]``), a kernel dispatch, and a
scatter back into the value matrix.  This module goes one level down —
the direction of ROADMAP item 1 — by *code-generating* each netlist into
straight-line Python functions of pure bitwise operations over
arbitrary-precision integers, where every batch lane is one bit of the
word (64 lanes per machine word inside CPython's bignum loops):

* per-level dispatch disappears — the netlist becomes straight-line
  code compiled once via ``compile()``/``exec`` (the generated source is
  retained on the plan for inspection);
* gather/scatter copies disappear — wire values live in local
  variables, and single-use intermediates are fused *across execution
  levels* into their consumer's expression (the codegen analog of
  cross-level step fusion); stored values share a small pool of
  locals, each released after its last read;
* the word width adapts to the batch for free: a ``B``-row batch packs
  into ``B``-bit integers, so one generated kernel serves every batch
  size.

Lowering goes through an explicit SSA bit-op IR (:class:`BitProgram`)
and optimizes in one pass.  :func:`lower` folds constants and
hash-conses as it emits each node, so sharing that is invisible between
elements (a ``COMPARATOR``'s AND versus an explicit ``AND`` gate in a
prefix-adder cone) collapses as soon as it appears:

* constant wires fold through every element kind, including the
  steering/control wires of switches;
* global common subexpressions are shared by hash-consing with
  commutative operand normalization.

:func:`eliminate_dead` then drops every operation with no path to a
primary output (the bit-level analog of
:func:`repro.circuits.opt.prune_dead`).  ``lower(net, optimize=False)``
is the direct, unoptimized translation the optimized kernels are
differentially tested against.

**Block shapes.**  The paper's sorters are recursive compositions, so an
n=1024 mux-merger sorter holds 16 identical 64-input sorters, 8
identical 128-input sorters, and so on.  The builder records each
instance as a :class:`~repro.circuits.netlist.Block`.  Each candidate
instance (at least :data:`JIT_MIN_ELEMENTS` elements) gets a Merkle-style
structural digest: its own elements with wires renumbered from its
inputs, plus each nested candidate's digest and port map.  A digest that
occurs at least twice becomes one function, compiled once and called
from every instance; everything else is inlined into the enclosing
function, where the fold, share and dead-code passes run as before.
Shape functions are cached in memory by digest, so n=256 reuses the
sorter functions an n=1024 compile made.  At n=1024 the 137,202 executed
operations come from 27,008 compiled ones in six functions.  The digest,
not the block's ``kind`` label, decides sharing: an instance edited in
place gets its own digest and never reuses a healthy function.
Netlists without records (fault mutants, checked netlists with the
control duplicate, hand-built circuits) compile to one function.

Compiled plans are cached three deep: a weak-keyed in-memory cache
(:func:`get_jit_plan`, mirroring the engine's plan cache), and a
**persistent on-disk cache** (one entry per netlist, holding all of its
functions) keyed by netlist content hash — shared
with :func:`repro.circuits.serialize.load`'s staleness logic via
:func:`~repro.circuits.serialize.netlist_key` — so warm processes and
:mod:`repro.parallel` workers skip recompilation entirely.  Disk
entries are written atomically (:mod:`repro.ioutil`) and carry an
internal checksum; a torn, truncated, or bit-flipped entry is silently
ignored and recompiled, never loaded.

Faulted netlists (:mod:`repro.circuits.faults` rewrites) flow through
this compiler unchanged — a mutant is just another netlist with its own
content hash — which is what keeps the fault campaigns' differential
guarantees intact on the JIT path.
"""

from __future__ import annotations

import importlib.util
import json
import hashlib
import marshal
import os
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import elements as el
from .. import obs
from ..errors import BuildError
from ..ioutil import atomic_write_bytes
from .netlist import Block, Netlist
from .serialize import netlist_key

__all__ = [
    "BitProgram",
    "JitPlan",
    "JIT_MIN_ELEMENTS",
    "JIT_MAX_ELEMENTS",
    "JIT_WARMUP_CALLS",
    "cache_info",
    "clear_disk_cache",
    "clear_memory_cache",
    "codegen",
    "compile_jit",
    "disk_cache_dir",
    "eliminate_dead",
    "get_jit_plan",
    "jit_mode",
    "lower",
    "maybe_jit",
    "run_program",
]

#: Environment switch for the automatic routing in ``simulate``:
#: ``"1"``/``"on"``/``"force"`` always JIT, ``"0"``/``"off"`` never,
#: unset or ``"auto"`` applies the size/warm-up thresholds below.
ENV_JIT = "REPRO_JIT"
#: Disk-cache location override; ``"off"``/``"0"``/``"none"`` disables
#: the persistent cache entirely.
ENV_JIT_CACHE = "REPRO_JIT_CACHE"

#: Auto-mode thresholds: netlists below the floor are cheap enough for
#: the engine's fused steps (codegen would never amortize); above the
#: ceiling the engine's vectorized gathers win back and compile times
#: stretch to seconds.  Chosen from BENCH_jit measurements on this
#: container; ``REPRO_JIT=1`` bypasses both.
JIT_MIN_ELEMENTS = 256
JIT_MAX_ELEMENTS = 24_000
#: Auto mode compiles a netlist only after it has been simulated this
#: many times (unless a disk-cache entry already exists), so one-shot
#: simulations — e.g. fault campaigns visiting thousands of distinct
#: mutants once each — never pay codegen.
JIT_WARMUP_CALLS = 3

#: Bump when the IR, codegen, or cache entry layout changes; part of
#: every disk-cache key, so stale formats miss instead of mis-loading.
CODEGEN_VERSION = 2

_MAGIC = b"RJIT1\n"
#: CPython bytecode magic — marshalled code objects are only valid for
#: the interpreter that produced them.
_PY_TAG = importlib.util.MAGIC_NUMBER.hex()

# IR opcodes.  C0/C1 are the all-zeros / all-ones (mask) words and own
# the fixed node ids 0 and 1; IN nodes follow at ids 2..n_inputs+1.
# ``(RET, j, k)`` is output ``k`` of call ``j`` (see BitProgram.calls).
_C0, _C1, _IN, _RET = "C0", "C1", "IN", "RET"
_BINOPS = {"AND": "&", "OR": "|", "XOR": "^"}


@dataclass(frozen=True)
class BitProgram:
    """A netlist lowered to SSA bit operations over packed words.

    ``nodes[i] = (op, a, b)`` with ``op`` one of ``C0``/``C1`` (constant
    words), ``IN`` (``a`` is the primary-input position), ``RET`` (output
    ``b`` of call ``a``), or a binary bitwise op whose operands ``a``/``b``
    are earlier node ids.  The list order is a topological schedule by
    construction.  ``outputs`` maps each primary output to its node id.

    ``calls[j] = (callee, args, n_outputs)`` runs the generated function
    named ``callee`` on the node ids ``args``; a call takes place where
    its first ``RET`` node stands.  Programs lowered without block calls
    have ``calls == ()``.
    """

    n_inputs: int
    nodes: Tuple[Tuple[str, int, int], ...]
    outputs: Tuple[int, ...]
    name: str = "netlist"
    calls: Tuple[Tuple[str, Tuple[int, ...], int], ...] = ()

    @property
    def n_ops(self) -> int:
        """Number of bit operations in this program's own code (excludes
        constants, inputs and the operations inside called functions)."""
        return sum(1 for op, _, _ in self.nodes if op in _BINOPS)


class _Builder:
    """Emit IR nodes, optionally optimizing each one as it is emitted.

    With ``optimize`` every node first goes through constant propagation
    and algebraic identities (including constants arriving on
    steering/control wires), then through global CSE by hash-consing
    with commutative operand normalization.  Operands are already
    optimized when their consumer is emitted, so one walk reaches the
    fixed point of both.
    """

    def __init__(self, n_inputs: int, optimize: bool) -> None:
        self.nodes: List[Tuple[str, int, int]] = [(_C0, 0, 0), (_C1, 0, 0)]
        self.nodes.extend((_IN, i, 0) for i in range(n_inputs))
        self.memo: Optional[Dict[Tuple[str, int, int], int]] = (
            {} if optimize else None
        )
        self.calls: List[Tuple[str, Tuple[int, ...], int]] = []

    def input(self, position: int) -> int:
        return 2 + position

    def call(self, callee: str, args: Sequence[int], n_out: int) -> range:
        """Emit a call of ``callee`` on ``args``; returns its RET nodes
        (opaque values: never folded into or shared with anything)."""
        j = len(self.calls)
        self.calls.append((callee, tuple(args), n_out))
        base = len(self.nodes)
        self.nodes.extend((_RET, j, k) for k in range(n_out))
        return range(base, base + n_out)

    def _is_not_of(self, node: int, operand: int) -> bool:
        """True when ``node`` computes ``NOT operand`` (= ``XOR(C1, x)``)."""
        return self.nodes[node] == ("XOR", 1, operand)

    def emit(self, op: str, a: int, b: int) -> int:
        if a > b:  # AND/OR/XOR are all commutative
            a, b = b, a
        if self.memo is None:
            self.nodes.append((op, a, b))
            return len(self.nodes) - 1
        folded = self._fold(op, a, b)
        if folded is not None:
            return folded
        key = (op, a, b)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        nid = len(self.nodes)
        self.nodes.append(key)
        self.memo[key] = nid
        return nid

    def _fold(self, op: str, a: int, b: int) -> Optional[int]:
        # operands are sorted, so any constant is in ``a``.
        if op == "AND":
            if a == 0:
                return 0
            if a == 1:
                return b
            if a == b:
                return a
            if self._is_not_of(b, a):
                return 0
        elif op == "OR":
            if a == 0:
                return b
            if a == 1:
                return 1
            if a == b:
                return a
            if self._is_not_of(b, a):
                return 1
        elif op == "XOR":
            if a == b:
                return 0
            if a == 0:
                return b
            if a == 1 and self.nodes[b][:2] == ("XOR", 1):
                return self.nodes[b][2]  # NOT(NOT x) -> x
            if self._is_not_of(b, a):
                return 1
            nb = self.nodes[b]
            if nb[0] == "XOR" and a in nb[1:]:
                return nb[2] if nb[1] == a else nb[1]  # x ^ (x ^ y) -> y
        return None

    def not_(self, a: int) -> int:
        return self.emit("XOR", 1, a)


def _switch4_mask(b: _Builder, sels: frozenset, selmask: Sequence[int],
                  hi: int, lo: int, nhi: int, nlo: int) -> int:
    """Steering mask for the subset ``sels`` of a 4x4 switch's select
    values, using the cheapest available factorization (a pair that
    shares a select bit collapses to that bit; a complement of one
    select is the NOT of its mask)."""
    if len(sels) == 4:
        return 1
    if len(sels) == 1:
        return selmask[next(iter(sels))]
    if len(sels) == 3:
        (missing,) = set(range(4)) - sels
        return b.not_(selmask[missing])
    pairs = {
        frozenset((0, 1)): nhi, frozenset((2, 3)): hi,
        frozenset((0, 2)): nlo, frozenset((1, 3)): lo,
    }
    if sels in pairs:
        return pairs[sels]
    xor_hl = b.emit("XOR", hi, lo)
    if sels == frozenset((1, 2)):
        return xor_hl
    return b.not_(xor_hl)  # {0, 3}: hi == lo


def lower(netlist: Netlist, *, optimize: bool = True) -> BitProgram:
    """Lower a netlist to the bit-op IR, folding and sharing as it goes.

    With ``optimize=False`` the translation is direct (one cluster of
    ops per element, nothing merged) — the baseline the optimized
    programs are differentially tested against.  The result is one flat
    program; :func:`compile_jit` lowers block-structured netlists one
    region at a time instead.
    """
    return _lower_region(netlist, netlist.inputs, 0, len(netlist.elements),
                         netlist.outputs, (), optimize)


def _lower_region(netlist: Netlist, inputs: Sequence[int], start: int,
                  stop: int, outputs: Sequence[int],
                  calls: Sequence[Tuple[Block, str]],
                  optimize: bool) -> BitProgram:
    """Lower ``netlist.elements[start:stop]`` reading ``inputs``.

    ``calls`` lists ``(block, callee name)`` in element order: each of
    those block instances becomes one call and its elements are skipped.
    """
    b = _Builder(len(inputs), optimize)
    val: Dict[int, int] = {}
    for pos, w in enumerate(inputs):
        val[w] = b.input(pos)
    for w, v in netlist.constants.items():
        val[w] = 1 if v else 0

    segments = []
    pos = start
    for blk, callee in calls:
        segments.append((netlist.elements[pos:blk.start], blk, callee))
        pos = blk.stop
    segments.append((netlist.elements[pos:stop], None, ""))
    for elements, blk, callee in segments:
        for e in elements:
            _lower_element(b, e, val)
        if blk is not None:
            rets = b.call(callee, [val[w] for w in blk.inputs],
                          len(blk.outputs))
            val.update(zip(blk.outputs, rets))

    return BitProgram(
        n_inputs=len(inputs),
        nodes=tuple(b.nodes),
        outputs=tuple(val[w] for w in outputs),
        name=netlist.name,
        calls=tuple(b.calls),
    )


def _lower_element(b: _Builder, e, val: Dict[int, int]) -> None:
    """Emit the bit operations of one element into ``b``."""
    kind = e.kind
    ins = [val[w] for w in e.ins]
    if kind == el.COMPARATOR:
        val[e.outs[0]] = b.emit("AND", ins[0], ins[1])
        val[e.outs[1]] = b.emit("OR", ins[0], ins[1])
    elif kind == el.SWITCH2:
        # butterfly form: t = (a ^ b) & c; outs = a ^ t, b ^ t
        t = b.emit("AND", b.emit("XOR", ins[0], ins[1]), ins[2])
        val[e.outs[0]] = b.emit("XOR", ins[0], t)
        val[e.outs[1]] = b.emit("XOR", ins[1], t)
    elif kind == el.MUX2:
        t = b.emit("AND", b.emit("XOR", ins[0], ins[1]), ins[2])
        val[e.outs[0]] = b.emit("XOR", ins[0], t)
    elif kind == el.DEMUX2:
        taken = b.emit("AND", ins[0], ins[1])
        val[e.outs[0]] = b.emit("XOR", ins[0], taken)  # a & ~s
        val[e.outs[1]] = taken
    elif kind == el.SWITCH4:
        data, hi, lo = ins[:4], ins[4], ins[5]
        nhi, nlo = b.not_(hi), b.not_(lo)
        selmask = (
            b.emit("AND", nhi, nlo), b.emit("AND", nhi, lo),
            b.emit("AND", hi, nlo), b.emit("AND", hi, lo),
        )
        for k in range(4):
            by_src: Dict[int, set] = {}
            for s in range(4):
                by_src.setdefault(e.params[s][k], set()).add(s)
            terms = []
            for src, sels in sorted(by_src.items()):
                mask = _switch4_mask(b, frozenset(sels), selmask,
                                     hi, lo, nhi, nlo)
                terms.append(b.emit("AND", mask, data[src]))
            out = terms[0]
            for t in terms[1:]:
                out = b.emit("OR", out, t)
            val[e.outs[k]] = out
    elif kind == el.NOT:
        val[e.outs[0]] = b.not_(ins[0])
    elif kind == el.AND:
        val[e.outs[0]] = b.emit("AND", ins[0], ins[1])
    elif kind == el.OR:
        val[e.outs[0]] = b.emit("OR", ins[0], ins[1])
    elif kind == el.XOR:
        val[e.outs[0]] = b.emit("XOR", ins[0], ins[1])
    elif kind == el.NAND:
        val[e.outs[0]] = b.not_(b.emit("AND", ins[0], ins[1]))
    elif kind == el.NOR:
        val[e.outs[0]] = b.not_(b.emit("OR", ins[0], ins[1]))
    elif kind == el.XNOR:
        val[e.outs[0]] = b.not_(b.emit("XOR", ins[0], ins[1]))
    elif kind == el.BUF:
        val[e.outs[0]] = ins[0]
    else:  # pragma: no cover - guarded by Element.validate
        raise BuildError(f"cannot lower element kind {kind!r}")


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------

def eliminate_dead(prog: BitProgram) -> BitProgram:
    """Drop every operation with no path to a primary output (the
    bit-level analog of :func:`repro.circuits.opt.prune_dead`).  A call
    survives while any of its outputs is live; it then keeps all of its
    arguments live."""
    nodes = prog.nodes
    n_fixed = 2 + prog.n_inputs
    live = [False] * len(nodes)
    for o in prog.outputs:
        live[o] = True
    call_live = [False] * len(prog.calls)
    for nid in range(len(nodes) - 1, n_fixed - 1, -1):
        if live[nid]:
            op, a, c = nodes[nid]
            if op != _RET:
                live[a] = live[c] = True
            elif not call_live[a]:
                # a call's arguments all precede its RET nodes
                call_live[a] = True
                for x in prog.calls[a][1]:
                    live[x] = True
    remap = [0] * len(nodes)
    kept: List[Tuple[str, int, int]] = []
    calls: List[Tuple[str, Tuple[int, ...], int]] = []
    new_call: Dict[int, int] = {}
    for nid, node in enumerate(nodes):
        if nid >= n_fixed:
            if not live[nid]:
                continue
            op, a, c = node
            if op == _RET:
                j = new_call.get(a)
                if j is None:
                    callee, args, n_out = prog.calls[a]
                    j = new_call[a] = len(calls)
                    calls.append((callee, tuple(remap[x] for x in args),
                                  n_out))
                node = (_RET, j, c)
            else:
                node = (op, remap[a], remap[c])
        remap[nid] = len(kept)
        kept.append(node)
    return BitProgram(
        n_inputs=prog.n_inputs,
        nodes=tuple(kept),
        outputs=tuple(remap[o] for o in prog.outputs),
        name=prog.name,
        calls=tuple(calls),
    )


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

#: Single-use expression chains longer than this are cut with a local
#: assignment: CPython's AST compiler recurses per nesting level, and a
#: prefix cone inlined whole would overflow it.
_MAX_INLINE_DEPTH = 24


def codegen(prog: BitProgram, fn_name: str = "_jit_kernel",
            fuse: bool = True) -> str:
    """Generate straight-line Python source for ``prog``.

    The kernel signature is ``fn(I, M)``: ``I`` is the tuple of packed
    input words (one arbitrary-precision int per primary input, one
    batch lane per bit) and ``M`` the all-lanes-set mask.  With ``fuse``
    (default) single-use intermediates are inlined into their consumer's
    expression — the cross-level fusion step: values produced at one
    execution level are consumed inside another level's expression with
    no store/load round-trip.

    Stored values share a small pool of locals: each takes a free name
    and gives it back after its last read, so a kernel holds about as
    many locals as it has values live at once rather than one per node.
    A call of another generated function ``g`` is one statement,
    ``r0, r1, ... = g((a0, a1, ...), M)``.
    """
    nodes, calls, outputs = prog.nodes, prog.calls, prog.outputs
    n_fixed = 2 + prog.n_inputs
    n = len(nodes)
    end = n  # statement id of the ``return``
    uses = [0] * n
    call_at = [end] * len(calls)  # statement id of each call
    rets: List[List[Tuple[int, int]]] = [[] for _ in calls]
    for nid in range(n_fixed, n):
        op, a, c = nodes[nid]
        if op == _RET:
            if not rets[a]:
                call_at[a] = nid
                for x in calls[a][1]:
                    uses[x] += 1
            rets[a].append((c, nid))
        else:
            uses[a] += 1
            uses[c] += 1
    for o in outputs:
        uses[o] += 1

    # Which nodes get a local (stored) and which inline into their one
    # consumer.
    stored = [True] * n
    depth = [0] * n
    for nid in range(n_fixed, n):
        op, a, c = nodes[nid]
        if op != _RET and fuse and uses[nid] == 1:
            d = 1 + max(depth[a], depth[c])
            if d < _MAX_INLINE_DEPTH:
                stored[nid] = False
                depth[nid] = d

    # Walking back from the outputs: the statement each inlined node is
    # evaluated in (``stmt``), the last statement reading each stored
    # value (``last``), and the values each statement reads for the last
    # time (``release``).  A node's consumers all come after it, so both
    # are final by the time the walk reaches the node.
    stmt = list(range(n))
    last = [-1] * n
    release: Dict[int, List[int]] = {}
    for o in outputs:
        if stored[o]:
            last[o] = end
        else:
            stmt[o] = end
    for nid in range(n - 1, n_fixed - 1, -1):
        op, a, c = nodes[nid]
        if op != _RET:
            at, operands = stmt[nid], (a, c)
        elif call_at[a] == nid:
            at, operands = nid, calls[a][1]
        else:
            operands = ()
        for x in operands:
            if not stored[x]:
                stmt[x] = at
            elif last[x] < at:
                last[x] = at
        if stored[nid] and nid < last[nid] < end:
            release.setdefault(last[nid], []).append(nid)

    ref: List[str] = [""] * n
    ref[0], ref[1] = "0", "M"
    for pos in range(prog.n_inputs):
        ref[2 + pos] = f"i{pos}"
    free: List[str] = []  # names of locals whose value is dead
    n_locals = 0
    lines: List[str] = []
    for nid in range(n_fixed, n):
        op, a, c = nodes[nid]
        if op == _RET:
            if call_at[a] != nid:
                continue  # bound by its call's statement
            callee, args, n_out = calls[a]
            rhs = (f"{callee}(({', '.join(ref[x] for x in args)}"
                   f"{',' if args else ''}), M)")
            outs = [r for _, r in rets[a]]
        else:
            rhs = f"{ref[a]} {_BINOPS[op]} {ref[c]}"
            if not stored[nid]:
                ref[nid] = f"({rhs})"
                continue
            outs = [nid]
        free.extend(ref[x] for x in release.pop(nid, ()))
        for r in outs:
            if free:
                ref[r] = free.pop()
            else:
                ref[r] = f"v{n_locals}"
                n_locals += 1
        if op == _RET:
            targets = ["_"] * n_out
            for k, r in rets[a]:
                targets[k] = ref[r]
            lines.append(f"{', '.join(targets)}, = {rhs}")
        else:
            lines.append(f"{ref[nid]} = {rhs}")
        # values never read (unoptimized programs) free at once
        free.extend(ref[r] for r in outs if last[r] < 0)

    src = [f"def {fn_name}(I, M):"]
    if prog.n_inputs:
        unpack = ", ".join(f"i{k}" for k in range(prog.n_inputs))
        src.append(f"    ({unpack},) = I")
    src.extend("    " + ln for ln in lines)
    rets_src = ", ".join(ref[o] for o in outputs)
    src.append(f"    return ({rets_src}{',' if len(outputs) == 1 else ''})")
    return "\n".join(src) + "\n"


def run_program(prog: BitProgram, ins: Sequence[int], lanes: int,
                functions: Optional[Dict[str, BitProgram]] = None
                ) -> List[int]:
    """Reference IR interpreter (tests use it to pin codegen semantics).

    ``functions`` maps callee names to their programs when ``prog``
    makes calls."""
    mask = (1 << lanes) - 1
    vals: List[int] = [0, mask]
    vals.extend(int(x) & mask for x in ins)
    results: Dict[int, List[int]] = {}
    for op, a, c in prog.nodes[2 + prog.n_inputs:]:
        if op == _RET:
            if a not in results:
                callee, args, _ = prog.calls[a]
                results[a] = run_program(functions[callee],
                                         [vals[x] for x in args], lanes,
                                         functions)
            vals.append(results[a][c])
            continue
        x, y = vals[a], vals[c]
        vals.append(x & y if op == "AND" else x | y if op == "OR" else x ^ y)
    return [vals[o] for o in prog.outputs]


# ---------------------------------------------------------------------------
# Block shapes: which sub-network instances become calls
# ---------------------------------------------------------------------------

def _region_digest(netlist: Netlist, inputs: Sequence[int], start: int,
                   stop: int, outputs: Sequence[int], kids: Sequence[int],
                   digests: Sequence[Optional[str]]) -> Optional[str]:
    """Structural digest of ``elements[start:stop]`` with the nested
    blocks ``kids`` (indices into ``netlist.blocks``, in element order)
    folded in as their digests and port maps; ``None`` when the region
    reads a wire that is neither one of ``inputs``, a constant, nor
    driven inside it (a kid's internal wires count as outside).

    Wires are renumbered in order of appearance from the region's
    inputs, so every instance of one shape gets one digest, and the
    digest of a parent covers its kids without walking them again.
    """
    local: Dict[int, object] = {
        w: f"c{v}" for w, v in netlist.constants.items()}
    local.update((w, k) for k, w in enumerate(inputs))
    n = len(inputs)
    items: List[object] = [n]
    elements, blocks = netlist.elements, netlist.blocks
    pos = start
    try:
        for kid in [*kids, None]:
            blk = blocks[kid] if kid is not None else None
            for e in elements[pos:blk.start if blk else stop]:
                items.append((e.kind, e.params, [local[w] for w in e.ins]))
                for w in e.outs:
                    local[w] = n
                    n += 1
            if blk is not None:
                items.append((digests[kid], [local[w] for w in blk.inputs]))
                for w in blk.outputs:
                    local[w] = n
                    n += 1
                pos = blk.stop
        items.append([local[w] for w in outputs])
    except KeyError:
        return None
    return hashlib.sha256(repr(items).encode()).hexdigest()


class _Layout:
    """The call structure of one block-structured netlist.

    Only blocks with at least :data:`JIT_MIN_ELEMENTS` elements are
    candidates (smaller ones are walked as plain elements).  A candidate
    becomes a call when its digest occurs at least twice; everything
    else is inlined into the enclosing function.
    """

    def __init__(self, netlist: Netlist, digests: Dict[int, str],
                 children: Dict[int, List[int]], top: List[int]) -> None:
        seen = Counter(digests.values())
        self.netlist = netlist
        self.digests = digests
        self.children = children
        self.is_call = {i for i, d in digests.items() if seen[d] >= 2}
        self.top = self.calls_in(top)

    def calls_in(self, kids: Sequence[int]) -> List[int]:
        """The outermost call instances among ``kids`` and, through the
        inlined ones, their descendants (in element order)."""
        out: List[int] = []
        for k in kids:
            if k in self.is_call:
                out.append(k)
            else:
                out.extend(self.calls_in(self.children[k]))
        return out


def _layout(netlist: Netlist) -> Optional[_Layout]:
    """Digest the candidate blocks of ``netlist`` and decide its calls;
    ``None`` when nothing becomes a call or the records are inconsistent
    (ranges that overlap without nesting, or a region that is not
    closed), in which case the netlist compiles as one function."""
    blocks = netlist.blocks
    # Children close before parents: order by end, inner before outer.
    order = sorted(
        (i for i, blk in enumerate(blocks)
         if blk.stop - blk.start >= JIT_MIN_ELEMENTS),
        key=lambda i: (blocks[i].stop, -blocks[i].start))
    if not order:
        return None
    children: Dict[int, List[int]] = {}
    digests: Dict[int, str] = {}
    stack: List[int] = []
    for i in order:
        blk = blocks[i]
        kids = []
        while stack and blocks[stack[-1]].start >= blk.start:
            kids.append(stack.pop())
        kids.reverse()
        if stack and blocks[stack[-1]].stop > blk.start:
            return None
        digest = _region_digest(netlist, blk.inputs, blk.start, blk.stop,
                                blk.outputs, kids, digests)
        if digest is None:
            return None
        children[i], digests[i] = kids, digest
        stack.append(i)
    if _region_digest(netlist, netlist.inputs, 0, len(netlist.elements),
                      netlist.outputs, stack, digests) is None:
        return None
    layout = _Layout(netlist, digests, children, stack)
    return layout if layout.top else None


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------

class _Function:
    """One generated kernel function: a netlist's top level, or a block
    shape shared by every instance (and every netlist) with its digest.

    ``ops`` counts the function's own operations; ``executed`` and
    ``lowered`` count the operations one call runs, callees included,
    after and before dead-code elimination.
    """

    __slots__ = ("name", "digest", "source", "code", "fn", "ops",
                 "executed", "lowered", "callees", "__weakref__")

    def __init__(self, name: str, digest: Optional[str], source: str,
                 code, callees: Sequence["_Function"], ops: int,
                 executed: int, lowered: int) -> None:
        ns: Dict[str, object] = {f.name: f.fn for f in callees}
        exec(code, ns)
        # popped so the function and its globals form no reference cycle:
        # a dropped plan frees its code at once, not at the next gc pass
        self.fn = ns.pop(name)
        self.name, self.digest, self.source, self.code = (
            name, digest, source, code)
        self.callees = tuple(callees)
        self.ops, self.executed, self.lowered = ops, executed, lowered


def _closure(top: _Function) -> List[_Function]:
    """``top`` and every function it reaches, callees before callers."""
    out: List[_Function] = []
    seen = set()
    stack = [(top, False)]
    while stack:
        f, callees_done = stack.pop()
        if callees_done:
            out.append(f)
        elif id(f) not in seen:
            seen.add(id(f))
            stack.append((f, True))
            stack.extend((g, False) for g in reversed(f.callees))
    return out


class JitPlan:
    """A netlist compiled to straight-line bit-slice kernel functions.

    Most netlists compile to one function.  A block-structured netlist
    compiles to a top function that calls one function per repeated
    block shape.  ``source`` is the exact generated code of every
    function, the top one first (retained for inspection); ``origin``
    records where this plan came from (``"compiled"`` or
    ``"disk-cache"``).  ``n_ops`` is the number of operations one
    execution runs per lane; ``stats["compiled_ops"]`` and
    ``stats["functions"]`` describe the generated code.  Like the
    engine's :class:`ExecutionPlan`, a ``JitPlan`` holds no reference to
    its source netlist.
    """

    def __init__(self, top: _Function, name: str, n_inputs: int,
                 n_outputs: int, stats: Dict[str, object],
                 origin: str = "compiled") -> None:
        self._top = top
        self._fn = top.fn
        self._functions = _closure(top)
        self.source = "\n".join(
            f.source for f in [top] + self._functions[:-1])
        self.name = name
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.n_ops = top.executed
        self.stats = dict(stats)
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"JitPlan({self.name!r}, ops={self.n_ops}, "
                f"functions={len(self._functions)}, origin={self.origin!r})")

    def execute_bits(self, ins: Sequence[int], lanes: int) -> Tuple[int, ...]:
        """Run the kernel on pre-packed words (one int per input wire,
        one batch lane per bit); returns the packed output words."""
        return self._fn(tuple(ins), (1 << lanes) - 1)

    def execute(self, batch: np.ndarray) -> np.ndarray:
        """Evaluate a ``(B, n_inputs)`` uint8 batch; returns ``(B, n_out)``.

        Bit-identical to ``ExecutionPlan.execute`` and the interpreter.
        """
        batch = np.ascontiguousarray(batch, dtype=np.uint8)
        if obs.OBS.enabled:
            with obs.OBS.tracer.span(
                "jit.execute", netlist=self.name, batch=int(batch.shape[0]),
                ops=self.n_ops,
            ):
                out = self._execute(batch)
            reg = obs.OBS.registry
            reg.counter("repro_jit_executions_total",
                        "JIT kernel executions").inc()
            reg.counter("repro_jit_lanes_total",
                        "Input vectors evaluated by JIT kernels").inc(
                            batch.shape[0])
            return out
        return self._execute(batch)

    def _execute(self, batch: np.ndarray) -> np.ndarray:
        B, n_in = batch.shape
        if n_in != self.n_inputs:
            raise BuildError(
                f"kernel expects {self.n_inputs} inputs, got {n_in}"
            )
        mask = (1 << B) - 1
        if B == 1:
            ins = tuple(batch[0].tolist())
        else:
            packed = np.packbits(np.ascontiguousarray(batch.T), axis=1,
                                 bitorder="little")
            stride = packed.shape[1]
            buf = packed.tobytes()
            ins = tuple(
                int.from_bytes(buf[k * stride:(k + 1) * stride], "little")
                for k in range(n_in)
            )
        outs = self._fn(ins, mask)
        if not outs:
            return np.zeros((B, 0), dtype=np.uint8)
        if B == 1:
            # one lane: every output word is 0 or 1; bytearray keeps the
            # result writable
            return np.frombuffer(bytearray(outs), np.uint8)[None, :]
        nbytes = (B + 7) // 8
        ob = np.frombuffer(
            b"".join(x.to_bytes(nbytes, "little") for x in outs),
            dtype=np.uint8,
        ).reshape(len(outs), nbytes)
        bits = np.unpackbits(ob, axis=1, bitorder="little")[:, :B]
        return np.ascontiguousarray(bits.T)


def _function(prog: BitProgram, name: str, digest: Optional[str],
              callees: Dict[str, _Function], optimize: bool) -> _Function:
    """Optimize, generate and ``compile()`` one function."""
    lowered = prog.n_ops + sum(callees[c].lowered for c, _, _ in prog.calls)
    if optimize:
        prog = eliminate_dead(prog)
    source = codegen(prog, name, fuse=optimize)
    code = compile(source, f"<repro-jit:{name}>", "exec")
    used = [callees[c] for c in dict.fromkeys(c for c, _, _ in prog.calls)]
    executed = prog.n_ops + sum(callees[c].executed for c, _, _ in prog.calls)
    return _Function(name, digest, source, code, used, prog.n_ops,
                     executed, lowered)


def _shape(layout: _Layout, i: int) -> _Function:
    """The function of block ``i``'s shape: from the shape cache, or
    compiled from instance ``i`` (callees first).  Caller holds
    ``_JIT_LOCK``."""
    digest = layout.digests[i]
    f = _SHAPES.get(digest)
    if f is None:
        f = _compile_region(layout, layout.netlist.blocks[i],
                            layout.calls_in(layout.children[i]),
                            f"_jit_{digest[:16]}", digest)
        _SHAPES[digest] = f
    return f


def _compile_region(layout: _Layout, region: Block, calls: Sequence[int],
                    name: str, digest: Optional[str]) -> _Function:
    """Compile the elements of ``region`` as one function that calls the
    shape functions of the block instances ``calls``."""
    blocks = layout.netlist.blocks
    callees = {}
    at: List[Tuple[Block, str]] = []
    for j in calls:
        f = _shape(layout, j)
        callees[f.name] = f
        at.append((blocks[j], f.name))
    prog = _lower_region(layout.netlist, region.inputs, region.start,
                         region.stop, region.outputs, at, True)
    return _function(prog, name, digest, callees, True)


def compile_jit(netlist: Netlist, *, optimize: bool = True) -> JitPlan:
    """Compile ``netlist`` to a fresh :class:`JitPlan` (no plan cache).

    A netlist whose :class:`~repro.circuits.netlist.Block` records show
    a repeated sub-network compiles that shape once, as its own
    function, and reuses any function an earlier compile in this
    process made for the same shape.  ``optimize=False`` gives the
    direct, unoptimized translation as one flat function.
    """
    t0 = time.perf_counter()
    with _JIT_LOCK:
        layout = _layout(netlist) if optimize else None
        if layout is None:
            top = _function(lower(netlist, optimize=optimize),
                            "_jit_kernel", None, {}, optimize)
        else:
            whole = Block("netlist", len(netlist.inputs), netlist.inputs,
                          netlist.outputs, 0, len(netlist.elements))
            top = _compile_region(layout, whole, layout.top,
                                  "_jit_kernel", None)
    functions = _closure(top)
    stats = {"ops_before": top.lowered, "ops_after": top.executed,
             "removed": top.lowered - top.executed,
             "compiled_ops": sum(f.ops for f in functions),
             "functions": len(functions),
             "codegen_s": round(time.perf_counter() - t0, 6)}
    return JitPlan(top, name=netlist.name, n_inputs=len(netlist.inputs),
                   n_outputs=len(netlist.outputs), stats=stats)


# ---------------------------------------------------------------------------
# Caches: in-memory (weak) + persistent on-disk
# ---------------------------------------------------------------------------

_JIT_CACHE: "weakref.WeakKeyDictionary[Netlist, JitPlan]" = (
    weakref.WeakKeyDictionary()
)
_JIT_LOCK = threading.RLock()
#: Block-shape functions by structural digest.  Weak: a shape lives as
#: long as some plan that calls it.
_SHAPES: "weakref.WeakValueDictionary[str, _Function]" = (
    weakref.WeakValueDictionary()
)
#: Auto-mode warm-up counters (weak so sweeps don't accumulate state).
_CALL_COUNTS: "weakref.WeakKeyDictionary[Netlist, int]" = (
    weakref.WeakKeyDictionary()
)
_DISK_STATS = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
               "write_errors": 0}
#: Memoized content hashes (serializing a large netlist costs ~ms).
_KEY_CACHE: "weakref.WeakKeyDictionary[Netlist, str]" = (
    weakref.WeakKeyDictionary()
)


def disk_cache_dir() -> Optional[str]:
    """Resolved disk-cache directory, or ``None`` when disabled."""
    env = os.environ.get(ENV_JIT_CACHE)
    if env is not None:
        if env.strip().lower() in ("off", "0", "none", ""):
            return None
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "repro", "jit",
    )


def _cache_path(key: str) -> Optional[str]:
    base = disk_cache_dir()
    if base is None:
        return None
    return os.path.join(base, f"{key[:40]}.rjit")


def _jit_key(netlist: Netlist) -> str:
    """Disk-cache key: netlist content hash (shared with
    :func:`repro.circuits.serialize.load`'s staleness logic) + codegen
    format version + interpreter bytecode magic.  Cached plans are
    always optimised; the literal ``:opt`` tail keeps the keys of
    existing disk entries unchanged."""
    base = _KEY_CACHE.get(netlist)
    if base is None:
        base = netlist_key(netlist)
        _KEY_CACHE[netlist] = base
    tail = f":{CODEGEN_VERSION}:{_PY_TAG}:opt"
    return hashlib.sha256((base + tail).encode()).hexdigest()


def _entry_bytes(key: str, plan: JitPlan) -> bytes:
    """One entry holds every function of the plan, callees first."""
    parts: List[bytes] = []
    funcs = []
    for f in plan._functions:
        source, code = f.source.encode(), marshal.dumps(f.code)
        parts += [source, code]
        funcs.append({
            "name": f.name, "digest": f.digest,
            "callees": [g.name for g in f.callees],
            "ops": f.ops, "executed": f.executed, "lowered": f.lowered,
            "source_len": len(source), "code_len": len(code),
        })
    payload = b"".join(parts)
    meta = json.dumps({
        "format": CODEGEN_VERSION,
        "key": key,
        "python_magic": _PY_TAG,
        "name": plan.name,
        "n_inputs": plan.n_inputs,
        "n_outputs": plan.n_outputs,
        "stats": plan.stats,
        "functions": funcs,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }).encode()
    return _MAGIC + meta + b"\n" + payload


def _write_disk(key: str, plan: JitPlan) -> bool:
    path = _cache_path(key)
    if path is None:
        return False
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_bytes(path, _entry_bytes(key, plan))
    except OSError:
        # A read-only or full cache directory must never fail the sim.
        _DISK_STATS["write_errors"] += 1
        return False
    _DISK_STATS["writes"] += 1
    return True


def _load_disk(key: str) -> Optional[JitPlan]:
    """Load a disk entry; ``None`` on miss *or any corruption* (torn
    write, truncation, bit flip, wrong interpreter, foreign key)."""
    path = _cache_path(key)
    if path is None:
        return None
    return _load_disk_by_path(path, key)


def _load_disk_by_path(path: str, key: Optional[str] = None
                       ) -> Optional[JitPlan]:
    """Load one cache file directly (``key=None`` skips the expected-key
    check; the checksum still guards integrity — used by crash-recovery
    tests sweeping whatever a killed writer left behind)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        _DISK_STATS["misses"] += 1
        return None
    try:
        if not blob.startswith(_MAGIC):
            raise ValueError("bad magic")
        nl = blob.index(b"\n", len(_MAGIC))
        meta = json.loads(blob[len(_MAGIC):nl])
        if (meta.get("format") != CODEGEN_VERSION
                or meta.get("python_magic") != _PY_TAG
                or (key is not None and meta.get("key") != key)):
            raise ValueError("stale entry")
        payload = blob[nl + 1:]
        funcs = meta["functions"]
        if len(payload) != sum(int(f["source_len"]) + int(f["code_len"])
                               for f in funcs):
            raise ValueError("truncated entry")
        if hashlib.sha256(payload).hexdigest() != meta["sha256"]:
            raise ValueError("checksum mismatch")
        built: Dict[str, _Function] = {}
        off = 0
        with _JIT_LOCK:
            for f in funcs:
                s_len, c_len = int(f["source_len"]), int(f["code_len"])
                source = payload[off:off + s_len].decode()
                code_blob = payload[off + s_len:off + s_len + c_len]
                off += s_len + c_len
                digest = f["digest"]
                fn = _SHAPES.get(digest) if digest else None
                if fn is None:
                    fn = _Function(
                        f["name"], digest, source, marshal.loads(code_blob),
                        [built[c] for c in f["callees"]], int(f["ops"]),
                        int(f["executed"]), int(f["lowered"]))
                    if digest:
                        _SHAPES[digest] = fn
                built[f["name"]] = fn
        plan = JitPlan(
            built[funcs[-1]["name"]], name=meta["name"],
            n_inputs=int(meta["n_inputs"]),
            n_outputs=int(meta["n_outputs"]),
            stats=meta.get("stats", {}), origin="disk-cache",
        )
    except (ValueError, KeyError, TypeError, EOFError, IndexError):
        _DISK_STATS["corrupt"] += 1
        return None
    _DISK_STATS["hits"] += 1
    return plan


def get_jit_plan(netlist: Netlist) -> JitPlan:
    """Return the cached JIT plan for ``netlist``, compiling on first use.

    Lookup order: weak in-memory cache, persistent disk cache (content-
    hash keyed, corruption-tolerant), then :func:`compile_jit` (which
    also populates the disk cache).  Emits ``jit.compile`` spans /
    ``jit.cache_hit`` events and a codegen-time histogram when
    :mod:`repro.obs` is enabled.
    """
    with _JIT_LOCK:
        plan = _JIT_CACHE.get(netlist)
        if plan is not None:
            if obs.OBS.enabled:
                obs.OBS.registry.counter(
                    "repro_jit_cache_hits_total",
                    "JIT plan cache hits by tier", tier="memory",
                ).inc()
            return plan
        key = _jit_key(netlist)
        plan = _load_disk(key)
        if plan is not None:
            if obs.OBS.enabled:
                obs.trace_event("jit.cache_hit", tier="disk",
                                netlist=netlist.name, ops=plan.n_ops)
                obs.OBS.registry.counter(
                    "repro_jit_cache_hits_total",
                    "JIT plan cache hits by tier", tier="disk",
                ).inc()
            _JIT_CACHE[netlist] = plan
            return plan
        if obs.OBS.enabled:
            with obs.OBS.tracer.span(
                "jit.compile", netlist=netlist.name,
                elements=len(netlist.elements),
            ) as attrs:
                plan = compile_jit(netlist)
                attrs.update(ops=plan.n_ops,
                             compiled_ops=plan.stats["compiled_ops"],
                             functions=plan.stats["functions"],
                             codegen_s=plan.stats.get("codegen_s"))
            reg = obs.OBS.registry
            reg.counter("repro_jit_compiles_total",
                        "JIT plan compilations").inc()
            reg.histogram("repro_jit_codegen_seconds",
                          "Wall-clock of one lower+optimize+codegen run"
                          ).observe(plan.stats.get("codegen_s", 0.0))
        else:
            plan = compile_jit(netlist)
        _write_disk(key, plan)
        _JIT_CACHE[netlist] = plan
        return plan


def jit_mode() -> str:
    """Effective routing mode from :data:`ENV_JIT`: ``on``/``off``/``auto``."""
    raw = os.environ.get(ENV_JIT, "").strip().lower()
    if raw in ("1", "on", "true", "yes", "force"):
        return "on"
    if raw in ("0", "off", "false", "no"):
        return "off"
    return "auto"


def maybe_jit(netlist: Netlist, rows: int) -> Optional[JitPlan]:
    """Routing policy behind :func:`repro.circuits.simulate.simulate`.

    ``on`` always returns a plan; ``off`` never does.  ``auto`` JITs a
    netlist sized inside ``[JIT_MIN_ELEMENTS, JIT_MAX_ELEMENTS]`` once
    it is *warm*: already compiled (memory or disk), or simulated at
    least :data:`JIT_WARMUP_CALLS` times — so one-shot simulations of
    thousands of distinct fault mutants never pay codegen.
    """
    mode = jit_mode()
    if mode == "off":
        return None
    if mode == "on":
        return get_jit_plan(netlist)
    n_el = len(netlist.elements)
    if not JIT_MIN_ELEMENTS <= n_el <= JIT_MAX_ELEMENTS:
        return None
    with _JIT_LOCK:
        plan = _JIT_CACHE.get(netlist)
        if plan is not None:
            return plan
        count = _CALL_COUNTS.get(netlist, 0) + 1
        _CALL_COUNTS[netlist] = count
    if count < JIT_WARMUP_CALLS:
        # Not warm yet: only adopt an existing disk entry (cheap stat).
        path = _cache_path(_jit_key(netlist))
        if path is None or not os.path.exists(path):
            return None
    return get_jit_plan(netlist)


def clear_memory_cache() -> None:
    """Drop every in-memory JIT plan, block-shape function and warm-up
    counter."""
    with _JIT_LOCK:
        _JIT_CACHE.clear()
        _SHAPES.clear()
        _CALL_COUNTS.clear()


def clear_disk_cache() -> int:
    """Delete every entry in the persistent cache; returns the count."""
    base = disk_cache_dir()
    if base is None or not os.path.isdir(base):
        return 0
    removed = 0
    for name in os.listdir(base):
        if name.endswith(".rjit"):
            try:
                os.unlink(os.path.join(base, name))
                removed += 1
            except OSError:
                pass
    return removed


def cache_info() -> Dict[str, object]:
    """Snapshot of both JIT caches (see ``engine.cache_info`` for the
    combined engine+JIT view)."""
    base = disk_cache_dir()
    entries = size = 0
    if base is not None and os.path.isdir(base):
        for name in os.listdir(base):
            if name.endswith(".rjit"):
                entries += 1
                try:
                    size += os.path.getsize(os.path.join(base, name))
                except OSError:
                    pass
    with _JIT_LOCK:
        mem, shapes = len(_JIT_CACHE), len(_SHAPES)
    return {
        "memory": mem,
        "shapes": shapes,
        "disk": {"dir": base, "entries": entries, "bytes": size,
                 **_DISK_STATS},
    }

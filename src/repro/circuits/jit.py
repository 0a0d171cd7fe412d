"""Bit-slice JIT: compile netlists to straight-line bignum kernels.

The compiled engine (:mod:`repro.circuits.engine`) interprets a fused
:class:`~repro.circuits.engine.ExecutionPlan` level by level: every step
still pays a NumPy gather (``V[in_idx]``), a kernel dispatch, and a
scatter back into the value matrix.  This module goes one level down —
the direction of ROADMAP item 1 — by *code-generating* each netlist into
one flat Python function of pure bitwise operations over arbitrary-
precision integers, where every batch lane is one bit of the word
(64 lanes per machine word inside CPython's bignum loops):

* per-level dispatch disappears — the whole netlist is straight-line
  code compiled once via ``compile()``/``exec`` (the generated source is
  retained on the plan for inspection);
* gather/scatter copies disappear — wire values live in local
  variables, and single-use intermediates are fused *across execution
  levels* into their consumer's expression (the codegen analog of
  cross-level step fusion);
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

Compiled plans are cached three deep: a weak-keyed in-memory cache
(:func:`get_jit_plan`, mirroring the engine's plan cache), and a
**persistent on-disk cache** keyed by netlist content hash — shared
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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import elements as el
from .. import obs
from ..errors import BuildError
from ..ioutil import atomic_write_bytes
from .netlist import Netlist
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
CODEGEN_VERSION = 1

_MAGIC = b"RJIT1\n"
#: CPython bytecode magic — marshalled code objects are only valid for
#: the interpreter that produced them.
_PY_TAG = importlib.util.MAGIC_NUMBER.hex()

# IR opcodes.  C0/C1 are the all-zeros / all-ones (mask) words and own
# the fixed node ids 0 and 1; IN nodes follow at ids 2..n_inputs+1.
_C0, _C1, _IN = "C0", "C1", "IN"
_BINOPS = {"AND": "&", "OR": "|", "XOR": "^"}


@dataclass(frozen=True)
class BitProgram:
    """A netlist lowered to SSA bit operations over packed words.

    ``nodes[i] = (op, a, b)`` with ``op`` one of ``C0``/``C1`` (constant
    words), ``IN`` (``a`` is the primary-input position), or a binary
    bitwise op whose operands ``a``/``b`` are earlier node ids.  The
    list order is a topological schedule by construction.  ``outputs``
    maps each primary output to its node id.
    """

    n_inputs: int
    nodes: Tuple[Tuple[str, int, int], ...]
    outputs: Tuple[int, ...]
    name: str = "netlist"

    @property
    def n_ops(self) -> int:
        """Number of actual bit operations (excludes constants/inputs)."""
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

    def input(self, position: int) -> int:
        return 2 + position

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
    programs are differentially tested against.
    """
    b = _Builder(len(netlist.inputs), optimize)
    val: Dict[int, int] = {}
    for pos, w in enumerate(netlist.inputs):
        val[w] = b.input(pos)
    for w, v in netlist.constants.items():
        val[w] = 1 if v else 0

    for e in netlist.elements:
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
            for i in range(4):
                by_src: Dict[int, set] = {}
                for s in range(4):
                    by_src.setdefault(e.params[s][i], set()).add(s)
                terms = []
                for src, sels in sorted(by_src.items()):
                    mask = _switch4_mask(b, frozenset(sels), selmask,
                                         hi, lo, nhi, nlo)
                    terms.append(b.emit("AND", mask, data[src]))
                out = terms[0]
                for t in terms[1:]:
                    out = b.emit("OR", out, t)
                val[e.outs[i]] = out
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

    return BitProgram(
        n_inputs=len(netlist.inputs),
        nodes=tuple(b.nodes),
        outputs=tuple(val[w] for w in netlist.outputs),
        name=netlist.name,
    )


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------

def eliminate_dead(prog: BitProgram) -> BitProgram:
    """Drop every operation with no path to a primary output (the
    bit-level analog of :func:`repro.circuits.opt.prune_dead`)."""
    n_fixed = 2 + prog.n_inputs
    live = [False] * len(prog.nodes)
    for o in prog.outputs:
        live[o] = True
    for nid in range(len(prog.nodes) - 1, n_fixed - 1, -1):
        if live[nid]:
            _, a, c = prog.nodes[nid]
            live[a] = live[c] = True
    remap: Dict[int, int] = {}
    kept: List[Tuple[str, int, int]] = []
    for nid, node in enumerate(prog.nodes):
        if nid < n_fixed or live[nid]:
            remap[nid] = len(kept)
            kept.append(
                node if nid < n_fixed
                else (node[0], remap[node[1]], remap[node[2]])
            )
    return BitProgram(
        n_inputs=prog.n_inputs,
        nodes=tuple(kept),
        outputs=tuple(remap[o] for o in prog.outputs),
        name=prog.name,
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
    """
    n_fixed = 2 + prog.n_inputs
    uses = [0] * len(prog.nodes)
    for op, a, c in prog.nodes:
        if op in _BINOPS:
            uses[a] += 1
            uses[c] += 1
    for o in prog.outputs:
        uses[o] += 1

    ref: List[str] = [""] * len(prog.nodes)
    depth = [0] * len(prog.nodes)
    ref[0], ref[1] = "0", "M"
    for pos in range(prog.n_inputs):
        ref[2 + pos] = f"i{pos}"

    lines: List[str] = []
    for nid in range(n_fixed, len(prog.nodes)):
        op, a, c = prog.nodes[nid]
        expr = f"{ref[a]} {_BINOPS[op]} {ref[c]}"
        d = 1 + max(depth[a], depth[c])
        if fuse and uses[nid] == 1 and d < _MAX_INLINE_DEPTH:
            ref[nid] = f"({expr})"
            depth[nid] = d
        else:
            lines.append(f"v{nid} = {expr}")
            ref[nid] = f"v{nid}"

    src = [f"def {fn_name}(I, M):"]
    if prog.n_inputs:
        unpack = ", ".join(f"i{k}" for k in range(prog.n_inputs))
        src.append(f"    ({unpack},) = I")
    src.extend("    " + ln for ln in lines)
    rets = ", ".join(ref[o] for o in prog.outputs)
    src.append(f"    return ({rets}{',' if len(prog.outputs) == 1 else ''})")
    return "\n".join(src) + "\n"


def run_program(prog: BitProgram, ins: Sequence[int], lanes: int) -> List[int]:
    """Reference IR interpreter (tests use it to pin codegen semantics)."""
    mask = (1 << lanes) - 1
    vals: List[int] = [0, mask]
    vals.extend(int(x) & mask for x in ins)
    for op, a, c in prog.nodes[2 + prog.n_inputs:]:
        x, y = vals[a], vals[c]
        vals.append(x & y if op == "AND" else x | y if op == "OR" else x ^ y)
    return [vals[o] for o in prog.outputs]


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------

class JitPlan:
    """A netlist compiled to one straight-line bit-slice kernel.

    ``source`` is the exact generated code (retained for inspection);
    ``origin`` records where this plan came from (``"compiled"`` or
    ``"disk-cache"``).  Like the engine's :class:`ExecutionPlan`, a
    ``JitPlan`` holds no reference to its source netlist.
    """

    def __init__(self, fn, source: str, name: str, n_inputs: int,
                 n_outputs: int, n_ops: int, stats: Dict[str, int],
                 origin: str = "compiled") -> None:
        self._fn = fn
        self.source = source
        self.name = name
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.n_ops = n_ops
        self.stats = dict(stats)
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (f"JitPlan({self.name!r}, ops={self.n_ops}, "
                f"origin={self.origin!r})")

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
            ins = tuple(int(x) for x in batch[0])
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
            return np.array([outs], dtype=np.uint8)
        nbytes = (B + 7) // 8
        ob = np.frombuffer(
            b"".join(x.to_bytes(nbytes, "little") for x in outs),
            dtype=np.uint8,
        ).reshape(len(outs), nbytes)
        bits = np.unpackbits(ob, axis=1, bitorder="little")[:, :B]
        return np.ascontiguousarray(bits.T)


def _compile_source(source: str, fn_name: str):
    code = compile(source, f"<repro-jit:{fn_name}>", "exec")
    return code


def _fn_from_code(code):
    ns: Dict[str, object] = {}
    exec(code, ns)
    for v in ns.values():
        if callable(v):
            return v
    raise BuildError("jit cache entry defined no function")  # pragma: no cover


def compile_jit(netlist: Netlist, *, optimize: bool = True) -> JitPlan:
    """Compile ``netlist`` to a fresh :class:`JitPlan` (no caches)."""
    t0 = time.perf_counter()
    prog = lower(netlist, optimize=optimize)
    before = prog.n_ops
    if optimize:
        prog = eliminate_dead(prog)
    stats = {"ops_before": before, "ops_after": prog.n_ops,
             "removed": before - prog.n_ops}
    source = codegen(prog, fuse=optimize)
    code = _compile_source(source, "_jit_kernel")
    dt = time.perf_counter() - t0
    stats["codegen_s"] = round(dt, 6)
    plan = JitPlan(
        fn=_fn_from_code(code), source=source, name=netlist.name,
        n_inputs=len(netlist.inputs), n_outputs=len(netlist.outputs),
        n_ops=prog.n_ops, stats=stats,
    )
    plan._code = code
    return plan


# ---------------------------------------------------------------------------
# Caches: in-memory (weak) + persistent on-disk
# ---------------------------------------------------------------------------

_JIT_CACHE: "weakref.WeakKeyDictionary[Netlist, JitPlan]" = (
    weakref.WeakKeyDictionary()
)
_JIT_LOCK = threading.RLock()
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
    source = plan.source.encode()
    code = marshal.dumps(plan._code)
    digest = hashlib.sha256(source + code).hexdigest()
    meta = json.dumps({
        "format": CODEGEN_VERSION,
        "key": key,
        "python_magic": _PY_TAG,
        "name": plan.name,
        "n_inputs": plan.n_inputs,
        "n_outputs": plan.n_outputs,
        "n_ops": plan.n_ops,
        "stats": plan.stats,
        "source_len": len(source),
        "code_len": len(code),
        "sha256": digest,
    }).encode()
    return _MAGIC + meta + b"\n" + source + code


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
        s_len, c_len = int(meta["source_len"]), int(meta["code_len"])
        payload = blob[nl + 1:]
        if len(payload) != s_len + c_len:
            raise ValueError("truncated entry")
        source, code_blob = payload[:s_len], payload[s_len:]
        if hashlib.sha256(payload).hexdigest() != meta["sha256"]:
            raise ValueError("checksum mismatch")
        code = marshal.loads(code_blob)
        plan = JitPlan(
            fn=_fn_from_code(code), source=source.decode(),
            name=meta["name"], n_inputs=int(meta["n_inputs"]),
            n_outputs=int(meta["n_outputs"]), n_ops=int(meta["n_ops"]),
            stats=meta.get("stats", {}), origin="disk-cache",
        )
        plan._code = code
    except (ValueError, KeyError, TypeError, EOFError):
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
    """Drop every in-memory JIT plan and warm-up counter."""
    with _JIT_LOCK:
        _JIT_CACHE.clear()
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
        mem = len(_JIT_CACHE)
    return {
        "memory": mem,
        "disk": {"dir": base, "entries": entries, "bytes": size,
                 **_DISK_STATS},
    }

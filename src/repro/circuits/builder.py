"""Imperative builder DSL for constructing netlists.

The builder hands out integer wire ids and appends elements in
construction order, which keeps the resulting
:class:`~repro.circuits.netlist.Netlist` topologically sorted by
construction.  All network constructions in this repository
(swappers, mergers, the three adaptive sorters, Batcher baselines, ...)
are written against this interface.

Example
-------
>>> from repro.circuits import CircuitBuilder, simulate
>>> b = CircuitBuilder("half-adder")
>>> x, y = b.add_inputs(2)
>>> s = b.xor(x, y)
>>> c = b.and_(x, y)
>>> net = b.build(outputs=[s, c])
>>> simulate(net, [[1, 1]]).tolist()
[[0, 1]]

Recursive constructions wrap each sub-network instance in
:meth:`CircuitBuilder.block`, which records it on the netlist as a
:class:`~repro.circuits.netlist.Block`:

>>> b = CircuitBuilder("sort2")
>>> x, y = b.add_inputs(2)
>>> with b.block("sorter", [x, y]) as blk:
...     blk.outputs = b.comparator(x, y)
>>> b.build(outputs=blk.outputs).blocks[0].kind
'sorter'
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import elements as el
from ..errors import BuildError
from .elements import Element
from .netlist import Block, Netlist


class OpenBlock:
    """A block being built (see :meth:`CircuitBuilder.block`): the body
    of its ``with`` sets ``outputs``."""

    __slots__ = ("builder", "kind", "inputs", "outputs", "start", "children")

    def __init__(self, builder: "CircuitBuilder", kind: str,
                 inputs: Tuple[int, ...]) -> None:
        self.builder = builder
        self.kind = kind
        self.inputs = inputs
        self.outputs: Optional[Sequence[int]] = None
        self.start = 0
        self.children: List[Block] = []

    def __enter__(self) -> "OpenBlock":
        self.start = len(self.builder._elements)
        self.builder._open.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.builder._open.pop()
        if exc_type is None:
            self.builder._close(self)


class CircuitBuilder:
    """Builds a :class:`Netlist` wire by wire, element by element."""

    #: Kind-specific control-port positions (indices into ``Element.ins``)
    #: — every wire wired into one of these ports steers routing rather
    #: than carrying data, and is auto-tagged as a control wire.
    CONTROL_PORTS = {
        el.SWITCH2: (2,),
        el.SWITCH4: (4, 5),
        el.MUX2: (2,),
        el.DEMUX2: (1,),
    }

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._n_wires = 0
        self._elements: List[Element] = []
        self._inputs: List[int] = []
        self._constants: Dict[int, int] = {}
        self._const_cache: Dict[int, int] = {}
        self._control_wires: set = set()
        self._blocks: List[Block] = []
        self._open: List[OpenBlock] = []

    # -- wires ---------------------------------------------------------------

    def _new_wires(self, count: int) -> Tuple[int, ...]:
        start = self._n_wires
        self._n_wires += count
        return tuple(range(start, start + count))

    def add_input(self) -> int:
        """Create one primary-input wire."""
        (w,) = self._new_wires(1)
        self._inputs.append(w)
        return w

    def add_inputs(self, count: int) -> List[int]:
        """Create ``count`` primary-input wires."""
        return [self.add_input() for _ in range(count)]

    def const(self, value: int) -> int:
        """Return a constant 0/1 wire (cached per builder)."""
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value!r}")
        if value not in self._const_cache:
            (w,) = self._new_wires(1)
            self._constants[w] = value
            self._const_cache[value] = w
        return self._const_cache[value]

    def tag_control(self, *wires: int) -> None:
        """Mark wires as steering/control wires for fault targeting.

        Wires feeding the control ports of switching elements are tagged
        automatically by :meth:`_emit`; builders call this for steering
        *sources* that reach switches only through glue logic — e.g. the
        prefix sorter's count bits, which pass through an OR gate before
        steering the patch-up swappers.
        """
        for w in wires:
            if not (0 <= w < self._n_wires):
                raise ValueError(f"unknown wire {w}")
            self._control_wires.add(w)

    # -- element emission ------------------------------------------------------

    def _emit(self, kind: str, ins: Sequence[int], n_out: int, params=None):
        outs = self._new_wires(n_out)
        elem = Element(kind, tuple(ins), outs, params)
        elem.validate()
        for w in elem.ins:
            if not (0 <= w < self._n_wires):
                raise ValueError(f"unknown wire {w}")
        for port in self.CONTROL_PORTS.get(kind, ()):
            self._control_wires.add(elem.ins[port])
        self._elements.append(elem)
        return outs

    # logic gates -------------------------------------------------------------

    def not_(self, a: int) -> int:
        return self._emit(el.NOT, [a], 1)[0]

    def and_(self, a: int, b: int) -> int:
        return self._emit(el.AND, [a, b], 1)[0]

    def or_(self, a: int, b: int) -> int:
        return self._emit(el.OR, [a, b], 1)[0]

    def xor(self, a: int, b: int) -> int:
        return self._emit(el.XOR, [a, b], 1)[0]

    def nand(self, a: int, b: int) -> int:
        return self._emit(el.NAND, [a, b], 1)[0]

    def nor(self, a: int, b: int) -> int:
        return self._emit(el.NOR, [a, b], 1)[0]

    def xnor(self, a: int, b: int) -> int:
        return self._emit(el.XNOR, [a, b], 1)[0]

    def buf(self, a: int) -> int:
        """Zero-cost alias of a wire (used to re-expose internal wires)."""
        return self._emit(el.BUF, [a], 1)[0]

    def and_tree(self, wires: Sequence[int]) -> int:
        """Balanced AND over any number of wires."""
        return self._tree(el.AND, wires)

    def or_tree(self, wires: Sequence[int]) -> int:
        """Balanced OR over any number of wires."""
        return self._tree(el.OR, wires)

    def _tree(self, kind: str, wires: Sequence[int]) -> int:
        ws = list(wires)
        if not ws:
            raise ValueError("tree over zero wires")
        while len(ws) > 1:
            nxt = []
            for i in range(0, len(ws) - 1, 2):
                nxt.append(self._emit(kind, [ws[i], ws[i + 1]], 1)[0])
            if len(ws) % 2:
                nxt.append(ws[-1])
            ws = nxt
        return ws[0]

    # switching elements --------------------------------------------------------

    def comparator(self, a: int, b: int) -> Tuple[int, int]:
        """1-bit ascending comparator; returns ``(min, max)`` wires."""
        return self._emit(el.COMPARATOR, [a, b], 2)

    def switch2(self, a: int, b: int, control: int) -> Tuple[int, int]:
        """2x2 switch; control 0 = straight, 1 = crossed."""
        return self._emit(el.SWITCH2, [a, b, control], 2)

    def switch4(
        self,
        data: Sequence[int],
        sel_hi: int,
        sel_lo: int,
        perms: Tuple[Tuple[int, int, int, int], ...],
    ) -> Tuple[int, ...]:
        """4x4 switch applying ``perms[2*sel_hi + sel_lo]``.

        ``perms`` maps each output position to the input position it reads
        (output-centric view), one permutation per 2-bit select value.
        """
        if len(data) != 4:
            raise ValueError("switch4 requires exactly 4 data wires")
        return self._emit(
            el.SWITCH4, [*data, sel_hi, sel_lo], 4, params=tuple(map(tuple, perms))
        )

    def mux2(self, a: int, b: int, sel: int) -> int:
        """(2,1)-multiplexer: returns ``b`` when ``sel`` is 1, else ``a``."""
        return self._emit(el.MUX2, [a, b, sel], 1)[0]

    def demux2(self, a: int, sel: int) -> Tuple[int, int]:
        """(1,2)-demultiplexer: drives out[sel] with ``a``, other output 0."""
        return self._emit(el.DEMUX2, [a, sel], 2)

    def mux_tree(self, wires: Sequence[int], sel_bits: Sequence[int]) -> int:
        """(m,1)-multiplexer as a balanced tree of (2,1)-multiplexers.

        ``sel_bits`` is most-significant-first; ``len(wires)`` must be
        ``2 ** len(sel_bits)``.  This is the paper's Fig. 3(a) building
        block: cost m-1, depth lg m.
        """
        m = len(wires)
        if m != 1 << len(sel_bits):
            raise ValueError(f"mux_tree: {m} wires need lg(m) select bits")
        ws = list(wires)
        for sel in reversed(sel_bits):  # least-significant level first
            ws = [self.mux2(ws[i], ws[i + 1], sel) for i in range(0, len(ws), 2)]
        if len(ws) != 1:
            raise AssertionError("mux tree did not reduce to one wire")
        return ws[0]

    def demux_tree(self, wire: int, sel_bits: Sequence[int]) -> List[int]:
        """(1,m)-demultiplexer tree; returns the m output wires.

        ``sel_bits`` is most-significant-first.  Cost m-1, depth lg m
        (Fig. 3(b)).
        """
        ws = [wire]
        for sel in sel_bits:  # most-significant level first
            nxt: List[int] = []
            for w in ws:
                o0, o1 = self.demux2(w, sel)
                nxt.extend((o0, o1))
            ws = nxt
        return ws

    # -- sub-network records -------------------------------------------------

    def block(self, kind: str, inputs: Sequence[int]) -> OpenBlock:
        """Record the elements emitted inside a ``with`` of the returned
        :class:`OpenBlock` as one sub-network instance reading
        ``inputs``.

        The body must set ``blk.outputs``.  On exit the block is checked
        for closure: its elements (nested blocks included) read only
        ``inputs``, constants and wires they drive, and they drive every
        output.  A violation raises :class:`~repro.errors.BuildError`.
        """
        return OpenBlock(self, kind, tuple(inputs))

    def _close(self, blk: OpenBlock) -> None:
        """Check closure of ``blk`` and append its record.

        Nested blocks were checked when they closed, so only this
        block's own elements and its children's ports are walked: the
        check stays linear in the netlist however deep the nesting.
        """
        where = f"block {blk.kind}/{len(blk.inputs)}"
        if blk.outputs is None:
            raise BuildError(f"{where} never set its outputs")
        consts = self._constants
        inputs = set(blk.inputs)
        driven: set = set()

        def need(wires: Sequence[int], what: str) -> None:
            for w in wires:
                if w not in driven and w not in inputs and w not in consts:
                    raise BuildError(
                        f"{where}: {what} reads wire {w}, which is neither "
                        "a block input nor driven inside")

        pos = blk.start
        for child in [*blk.children, None]:
            end = child.start if child else len(self._elements)
            for i in range(pos, end):
                e = self._elements[i]
                need(e.ins, f"element #{i} ({e.kind})")
                driven.update(e.outs)
            if child:
                need(child.inputs, f"nested {child.kind}/{child.size}")
                driven.update(child.outputs)
                pos = child.stop
        outputs = tuple(blk.outputs)
        for w in outputs:
            if w not in driven:
                raise BuildError(f"{where}: output wire {w} is not driven "
                                 "inside the block")
        rec = Block(blk.kind, len(blk.inputs), blk.inputs, outputs,
                    blk.start, len(self._elements))
        self._blocks.append(rec)
        if self._open:
            self._open[-1].children.append(rec)

    # -- finalization -------------------------------------------------------------

    def build(self, outputs: Sequence[int], precompile: bool = False) -> Netlist:
        """Freeze the builder into a validated :class:`Netlist`.

        With ``precompile=True`` the netlist's execution plan is
        compiled eagerly (and cached weak-keyed, see
        :mod:`repro.circuits.engine`), so the first ``simulate`` call
        pays no compile latency — useful when construction happens ahead
        of a latency-sensitive serving path.
        """
        net = Netlist(
            n_wires=self._n_wires,
            elements=self._elements,
            inputs=self._inputs,
            outputs=outputs,
            constants=self._constants,
            name=self.name,
            control_wires=self._control_wires,
            blocks=self._blocks,
        )
        if precompile:
            from .engine import get_plan

            get_plan(net)
        return net

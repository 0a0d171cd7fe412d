"""Netlist container with the paper's cost/depth accounting.

A :class:`Netlist` is a DAG of :class:`~repro.circuits.elements.Element`
instances over integer wire ids.  Wires are produced either by a primary
input, a constant, or exactly one element output, and elements only read
wires created before them (the builder enforces this), so construction
order is already a topological order.

Cost is the sum of element costs; depth is the longest input-to-output
path weighted by per-element depth — exactly the two figures of merit the
paper uses throughout (Section I: "The cost of a sorting network is the
number of constant fanin comparator switches that it contains, and its
depth is the maximum number of such switches on a path from an input to
an output").

A netlist may also carry :class:`Block` records naming its recursive
sub-network instances (a half-size sorter, a merger).  They are pure
annotation: nothing in the accounting, the simulators or the content
key reads them.  :mod:`repro.circuits.jit` uses them to compile each
repeated sub-network shape once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .elements import Element, ELEMENT_META


@dataclass(frozen=True)
class Block:
    """One recursive sub-network instance recorded by the builder.

    ``elements[start:stop]`` are the instance's elements, nested blocks
    included.  They read only ``inputs``, constants and wires they drive
    themselves, and they drive every wire in ``outputs`` (the builder's
    :meth:`~repro.circuits.builder.CircuitBuilder.block` checks both).
    ``kind`` and ``size`` (the input count) are labels for people and
    tools; the JIT decides sharing from structure alone.
    """

    kind: str
    size: int
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    start: int
    stop: int


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics of a netlist in the paper's accounting units."""

    cost: int
    depth: int
    n_elements: int
    n_wires: int
    n_inputs: int
    n_outputs: int
    by_kind: Dict[str, int]

    def __str__(self) -> str:  # pragma: no cover - convenience only
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items()))
        return (
            f"cost={self.cost} depth={self.depth} elements={self.n_elements} "
            f"({kinds})"
        )


class Netlist:
    """An immutable-ish combinational circuit description.

    Instances are normally produced by
    :class:`repro.circuits.builder.CircuitBuilder`; the constructor is
    public so that tests can assemble small circuits by hand.
    """

    def __init__(
        self,
        n_wires: int,
        elements: Sequence[Element],
        inputs: Sequence[int],
        outputs: Sequence[int],
        constants: Optional[Dict[int, int]] = None,
        name: str = "netlist",
        control_wires: Iterable[int] = (),
        blocks: Sequence[Block] = (),
    ) -> None:
        self.n_wires = n_wires
        self.elements: List[Element] = list(elements)
        self.inputs: Tuple[int, ...] = tuple(inputs)
        self.outputs: Tuple[int, ...] = tuple(outputs)
        self.constants: Dict[int, int] = dict(constants or {})
        self.name = name
        #: Wires tagged by the builder as *steering* wires — the adaptive
        #: control paths (patch-up selects, mux-merger middle bits, count
        #: bits) that fault models single out.  Purely annotation: no
        #: effect on simulation or accounting.  See
        #: :func:`repro.circuits.faults.control_wires` for the union with
        #: the control ports derived from the element list.
        self.control_wires: FrozenSet[int] = frozenset(control_wires)
        #: Recursive sub-network instances, children before parents (the
        #: order the builder closes them).  Annotation only, like
        #: ``control_wires``; rewrites that move elements drop them.
        self.blocks: Tuple[Block, ...] = tuple(blocks)
        self._depths: Optional[List[int]] = None
        self._cost: Optional[int] = None
        self._stats: Optional[CircuitStats] = None
        self.validate()

    # -- structural validation ---------------------------------------------

    def validate(self, strict: bool = False) -> None:
        """Check single-driver, topological-order, and arity invariants.

        With ``strict=False`` (the default, run on construction) the
        first violation raises immediately.  With ``strict=True`` the
        whole netlist is scanned and *every* violation is reported in one
        error, and undriven wires feeding elements are diagnosed
        precisely: a read of a wire that is driven by a *later* element
        is reported as an ordering violation naming both elements, while
        a read of a wire no input, constant, or element ever drives is
        flagged as a genuinely floating wire.  Both would otherwise
        surface only as garbage values deep inside the simulators (the
        compiled engine evaluates over uninitialized storage and does not
        re-validate), so ``validate(strict=True)`` is the debugging entry
        point after hand-editing ``elements`` in place.
        """
        problems: List[str] = []

        def fail(msg: str) -> None:
            if strict:
                problems.append(msg)
            else:
                raise ValueError(msg)

        # driver[w]: None (undriven) or a human-readable driver label.
        driver: List[Optional[str]] = [None] * self.n_wires
        # In strict mode, pre-compute every element's outputs so reads of
        # later-driven wires can be distinguished from floating wires.
        future_driver: Dict[int, str] = {}
        if strict:
            for i, elem in enumerate(self.elements):
                for w in elem.outs:
                    if 0 <= w < self.n_wires and w not in future_driver:
                        future_driver[w] = f"element #{i} ({elem.kind})"

        def drive(w: int, label: str, what: str) -> None:
            if not (0 <= w < self.n_wires):
                fail(f"{what} wire {w} out of range [0, {self.n_wires})")
                return
            if driver[w] is not None:
                fail(
                    f"wire {w} has multiple drivers: "
                    f"{driver[w]} and {label}"
                )
                return
            driver[w] = label

        for w in self.inputs:
            drive(w, "primary input", "primary input")
        for w, v in self.constants.items():
            if v not in (0, 1):
                fail(f"constant wire {w} has non-bit value {v!r}")
            drive(w, f"constant {v}", "constant")
        for i, elem in enumerate(self.elements):
            try:
                elem.validate()
            except ValueError as exc:
                fail(f"element #{i} ({elem.kind}): {exc}")
                continue
            for w in elem.ins:
                if not (0 <= w < self.n_wires):
                    fail(
                        f"element #{i} ({elem.kind}) reads wire {w} "
                        f"out of range [0, {self.n_wires})"
                    )
                elif driver[w] is None:
                    if strict and w in future_driver:
                        fail(
                            f"element #{i} ({elem.kind}) reads wire {w} "
                            f"before its driver {future_driver[w]}; "
                            "elements must be appended in topological order"
                        )
                    else:
                        fail(
                            f"element #{i} ({elem.kind}) reads undriven "
                            f"wire {w}; elements must be appended in "
                            "topological order"
                        )
            for w in elem.outs:
                drive(w, f"element #{i} ({elem.kind})", f"element #{i} output")
        for w in self.outputs:
            if not (0 <= w < self.n_wires):
                fail(f"primary output wire {w} out of range [0, {self.n_wires})")
            elif driver[w] is None:
                fail(f"primary output {w} is undriven")
        for w in self.control_wires:
            if not (0 <= w < self.n_wires):
                fail(f"control wire {w} out of range [0, {self.n_wires})")
        for blk in self.blocks:
            if not 0 <= blk.start < blk.stop <= len(self.elements):
                fail(f"block {blk.kind}/{blk.size} has element range "
                     f"[{blk.start}, {blk.stop}) outside the netlist")
            for w in blk.inputs + blk.outputs:
                if not (0 <= w < self.n_wires):
                    fail(f"block {blk.kind}/{blk.size} port wire {w} out "
                         f"of range [0, {self.n_wires})")
        if problems:
            raise ValueError(
                f"netlist {self.name!r}: {len(problems)} validation "
                "problem(s):\n  " + "\n  ".join(problems)
            )

    # -- accounting ----------------------------------------------------------

    def cost(self) -> int:
        """Total cost in the paper's units (unit-cost switching elements).

        Memoized, like :meth:`wire_depths` — benchmarks and sweeps call
        this in loops over netlists with hundreds of thousands of
        elements.
        """
        if self._cost is None:
            self._cost = sum(e.cost for e in self.elements)
        return self._cost

    def wire_depths(self) -> List[int]:
        """Depth of every wire (longest weighted path from any input)."""
        if self._depths is None:
            depths = [0] * self.n_wires
            for elem in self.elements:
                d = max((depths[w] for w in elem.ins), default=0) + elem.depth
                for w in elem.outs:
                    depths[w] = d
            self._depths = depths
        return self._depths

    def depth(self) -> int:
        """Depth to the primary outputs (the paper's network depth)."""
        depths = self.wire_depths()
        return max((depths[w] for w in self.outputs), default=0)

    def max_depth(self) -> int:
        """Depth of the deepest wire anywhere (>= :meth:`depth`)."""
        depths = self.wire_depths()
        return max(depths, default=0)

    def stats(self) -> CircuitStats:
        """Summary statistics (memoized; :class:`CircuitStats` is frozen)."""
        if self._stats is None:
            by_kind: Dict[str, int] = {}
            for e in self.elements:
                by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
            self._stats = CircuitStats(
                cost=self.cost(),
                depth=self.depth(),
                n_elements=len(self.elements),
                n_wires=self.n_wires,
                n_inputs=len(self.inputs),
                n_outputs=len(self.outputs),
                by_kind=by_kind,
            )
        return self._stats

    def cost_by_kind(self) -> Dict[str, int]:
        """Cost contribution of each element kind."""
        acc: Dict[str, int] = {}
        for e in self.elements:
            acc[e.kind] = acc.get(e.kind, 0) + e.cost
        return acc

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, cost={self.cost()}, "
            f"depth={self.depth()})"
        )

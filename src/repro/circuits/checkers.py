"""Gate-level concurrent error detection for sorting netlists.

PR 2's fault campaigns showed that faults on the adaptive steering paths
can cause *silent corruption*: the sorter emits a plausible (monotone)
but wrong output with no indication anything went wrong.  This module
closes that gap with self-checking hardware built from the paper's own
tools — every checker is an ordinary gate-level circuit appended to the
netlist, so self-checking variants stay inside the paper's cost/depth
accounting (Section II units) and can themselves be fault-injected.

Three checkers, each emitting one **alarm wire** (1 = error detected):

* **sortedness** — the output must be monotone ``0...01...1``.  One
  violation detector ``out[i] AND NOT out[i+1]`` per adjacent pair plus
  a balanced OR tree: cost exactly ``3(n-1) - (n>2)``... see
  :func:`sortedness_checker_cost` (``3n - 4`` gates for ``n >= 2``),
  depth ``2 + ceil(lg(n-1))`` — the ``n-1`` comparisons / ``O(lg n)``
  depth of the classic output monitor.
* **ones-count preservation** — the population counts of the inputs and
  outputs must agree (a sorter permutes, never creates or destroys).
  Two prefix-adder population counters
  (:func:`repro.components.prefix_adder.popcount`) plus a bitwise
  equality tree; bounded by :func:`count_checker_cost_bound` /
  :func:`count_checker_depth_bound`.
* **control duplicate-and-compare** — the fan-in cone of every tagged
  steering wire (:attr:`~repro.circuits.netlist.Netlist.control_wires`
  ∪ structural control ports) is duplicated from the primary inputs and
  each steering signal compared (XOR) against its replica; any mismatch
  raises the alarm *before* the corruption is routed.  Overhead is
  exactly :func:`control_checker_overhead` (cone cost + ``2|C| - 1``).

**Completeness.**  For binary sorting the first two checkers are a
*complete* concurrent error detector: a monotone 0-1 sequence is fully
determined by its ones count, so any wrong output either breaks
monotonicity (sortedness alarm) or changes the count (count alarm).
Hence every fault whose corruption reaches a data output while the
checker itself is fault-free is detected — the zero-one principle's
online counterpart.  The guarantee excludes faults on the primary input
bus (upstream of both sorter and checker, indistinguishable from a
different input — the standard fault-secure boundary of CED).

:func:`with_checkers` appends checkers to an existing netlist **without
renumbering**: all original wire ids and element indices stay valid, so
fault universes enumerated on the plain netlist apply verbatim to the
self-checking one (exactly how the supervised campaigns re-run PR 2's
fault sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import BuildError, CheckerAlarm
from .builder import CircuitBuilder
from .faults import control_wires as _control_wires
from .netlist import Netlist

#: Alarm names in the order :func:`with_checkers` appends them.
SORTEDNESS = "sortedness"
COUNT = "count"
CONTROL = "control"


def _ceil_lg(m: int) -> int:
    """ceil(log2(m)) for m >= 1."""
    if m < 1:
        raise BuildError(f"ceil_lg needs m >= 1, got {m}")
    return (m - 1).bit_length()


# ---------------------------------------------------------------------------
# Closed-form overhead bounds (the paper's accounting units)
# ---------------------------------------------------------------------------


def sortedness_checker_cost(n: int) -> int:
    """Exact gate cost of the sortedness checker over ``n`` outputs.

    ``n-1`` violation detectors of 2 gates (NOT + AND) plus a balanced
    OR tree over them (``n-2`` gates): ``3n - 4`` for ``n >= 2``.
    """
    if n < 2:
        return 0
    return 3 * n - 4


def sortedness_checker_depth(n: int) -> int:
    """Exact depth the sortedness checker adds past the deepest output:
    NOT + AND (2 levels) then the OR tree (``ceil(lg(n-1))``)."""
    if n < 2:
        return 0
    return 2 + _ceil_lg(n - 1)


def _adder_cost_bound(m: int, adder: str) -> int:
    """Upper bound on the gate cost of adding two ``m``-bit numbers."""
    if m <= 1:
        return 2  # half adder
    if adder == "prefix":  # Kogge–Stone: 2m (P,G) + 3m per scan level + m-1 sums
        return 3 * m * (1 + _ceil_lg(m))
    if adder == "ripple":  # 5 gates per full-adder cell
        return 5 * m
    raise BuildError(f"unknown adder {adder!r}")


def _adder_depth_bound(m: int, adder: str) -> int:
    if m <= 1:
        return 1
    if adder == "prefix":
        return 2 + 2 * _ceil_lg(m)
    if adder == "ripple":
        return 2 * m
    raise BuildError(f"unknown adder {adder!r}")


def popcount_cost_bound(n: int, adder: str = "prefix") -> int:
    """Upper bound on the gate cost of one ``n``-input population counter
    (the adder tree of :func:`repro.components.prefix_adder.popcount`):
    ``n/2`` half-adders, then one level of width-``j`` adders per
    ``j = 2 .. lg n`` with ``n / 2^j`` adders each."""
    if n & (n - 1):
        raise BuildError(f"bound is stated for powers of two, got {n}")
    total = 2 * (n // 2)
    width, groups = 2, n // 4
    while groups >= 1:
        total += groups * _adder_cost_bound(width, adder)
        width += 1
        groups //= 2
    return total


def popcount_depth_bound(n: int, adder: str = "prefix") -> int:
    """Upper bound on the depth of one ``n``-input population counter."""
    if n & (n - 1):
        raise BuildError(f"bound is stated for powers of two, got {n}")
    d = 1  # half-adder leaves
    width, groups = 2, n // 4
    while groups >= 1:
        d += _adder_depth_bound(width, adder)
        width += 1
        groups //= 2
    return d


def count_checker_cost_bound(n: int, adder: str = "prefix") -> int:
    """Upper bound on the count checker: two population counters plus a
    ``w``-bit equality tree (``w`` XOR + ``w-1`` OR, ``w = lg n + 1``)."""
    w = n.bit_length()
    return 2 * popcount_cost_bound(n, adder) + 2 * w - 1


def count_checker_depth_bound(n: int, adder: str = "prefix") -> int:
    """Upper bound on the depth the count checker adds past the deepest
    data output: one popcount, one XOR level, the OR tree."""
    w = n.bit_length()
    return popcount_depth_bound(n, adder) + 1 + _ceil_lg(w)


def control_cone(netlist: Netlist) -> Tuple[List[int], List[int]]:
    """Steering fan-in cone of ``netlist``.

    Returns ``(element_indices, compared_wires)``: the (topologically
    ordered) indices of every element whose output transitively feeds a
    steering wire, and the steering wires that are element-driven (and
    hence duplicable — steering wires that are primary inputs cannot be
    checked by duplication, matching the CED fault-secure boundary).
    """
    targets: Set[int] = set(_control_wires(netlist))
    produced: Dict[int, int] = {}
    for i, e in enumerate(netlist.elements):
        for w in e.outs:
            produced[w] = i
    needed = set(targets)
    cone: List[int] = []
    for i in range(len(netlist.elements) - 1, -1, -1):
        e = netlist.elements[i]
        if any(w in needed for w in e.outs):
            cone.append(i)
            needed.update(e.ins)
    cone.reverse()
    compared = sorted(w for w in targets if w in produced)
    return cone, compared


def control_checker_overhead(netlist: Netlist) -> int:
    """Exact cost of duplicate-and-compare on the steering cone:
    one replica of the cone plus ``|C|`` XOR compares and a ``|C|-1``
    OR tree (0 when no steering wire is element-driven)."""
    cone, compared = control_cone(netlist)
    if not compared:
        return 0
    dup = sum(netlist.elements[i].cost for i in cone)
    return dup + 2 * len(compared) - 1


# ---------------------------------------------------------------------------
# Netlist extension
# ---------------------------------------------------------------------------


def _extend_builder(
    netlist: Netlist, name: str, blocks: bool = True
) -> CircuitBuilder:
    """A :class:`CircuitBuilder` whose state continues ``netlist``.

    The original wires, elements, inputs, and constants are carried over
    verbatim (same ids, same order), so everything appended lands after
    the existing topological order and the source netlist is untouched.
    Its block records carry over too unless ``blocks`` is false.
    """
    b = CircuitBuilder(name)
    b._n_wires = netlist.n_wires
    b._elements = list(netlist.elements)
    b._inputs = list(netlist.inputs)
    b._constants = dict(netlist.constants)
    # const() cache: reuse an existing constant wire per value if any.
    b._const_cache = {}
    for w, v in netlist.constants.items():
        b._const_cache.setdefault(v, w)
    b._control_wires = set(netlist.control_wires)
    if blocks:
        b._blocks = list(netlist.blocks)
    return b


def _attach_sortedness(b: CircuitBuilder, outs: Sequence[int]) -> int:
    """Alarm wire: 1 iff ``outs`` is not monotone non-decreasing."""
    terms = [
        b.and_(outs[i], b.not_(outs[i + 1])) for i in range(len(outs) - 1)
    ]
    return b.or_tree(terms)


def _attach_count(
    b: CircuitBuilder, ins: Sequence[int], outs: Sequence[int], adder: str
) -> int:
    """Alarm wire: 1 iff popcount(ins) != popcount(outs)."""
    from ..components.prefix_adder import popcount

    cin = popcount(b, list(ins), adder=adder)
    cout = popcount(b, list(outs), adder=adder)
    while len(cin) < len(cout):
        cin.append(b.const(0))
    while len(cout) < len(cin):
        cout.append(b.const(0))
    diffs = [b.xor(x, y) for x, y in zip(cin, cout)]
    return b.or_tree(diffs)


def _attach_control_duplicate(
    b: CircuitBuilder, netlist: Netlist
) -> Optional[int]:
    """Alarm wire: 1 iff any element-driven steering wire disagrees with
    an independently recomputed replica of its fan-in cone.

    Returns ``None`` when the netlist has no element-driven steering
    wires (nothing to duplicate).
    """
    cone, compared = control_cone(netlist)
    if not compared:
        return None
    dup: Dict[int, int] = {}
    for i in cone:
        e = netlist.elements[i]
        ins = [dup.get(w, w) for w in e.ins]
        outs = b._emit(e.kind, ins, len(e.outs), e.params)
        for orig, copy in zip(e.outs, outs):
            dup[orig] = copy
    mismatches = [b.xor(w, dup[w]) for w in compared]
    return b.or_tree(mismatches)


@dataclass
class CheckedNetlist:
    """A netlist with concurrent error-detection alarms appended.

    ``netlist.outputs`` is the original data outputs followed by one
    alarm wire per entry of ``alarm_names`` (1 = alarm).  All wire ids
    and element indices of the source netlist remain valid here, so
    fault records carry over unchanged.
    """

    netlist: Netlist
    n_data: int
    alarm_names: Tuple[str, ...]
    base_cost: int
    base_depth: int

    # -- accounting -----------------------------------------------------------

    @property
    def overhead_cost(self) -> int:
        """Checker gate cost (checked minus plain, paper units)."""
        return self.netlist.cost() - self.base_cost

    @property
    def overhead_depth(self) -> int:
        """Depth the deepest alarm adds over the plain network."""
        return self.netlist.depth() - self.base_depth

    # -- result handling ------------------------------------------------------

    def split(self, out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split a simulation result into ``(data, alarms)``."""
        out = np.asarray(out)
        return out[..., : self.n_data], out[..., self.n_data :]

    def alarm_rows(self, out: np.ndarray) -> np.ndarray:
        """Boolean mask of batch rows on which any alarm fired."""
        _, alarms = self.split(np.atleast_2d(np.asarray(out)))
        return alarms.any(axis=1)

    def fired(self, out: np.ndarray) -> Tuple[str, ...]:
        """Names of the alarms that fired anywhere in the batch."""
        _, alarms = self.split(np.atleast_2d(np.asarray(out)))
        return tuple(
            name
            for i, name in enumerate(self.alarm_names)
            if alarms[:, i].any()
        )

    def check(self, out: np.ndarray) -> np.ndarray:
        """Return the data outputs, raising :class:`CheckerAlarm` if any
        alarm wire is set anywhere in the batch."""
        arr = np.atleast_2d(np.asarray(out))
        data, alarms = self.split(arr)
        if alarms.any():
            rows = np.flatnonzero(alarms.any(axis=1))
            raise CheckerAlarm(self.fired(arr), rows=rows.tolist())
        return data if np.asarray(out).ndim > 1 else data[0]


def with_checkers(
    netlist: Netlist,
    sortedness: bool = True,
    count: bool = True,
    control: bool = False,
    adder: str = "prefix",
) -> CheckedNetlist:
    """Append concurrent error-detection circuits to ``netlist``.

    The returned :class:`CheckedNetlist` wraps a fresh netlist whose
    outputs are the original outputs followed by one alarm wire per
    enabled checker (order: sortedness, count, control).  The source
    netlist is not modified; its wire ids and element indices stay valid
    in the checked netlist.

    ``sortedness`` and ``count`` together are a complete detector for
    binary sorting (see module docstring); ``control`` additionally
    duplicates the steering cone so steering faults are caught even when
    their corruption is masked downstream.

    The checked netlist keeps ``netlist``'s block records (element
    indices do not change) unless ``control`` is set: the duplicated
    steering cone reads wires inside the blocks, and the JIT shares that
    cone with the original by hash-consing, which calls would prevent.
    """
    if not (sortedness or count or control):
        raise BuildError("with_checkers: enable at least one checker")
    b = _extend_builder(netlist, f"{netlist.name}+checkers",
                        blocks=not control)
    alarms: List[int] = []
    names: List[str] = []
    if sortedness:
        if len(netlist.outputs) < 2:
            raise BuildError("sortedness checker needs >= 2 outputs")
        alarms.append(_attach_sortedness(b, netlist.outputs))
        names.append(SORTEDNESS)
    if count:
        if not netlist.inputs:
            raise BuildError("count checker needs primary inputs")
        alarms.append(_attach_count(b, netlist.inputs, netlist.outputs, adder))
        names.append(COUNT)
    if control:
        wire = _attach_control_duplicate(b, netlist)
        if wire is not None:
            alarms.append(wire)
            names.append(CONTROL)
    checked = b.build(outputs=list(netlist.outputs) + alarms)
    return CheckedNetlist(
        netlist=checked,
        n_data=len(netlist.outputs),
        alarm_names=tuple(names),
        base_cost=netlist.cost(),
        base_depth=netlist.depth(),
    )


# ---------------------------------------------------------------------------
# Standalone output checker (for composite sorters, e.g. Network 3)
# ---------------------------------------------------------------------------


@dataclass
class OutputChecker:
    """A free-standing checker netlist observing an (input, output) bus.

    ``netlist`` has ``2n`` primary inputs — the sorter's input vector
    followed by its output vector — and one output per alarm in
    ``alarm_names``.  Composite sorters whose data path is not a single
    netlist (the fish sorter's time-multiplexed phases) attach this at
    their boundary: physically it taps the input and output buses, and
    its cost simply adds to the sorter inventory, staying within the
    paper's accounting.
    """

    netlist: Netlist
    n: int
    alarm_names: Tuple[str, ...]

    def alarms(self, inputs, outputs) -> np.ndarray:
        """Evaluate the checker: ``(B, n_alarms)`` uint8 alarm matrix."""
        from .simulate import simulate

        x = np.atleast_2d(np.asarray(inputs, dtype=np.uint8))
        y = np.atleast_2d(np.asarray(outputs, dtype=np.uint8))
        if x.shape != y.shape or x.shape[1] != self.n:
            raise BuildError(
                f"output checker expects matching (B, {self.n}) input and "
                f"output batches, got {x.shape} and {y.shape}"
            )
        return simulate(self.netlist, np.hstack([x, y]))

    def fired(self, inputs, outputs) -> Tuple[str, ...]:
        """Names of the alarms that fire anywhere in the batch."""
        a = self.alarms(inputs, outputs)
        return tuple(
            name for i, name in enumerate(self.alarm_names) if a[:, i].any()
        )


def build_output_checker(
    n: int,
    sortedness: bool = True,
    count: bool = True,
    adder: str = "prefix",
) -> OutputChecker:
    """Build the free-standing ``(input, output)``-bus checker for width
    ``n`` (see :class:`OutputChecker`)."""
    if n < 2:
        raise BuildError(f"output checker needs n >= 2, got {n}")
    if not (sortedness or count):
        raise BuildError("output checker: enable at least one checker")
    b = CircuitBuilder(f"output-checker-{n}")
    x = b.add_inputs(n)
    y = b.add_inputs(n)
    alarms: List[int] = []
    names: List[str] = []
    if sortedness:
        alarms.append(_attach_sortedness(b, y))
        names.append(SORTEDNESS)
    if count:
        alarms.append(_attach_count(b, x, y, adder))
        names.append(COUNT)
    return OutputChecker(
        netlist=b.build(outputs=alarms), n=n, alarm_names=tuple(names)
    )

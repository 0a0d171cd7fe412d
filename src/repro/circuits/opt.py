"""Netlist dead-element pruning.

Constructions sometimes emit elements whose outputs reach no primary
output (e.g. the unused high slots of the Muller–Preparata decoder, or
the logic behind a truncated concentrator's dropped outputs).
:func:`prune_dead` removes them while preserving behavior (tests
re-simulate), so an element count covers only what hardware would
fabricate; :mod:`repro.networks.concentrator` uses it for truncation.

The sorters' cost claims are checked on unpruned netlists.  Constant
folding and subexpression sharing happen one level down, on bit
programs, while :func:`repro.circuits.jit.lower` emits them.
"""

from __future__ import annotations

from typing import List, Set

from .elements import Element
from .netlist import Netlist


def prune_dead(netlist: Netlist) -> Netlist:
    """Drop elements whose outputs cannot reach any primary output."""
    needed: Set[int] = set(netlist.outputs)
    kept_rev: List[Element] = []
    for e in reversed(netlist.elements):
        if any(w in needed for w in e.outs):
            kept_rev.append(e)
            needed.update(e.ins)
    kept = list(reversed(kept_rev))
    constants = {w: v for w, v in netlist.constants.items() if w in needed}
    return Netlist(
        netlist.n_wires, kept, netlist.inputs, netlist.outputs,
        constants, netlist.name, control_wires=netlist.control_wires,
    )

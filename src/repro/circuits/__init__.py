"""Switch/gate-level circuit substrate.

This package provides everything needed to express the paper's networks
as executable circuits with the exact cost/depth accounting of Section II:

* :mod:`~repro.circuits.elements` — primitive elements and their
  cost/depth metadata.
* :mod:`~repro.circuits.netlist` — the circuit DAG with cost/depth/stats.
* :mod:`~repro.circuits.builder` — imperative construction DSL.
* :mod:`~repro.circuits.simulate` — vectorized bit-level and
  payload-carrying evaluation (thin wrappers over the engine, with the
  original interpreters kept as differential-testing oracles).
* :mod:`~repro.circuits.engine` — compiled level-batched execution
  plans: fused gather/kernel/scatter steps per (level, kind) group, a
  bit-packed 64-lanes-per-word fast path, and a weak-keyed plan cache.
* :mod:`~repro.circuits.jit` — one level further down: code-generated
  straight-line bit-slice kernels, optimized in one pass (constant
  folding and CSE while lowering, then dead-code elimination, then
  cross-level fusion in codegen) and cached in memory per netlist.
* :mod:`~repro.circuits.sequential` — Model B: timelines, pipeline
  levelization, and a cycle-accurate pipelined executor.
* :mod:`~repro.circuits.faults` — declarative fault models (stuck-at,
  output-swap, control-line inversion, per-cycle transients) applied by
  netlist rewriting, so both the interpreter and the compiled engine
  evaluate the identical broken circuit.
* :mod:`~repro.circuits.checkers` — gate-level concurrent error
  detection (sortedness, ones-count preservation, control
  duplicate-and-compare) attachable to any netlist via
  :func:`~repro.circuits.checkers.with_checkers`, with closed-form
  overhead bounds in the paper's cost model.
"""

from .builder import CircuitBuilder
from .checkers import (
    CheckedNetlist,
    OutputChecker,
    build_output_checker,
    control_checker_overhead,
    control_cone,
    count_checker_cost_bound,
    count_checker_depth_bound,
    popcount_cost_bound,
    popcount_depth_bound,
    sortedness_checker_cost,
    sortedness_checker_depth,
    with_checkers,
)
from .elements import Element, ELEMENT_META
from .engine import (
    ExecutionPlan,
    FusedStep,
    PACKED_MIN_BATCH,
    cache_info,
    clear_plan_cache,
    compile_plan,
    fuse_elements,
    get_plan,
    plan_cache_size,
)
from .equivalence import equivalent
from .faults import (
    ControlInvert,
    OutputSwap,
    StuckAt,
    TransientFlip,
    apply_fault,
    apply_faults,
    control_wires,
    enumerate_faults,
    fault_set_id,
    k_fault_sets,
    sample_faults,
)
from .fsm import SequentialCircuit, build_time_multiplexed_stage
from .fuzz import random_netlist
from .jit import (
    BitProgram,
    JitPlan,
    compile_jit,
    get_jit_plan,
)
from .lowering import gate_count, gate_depth, lower_to_gates
from .opt import prune_dead
from .paths import critical_path, level_histogram, path_kind_summary
from .serialize import from_json, load, save, to_json
from .netlist import Block, CircuitStats, Netlist
from .sequential import (
    LevelizedNetlist,
    PipelinedNetlist,
    Timeline,
    TimeSegment,
    levelize,
    run_pipelined,
    run_time_multiplexed,
)
from .simulate import (
    NO_PAYLOAD,
    exhaustive_inputs,
    simulate,
    simulate_engine,
    simulate_interpreted,
    simulate_jit,
    simulate_payload,
    simulate_payload_interpreted,
)

__all__ = [
    "BitProgram",
    "Block",
    "CheckedNetlist",
    "CircuitBuilder",
    "CircuitStats",
    "ControlInvert",
    "ELEMENT_META",
    "Element",
    "ExecutionPlan",
    "FusedStep",
    "JitPlan",
    "LevelizedNetlist",
    "NO_PAYLOAD",
    "Netlist",
    "OutputChecker",
    "OutputSwap",
    "PACKED_MIN_BATCH",
    "PipelinedNetlist",
    "SequentialCircuit",
    "StuckAt",
    "TimeSegment",
    "Timeline",
    "TransientFlip",
    "apply_fault",
    "apply_faults",
    "build_output_checker",
    "build_time_multiplexed_stage",
    "cache_info",
    "clear_plan_cache",
    "compile_jit",
    "compile_plan",
    "control_checker_overhead",
    "control_cone",
    "control_wires",
    "count_checker_cost_bound",
    "count_checker_depth_bound",
    "critical_path",
    "enumerate_faults",
    "equivalent",
    "exhaustive_inputs",
    "fault_set_id",
    "from_json",
    "fuse_elements",
    "gate_count",
    "gate_depth",
    "get_jit_plan",
    "get_plan",
    "k_fault_sets",
    "level_histogram",
    "levelize",
    "load",
    "lower_to_gates",
    "path_kind_summary",
    "plan_cache_size",
    "popcount_cost_bound",
    "popcount_depth_bound",
    "prune_dead",
    "random_netlist",
    "run_pipelined",
    "run_time_multiplexed",
    "sample_faults",
    "save",
    "simulate",
    "simulate_engine",
    "simulate_interpreted",
    "simulate_jit",
    "simulate_payload",
    "simulate_payload_interpreted",
    "sortedness_checker_cost",
    "sortedness_checker_depth",
    "to_json",
    "with_checkers",
]

"""Measurement, verification, and claim-checking utilities."""

from .ablations import (
    build_patchup_naive,
    fish_k_sweep,
    prefix_sorter_adder_sweep,
)
from .complexity import (
    Measurement,
    loglog_slope,
    measure_network,
    measure_sweep,
    normalized_constant,
)
from .claims import CLAIMS, Claim, run_all
from .crossover import (
    Crossover,
    aks_cost_crossover,
    aks_time_crossover,
    batcher_improvement_factor,
    find_crossover,
)
from .fitting import CostFit, fit_cost_model, fit_network_constant
from .resilience import (
    DETECTED,
    MASKED,
    OUTCOMES,
    SILENT,
    alarm_stats,
    classify,
    classify_with_alarms,
    damage_metrics,
    format_resilience_table,
    monotone_rows,
    ones_displacement,
    row_inversions,
    summarize,
)
from .tables import format_table
from .verify import (
    verify_netlist_random,
    verify_sorter_exhaustive,
    verify_sorter_random,
)

__all__ = [
    "CLAIMS",
    "Claim",
    "CostFit",
    "Crossover",
    "DETECTED",
    "MASKED",
    "Measurement",
    "OUTCOMES",
    "SILENT",
    "aks_cost_crossover",
    "aks_time_crossover",
    "alarm_stats",
    "batcher_improvement_factor",
    "build_patchup_naive",
    "classify",
    "classify_with_alarms",
    "damage_metrics",
    "find_crossover",
    "fish_k_sweep",
    "fit_cost_model",
    "fit_network_constant",
    "format_resilience_table",
    "format_table",
    "loglog_slope",
    "measure_network",
    "measure_sweep",
    "monotone_rows",
    "normalized_constant",
    "ones_displacement",
    "prefix_sorter_adder_sweep",
    "row_inversions",
    "run_all",
    "summarize",
    "verify_netlist_random",
    "verify_sorter_exhaustive",
    "verify_sorter_random",
]

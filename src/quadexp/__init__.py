"""Certified expansivity bounds for the quadratic family f_a(x) = a - x^2.

For a parameter subinterval, the pipeline computes a certified critical
radius delta_bar and a certified lower bound lambda_bar on the uniform
expansion exponent outside (-delta_bar, delta_bar), valid for every
parameter in the subinterval simultaneously.  All bounds rest on
outward-rounded interval arithmetic and on minimum-cycle-mean bounds over
a weighted-digraph representation of the dynamics.
"""

from .digraph import (
    CycleMeanResult,
    WeightedDigraph,
    brute_force_cycle_mean,
    build_representation,
    cycle_weight,
    dump_graph,
    load_graph,
    min_cycle_mean_karp,
    min_cycle_mean_lowmem,
)
from .expansivity import (
    AnalysisResult,
    DeltaBound,
    Settings,
    Status,
    analyze,
    delta_bound,
    lambda_bound,
)
from .family import ParamInterval
from .partition import ParamGrid, PhasePartition, phase_partition, subdivide_parameters
from .rigor import representable
from .sweep import SweepConfig, emit_plot_data, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "CycleMeanResult",
    "DeltaBound",
    "ParamGrid",
    "ParamInterval",
    "PhasePartition",
    "Settings",
    "Status",
    "SweepConfig",
    "WeightedDigraph",
    "analyze",
    "brute_force_cycle_mean",
    "build_representation",
    "cycle_weight",
    "delta_bound",
    "dump_graph",
    "emit_plot_data",
    "lambda_bound",
    "load_graph",
    "min_cycle_mean_karp",
    "min_cycle_mean_lowmem",
    "phase_partition",
    "representable",
    "run_sweep",
    "subdivide_parameters",
]

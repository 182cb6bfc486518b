"""Experiment harness: one runner per paper figure.

Each ``run_figXX`` function returns a :class:`repro.util.stats.Table` whose
rows mirror the series the corresponding figure plots.  The benchmarks in
``benchmarks/`` call these runners and print the tables;
``EXPERIMENTS.md`` records paper-vs-measured for each.
"""

from repro.harness.experiments import (
    run_fig05,
    run_fig06,
    run_fig07,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_monitor_overhead,
    run_ablation_modes,
    run_ablation_redundancy,
    run_ablation_staleness,
    run_ablation_throttle,
    run_ablation_rdma,
    run_ablation_incremental,
    run_faults,
    ALL_EXPERIMENTS,
)
from repro.harness.benchsuite import build_default_runner
from repro.harness.trace import run_traced_experiment, run_traced_null

__all__ = [
    "run_traced_experiment",
    "run_traced_null",
    "build_default_runner",
    "run_fig05",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_monitor_overhead",
    "run_ablation_modes",
    "run_ablation_redundancy",
    "run_ablation_staleness",
    "run_ablation_throttle",
    "run_ablation_rdma",
    "run_ablation_incremental",
    "run_faults",
    "ALL_EXPERIMENTS",
]

"""Experiment harness: regenerate every item of the paper's evaluation.

The paper is a theory paper, so its "tables and figures" are theorems,
lemmas and worked examples; DESIGN.md maps each of them (E1–E10) to an
executable experiment.  This package provides the plumbing:

* :mod:`repro.experiments.config` — declarative experiment descriptions,
* :mod:`repro.experiments.runner` — run one healer through one attack and
  measure the Theorem 1 quantities,
* :mod:`repro.experiments.sweeps` — parameter sweeps (over ``n``, topology,
  adversary, healer),
* :mod:`repro.experiments.reporting` — plain-text tables and CSV output,
* :mod:`repro.experiments.catalog` — one function per experiment id; running
  ``python -m repro.experiments`` regenerates them all.
"""

from ..distributed.protocol import (
    independent_repair_batches,
    repair_footprint,
    select_disjoint_victims,
)
from .config import AttackConfig, ExperimentConfig
from .reporting import (
    JsonlReporter,
    format_table,
    json_safe_row,
    json_safe_value,
    read_jsonl,
    rows_to_csv,
    write_report,
)
from .runner import AttackOutcome, build_session, run_attack, run_healer_comparison
from .sweeps import (
    SweepTask,
    run_sweep,
    sweep_graph_sizes,
    sweep_healers,
    sweep_large_n,
    sweep_strategies,
)

__all__ = [
    "AttackConfig",
    "ExperimentConfig",
    "AttackOutcome",
    "build_session",
    "run_attack",
    "run_healer_comparison",
    "SweepTask",
    "independent_repair_batches",
    "repair_footprint",
    "run_sweep",
    "select_disjoint_victims",
    "sweep_graph_sizes",
    "sweep_healers",
    "sweep_large_n",
    "sweep_strategies",
    "format_table",
    "rows_to_csv",
    "write_report",
    "JsonlReporter",
    "json_safe_value",
    "json_safe_row",
    "read_jsonl",
]

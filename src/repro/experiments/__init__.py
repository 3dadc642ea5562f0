"""Experiment suite: one module per paper claim (``repro list`` prints the index;
the claims are the paper's, see PAPER.md)."""

from .harness import SCALES, ExperimentSpec, SweepPoint, ensemble_at, grid, sweep
from .figures import FIGURES, figure_ids, render_figure
from .plotting import ascii_plot
from .registry import ALL_EXPERIMENTS, experiment_ids, get_experiment
from .results import ResultTable
from .workloads import (
    corollary3_start,
    geometric_tail,
    lemma8_start,
    lemma10_start,
    paper_biased,
    soda15_gap,
    theorem1_bias,
    theorem2_start,
    theorem4_start,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentSpec",
    "FIGURES",
    "ResultTable",
    "SCALES",
    "SweepPoint",
    "ascii_plot",
    "corollary3_start",
    "ensemble_at",
    "experiment_ids",
    "figure_ids",
    "geometric_tail",
    "get_experiment",
    "grid",
    "lemma10_start",
    "lemma8_start",
    "render_figure",
    "paper_biased",
    "soda15_gap",
    "sweep",
    "theorem1_bias",
    "theorem2_start",
    "theorem4_start",
]

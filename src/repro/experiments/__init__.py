"""Experiment suite: one module per paper claim (``repro list`` prints the index;
the claims are the paper's, see PAPER.md).

The names below load on first attribute access.  :mod:`.workloads`, which
registers the initial-configuration generators every spec resolves
through, needs only numpy, so importing it (as :mod:`repro.scenario` does)
leaves the experiments, their scipy-backed analysis and the figures
unloaded until something asks for them.
"""

import importlib

#: Public name -> defining submodule.
_EXPORTS = {
    "ALL_EXPERIMENTS": "registry",
    "ExperimentSpec": "harness",
    "FIGURES": "figures",
    "ResultTable": "results",
    "SCALES": "harness",
    "ascii_plot": "plotting",
    "corollary3_start": "workloads",
    "experiment_ids": "registry",
    "figure_ids": "figures",
    "geometric_tail": "workloads",
    "get_experiment": "registry",
    "lemma10_start": "workloads",
    "lemma8_start": "workloads",
    "paper_biased": "workloads",
    "render_figure": "figures",
    "soda15_gap": "workloads",
    "theorem1_bias": "workloads",
    "theorem2_start": "workloads",
    "theorem4_start": "workloads",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)

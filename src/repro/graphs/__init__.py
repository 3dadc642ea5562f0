"""General-graph substrate (extension beyond the paper's clique).

Topologies are CSR-packed (:mod:`~repro.graphs.topology`, registered in
:data:`~repro.core.registry.TOPOLOGIES`); the graph engine
(:mod:`~repro.graphs.ensemble`) steps color vectors on the clique
runners' own sequential and batched loops, so graph runs go through the
same spec → engine → trace → cache stack.  Each round applies the
dynamics' declared per-agent rule (:class:`GraphKernel`, from
:meth:`~repro.core.dynamics.Dynamics.agent_rule`; :func:`graph_kernel`
looks it up).  :func:`run_graph_process` starts from a
:class:`~repro.core.config.Configuration` (scattered by
:func:`random_coloring`) or from a hand-placed color vector.
"""

from ..core.dynamics import GraphKernel
from .ensemble import (
    graph_ineligibility,
    graph_kernel,
    random_coloring,
    run_graph_ensemble,
    run_graph_process,
)
from .topology import (
    Topology,
    barbell,
    clique,
    complete_bipartite,
    cycle,
    erdos_renyi,
    random_regular,
    torus,
)

__all__ = [
    "GraphKernel",
    "Topology",
    "barbell",
    "clique",
    "complete_bipartite",
    "cycle",
    "erdos_renyi",
    "graph_ineligibility",
    "graph_kernel",
    "random_coloring",
    "random_regular",
    "run_graph_ensemble",
    "run_graph_process",
    "torus",
]

"""Tests for the general-graph substrate (topology packing + graph engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Configuration,
    HPlurality,
    PluralityFractionStop,
    ThreeMajority,
    Voter,
    majority_rule,
)
from repro.core.registry import TOPOLOGIES
from repro.graphs import (
    Topology,
    barbell,
    clique,
    complete_bipartite,
    cycle,
    erdos_renyi,
    graph_kernel,
    random_coloring,
    random_regular,
    run_graph_process,
    torus,
)


class TestTopology:
    def test_clique_structure(self):
        topo = clique(5)
        assert topo.n == 5
        assert (topo.degrees == 5).all()  # regular, self-loops included

    def test_cycle_structure(self):
        topo = cycle(6)
        assert topo.n == 6
        assert (topo.degrees == 3).all()  # 2 neighbors + self

    def test_torus(self):
        topo = torus(3, 4)
        assert topo.n == 12
        assert (topo.degrees == 5).all()

    def test_random_regular(self):
        topo = random_regular(10, 3, seed=0)
        assert topo.n == 10
        assert (topo.degrees == 4).all()

    def test_erdos_renyi_isolated_nodes_ok(self):
        topo = erdos_renyi(20, 0.0, seed=0)
        assert (topo.degrees == 1).all()  # self-loop only

    def test_erdos_renyi_p_one_is_complete(self):
        topo = erdos_renyi(6, 1.0, seed=0)
        assert (topo.degrees == 6).all()  # 5 neighbors + self

    @pytest.mark.parametrize("p", [-0.5, 1.5, 2.0, float("nan")])
    def test_erdos_renyi_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="0 <= p <= 1"):
            erdos_renyi(20, p, seed=0)

    @pytest.mark.parametrize("params", [{"rows": 0}, {"cols": 0}, {"rows": 0, "cols": 12}, {"rows": -3}])
    def test_torus_rejects_non_positive_sides(self, params):
        with pytest.raises(ValueError, match=">= 1"):
            TOPOLOGIES.build("torus", 12, **params)

    def test_bipartite_and_barbell(self):
        assert complete_bipartite(3, 4).n == 7
        assert barbell(4).n == 8

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            Topology(np.array([1, 2]), np.array([0, 1]))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            Topology(np.array([0, 0, 1]), np.array([0]))

    def test_sample_neighbors_shape_and_validity(self, rng):
        topo = cycle(8)
        picks = topo.sample_neighbors(4, rng)
        assert picks.shape == (8, 4)
        # Every pick must be a CSR neighbor of its row.
        for u in range(8):
            pool = set(topo.neighbors[topo.offsets[u] : topo.offsets[u + 1]].tolist())
            assert set(picks[u].tolist()) <= pool

    def test_sample_rejects_bad_h(self, rng):
        with pytest.raises(ValueError):
            clique(3).sample_neighbors(0, rng)


class TestRandomColoring:
    def test_counts_preserved(self, rng):
        topo = clique(30)
        cfg = Configuration([15, 10, 5])
        colors = random_coloring(topo, cfg, rng)
        assert np.bincount(colors, minlength=3).tolist() == [15, 10, 5]

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            random_coloring(clique(10), Configuration([5, 4]), rng)


class TestGraphProcess:
    def test_consensus_on_clique(self, rng):
        topo = clique(500)
        cfg = Configuration([400, 100])
        colors = random_coloring(topo, cfg, rng)
        res = run_graph_process(HPlurality(3), topo, colors, rng=rng, max_rounds=2_000)
        assert res.converged
        assert res.plurality_won

    def test_clique_matches_counts_engine_statistics(self, rng_factory):
        # One round of graph-level 3-plurality on the clique must match the
        # Lemma 1 law in expectation.
        n = 2_000
        topo = clique(n)
        cfg = Configuration([1_200, 500, 300])
        law = ThreeMajority().color_law(cfg.counts)
        acc = np.zeros(3)
        reps = 200
        for i in range(reps):
            res = run_graph_process(HPlurality(3), topo, cfg, max_rounds=1, rng=rng_factory(i))
            assert res.rounds == 1
            acc += res.final_counts
        mean = acc / reps / n
        stderr = np.sqrt(0.25 / (n * reps))
        assert np.all(np.abs(mean - law) < 8 * stderr)

    def test_three_input_rule_on_graph(self, rng):
        topo = clique(300)
        cfg = Configuration([200, 60, 40])
        colors = random_coloring(topo, cfg, rng)
        res = run_graph_process(majority_rule(), topo, colors, rng=rng, max_rounds=2_000)
        assert res.converged
        assert res.plurality_won

    def test_h1_is_graph_voter(self, rng):
        topo = cycle(50)
        colors = np.zeros(50, dtype=np.int64)
        colors[::2] = 1
        kernel = graph_kernel(HPlurality(1), 2)
        assert kernel.h == 1 and not kernel.consumes_rng
        assert kernel.reduce is graph_kernel(Voter(), 2).reduce
        new = kernel.reduce(colors, colors[topo.sample_neighbors(kernel.h, rng)], rng)
        assert new.shape == (50,)
        assert set(np.unique(new)) <= {0, 1}

    def test_monochromatic_is_absorbing(self, rng):
        topo = random_regular(40, 4, seed=1)
        colors = np.full(40, 2, dtype=np.int64)
        res = run_graph_process(HPlurality(3), topo, colors, rng=rng)
        assert res.converged
        assert res.rounds == 0
        assert res.winner == 2
        assert res.stopped_by == "monochromatic"

    def test_record_counts_history(self, rng):
        topo = clique(200)
        cfg = Configuration([150, 50])
        colors = random_coloring(topo, cfg, rng)
        res = run_graph_process(
            HPlurality(3), topo, colors, rng=rng, record=["counts"], max_rounds=1_000
        )
        history = res.trace.replica(0, "counts")
        assert history.shape == (res.rounds + 1, 2)
        assert (history.sum(axis=1) == 200).all()

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            run_graph_process(HPlurality(3), clique(5), np.zeros(4, dtype=np.int64), rng=rng)

    @pytest.mark.parametrize(
        "colors",
        [
            np.zeros((2, 3), dtype=np.int64),  # not 1-D
            np.array([0, 1, -1, 0, 1, 0]),  # negative color
            np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]),  # not integers
            np.array([True, False, True, False, True, False]),  # booleans
        ],
        ids=["2-d", "negative", "float", "bool"],
    )
    def test_bad_color_vector_rejected(self, colors, rng):
        with pytest.raises(ValueError, match="color vector"):
            run_graph_process(HPlurality(3), cycle(6), colors, rng=rng)

    def test_color_vector_continues_configuration_stream(self):
        # A Configuration start is a random coloring drawn from the run's
        # own stream, then the same rounds as a hand-placed vector.
        topo, cfg = torus(5, 6), Configuration([14, 10, 6])
        gen = np.random.default_rng(3)
        colors = random_coloring(topo, cfg, gen)
        from_vector = run_graph_process(HPlurality(3), topo, colors, rng=gen)
        from_config = run_graph_process(HPlurality(3), topo, cfg, rng=3)
        assert from_vector.rounds == from_config.rounds
        assert np.array_equal(from_vector.final_counts, from_config.final_counts)
        assert from_vector.trace.digest() == from_config.trace.digest()

    def test_local_topology_slows_consensus(self, rng_factory):
        # Sanity for the substrate: the cycle mixes far slower than the
        # clique at equal n — a qualitative, robust comparison.
        n = 120
        cfg = Configuration([70, 50])
        rounds_clique = []
        rounds_cycle = []
        for i in range(10):
            rng = rng_factory(1_000 + i)
            colors = random_coloring(clique(n), cfg, rng)
            r1 = run_graph_process(HPlurality(3), clique(n), colors, rng=rng, max_rounds=20_000)
            rng2 = rng_factory(2_000 + i)
            colors2 = random_coloring(cycle(n), cfg, rng2)
            r2 = run_graph_process(HPlurality(3), cycle(n), colors2, rng=rng2, max_rounds=20_000)
            rounds_clique.append(r1.rounds)
            rounds_cycle.append(r2.rounds)
        assert np.median(rounds_cycle) > np.median(rounds_clique)


class TestSampleNeighborsUnbiased:
    """Regression for the float-scaling draw the integer draw replaced.

    The old ``(uniform * degree).astype(int64)`` idiom could round up to
    the row degree (an out-of-pool index spilling into the next node's
    CSR slice) and was measurably non-uniform.  The bounded-integer draw
    must keep every raw index strictly below its row degree and pass a
    chi-square uniformity test per pool on an irregular graph.
    """

    def _irregular(self):
        # Star-plus-path: node 0 has a large pool, leaves tiny ones.
        import networkx as nx

        g = nx.star_graph(9)  # node 0 joined to 1..9
        g.add_edge(1, 2)
        return Topology.from_networkx(g)

    def test_raw_index_strictly_below_degree(self):
        topo = self._irregular()
        start = topo.offsets[:-1]
        rng = np.random.default_rng(5)
        for _ in range(200):
            picks = topo.sample_neighbors(3, rng)
            # Recover pool membership: every pick must live in its row's slice.
            for u in range(topo.n):
                row = topo.neighbors[topo.offsets[u] : topo.offsets[u + 1]]
                assert np.isin(picks[u], row).all(), (u, picks[u], row)
        assert (topo.degrees != topo.degrees[0]).any()  # fixture is irregular
        assert start.shape == (topo.n,)

    def test_per_pool_uniformity_chi_square(self):
        from scipy import stats

        topo = self._irregular()
        rng = np.random.default_rng(11)
        draws = 4_000
        picks = topo.sample_neighbors(draws, rng)  # (n, draws)
        for u in range(topo.n):
            pool = topo.neighbors[topo.offsets[u] : topo.offsets[u + 1]]
            observed = np.array([(picks[u] == v).sum() for v in pool], dtype=float)
            expected = draws / pool.size
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            crit = float(stats.chi2.isf(1e-6, df=pool.size - 1))
            assert chi2 < crit, (u, chi2, crit)

    def test_regular_fast_path_matches_pool(self):
        topo = clique(7)
        assert (topo.degrees == topo.degrees[0]).all()
        picks = topo.sample_neighbors(5, np.random.default_rng(3))
        assert picks.min() >= 0 and picks.max() < 7


class TestFromNetworkxVectorized:
    """The edge-array CSR build keeps the historical ordering contract."""

    @staticmethod
    def _reference(graph, include_self):
        # The retired per-node loop: sorted pools, optional self-loop.
        import networkx as nx

        graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
        n = graph.number_of_nodes()
        pools = []
        for u in range(n):
            pool = set(graph.neighbors(u))
            if include_self:
                pool.add(u)
            pools.append(sorted(pool))
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(p) for p in pools])
        return offsets, np.concatenate([np.asarray(p, dtype=np.int64) for p in pools])

    @pytest.mark.parametrize("include_self", (True, False))
    def test_matches_reference_on_random_graph(self, include_self):
        import networkx as nx

        g = nx.gnp_random_graph(40, 0.15, seed=4)
        if not include_self:
            # Keep every pool non-empty without self-loops.
            for u in list(nx.isolates(g)):
                g.add_edge(u, (u + 1) % 40)
        topo = Topology.from_networkx(g, include_self=include_self)
        offsets, neighbors = self._reference(g, include_self)
        assert np.array_equal(topo.offsets, offsets)
        assert np.array_equal(topo.neighbors, neighbors)

    def test_pre_existing_self_loops_not_duplicated(self):
        import networkx as nx

        g = nx.cycle_graph(6)
        g.add_edge(2, 2)  # explicit self-loop before packing
        topo = Topology.from_networkx(g, include_self=True)
        offsets, neighbors = self._reference(g, True)
        assert np.array_equal(topo.offsets, offsets)
        assert np.array_equal(topo.neighbors, neighbors)
        assert (topo.degrees == 3).all()  # loop at 2 contributes exactly once

    def test_empty_graph_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError):
            Topology.from_networkx(nx.Graph())

    def test_isolated_node_without_self_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(ValueError, match="empty sampling pool"):
            Topology.from_networkx(g, include_self=False)


class TestBuildersMatchNetworkx:
    """Every generator's CSR is byte-identical to packing networkx's graph.

    networkx is only the reference here: the builders use numpy and
    ``random.Random``, and the random ones port networkx 3.x's generators
    draw for draw.  A mismatch would change what graph specs compute
    under unchanged cache keys: results, trace digests and pins.
    """

    SEEDS = range(40)

    @staticmethod
    def _assert_same(topo, graph):
        reference = Topology.from_networkx(graph)
        assert topo.offsets.dtype == topo.neighbors.dtype == np.int64
        assert np.array_equal(topo.offsets, reference.offsets)
        assert np.array_equal(topo.neighbors, reference.neighbors)

    def test_cycle(self):
        import networkx as nx

        for n in range(1, 13):
            self._assert_same(cycle(n), nx.cycle_graph(n))

    def test_torus(self):
        import networkx as nx

        for rows in range(1, 7):
            for cols in range(1, 7):
                self._assert_same(torus(rows, cols), nx.grid_2d_graph(rows, cols, periodic=True))

    def test_complete_bipartite(self):
        import networkx as nx

        for a in range(1, 6):
            for b in range(1, 6):
                self._assert_same(complete_bipartite(a, b), nx.complete_bipartite_graph(a, b))

    def test_barbell(self):
        import networkx as nx

        for m in range(2, 7):
            for path in range(5):
                self._assert_same(barbell(m, path), nx.barbell_graph(m, path))

    @pytest.mark.parametrize("n,d", [(10, 3), (50, 4), (1000, 8), (7, 6), (9, 0)])
    def test_random_regular(self, n, d):
        import networkx as nx

        for seed in self.SEEDS:
            self._assert_same(random_regular(n, d, seed=seed), nx.random_regular_graph(d, n, seed=seed))

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 1.0, None])
    def test_erdos_renyi(self, p):
        import networkx as nx

        n = 120
        params = {} if p is None else {"p": p}
        p = min(1.0, 2.0 * np.log(n) / n) if p is None else p
        for seed in self.SEEDS:
            topo = TOPOLOGIES.build("erdos-renyi", n, seed=seed, **params)
            self._assert_same(topo, nx.fast_gnp_random_graph(n, p, seed=seed))

    @pytest.mark.parametrize("family", ["random-regular", "erdos-renyi"])
    def test_unseeded_draws_from_the_module_generator(self, family):
        import random

        import networkx as nx

        ours, theirs = {
            "random-regular": (lambda: random_regular(60, 4), lambda: nx.random_regular_graph(4, 60)),
            "erdos-renyi": (lambda: erdos_renyi(80, 0.1), lambda: nx.fast_gnp_random_graph(80, 0.1)),
        }[family]
        random.seed(5)
        topo = ours()
        next_draw = random.random()
        random.seed(5)
        self._assert_same(topo, theirs())
        assert random.random() == next_draw  # both consumed the same draws

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n": 120, "d": 120}, "0 <= d < n"),
            ({"n": 120, "d": -2}, "0 <= d < n"),
            ({"n": 121, "d": 3}, "must be even"),
        ],
    )
    def test_random_regular_parameter_errors_are_value_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            random_regular(seed=0, **kwargs)


class TestGeneratorPins:
    """sha256 over the int64 bytes of ``offsets`` then ``neighbors``.

    Both digests were taken from networkx 3.6.1's graphs, so neither the
    builders nor a future networkx release can move them unnoticed.
    """

    @pytest.mark.parametrize(
        "build,digest",
        [
            (
                lambda: random_regular(1000, 8, seed=12345),
                "434fe4b4560c8c77719d19a754a8364b6694deada8131d665aad606775889b3e",
            ),
            (
                lambda: erdos_renyi(2000, 2 * np.log(2000) / 2000, seed=7),
                "917ec3ea8e1094b683a162b2b14144c240aee81395d95c9c45acf9390d7727ba",
            ),
        ],
        ids=["random-regular", "erdos-renyi"],
    )
    def test_digest(self, build, digest):
        import hashlib

        topo = build()
        sha = hashlib.sha256()
        sha.update(topo.offsets.astype(np.int64).tobytes())
        sha.update(topo.neighbors.astype(np.int64).tobytes())
        assert sha.hexdigest() == digest


class TestGraphEnsembleBitIdentity:
    """Batched (R, n) stepping ≡ sequential per-replica runs, bitwise.

    Both paths consume randomness per replica from the same spawned
    streams in the same order, so everything — rounds, winners, final
    counts, recorded traces — must be equal exactly, not statistically.
    """

    #: name -> (dynamics, stopping rule).  On the 60-agent torus below the
    #: initial plurality fraction is 0.5: a 0.8 rule fires mid-run, a 0.4
    #: rule is already met at t = 0.
    CASES = {
        "3-majority tie-first": (ThreeMajority(), None),
        "h-plurality h=4": (HPlurality(4), None),
        "voter": (Voter(), None),
        "3-majority stop mid-run": (ThreeMajority(), PluralityFractionStop(0.8)),
        "h-plurality h=4 stop at t=0": (HPlurality(4), PluralityFractionStop(0.4)),
    }

    def _pair(self, dynamics, topo, cfg, seed, record=None, stopping=None):
        from repro.core.metrics import RecordSpec
        from repro.graphs import run_graph_ensemble

        kwargs = dict(max_rounds=3_000, rng=seed, stopping=stopping)
        if record:
            kwargs["record"] = RecordSpec(metrics=tuple(record), every=1)
        batched = run_graph_ensemble(dynamics, topo, cfg, 6, **kwargs)
        sequential = run_graph_ensemble(dynamics, topo, cfg, 6, batch=False, **kwargs)
        return batched, sequential

    @pytest.mark.parametrize("name", list(CASES))
    def test_bitwise_equal(self, name):
        dynamics, stopping = self.CASES[name]
        topo = torus(6, 10)
        cfg = Configuration([30, 20, 10])
        batched, sequential = self._pair(
            dynamics, topo, cfg, 123, record=("counts", "bias"), stopping=stopping
        )
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.converged, sequential.converged)
        assert np.array_equal(batched.winners, sequential.winners)
        assert np.array_equal(batched.final_counts, sequential.final_counts)
        assert np.array_equal(batched.stopped_by, sequential.stopped_by)
        assert batched.trace.digest() == sequential.trace.digest()
        if stopping is not None:
            # The rule fired where its input says it should.
            assert "plurality-fraction" in batched.stop_reasons()
            assert np.all(batched.rounds == 0) == (stopping.fraction <= 0.5)

    def test_uniform_tiebreak_consumes_rng_identically(self):
        batched, sequential = self._pair(
            ThreeMajority(tie_break="uniform"), clique(40), Configuration([20, 20]), 7
        )
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.final_counts, sequential.final_counts)

    def test_three_input_rule_kernel(self):
        batched, sequential = self._pair(
            majority_rule(), cycle(50), Configuration([30, 12, 8]), 31
        )
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.final_counts, sequential.final_counts)


class TestGraphIneligibility:
    def test_undecided_state_rejected(self):
        from repro import UndecidedState
        from repro.graphs import graph_ineligibility

        assert graph_ineligibility(UndecidedState()) is not None

    def test_supported_dynamics_pass(self):
        from repro import HPlurality, Voter
        from repro.graphs import graph_ineligibility

        for dyn in (ThreeMajority(), HPlurality(5), Voter(), majority_rule()):
            assert graph_ineligibility(dyn) is None

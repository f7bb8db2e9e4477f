import dataclasses
import math
import random
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epithresh.estimators import sample_size, t1_estimate
from epithresh.generators import chung_lu_sample_fast, uniform_expected_degrees
from epithresh.graph import Graph, build_graph, degree_stats, largest_component
from epithresh.harness import model_graph
from epithresh.spectral import BipartiteGraphError, spectral_gap
from epithresh.walker import (
    GraphOracle,
    LocalOracle,
    WalkConfig,
    ZeroDegreeNodeError,
    _walked_component,
    error_curve,
    random_walk_estimate,
)

from conftest import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
    traced_peak,
    walk_path,
)
from oracles import pi_weighted_mean_degree, step_loop_error_curve, step_loop_walk_estimate


class TestLocalOracle:
    def test_degree_matches_stats(self):
        g = random_connected_graph(60, seed=2, extra_edges=40)
        oracle = LocalOracle(g)
        for v in range(g.n):
            assert oracle.degree(v) == g.degrees[v]

    def test_neighbor_indexing(self):
        g = star_graph(5)
        oracle = LocalOracle(g)
        assert oracle.degree(0) == 4
        assert [oracle.neighbor(0, k) for k in range(4)] == [1, 2, 3, 4]
        with pytest.raises(IndexError):
            oracle.neighbor(0, 4)
        with pytest.raises(IndexError):
            oracle.neighbor(1, 1)

    def test_query_accounting_on_walk(self):
        g = cycle_graph(9)
        oracle = LocalOracle(g)
        report = random_walk_estimate(oracle, WalkConfig(t_star=99, r=1, thin=1, seed=0))
        # a 100-step walk costs 100 degree + 100 neighbor queries
        assert report.total_steps == 100
        assert report.total_queries == 200
        checked = _CheckedOracle(g)  # the per-query path asks what the report counts
        assert random_walk_estimate(checked, WalkConfig(t_star=99, r=1, thin=1, seed=0)) == report
        assert len(checked.log) == 200

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            LocalOracle(build_graph([], 3))

    def test_build_allocates_no_copy_of_the_graph(self):
        # a copy of the CSR arrays as Python ints costs about 40 B per entry
        small = chung_lu_sample_fast(uniform_expected_degrees(2_000, 2.0, 8.0, seed=1), 2)
        large = chung_lu_sample_fast(uniform_expected_degrees(20_000, 10.0, 30.0, seed=3), 4)
        assert large.m >= 10 * small.m
        for g in (small, large):
            oracle, peak = traced_peak(lambda: LocalOracle(g))
            assert oracle.node_count() == g.n
            assert peak <= 4096

    def test_memory_mapped_graph_answers_alike(self, tmp_path):
        # the arrays saved and memory-mapped read-only, as the benchmark loads them
        g, _ = largest_component(
            chung_lu_sample_fast(uniform_expected_degrees(500, 2.0, 9.0, seed=1), 2))
        arrays = {}
        for name in ("offsets", "neighbors", "degrees"):
            np.save(tmp_path / f"{name}.npy", getattr(g, name))
            arrays[name] = np.load(tmp_path / f"{name}.npy", mmap_mode="r")
        mapped = Graph(n=g.n, m=g.m, **arrays)
        assert not mapped.neighbors.flags.writeable
        here, there = LocalOracle(g), LocalOracle(mapped)
        cfg = WalkConfig(t_star=20, r=300, thin=3, seed=9)
        assert walk_path(random_walk_estimate, there, cfg) == walk_path(
            random_walk_estimate, here, cfg)
        budgets = [10, g.n // 2, g.n]
        assert error_curve(there, 2.0, 3.0, [1, 2], budgets, t_star=0) == error_curve(
            here, 2.0, 3.0, [1, 2], budgets, t_star=0)
        for v in range(-1, g.n + 1):
            assert _answer(lambda: there.degree(v)) == _answer(lambda: here.degree(v))
            for k in range(-1, int(g.degrees[v]) + 2 if 0 <= v < g.n else 2):
                assert (_answer(lambda: there.neighbor(v, k))
                        == _answer(lambda: here.neighbor(v, k)))
        assert _answer(lambda: there.degree(g.n)) is IndexError
        assert _answer(lambda: there.neighbor(0, g.degrees[0])) is IndexError


class TestWalkConfig:
    def test_total_steps_formula(self):
        cfg = WalkConfig(t_star=7, r=5, thin=3)
        assert cfg.total_steps == 7 + 4 * 3 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(t_star=-1, r=1)
        with pytest.raises(ValueError):
            WalkConfig(t_star=0, r=0)
        with pytest.raises(ValueError):
            WalkConfig(t_star=0, r=1, thin=0)


class TestRandomWalkEstimate:
    def test_regular_graphs_are_exact(self):
        for cfg in (
            WalkConfig(t_star=0, r=10, thin=1, seed=1),
            WalkConfig(t_star=25, r=500, thin=7, seed=2),
        ):
            assert random_walk_estimate(LocalOracle(cycle_graph(11)), cfg).estimate == 2.0
            assert random_walk_estimate(LocalOracle(complete_graph(4)), cfg).estimate == 3.0

    def test_star_converges_to_pi_mean(self):
        g = star_graph(5)  # m2/m1 = 20/8 = 2.5
        estimates = [
            random_walk_estimate(
                LocalOracle(g), WalkConfig(t_star=0, r=100_000, thin=1, seed=s)
            ).estimate
            for s in range(20)
        ]
        assert np.mean(estimates) == pytest.approx(2.5, rel=0.02)

    def test_determinism_and_trace(self):
        g = random_connected_graph(50, seed=5, extra_edges=30)
        cfg = WalkConfig(t_star=10, r=50, thin=2, seed=77)
        a, a_nodes = walk_path(random_walk_estimate, LocalOracle(g), cfg)
        b, b_nodes = walk_path(random_walk_estimate, LocalOracle(g), cfg)
        assert a_nodes == b_nodes
        assert a.estimate == b.estimate
        assert len(a_nodes) == cfg.total_steps + 1

    def test_report_invariants(self):
        g = random_connected_graph(80, seed=9, extra_edges=60)
        cfg = WalkConfig(t_star=13, r=40, thin=5, seed=3)
        report = random_walk_estimate(LocalOracle(g), cfg)
        assert report.total_steps == cfg.total_steps
        assert report.total_queries == 2 * report.total_steps
        assert report.distinct_nodes_seen <= min(g.n, report.total_steps + 1)

    def test_zero_degree_error_names_node(self):
        g = build_graph([(1, 2)], 3)  # node 0 isolated
        with pytest.raises(ZeroDegreeNodeError, match="node 0"):
            random_walk_estimate(LocalOracle(g), WalkConfig(t_star=0, r=1, start=0))

    def test_pi_weighted_mean_is_moment_ratio(self):
        # exact statement of the stationary expectation, no simulation
        for seed in range(10):
            g = random_connected_graph(120, seed=seed, extra_edges=100)
            stats = degree_stats(g)
            assert pi_weighted_mean_degree(g) == pytest.approx(
                stats.m2 / stats.m1, abs=1e-12
            )

    def test_planned_walk_hits_tolerance_on_chung_lu(self):
        ed = uniform_expected_degrees(10_000, 20.0, 80.0, seed=5)
        g, _ = largest_component(chung_lu_sample_fast(ed, 6))
        t1 = t1_estimate(g).t1
        plan = sample_size(degree_stats(g), spectral_gap(g), eps=0.1, delta=0.1)
        hits = 0
        for seed in range(10):
            cfg = WalkConfig(t_star=plan.t_star, r=plan.r, thin=1, seed=seed)
            estimate = random_walk_estimate(LocalOracle(g), cfg).estimate
            hits += abs(estimate / t1 - 1.0) <= 0.1
        assert hits >= 9


class TestErrorCurve:
    def test_regular_graph_zero_error_everywhere(self):
        g = cycle_graph(64)
        points = error_curve(
            LocalOracle(g),
            t1_reference=2.0,
            lambda_reference=2.0,
            seeds=[1, 2, 3],
            budgets=[8, 16, 32],
            t_star=0,
            thin=1,
        )
        assert len(points) == 9
        assert all(p.eps_t1 == 0.0 for p in points)
        assert all(p.eps_lambda == 0.0 for p in points)

    def test_budgets_cross_in_order(self):
        g = random_connected_graph(200, seed=3, extra_edges=150)
        t1 = t1_estimate(g).t1
        points = error_curve(
            LocalOracle(g),
            t1_reference=t1,
            lambda_reference=t1,
            seeds=[5],
            budgets=[10, 50, 150],
            t_star=5,
            thin=2,
        )
        assert [p.budget for p in points] == [10, 50, 150]
        assert all(p.nodes_seen >= p.budget for p in points)
        steps = [p.steps for p in points]
        assert steps == sorted(steps)

    def test_step_cap_emits_remaining_budgets(self):
        g = cycle_graph(30)
        points = error_curve(
            LocalOracle(g),
            t1_reference=2.0,
            lambda_reference=2.0,
            seeds=[1],
            budgets=[5, 29, 30],
            t_star=0,
            thin=1,
            max_steps=40,
        )
        assert [p.budget for p in points] == [5, 29, 30]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            error_curve(LocalOracle(cycle_graph(3)), 1.0, 1.0, [], [1], t_star=0)

    @pytest.mark.parametrize("budgets", [[0], [2, -1]])
    def test_nonpositive_budget_rejected(self, budgets):
        with pytest.raises(ValueError, match="budgets must be positive node counts"):
            error_curve(LocalOracle(cycle_graph(3)), 1.0, 1.0, [0], budgets, t_star=0)

    @pytest.mark.parametrize(
        "t_star,thin,message",
        [(0, 0, "thinning must be at least 1"), (-4, 10, "burn-in must be nonnegative")],
    )
    def test_schedule_refused_like_walk_config(self, t_star, thin, message):
        oracle = LocalOracle(random_connected_graph(60, seed=2, extra_edges=40))
        with pytest.raises(ValueError, match=message):
            WalkConfig(t_star=t_star, r=1, thin=thin)
        with pytest.raises(ValueError, match=message):
            error_curve(oracle, 1.0, 1.0, [1], [10, 60], t_star=t_star, thin=thin)


# Bipartite components: every step changes side, so an even thin samples one side.
BIPARTITE = {
    "star": (star_graph(6), (1, 5)),
    "cycle8+pendants": (
        build_graph([(i, (i + 1) % 8) for i in range(8)] + [(0, 8), (8, 9), (0, 10)], 11),
        (5, 6),
    ),
    "pa-tree": (model_graph("pa", 200, 1, {"edges_per_node": 1})[0], None),
}


class TestWalkedComponent:
    @pytest.mark.parametrize("name", list(BIPARTITE))
    def test_even_thin_on_a_bipartite_component_is_refused(self, name):
        g, sides = BIPARTITE[name]
        with pytest.raises(BipartiteGraphError) as info:
            _walked_component(g, 10)
        side_a, side_b = np.bincount(info.value.coloring)
        assert sides is None or (side_a, side_b) == sides
        message = str(info.value)
        assert f"size {side_a} and {side_b}" in message
        assert "thin=10" in message and "an odd thin converges" in message

    @pytest.mark.parametrize("name", list(BIPARTITE))
    def test_odd_thin_walks_the_largest_component(self, name):
        g = BIPARTITE[name][0]
        component, mapping = _walked_component(g, 9)
        want, want_mapping = largest_component(g)
        assert component.identical(want) and mapping.tolist() == want_mapping.tolist()

    def test_odd_thin_converges_on_the_star(self):
        # samples alternate center (degree 5) and leaf (1): the mean is m2/m1 = 3
        component, _ = _walked_component(BIPARTITE["star"][0], 9)
        report = random_walk_estimate(LocalOracle(component), WalkConfig(18, 1000, thin=9))
        assert report.estimate == 3.0

    def test_even_thin_off_a_bipartite_component_is_allowed(self):
        # a triangle plus a separate edge: the walked component is the triangle
        g = build_graph([(0, 1), (1, 2), (2, 0), (3, 4)], 5)
        component, mapping = _walked_component(g, 10)
        assert component.identical(largest_component(g)[0])
        assert mapping.tolist() == [0, 1, 2, -1, -1]


class _CheckedOracle(LocalOracle):
    """A LocalOracle subclass, so walks take the per-query path; it logs
    every query in order."""

    def __init__(self, g):
        super().__init__(g)
        self.log = []

    def degree(self, v):
        self.log.append(("DEG", v))
        return super().degree(v)

    def neighbor(self, v, k):
        self.log.append(("NBR", v, k))
        return super().neighbor(v, k)


@st.composite
def _walk_graphs(draw):
    """Small graphs that may be disconnected and hold isolated nodes."""
    n = draw(st.integers(2, 14))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=30))
    return build_graph([(0, 1)] + edges, n)


_TRIANGLE_AND_ISOLATED = build_graph([(0, 1), (1, 2), (2, 0)], 4)

_configs = st.builds(
    WalkConfig,
    t_star=st.integers(0, 25),
    r=st.integers(1, 25),
    thin=st.integers(1, 6),
    seed=st.integers(0, 2**64),
)


def _same_points(got, want):
    """CurvePoint lists equal field by field, with NaN equal to NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
            assert x == y or (math.isnan(x) and math.isnan(y)), (a, b)


def _outcome(fn):
    try:
        return fn(), None
    except ZeroDegreeNodeError as exc:
        return None, exc.node


def _answer(fn):
    """fn(), or IndexError if it raises that."""
    try:
        return fn()
    except IndexError:
        return IndexError


def _outcome_of(fn):
    """The exception fn raises, or None."""
    try:
        fn()
    except Exception as exc:
        return exc
    return None


class TestWalkKernel:
    """The walk kernel against the per-step loops it replaced."""

    @given(g=_walk_graphs(), cfgs=st.lists(_configs, min_size=1, max_size=3),
           starts=st.lists(st.integers(0, 13), min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_reports_and_counters_match_step_loop(self, g, cfgs, starts):
        fast, slow = LocalOracle(g), LocalOracle(g)
        checked, logged = _CheckedOracle(g), _CheckedOracle(g)
        for cfg, start in zip(cfgs, starts):
            cfg = dataclasses.replace(cfg, start=start % g.n)
            want = _outcome(lambda: walk_path(step_loop_walk_estimate, slow, cfg))
            assert _outcome(lambda: walk_path(random_walk_estimate, fast, cfg)) == want
            # the per-query path: same report, the same path and the same
            # queries, in order, as many as the report counts
            checked.log.clear()
            logged.log.clear()
            assert _outcome(lambda: walk_path(random_walk_estimate, checked, cfg)) == want
            _outcome(lambda: step_loop_walk_estimate(logged, cfg))
            assert checked.log == logged.log
            walked, _ = want
            if walked is not None:
                report, nodes = walked
                assert len(checked.log) == report.total_queries
                assert len(nodes) == report.total_steps + 1

    @given(g=_walk_graphs(), seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
           budgets=st.lists(st.integers(1, 17), min_size=1, max_size=5),
           t_star=st.integers(0, 12), thin=st.integers(1, 5), start=st.integers(0, 13),
           max_steps=st.one_of(st.none(), st.integers(0, 150)))
    @settings(max_examples=200, deadline=None)
    # a triangle plus an isolated node: no step cap, a budget met before any
    # step and a repeated one, and a repeated budget past the cap
    @example(g=_TRIANGLE_AND_ISOLATED, seeds=[0, 7], budgets=[3], t_star=0, thin=1, start=0,
             max_steps=0)
    @example(g=_TRIANGLE_AND_ISOLATED, seeds=[0, 7], budgets=[1, 1, 3], t_star=0, thin=1,
             start=0, max_steps=None)
    @example(g=_TRIANGLE_AND_ISOLATED, seeds=[0, 7], budgets=[2, 9, 9], t_star=1, thin=2,
             start=0, max_steps=5)
    def test_error_curve_matches_step_loop(self, g, seeds, budgets, t_star, thin, start,
                                           max_steps):
        start %= g.n
        if max_steps is None and max(budgets) > g.n:
            max_steps = 2000  # the default cap of 1000*n steps is slow in the step loop
        oracle = LocalOracle(g)
        kwargs = dict(t_star=t_star, thin=thin, start=start, max_steps=max_steps)
        (got, got_stuck) = _outcome(
            lambda: error_curve(oracle, 2.0, 3.0, seeds, budgets, **kwargs))
        (want, want_stuck) = _outcome(
            lambda: step_loop_error_curve(lambda: oracle, 2.0, 3.0, seeds, budgets, **kwargs))
        assert got_stuck == want_stuck
        if want is not None:
            _same_points(got, want)
            # the output order: seed by seed, each block in ascending budget
            width = len(budgets)
            assert len(got) == len(seeds) * width
            for i, seed in enumerate(seeds):
                block = got[i * width:(i + 1) * width]
                assert [p.seed for p in block] == [seed] * width
                assert [p.budget for p in block] == sorted(budgets)
        # the per-query path: the same points and the same queries, in order
        checked, logged = _CheckedOracle(g), _CheckedOracle(g)
        (queried, queried_stuck) = _outcome(
            lambda: error_curve(checked, 2.0, 3.0, seeds, budgets, **kwargs))
        _outcome(lambda: step_loop_error_curve(lambda: logged, 2.0, 3.0, seeds, budgets, **kwargs))
        assert queried_stuck == want_stuck
        assert checked.log == logged.log
        if want is not None:
            _same_points(queried, want)

    @pytest.mark.parametrize(
        "cfg",
        [
            WalkConfig(t_star=0, r=1, thin=1, seed=4),
            WalkConfig(t_star=0, r=200, thin=1, seed=5),
            WalkConfig(t_star=37, r=1, thin=9, seed=6),
            WalkConfig(t_star=3, r=50, thin=7, seed=7),
        ],
    )
    def test_corner_configs_on_a_chung_lu_core(self, cfg):
        ed = uniform_expected_degrees(300, 2.0, 9.0, seed=1)
        g, _ = largest_component(chung_lu_sample_fast(ed, 2))
        oracle = LocalOracle(g)
        assert walk_path(random_walk_estimate, oracle, cfg) == walk_path(
            step_loop_walk_estimate, oracle, cfg)
        budgets = [1, 2, g.n // 2, g.n, g.n + 5]
        for max_steps in (0, 1, 400):
            _same_points(
                error_curve(oracle, 2.0, 3.0, [1, 2], budgets, cfg.t_star,
                            cfg.thin, max_steps=max_steps),
                step_loop_error_curve(lambda: oracle, 2.0, 3.0, [1, 2], budgets,
                                      cfg.t_star, cfg.thin, max_steps=max_steps),
            )

    @pytest.mark.parametrize("start", [-1, -5, 5, 6, 10**9])
    def test_out_of_range_start_raises_index_error(self, start):
        oracle = LocalOracle(cycle_graph(5))
        with pytest.raises(IndexError, match=f"node {start} out of range"):
            random_walk_estimate(oracle, WalkConfig(t_star=3, r=2, start=start))
        with pytest.raises(IndexError):
            error_curve(oracle, 2.0, 2.0, [1], [3], t_star=0, start=start)

    def test_isolated_start_charges_like_the_step_loop(self):
        g = build_graph([(1, 2)], 4)  # nodes 0 and 3 isolated
        checked = _CheckedOracle(g)
        for oracle in (LocalOracle(g), checked):
            for start in (0, 3):
                cfg = WalkConfig(t_star=2, r=3, start=start)
                with pytest.raises(ZeroDegreeNodeError, match=f"node {start}"):
                    random_walk_estimate(oracle, cfg)
                with pytest.raises(ZeroDegreeNodeError, match=f"node {start}"):
                    step_loop_walk_estimate(oracle, cfg)
            with pytest.raises(ZeroDegreeNodeError, match="node 3"):
                error_curve(oracle, 1.0, 1.0, [1], [2], t_star=0, start=3)
        # the per-query path asks only the dead end's degree, as the step loop does
        assert checked.log == [("DEG", 0)] * 2 + [("DEG", 3)] * 3

    def test_draw_is_randrange_over_one_stream(self):
        """Each step's neighbor index is Random(seed).randrange(degree)."""
        degrees = list(range(1, 4097)) + [
            2**k + j for k in range(1, 63) for j in (-1, 0, 1)
        ]

        class Scripted(GraphOracle):
            """Node 0 with the scripted degree sequence; records each draw."""

            def __init__(self):
                self.draws = []

            def node_count(self):
                return 1

            def degree(self, v):
                return degrees[len(self.draws)]

            def neighbor(self, v, k):
                self.draws.append(k)
                return 0

        for seed in (0, 1, 2**40 + 3):
            oracle = Scripted()
            random_walk_estimate(oracle, WalkConfig(t_star=len(degrees) - 1, r=1, seed=seed))
            rng = random.Random(seed)
            assert oracle.draws == [rng.randrange(d) for d in degrees]

    @pytest.mark.parametrize("degree", [-1, -2**70])
    def test_negative_degree_raises_value_error(self, degree):
        oracle = _Foreign(n=4, degree=degree)
        walks = [
            lambda: random_walk_estimate(oracle, WalkConfig(t_star=3, r=2, start=2)),
            lambda: error_curve(oracle, 2.0, 2.0, [1], [3], t_star=0, start=2),
        ]
        for walk in walks:
            # in a thread, so that a draw that never ends fails the test
            errors = []
            worker = threading.Thread(target=lambda: errors.append(_outcome_of(walk)), daemon=True)
            worker.start()
            worker.join(timeout=10)
            assert len(errors) == 1, "the walk did not end"
            assert isinstance(errors[0], ValueError)
            assert f"degree {degree} for node 2" in str(errors[0])

    @pytest.mark.parametrize("n", [4, 2**62])
    def test_foreign_ids_count_like_the_step_loop(self, n):
        """Ids outside [0, n), negative ones too, and a node count far above
        what could be allocated are tallied as the set-based step loop did."""
        for seed in range(5):
            cfg = WalkConfig(t_star=7, r=30, thin=2, seed=seed, start=1)
            assert walk_path(random_walk_estimate, _Foreign(n), cfg) == (
                walk_path(step_loop_walk_estimate, _Foreign(n), cfg))
        budgets = [1, 3, 6, 9, 11, 12]
        oracle = _Foreign(n)
        _same_points(
            error_curve(oracle, 2.0, 3.0, [0, 1, 2], budgets, 3, 2, max_steps=300),
            step_loop_error_curve(lambda: oracle, 2.0, 3.0, [0, 1, 2], budgets, 3, 2,
                                  max_steps=300),
        )


class _Foreign(GraphOracle):
    """An oracle that reports n nodes but answers node ids from -3 to 7, each
    of degree ``degree``."""

    def __init__(self, n, degree=3):
        self.n, self.d = n, degree

    def node_count(self):
        return self.n

    def degree(self, v):
        return self.d

    def neighbor(self, v, k):
        return (7 * v + k) % 11 - 3

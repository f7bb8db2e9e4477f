import collections
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from epithresh import sir
from epithresh.generators import (chung_lu_sample_fast, power_law_expected_degrees,
                                  uniform_expected_degrees)
from epithresh.graph import build_graph, largest_component
from epithresh.sir import SirParams, sir_simulate, threshold_sweep
from epithresh.spectral import spectral_radius

from conftest import path_graph, random_connected_graph, star_graph
from oracles import recount_sir_simulate


class TestSirSimulate:
    def test_no_transmission(self):
        g = random_connected_graph(50, seed=1, extra_edges=20)
        traj = sir_simulate(g, SirParams(beta=0.0, mu=0.3, initial_infected=(4, 7), seed=2))
        assert traj.final_size == 2
        assert traj.i[-1] == 0

    def test_deterministic_path_dynamics(self):
        # beta = 1, mu = 1, infect the middle of a 3-path: both ends catch it
        # at step 1 while the middle recovers; everyone recovered by step 2.
        traj = sir_simulate(
            path_graph(3), SirParams(beta=1.0, mu=1.0, initial_infected=(1,), seed=0)
        )
        assert traj.steps == 2
        assert traj.final_size == 3
        assert traj.i.tolist() == [1, 2, 0]
        assert traj.r.tolist() == [0, 1, 3]

    def test_full_infection_at_tiny_recovery(self):
        g = random_connected_graph(100, seed=3, extra_edges=50)
        traj = sir_simulate(
            g, SirParams(beta=1.0, mu=1e-9, initial_infected=(0,), seed=1)
        )
        assert traj.final_size == g.n

    def test_conservation_every_step(self):
        g = random_connected_graph(80, seed=5, extra_edges=40)
        for seed in range(5):
            traj = sir_simulate(
                g, SirParams(beta=0.2, mu=0.3, initial_infected=(0,), seed=seed)
            )
            assert np.all(traj.s + traj.i + traj.r == g.n)
            assert np.all(np.diff(traj.s) <= 0)
            assert np.all(np.diff(traj.r) >= 0)

    def test_determinism(self):
        g = random_connected_graph(60, seed=6, extra_edges=30)
        params = SirParams(beta=0.15, mu=0.25, initial_infected=(3,), seed=9)
        a = sir_simulate(g, params)
        b = sir_simulate(g, params)
        assert np.array_equal(a.i, b.i) and a.final_size == b.final_size

    def test_max_steps_cutoff(self):
        g = random_connected_graph(60, seed=7, extra_edges=30)
        traj = sir_simulate(
            g, SirParams(beta=0.9, mu=0.01, initial_infected=(0,), max_steps=2, seed=0)
        )
        assert traj.steps <= 2
        # final size still counts the infected at cutoff
        assert traj.final_size == int(traj.i[-1] + traj.r[-1])

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            sir_simulate(g, SirParams(beta=0.5, mu=0.5, initial_infected=(9,), seed=0))
        with pytest.raises(ValueError):
            SirParams(beta=1.5, mu=0.5, initial_infected=(0,))
        with pytest.raises(ValueError):
            SirParams(beta=0.5, mu=0.0, initial_infected=(0,))
        with pytest.raises(ValueError):
            SirParams(beta=0.5, mu=0.5, initial_infected=())

    def test_negative_step_cap_is_refused(self):
        with pytest.raises(ValueError, match="max_steps must be nonnegative"):
            SirParams(beta=0.5, mu=0.5, initial_infected=(0,), max_steps=-1)
        for cap in (0, None):
            SirParams(beta=0.5, mu=0.5, initial_infected=(0,), max_steps=cap)


@st.composite
def sir_cases(draw):
    """A graph on 1..60 nodes (nodes no drawn edge touches stay isolated),
    several possibly repeated initial infected, and parameters that include
    beta 0 and 1, mu 1, and step caps of 0 and a few steps."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=180))
    g = build_graph(sorted({(min(e), max(e)) for e in edges}), n)
    params = SirParams(
        beta=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        mu=draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True)),
        initial_infected=tuple(draw(st.lists(node, min_size=1, max_size=6))),
        max_steps=draw(st.none() | st.integers(0, 4)),
        seed=draw(st.integers(0, 2**32)),
    )
    return g, params


class TestIncrementalCounts:
    """The step that carries the infected-neighbor counts forward against the
    step that recounted them (tests/oracles.py): same draws, same output."""

    @given(case=sir_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_recounting_step(self, case):
        g, params = case
        got, want = sir_simulate(g, params), recount_sir_simulate(g, params)
        for name in ("s", "i", "r"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert type(got.final_size) is int and got.final_size == want.final_size
        assert got.steps == want.steps

    def test_matches_recounting_step_on_a_chung_lu_graph(self):
        ed = uniform_expected_degrees(3000, 5.0, 15.0, seed=2)
        g = chung_lu_sample_fast(ed, 3)
        for seed, beta in enumerate((0.02, 0.05, 0.1, 0.3)):
            params = SirParams(beta=beta, mu=0.2, initial_infected=(seed, 7, 7), seed=seed)
            got, want = sir_simulate(g, params), recount_sir_simulate(g, params)
            for name in ("s", "i", "r"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.final_size == want.final_size and got.steps == want.steps


class TestThresholdSweep:
    def test_contrast_across_threshold(self):
        ed = uniform_expected_degrees(2000, 5.0, 15.0, seed=1)
        g, _ = largest_component(chung_lu_sample_fast(ed, 2))
        lam = spectral_radius(g).value
        rows = threshold_sweep(g, [0.25, 4.0], reps=20, seed=3, lam=lam)
        sub, sup = rows[0], rows[1]
        assert sub.mean_final_fraction < 0.02
        assert sup.mean_final_fraction > 10 * sub.mean_final_fraction

    def test_rows_well_formed(self):
        g = random_connected_graph(100, seed=2, extra_edges=80)
        rows = threshold_sweep(g, [0.5, 1.0], reps=3, seed=1)
        assert [row.ratio for row in rows] == [0.5, 1.0]
        assert all(0.0 <= row.mean_final_fraction <= 1.0 for row in rows)
        assert all(row.reps == 3 for row in rows)
        assert all(row.beta <= 1.0 for row in rows)

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            threshold_sweep(g, [], reps=3, seed=0)
        with pytest.raises(ValueError):
            threshold_sweep(g, [1.0], reps=0, seed=0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -0.5])
    def test_bad_ratio_refused_before_any_solve(self, monkeypatch, ratio):
        # min(1, nan * mu / lam) is 1.0, so a NaN ratio would sweep at beta = 1
        def unreachable(g, *args, **kwargs):
            raise AssertionError("spectral_radius called before the ratio check")

        monkeypatch.setattr(sir, "spectral_radius", unreachable)
        with pytest.raises(ValueError, match="ratios must be finite and nonnegative"):
            threshold_sweep(path_graph(3), [1.0, ratio], reps=3, seed=0)

    def test_rows_do_not_depend_on_the_cpus_and_no_thread_starts(self, monkeypatch):
        g = random_connected_graph(150, seed=4, extra_edges=120)

        def no_thread(self):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        rows = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            rows.append(threshold_sweep(g, [0.5, 2.0], reps=8, seed=5))
        assert rows[0] == rows[1]

    def test_beta_at_its_ends_is_exact_and_warns_nothing(self):
        # ratio 0 gives beta 0 (no edge opens); a ratio of lambda / mu or more
        # clamps beta to 1 (every edge opens), where log(1 - beta) is -inf
        g = random_connected_graph(100, seed=2, extra_edges=80)
        lam = spectral_radius(g).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero, full = threshold_sweep(g, [0.0, 2 * lam / 0.2], reps=5, seed=1, lam=lam)
        assert (zero.beta, zero.mean_final_fraction, zero.sd_final_fraction) == (0.0, 1 / g.n, 0.0)
        assert (full.beta, full.mean_final_fraction, full.sd_final_fraction) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_lam_that_is_not_finite_and_positive_is_refused(self, lam):
        # min(1, ratio * mu / nan) is 1.0, so a NaN lam would sweep at beta = 1
        with pytest.raises(ValueError, match=f"lam must be finite and positive, got {lam}"):
            threshold_sweep(path_graph(3), [1.0], reps=3, seed=0, lam=lam)

    def test_mu_outside_its_range_is_refused(self):
        for mu in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="mu must lie in"):
                threshold_sweep(path_graph(3), [1.0], reps=3, seed=0, mu=mu, lam=1.0)


# Family-wise 1%, Bonferroni-corrected over the law gate's 2 graphs x 4 ratios.
LAW_ALPHA = 0.01 / 8
LAW_RUNS = 600
LAW_MU = 0.2


def _law_graph(kind: str):
    if kind == "uniform":
        ed, seed = uniform_expected_degrees(1000, 5.0, 15.0, seed=41), 42
    else:
        ed, seed = power_law_expected_degrees(1000, 2.5, 2.0, seed=43), 44
    return largest_component(chung_lu_sample_fast(ed, seed))[0]


def _final_sizes(g, beta: float, seed: list[int], percolation: bool) -> np.ndarray:
    """LAW_RUNS final sizes from uniformly random single starts."""
    rng = np.random.default_rng(seed)
    sizes = []
    for _ in range(LAW_RUNS):
        start, rep_seed = int(rng.integers(g.n)), int(rng.integers(2**63 - 1))
        if percolation:
            sizes.append(sir._percolation_final_size(
                g, beta, LAW_MU, start, np.random.default_rng(rep_seed)))
        else:
            params = SirParams(beta=beta, mu=LAW_MU, initial_infected=(start,), seed=rep_seed)
            sizes.append(sir_simulate(g, params).final_size)
    return np.array(sizes)


class TestPercolationFinalSizes:
    """The sweep's engine, one percolation BFS per run, against the step-by-step
    simulation it replaces."""

    @pytest.mark.parametrize("kind", ["uniform", "power-law"])
    def test_final_sizes_have_the_simulation_law(self, kind):
        # two-sample KS per ratio, spanning 1 / lambda(A); the bound was fixed
        # before the seeds were run
        g = _law_graph(kind)
        lam = spectral_radius(g).value
        for k, ratio in enumerate((1.0, 1.2, 2.0, 4.0)):
            beta = ratio * LAW_MU / lam
            sim = _final_sizes(g, beta, [51, k, 0], percolation=False)
            bfs = _final_sizes(g, beta, [51, k, 1], percolation=True)
            test = sps.ks_2samp(sim, bfs)
            assert test.pvalue > LAW_ALPHA, (kind, ratio, test.statistic, test.pvalue)

    def test_a_run_holds_at_most_the_simulation_plus_one_slice(self):
        # a supercritical run on a graph whose BFS levels exceed one slice
        g = chung_lu_sample_fast(uniform_expected_degrees(20_000, 20.0, 80.0, seed=71), 72)
        beta = 4.0 * LAW_MU / spectral_radius(g).value
        start = int(np.argmax(g.degrees))

        def traced(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        params = SirParams(beta=beta, mu=LAW_MU, initial_infected=(start,), seed=3)
        sim_size, sim_peak = traced(lambda: sir_simulate(g, params).final_size)
        bfs_size, bfs_peak = traced(lambda: sir._percolation_final_size(
            g, beta, LAW_MU, start, np.random.default_rng(3)))
        assert min(sim_size, bfs_size) > g.n // 4  # both took off
        # a slice holds at most three 8-byte arrays and one mask at once
        slice_bytes = (3 * 8 + 1) * sir._BFS_SLICE
        assert bfs_peak <= sim_peak + slice_bytes, (bfs_peak, sim_peak)


# The row sampler's exact-law gate: family-wise 1%, Bonferroni over 2 cases;
# adjacent bins are pooled from the low end until each expects at least 5 runs.
STAR_ALPHA = 0.01 / 2
STAR_RUNS = 4000
STAR_DEGREE = 40


def _star_open_count_pmf(beta: float, mu: float) -> np.ndarray:
    """P(k of the hub's STAR_DEGREE edges open): sum over tau ~ Geometric(mu)
    of mu (1 - mu)^(tau - 1) Binomial(STAR_DEGREE, 1 - (1 - beta)^tau)."""
    taus = np.arange(1, 400)
    weights = mu * (1.0 - mu) ** (taus - 1)
    p_open = 1.0 - (1.0 - beta) ** taus
    counts = np.arange(STAR_DEGREE + 1)
    return weights @ sps.binom.pmf(counts[None, :], STAR_DEGREE, p_open[:, None])


def _pooled(observed: np.ndarray, expected: np.ndarray):
    obs, exp, o, e = [], [], 0, 0.0
    for k in range(observed.size):
        o, e = o + observed[k], e + expected[k]
        if e >= 5.0:
            obs.append(o)
            exp.append(e)
            o, e = 0, 0.0
    obs[-1] += o
    exp[-1] += e
    return np.array(obs), np.array(exp)


class TestRowSampler:
    """The percolation BFS's draw of a row's open edges, sparse and dense."""

    @pytest.mark.parametrize("beta, mu", [
        (0.3, 0.2),  # rate -log1p(-0.3) * tau >= 1 exactly when tau >= 3: both kinds of row
        (0.5, 1.0),  # tau = 1 and rate 0.69: every row sparse
    ])
    def test_hub_of_a_star_opens_its_exact_law(self, beta, mu):
        # from the hub of K_{1,d} the final size is 1 + the hub's open-edge count
        star = star_graph(STAR_DEGREE + 1)
        rng = np.random.default_rng(61)
        opened = [sir._percolation_final_size(star, beta, mu, 0, rng) - 1
                  for _ in range(STAR_RUNS)]
        observed = np.bincount(opened, minlength=STAR_DEGREE + 1)
        pmf = _star_open_count_pmf(beta, mu)
        assert abs(pmf.sum() - 1.0) < 1e-12
        obs, exp = _pooled(observed, STAR_RUNS * pmf / pmf.sum())
        test = sps.chisquare(obs, exp)
        assert test.pvalue > STAR_ALPHA, (beta, mu, test.statistic, test.pvalue)

    def test_a_sparse_row_is_never_gathered(self, monkeypatch):
        # mu = 1 gives tau = 1, so every row has rate -log1p(-0.5) < 1
        def no_gather(g, frontier):
            raise AssertionError("a sparse row was gathered whole")

        g = random_connected_graph(200, seed=6, extra_edges=400)
        monkeypatch.setattr(sir, "_frontier_neighbors", no_gather)
        rng = np.random.default_rng(8)
        sizes = [sir._percolation_final_size(g, 0.5, 1.0, start, rng) for start in range(20)]
        assert max(sizes) > 1

    def test_a_dense_row_draws_one_uniform_per_entry_and_no_hits(self, monkeypatch):
        # mu = 1 gives tau = 1, so every row has rate -log1p(-0.9) = 2.3 >= 1;
        # Poisson hits there would cost about 2.3 entry draws per entry
        class Recorder:
            """A generator that counts what each method draws, and the Poisson hits."""

            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), collections.Counter()

            def __getattr__(self, name):
                def recorded(*args):
                    out = getattr(self.rng, name)(*args)
                    self.draws[name] += np.size(out)
                    if name == "poisson":
                        self.draws["hits"] += int(np.sum(out))
                    return out

                return recorded

        gathered = 0
        gather = sir._frontier_neighbors

        def counting_gather(g, frontier):
            nonlocal gathered
            nbrs = gather(g, frontier)
            gathered += nbrs.size
            return nbrs

        g = random_connected_graph(200, seed=6, extra_edges=400)
        monkeypatch.setattr(sir, "_frontier_neighbors", counting_gather)
        rng = Recorder(9)
        sizes = [sir._percolation_final_size(g, 0.9, 1.0, start, rng) for start in range(20)]
        assert max(sizes) > 1
        assert rng.draws["hits"] == 0
        assert rng.draws["integers"] == 0
        assert 0 < rng.draws["random"] == gathered

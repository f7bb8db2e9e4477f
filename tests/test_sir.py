import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epithresh import sir
from epithresh.generators import chung_lu_sample_fast, uniform_expected_degrees
from epithresh.graph import build_graph, largest_component
from epithresh.sir import SirParams, sir_simulate, threshold_sweep, worker_count
from epithresh.spectral import spectral_radius

from conftest import path_graph, random_connected_graph
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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        g = random_connected_graph(150, seed=4, extra_edges=120)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert worker_count(8) == 3
        threaded = threshold_sweep(g, [0.5, 2.0], reps=8, seed=5)
        # one worker runs the jobs in the calling thread, with no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count(8) == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep started a thread pool")

        monkeypatch.setattr(sir, "ThreadPoolExecutor", no_pool)
        assert threshold_sweep(g, [0.5, 2.0], reps=8, seed=5) == threaded

    def test_worker_count_is_cpus_capped_by_reps(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert [worker_count(reps) for reps in (1, 3, 4, 50)] == [1, 3, 4, 4]
        # without sched_getaffinity, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert worker_count(50) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(50) == 1

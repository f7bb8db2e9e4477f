import math

import numpy as np
import pytest

from epithresh import spectral
from epithresh.generators import chung_lu_sample_fast, power_law_expected_degrees
from epithresh.graph import build_graph, degree_stats, largest_component
from epithresh.spectral import (
    BipartiteGraphError,
    DisconnectedGraphError,
    adjacency_matvec,
    spectral_gap,
    spectral_radius,
    stationary_distribution,
    tv_mixing_time,
)

from conftest import cycle_graph, path_graph, random_graph
from oracles import dense_adjacency, exact_walk_distribution, jacobi_spectral_radius


def dense_normalized_eigenvalues(g) -> np.ndarray:
    """Ascending eigenvalues of D^-1/2 A D^-1/2 by dense numpy.linalg.eigvalsh."""
    inv_sqrt = 1.0 / np.sqrt(dense_adjacency(g).sum(axis=1))
    return np.linalg.eigvalsh(inv_sqrt[:, None] * dense_adjacency(g) * inv_sqrt[None, :])


def complete_bipartite(a: int, b: int):
    return build_graph([(i, a + j) for i in range(a) for j in range(b)], a + b)


class TestSpectralRadius:
    def test_complete_graph(self, k4):
        assert spectral_radius(k4).value == pytest.approx(3.0, abs=1e-8)

    def test_star(self, star5):
        assert spectral_radius(star5).value == pytest.approx(2.0, abs=1e-8)

    def test_path(self, path3):
        assert spectral_radius(path3).value == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_cycle(self):
        # C5 spectrum is 2 cos(2 pi k / 5); top value 2
        assert spectral_radius(cycle_graph(5)).value == pytest.approx(2.0, abs=1e-8)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(8, 41))
            g = random_graph(n, 0.2, int(rng.integers(1 << 30)))
            got = spectral_radius(g, seed=3).value
            want = jacobi_spectral_radius(g)
            assert got == pytest.approx(want, abs=1e-6)

    def test_bounds_invariant(self):
        for seed in range(8):
            g = random_graph(35, 0.15, seed)
            s = degree_stats(g)
            lam = spectral_radius(g).value
            assert s.m1 / s.n - 1e-9 <= lam <= s.d_max + 1e-9

    def test_disconnected_takes_global_max(self):
        # K4 plus a separate edge: radius is K4's 3
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)], 6)
        assert spectral_radius(g).value == pytest.approx(3.0, abs=1e-8)

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            spectral_radius(build_graph([], 3))

    def test_single_edge(self):
        assert spectral_radius(build_graph([(0, 1)], 2)).value == pytest.approx(
            1.0, abs=1e-10
        )

    def test_isolated_nodes_do_not_disturb(self):
        # K3 plus two isolated nodes: radius still 2
        g = build_graph([(0, 1), (1, 2), (0, 2)], 5)
        assert spectral_radius(g).value == pytest.approx(2.0, abs=1e-8)

    def test_non_convergence_flagged(self):
        g = random_graph(30, 0.2, seed=4)
        result = spectral_radius(g, tol=0.0, max_iters=5)
        assert not result.converged
        assert result.iterations == 5

    def test_matvec_matches_dense(self):
        g = build_graph([(0, 1), (2, 3), (3, 4)], 6)  # includes isolated node 5
        x = np.arange(6, dtype=float) + 1
        assert np.allclose(adjacency_matvec(g, x), dense_adjacency(g) @ x)


class TestSpectralGap:
    def test_complete_graph(self, k4):
        gap = spectral_gap(k4)
        assert gap.lambda2 == pytest.approx(-1 / 3, abs=1e-6)
        assert gap.gap == pytest.approx(4 / 3, abs=1e-6)

    def test_cycle4(self, cycle4):
        gap = spectral_gap(cycle4)
        assert gap.lambda2 == pytest.approx(0.0, abs=1e-6)
        assert gap.gap == pytest.approx(1.0, abs=1e-6)

    def test_star(self, star5):
        gap = spectral_gap(star5)
        assert gap.gap == pytest.approx(1.0, abs=1e-6)

    def test_single_edge(self):
        gap = spectral_gap(build_graph([(0, 1)], 2))
        assert gap.lambda2 == pytest.approx(-1.0, abs=1e-12)
        assert gap.gap == pytest.approx(2.0, abs=1e-12)

    def test_range_invariant(self):
        for seed in range(6):
            g = random_graph(30, 0.3, seed)
            if g.degrees.min() == 0:
                continue
            gap = spectral_gap(g)
            assert -1.0 <= gap.lambda2 <= 1.0
            assert 0.0 <= gap.gap <= 2.0

    def test_disconnected_errors(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        with pytest.raises(DisconnectedGraphError):
            spectral_gap(g)


class TestLanczosCertificate:
    @pytest.mark.filterwarnings("ignore:chung_lu_sample_fast")
    def test_power_law_core_gap_near_one(self):
        # lambda2 ~ 0.956 with lambda3 ~ 0.951: a stopping rule on how far the
        # estimate moved declares convergence here while ~4e-7 off
        ed = power_law_expected_degrees(1000, 2.5, 1.0, seed=2)
        g = chung_lu_sample_fast(ed, seed=102)
        core, _ = largest_component(g)
        want = 1.0 - dense_normalized_eigenvalues(core)[-2]
        gap = spectral_gap(core)
        assert gap.converged
        assert gap.residual < 1e-10
        assert abs(gap.gap - want) <= 1e-9 * want

    @pytest.mark.parametrize(
        "g", [cycle_graph(10), cycle_graph(100), complete_bipartite(3, 4)],
        ids=["C10", "C100", "K3,4"],
    )
    def test_bipartite_needs_no_shift(self, g):
        radius = spectral_radius(g)
        gap = spectral_gap(g)
        assert radius.converged and gap.converged
        assert radius.value == pytest.approx(np.linalg.eigvalsh(dense_adjacency(g))[-1], abs=1e-9)
        assert gap.lambda2 == pytest.approx(dense_normalized_eigenvalues(g)[-2], abs=1e-9)

    def test_residual_bounds_distance_to_an_eigenvalue(self):
        for seed in range(5):
            g = random_graph(40, 0.15, seed)
            eigs = np.linalg.eigvalsh(dense_adjacency(g))
            for max_iters in (3, 6, 12):
                r = spectral_radius(g, max_iters=max_iters, seed=seed)
                assert r.iterations <= max_iters
                nearest = np.abs(eigs - r.value).min()
                assert nearest <= r.residual * max(1.0, abs(r.value)) + 1e-12

    def test_restart_past_the_tridiagonal_cap(self):
        # P_700 needs more Lanczos steps than one cycle keeps
        n = 700
        r = spectral_radius(path_graph(n))
        assert r.converged
        assert r.iterations > spectral._KRYLOV_CAP
        assert r.value == pytest.approx(2 * math.cos(math.pi / (n + 1)), abs=1e-9)

    def test_max_iters_must_be_positive(self, k4):
        with pytest.raises(ValueError, match="max_iters"):
            spectral_radius(k4, max_iters=0)


class TestStationaryDistribution:
    def test_complete(self, k4):
        assert np.allclose(stationary_distribution(k4), 0.25)

    def test_star(self, star5):
        pi = stationary_distribution(star5)
        assert pi[0] == pytest.approx(0.5)
        assert np.allclose(pi[1:], 0.125)

    def test_sums_to_one(self):
        for seed in range(5):
            pi = stationary_distribution(random_graph(40, 0.1, seed))
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_invariance_under_transition(self):
        for seed in range(5):
            g = random_graph(40, 0.2, seed)
            sub = g if g.degrees.min() > 0 else None
            if sub is None:
                from epithresh.graph import largest_component

                sub, _ = largest_component(g)
            pi = stationary_distribution(sub)
            pi_next = adjacency_matvec(sub, pi / sub.degrees)
            assert np.abs(pi_next - pi).sum() <= 1e-12

    def test_edgeless_errors(self):
        with pytest.raises(ValueError):
            stationary_distribution(build_graph([], 2))


class TestMixingTime:
    def test_complete_graph_mixes_fast(self, k4):
        t = tv_mixing_time(k4, start=0, threshold=1e-6)
        assert 0 < t <= 30
        # cross-check the returned t against dense matrix iteration
        pi = stationary_distribution(k4)
        assert np.abs(exact_walk_distribution(k4, 0, t) - pi).sum() <= 1e-6
        assert np.abs(exact_walk_distribution(k4, 0, t - 1) - pi).sum() > 1e-6

    def test_bipartite_error_names_coloring(self, cycle4):
        with pytest.raises(BipartiteGraphError, match="size 2 and 2"):
            tv_mixing_time(cycle4, start=0, threshold=1e-6)

    def test_trivial_threshold(self, k4):
        assert tv_mixing_time(k4, start=0, threshold=2.0) == 0

    def test_odd_cycle_allowed(self):
        t = tv_mixing_time(cycle_graph(5), start=0, threshold=0.1)
        assert t > 0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="5000"):
            tv_mixing_time(build_graph([(0, 1)], 6000), start=0, threshold=0.5)

    def test_default_threshold_is_inverse_n_squared(self, k4):
        assert tv_mixing_time(k4, start=0) == tv_mixing_time(
            k4, start=0, threshold=1 / 16
        )

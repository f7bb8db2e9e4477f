import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from epithresh import generators
from epithresh.generators import (
    chung_lu_sample_fast,
    chung_lu_sample_naive,
    count_clamped_pairs,
    expected_degrees,
    power_law_expected_degrees,
    preferential_attachment,
    uniform_expected_degrees,
)
from epithresh.graph import build_graph

from oracles import ccdf_slope, hill_tail_exponent, per_row_chung_lu_sample


def ed_of(*values):
    return expected_degrees(np.asarray(values, dtype=float))


class TestPowerLawExpectedDegrees:
    def test_validation(self):
        with pytest.raises(ValueError):
            power_law_expected_degrees(0, 2.5, 1.0, 0)
        with pytest.raises(ValueError):
            power_law_expected_degrees(10, 2.0, 1.0, 0)
        with pytest.raises(ValueError):
            power_law_expected_degrees(10, 2.5, 0.5, 0)

    def test_large_beta_concentrates_at_minimum(self):
        # beta = 50 emulates the beta -> infinity limit: the max of n draws
        # sits at d_min * n^(1/(beta-1)), within 10 percent for n = 100
        ed = power_law_expected_degrees(100, 50.0, 2.0, seed=1)
        assert ed.delta_min >= 2.0
        assert ed.delta_max <= 2.2
        big = power_law_expected_degrees(2000, 50.0, 2.0, seed=1)
        assert np.quantile(big.delta, 0.99) <= 2.2

    def test_tail_exponent_via_hill(self):
        ed = power_law_expected_degrees(10_000, 2.5, 1.0, seed=3)
        alpha = hill_tail_exponent(ed.delta)
        # CCDF slope -(beta - 1): the tail index should sit near 1.5
        assert 1.3 <= alpha <= 1.7

    def test_clamp_keeps_values_at_cap(self):
        ed = power_law_expected_degrees(50_000, 2.5, 1.0, seed=11)
        assert ed.clamped > 0
        assert ed.delta_max <= np.sqrt(ed.mu1) * (1.0 + 1e-9) or not ed.feasible

    def test_deterministic(self):
        a = power_law_expected_degrees(500, 2.5, 1.0, seed=9)
        b = power_law_expected_degrees(500, 2.5, 1.0, seed=9)
        assert np.array_equal(a.delta, b.delta)


class TestUniformExpectedDegrees:
    @pytest.mark.parametrize(
        "n, low, high, message",
        [
            (0, 1.0, 2.0, "need a positive node count, got 0"),
            (-3, 1.0, 2.0, "need a positive node count, got -3"),
            (10, 3.0, 2.0, r"need 0 < low <= high, got \[3.0, 2.0\]"),
            (10, 0.0, 2.0, r"need 0 < low <= high, got \[0.0, 2.0\]"),
        ],
    )
    def test_validation(self, n, low, high, message):
        with pytest.raises(ValueError, match=message):
            uniform_expected_degrees(n, low, high, seed=0)


class TestExpectedDegrees:
    def test_moments(self):
        ed = ed_of(1, 2, 3)
        assert ed.mu1 == 6.0
        assert ed.mu2 == 14.0
        assert ed.delta_max == 3.0 and ed.delta_min == 1.0

    def test_feasibility_flag(self):
        assert ed_of(2, 2).feasible  # 4 <= 4
        assert not ed_of(3, 1).feasible  # 9 > 4

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ed_of(1.0, 0.0)

    @pytest.mark.parametrize("delta", [np.empty(0), np.ones((2, 2))], ids=["empty", "2-d"])
    def test_nonempty_vector_required(self, delta):
        with pytest.raises(ValueError, match="must be a nonempty 1-d vector"):
            expected_degrees(delta)

    def test_clamped_pair_count(self):
        # S = 12; products: 5*4=20>12, 5*2=10, 5*1=5, 4*2=8, ... one clamped pair
        assert count_clamped_pairs(ed_of(5, 4, 2, 1)) == 1
        assert count_clamped_pairs(ed_of(2, 2, 2)) == 0


class TestChungLuNaive:
    def test_forced_edge(self):
        # delta = [2, 2]: p = 4/4 = 1, edge always present
        for seed in range(10):
            assert chung_lu_sample_naive(ed_of(2, 2), seed).m == 1

    def test_edge_frequency_matches_closed_form(self):
        # delta = [1, 1]: p = 1/2; Monte Carlo over 10^4 seeds
        ed = ed_of(1, 1)
        hits = sum(chung_lu_sample_naive(ed, seed).m for seed in range(10_000))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_tiny_weight_isolates(self):
        ed = ed_of(1e-6, 1.0, 1.0)
        isolated = sum(
            chung_lu_sample_naive(ed, seed).degrees[0] == 0 for seed in range(200)
        )
        assert isolated == 200

    def test_size_guard(self):
        ed = expected_degrees(np.ones(20_001))
        with pytest.raises(ValueError, match="guard"):
            chung_lu_sample_naive(ed, 0)

    def test_infeasible_warns(self):
        with pytest.warns(RuntimeWarning, match="exceeds S"):
            chung_lu_sample_naive(ed_of(3, 1), seed=0)
        with pytest.warns(RuntimeWarning, match="1 pair probabilities clamped"):
            chung_lu_sample_fast(ed_of(5, 4, 2, 1), seed=0)

    @given(
        delta=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=60),
        seed=st.integers(0, 2**32),
        block=st.integers(1, 2000),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_draw_like_one_call_per_row(self, delta, seed, block):
        # blocks from one pair up to several rows, and one block for all rows
        ed = expected_degrees(np.asarray(delta))
        with mock.patch.object(generators, "_NAIVE_BLOCK_PAIRS", block), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # infeasible draws warn
            assert chung_lu_sample_naive(ed, seed).identical(per_row_chung_lu_sample(ed, seed))

    def test_default_blocks_draw_like_one_call_per_row(self):
        # n = 800 spans two default blocks; criterion 11's n = 200 fits in one
        for n, seed in ((200, 101), (800, 5)):
            ed = uniform_expected_degrees(n, 1.0, 20.0, seed=seed)
            assert chung_lu_sample_naive(ed, seed).identical(per_row_chung_lu_sample(ed, seed))


class TestChungLuFast:
    def test_deterministic_edge_list(self):
        ed = uniform_expected_degrees(300, 1.0, 6.0, seed=2)
        a = chung_lu_sample_fast(ed, 5)
        b = chung_lu_sample_fast(ed, 5)
        assert a.identical(b)

    def test_mean_degree_matches_weights(self):
        # constant delta = d: node-average degree approaches d
        ed = expected_degrees(np.full(10_000, 8.0))
        g = chung_lu_sample_fast(ed, 1)
        assert g.degrees.mean() == pytest.approx(8.0, rel=0.05)

    def test_feasible_probabilities_never_exceed_one(self):
        # max possible product 6*6=36 <= S; sampler must agree with the flag
        ed = uniform_expected_degrees(200, 1.0, 6.0, seed=4)
        assert ed.feasible
        assert count_clamped_pairs(ed) == 0

    def test_marginals_match_naive_small(self):
        # per-pair frequencies over 3000 seeds on 30 nodes, 3-sigma binomial
        ed = uniform_expected_degrees(30, 1.0, 5.0, seed=8)
        reps = 3000
        counts_fast = np.zeros((30, 30))
        counts_naive = np.zeros((30, 30))
        for seed in range(reps):
            for counts, sampler in (
                (counts_fast, chung_lu_sample_fast),
                (counts_naive, chung_lu_sample_naive),
            ):
                pairs = sampler(ed, seed).edge_pairs()
                counts[pairs[:, 0], pairs[:, 1]] += 1
        iu = np.triu_indices(30, k=1)
        f, h = counts_fast[iu] / reps, counts_naive[iu] / reps
        pooled = (counts_fast[iu] + counts_naive[iu]) / (2 * reps)
        sigma = np.sqrt(np.maximum(pooled * (1 - pooled), 1e-12) * 2 / reps)
        within = np.abs(f - h) <= 3 * sigma
        assert within.mean() >= 0.97

    def test_clamped_marginals_match_closed_form(self):
        # hub-heavy weights force probability-1 pairs and 1 -> <1 transitions
        # inside the skip loop; frequencies must match min(1, wi wj / S)
        delta = np.array([9.0, 8.0, 5.0, 2.0, 1.0, 0.5, 0.5, 0.5])
        ed = expected_degrees(delta)
        assert count_clamped_pairs(ed) == 3
        reps = 8000
        n = ed.n
        counts = np.zeros((n, n))
        with pytest.warns(RuntimeWarning):
            for seed in range(reps):
                pairs = chung_lu_sample_fast(ed, seed).edge_pairs()
                counts[pairs[:, 0], pairs[:, 1]] += 1
        iu = np.triu_indices(n, k=1)
        exact = np.minimum(1.0, np.outer(delta, delta) / ed.mu1)[iu]
        freq = counts[iu] / reps
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / reps)
        assert np.all(freq[exact == 1.0] == 1.0)
        assert np.max(np.abs(freq - exact) / np.maximum(sigma, 1e-12)) <= 4.5

    def test_edge_count_distribution_matches_naive(self):
        # two-sample KS on edge counts, 500 seeds each at n = 100
        ed = uniform_expected_degrees(100, 1.0, 4.0, seed=13)
        fast = [chung_lu_sample_fast(ed, s).m for s in range(500)]
        naive = [chung_lu_sample_naive(ed, 10_000 + s).m for s in range(500)]
        result = sps.ks_2samp(fast, naive)
        assert result.pvalue > 0.01

    def test_mean_edge_mass_near_mu1(self):
        # E[m1] = mu1 - mu2/mu1 for feasible weights; 3 percent at n = 5000
        ed = uniform_expected_degrees(5000, 1.0, 3.0, seed=21)
        assert ed.feasible
        m1s = [2 * chung_lu_sample_fast(ed, s).m for s in range(200)]
        assert np.mean(m1s) == pytest.approx(ed.mu1, rel=0.03)


@pytest.mark.parametrize("sampler", [chung_lu_sample_naive, chung_lu_sample_fast])
@pytest.mark.parametrize("delta", [np.full(4, 1e-9), np.ones(1)], ids=["tiny", "n=1"])
def test_a_draw_with_no_edges_is_an_edgeless_graph(sampler, delta):
    g = sampler(expected_degrees(delta), seed=0)
    assert g.identical(build_graph(np.empty((0, 2), dtype=np.int64), len(delta)))


class TestPreferentialAttachment:
    def test_edge_count_identity(self):
        for n in (10, 100, 5000):
            g = preferential_attachment(n, 5, seed=3)
            assert g.m == 15 + 5 * (n - 6)

    def test_min_degree(self):
        g = preferential_attachment(500, 3, seed=1)
        assert int(g.degrees.min()) >= 3

    def test_degree_tail_slope(self):
        g = preferential_attachment(10_000, 5, seed=2)
        slope = ccdf_slope(g.degrees, d_low=6, d_high=60)
        assert -2.5 <= slope <= -1.5

    def test_deterministic(self):
        a = preferential_attachment(400, 4, seed=6)
        b = preferential_attachment(400, 4, seed=6)
        assert a.identical(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            preferential_attachment(5, 5, seed=0)
        with pytest.raises(ValueError):
            preferential_attachment(10, 0, seed=0)

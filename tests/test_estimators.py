import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epithresh.estimators import (
    chung_radcliffe_bound,
    chunglu_condition,
    expected_moment_ratio,
    hoeffding_m1_bound,
    relative_error,
    sample_size,
    t1_estimate,
)
from epithresh.generators import expected_degrees
from epithresh.graph import build_graph, degree_stats
from epithresh.spectral import SpectralGap, spectral_radius

from conftest import complete_graph, cycle_graph, random_graph, star_graph


def ed_of(*values):
    return expected_degrees(np.asarray(values, dtype=float))


class TestExpectedMomentRatio:
    def test_constant(self):
        assert expected_moment_ratio(ed_of(2, 2, 2, 2)) == pytest.approx(2.0)

    def test_mixed(self):
        assert expected_moment_ratio(ed_of(1, 2, 3)) == pytest.approx(14 / 6)

    def test_all_equal_is_identity(self):
        for d in (0.5, 3.0, 17.0):
            assert expected_moment_ratio(ed_of(*([d] * 5))) == pytest.approx(d)

    @given(
        scale=st.floats(min_value=0.01, max_value=100.0),
        values=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, scale, values):
        base = expected_moment_ratio(ed_of(*values))
        scaled = expected_moment_ratio(ed_of(*(scale * v for v in values)))
        assert scaled == pytest.approx(scale * base, rel=1e-9)


class TestT1Estimate:
    def test_cycle(self):
        assert t1_estimate(cycle_graph(4)).t1 == pytest.approx(2.0)

    def test_star(self):
        est = t1_estimate(star_graph(5))
        assert est.t1 == pytest.approx(20 / 8)
        assert (est.m1, est.m2) == (8, 20)

    def test_regular_equals_spectral_radius(self):
        k4 = complete_graph(4)
        assert t1_estimate(k4).t1 == pytest.approx(
            spectral_radius(k4).value, abs=1e-8
        )

    def test_at_least_mean_degree(self):
        for seed in range(10):
            g = random_graph(30, 0.2, seed)
            est = t1_estimate(g)
            assert est.t1 >= est.m1 / g.n - 1e-12

    def test_edgeless_errors(self):
        with pytest.raises(ValueError):
            t1_estimate(build_graph([], 2))


class TestRelativeError:
    def test_reported_pair_one(self):
        # 48.33 vs 43.83 differ by about 10.3 percent
        assert relative_error(48.33, 43.83) == pytest.approx(0.10266, abs=1e-4)

    def test_reported_pair_two(self):
        assert relative_error(32.8, 37.0) == pytest.approx(0.11351, abs=1e-4)

    def test_exact_match(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


class TestHoeffdingBound:
    def test_spot_value(self):
        report = hoeffding_m1_bound(ed_of(0.5, 0.5), eps=1.0)
        assert report.value == pytest.approx(2 * math.exp(-0.5), rel=1e-12)
        assert report.condition_holds

    def test_vacuous_at_zero_eps(self):
        assert hoeffding_m1_bound(ed_of(1, 1, 1), eps=0.0).value == pytest.approx(2.0)

    def test_monotone_in_scale(self):
        # denser expected degrees at fixed n drive the bound toward zero
        values = [
            hoeffding_m1_bound(ed_of(*([c] * 100)), eps=0.5).value
            for c in (1.0, 4.0, 16.0)
        ]
        assert values[0] > values[1] > values[2]
        # growing average expected degree sends the bound to zero
        scaled = [
            hoeffding_m1_bound(
                ed_of(*([3.0 * math.sqrt(n)] * n)), eps=0.5
            ).value
            for n in (50, 100, 200)
        ]
        assert scaled[0] > scaled[1] > scaled[2]
        assert scaled[2] < 1e-100

    def test_monotone_in_eps(self):
        ed = ed_of(*([2.0] * 50))
        values = [hoeffding_m1_bound(ed, e).value for e in (0.1, 0.2, 0.4, 0.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_node_errors(self):
        with pytest.raises(ValueError):
            hoeffding_m1_bound(ed_of(1.0), eps=0.5)


class TestChungRadcliffeBound:
    def test_spot_value(self):
        # delta_max 4 among 8 nodes at failure probability 1/2
        ed = ed_of(4, 1, 1, 1, 1, 1, 1, 1)
        report = chung_radcliffe_bound(ed, eps=0.5)
        assert report.value == pytest.approx(2 * math.sqrt(4 * math.log(32)), rel=1e-12)
        assert report.value == pytest.approx(7.447, abs=2e-3)

    def test_condition_flag(self):
        ed = ed_of(*([9.0] + [1.0] * 99))
        report = chung_radcliffe_bound(ed, eps=0.1)
        assert report.condition_holds  # 9 > (4/9) ln(2000) ~ 3.38
        weak = ed_of(*([1.0] * 100))
        assert not chung_radcliffe_bound(weak, eps=0.1).condition_holds

    def test_near_one_eps_single_node(self):
        ed = ed_of(4.0)
        report = chung_radcliffe_bound(ed, eps=1.0 - 1e-12)
        assert report.value == pytest.approx(2 * math.sqrt(4 * math.log(2)), rel=1e-9)

    def test_eps_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                chung_radcliffe_bound(ed_of(1, 1), eps=bad)


class TestChungLuCondition:
    def test_holds_for_dense(self):
        check = chunglu_condition(ed_of(*([1e4] * 100)))
        assert check.holds
        assert check.lhs == pytest.approx(1e4)
        assert check.rhs == pytest.approx(math.log(100) * 100.0)

    def test_fails_for_sparse(self):
        check = chunglu_condition(ed_of(*([1.0] * 100)))
        assert not check.holds
        assert check.margin < 1.0

    def test_boundary_is_strict(self):
        # engineer lhs == rhs: constant vector d, n with d = ln(n) sqrt(d)
        n = 100
        d = math.log(n) ** 2
        check = chunglu_condition(ed_of(*([d] * n)))
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12)
        assert not check.holds


class TestSampleSize:
    def test_regular_spot_value(self):
        stats = degree_stats(cycle_graph(10))  # 2-regular
        plan = sample_size(stats, gap=1.0, eps=1.0, delta=1 / math.e)
        assert plan.r == 6

    def test_second_spot_value(self):
        stats = degree_stats(cycle_graph(10))
        plan = sample_size(stats, gap=0.5, eps=0.25, delta=0.1)
        assert plan.r == 222  # ceil(16 * 6 * ln 10)

    def test_star_factor(self):
        stats = degree_stats(star_graph(10))  # factor 12(n-1)/n = 10.8
        plan = sample_size(stats, gap=1.0, eps=1.0, delta=1 / math.e)
        assert plan.r == 11

    def test_accepts_spectral_gap_object(self):
        stats = degree_stats(cycle_graph(10))
        gap = SpectralGap(lambda2=0.0, gap=1.0, iterations=3, residual=0.0, converged=True)
        plan = sample_size(stats, gap, 1.0, 1 / math.e)
        assert plan.r == 6

    def test_refuses_unconverged_gap(self):
        stats = degree_stats(cycle_graph(10))
        truncated = SpectralGap(lambda2=0.5, gap=0.5, iterations=5, residual=3e-4, converged=False)
        with pytest.raises(ValueError, match="residual 0.0003 after 5"):
            sample_size(stats, truncated, 0.5, 0.1)
        # the same number as a plain float is taken as given
        assert sample_size(stats, 0.5, 0.5, 0.1).gap == 0.5

    def test_default_burn_in(self):
        stats = degree_stats(cycle_graph(50))
        plan = sample_size(stats, gap=0.5, eps=0.5, delta=0.1)
        assert plan.t_star == math.ceil(math.log(50))

    def test_zero_gap_errors(self):
        stats = degree_stats(cycle_graph(10))
        with pytest.raises(ValueError):
            sample_size(stats, gap=0.0, eps=0.5, delta=0.1)

    @pytest.mark.parametrize(
        "eps, delta, message",
        [
            (0.0, 0.1, r"eps must lie in \(0, 1\], got 0.0"),
            (1.5, 0.1, r"eps must lie in \(0, 1\], got 1.5"),
            (0.5, 0.0, r"delta must lie in \(0, 1\), got 0.0"),
            (0.5, 1.0, r"delta must lie in \(0, 1\), got 1.0"),
        ],
    )
    def test_accuracy_range_errors(self, eps, delta, message):
        with pytest.raises(ValueError, match=message):
            sample_size(degree_stats(cycle_graph(10)), gap=0.5, eps=eps, delta=delta)

    def test_edgeless_stats_error(self):
        with pytest.raises(ValueError, match="undefined on an edgeless graph"):
            sample_size(degree_stats(build_graph([], 3)), gap=0.5, eps=0.5, delta=0.1)

    def test_r_at_least_one(self):
        stats = degree_stats(cycle_graph(10))
        plan = sample_size(stats, gap=1.0, eps=1.0, delta=0.999999)
        assert plan.r >= 1

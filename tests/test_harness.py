import dataclasses
import math
import warnings

import numpy as np
import pytest

from epithresh import harness, sir
from epithresh.estimators import relative_error
from epithresh.harness import (
    run_synthetic_experiment,
    run_t1_benchmark,
    theta_product_expected_degrees,
    write_curve_csv,
    write_records_csv,
)
from epithresh.sir import threshold_sweep
from epithresh.spectral import spectral_radius

from conftest import random_connected_graph


class TestThetaProductModel:
    def test_pair_probabilities_are_exact_products(self):
        ed = theta_product_expected_degrees(50, seed=3)
        theta = ed.delta / ed.delta.sum() * math.sqrt(ed.mu1)
        # delta_i delta_j / S must equal theta_i theta_j
        outer = np.outer(ed.delta, ed.delta) / ed.mu1
        assert np.allclose(outer, np.outer(theta, theta), rtol=1e-12)
        assert ed.feasible
        assert theta.max() < 0.25

    def test_scale(self):
        # lambda of the product kernel is sum(theta^2), about n/48 for U(0, 1/4)
        ed = theta_product_expected_degrees(5000, seed=1)
        assert ed.mu2 / ed.mu1 == pytest.approx(5000 / 48, rel=0.1)


class TestBenchmark:
    def test_single_rep_reproducible(self):
        records_a, summary_a, _ = run_t1_benchmark(300, reps=1, seed=42)
        records_b, summary_b, _ = run_t1_benchmark(300, reps=1, seed=42)
        a, b = records_a[0], records_b[0]
        assert (a.seed, a.n, a.m, a.lambda_a, a.t1, a.e1) == (
            b.seed,
            b.n,
            b.m,
            b.lambda_a,
            b.t1,
            b.e1,
        )
        assert summary_a.mean_e1 == summary_b.mean_e1

    def test_summary_recomputable_from_records(self):
        records, summary, _ = run_t1_benchmark(400, reps=5, seed=7)
        errors = np.array([rec.e1 for rec in records])
        assert summary.mean_e1 == pytest.approx(float(errors.mean()), abs=1e-12)
        assert summary.sd_e1 == pytest.approx(float(errors.std(ddof=1)), abs=1e-12)

    def test_error_field_consistency(self):
        records, _, _ = run_t1_benchmark(400, reps=3, seed=1)
        for rec in records:
            assert rec.e1 == pytest.approx(
                relative_error(rec.t1, rec.lambda_a), abs=1e-15
            )

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError, match="at least one replication"):
            run_t1_benchmark(300, reps=0, seed=1)


class TestSyntheticExperiment:
    def test_deterministic_outputs(self, tmp_path):
        kwargs = dict(
            model="chung-lu",
            n=400,
            seed=5,
            params={"deg_dist": "uniform", "low": 6.0, "high": 14.0},
            walk_seeds=3,
            thin=5,
        )
        result_a = run_synthetic_experiment(**kwargs)
        result_b = run_synthetic_experiment(**kwargs)
        assert result_a.records == result_b.records
        # curves can hold NaN placeholders (pre-sample budgets), so compare text
        assert repr(result_a.curve) == repr(result_b.curve)

        paths = []
        for tag, result in (("a", result_a), ("b", result_b)):
            rec = tmp_path / f"records_{tag}.csv"
            cur = tmp_path / f"curve_{tag}.csv"
            write_records_csv(str(rec), result.config, result.records)
            write_curve_csv(str(cur), result.config, result.curve, points=result.curve_points)
            paths.append((rec, cur))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_references_consistent(self):
        result = run_synthetic_experiment(
            "chung-lu",
            400,
            seed=9,
            params={"deg_dist": "uniform", "low": 6.0, "high": 14.0},
            walk_seeds=2,
        )
        assert result.lambda_a > 0 and result.t1 > 0
        for rec in result.records:
            assert rec.e1 == pytest.approx(
                relative_error(result.t1, result.lambda_a), abs=1e-15
            )
            assert rec.eps_t1_t2 is not None and rec.eps_t1_t2 >= 0
            assert rec.nodes_seen <= result.component_n

    def test_curve_budgets_cover_fractions(self):
        result = run_synthetic_experiment(
            "pa",
            300,
            seed=2,
            params={"edges_per_node": 3},
            walk_seeds=2,
            budget_fractions=(0.1, 0.5, 1.0),
        )
        budgets = [row.budget for row in result.curve]
        assert budgets == sorted(budgets)
        assert budgets[-1] == result.component_n

    def test_budget_fraction_labels_its_own_budget(self):
        # on the 40-node core, 0.01 and 0.02 both round up to budget 1
        result = run_synthetic_experiment(
            "chung-lu",
            40,
            seed=3,
            params={"deg_dist": "uniform", "low": 4.0, "high": 8.0},
            walk_seeds=3,
        )
        assert result.component_n == 40
        assert [row.budget_fraction for row in result.curve] == [0.01, 0.05, 0.1, 0.2, 0.5, 1.0]
        for row in result.curve:
            assert row.budget == max(1, math.ceil(row.budget_fraction * result.component_n))

    def test_csv_headers_self_describing(self, tmp_path):
        result = run_synthetic_experiment(
            "pa", 200, seed=1, params={"edges_per_node": 3}, walk_seeds=2
        )
        path = tmp_path / "records.csv"
        write_records_csv(str(path), result.config, result.records)
        text = path.read_text()
        assert text.startswith("# experiment=error-curve")
        assert "# model=pa" in text
        assert "walk_seeds=" in text
        header = [line for line in text.splitlines() if not line.startswith("#")][0]
        assert header.split(",")[:5] == ["seed", "n", "m", "lambda_a", "t1"]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            run_synthetic_experiment("erdos", 100, seed=0)
        with pytest.raises(ValueError, match="unknown degree distribution 'lognormal'"):
            harness.model_graph("chung-lu", 100, 0, {"deg_dist": "lognormal"})

    def test_bipartite_component_refused_at_even_thin(self):
        # a preferential-attachment tree is bipartite: with an even thin every
        # sample falls on one side, so the run is refused before any walk
        tree = dict(params={"edges_per_node": 1}, walk_seeds=1, budget_fractions=(1.0,))
        with pytest.raises(ValueError, match=r"bipartite .* thin=10 .* an odd thin converges"):
            run_synthetic_experiment("pa", 200, seed=1, thin=10, **tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_synthetic_experiment("pa", 200, seed=1, thin=9, **tree)
        assert result.component_n == 200 and result.config.thin == 9
        assert result.curve[0].seeds_used == 1
        assert result.clamped_pairs == 0  # pa has no pair probabilities

    @pytest.mark.parametrize(
        "params, solves",
        [
            ({"deg_dist": "uniform", "low": 6.0, "high": 14.0}, 1),  # connected
            ({"deg_dist": "powerlaw"}, 2),  # the component is a strict subgraph
        ],
    )
    def test_one_radius_solve_per_distinct_graph(self, monkeypatch, params, solves):
        solved = []

        def counted(g, *args, **kwargs):
            solved.append(g)
            return spectral_radius(g, *args, **kwargs)

        monkeypatch.setattr(harness, "spectral_radius", counted)
        result = run_synthetic_experiment("chung-lu", 2000, seed=3, params=params,
                                          walk_seeds=1)
        assert len(solved) == solves
        assert (result.component_n == 2000) == (solves == 1)
        if solves == 1:
            assert (result.component_lambda, result.component_t1) == (result.lambda_a, result.t1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(thin=0), "thinning must be at least 1"),
            (dict(thin=9, walk_seeds=0), "at least one walk seed"),
            (dict(thin=9, budget_fractions=()), "budget fractions"),
            (dict(thin=9, budget_fractions=(0.0,)), "budget fractions"),
            (dict(thin=9, budget_fractions=(-0.5,)), "budget fractions"),
            (dict(thin=9, budget_fractions=(1.5,)), "budget fractions"),
            (dict(thin=9, budget_fractions=(math.nan,)), "budget fractions"),
        ],
        ids=["thin=0", "walk_seeds=0", "fractions=()", "fractions=0", "fractions=-0.5",
             "fractions=1.5", "fractions=nan"],
    )
    def test_bad_arguments_refused_before_any_solve(self, monkeypatch, kwargs, message):
        def unreachable(g, *args, **kwargs):
            raise AssertionError("spectral_radius called before the argument checks")

        monkeypatch.setattr(harness, "spectral_radius", unreachable)
        with pytest.raises(ValueError, match=message):
            run_synthetic_experiment("pa", 200, seed=1, params={"edges_per_node": 1}, **kwargs)


@pytest.mark.parametrize(
    "module, call",
    [
        (harness, lambda: run_t1_benchmark(200, reps=1, seed=1)),
        (harness, lambda: run_synthetic_experiment("pa", 200, seed=1, walk_seeds=1, thin=9)),
        (sir, lambda: threshold_sweep(random_connected_graph(50, 1, 50), [1.0], reps=1, seed=1)),
    ],
    ids=["bench-t1", "experiment", "sweep"],
)
def test_uncertified_radius_is_refused(monkeypatch, module, call):
    def uncertified(g, *args, **kwargs):
        return dataclasses.replace(spectral_radius(g, *args, **kwargs), converged=False)

    monkeypatch.setattr(module, "spectral_radius", uncertified)
    with pytest.raises(ValueError, match=r"spectral radius \S+ is not certified: Ritz residual "
                                         r"\S+ after \d+ Lanczos steps"):
        call()


class TestFiftyThousandNodeInstances:
    """Full-scale generator targets; these still run in a few seconds."""

    def test_power_law_edge_mass_scale(self):
        from epithresh.generators import power_law_expected_degrees, chung_lu_sample_fast

        ed = power_law_expected_degrees(50_000, 2.5, 1.0, seed=11)
        g = chung_lu_sample_fast(ed, 2)
        assert 30_000 <= g.m <= 150_000  # the instance lands near 72k edges

    def test_estimators_track_each_other_at_scale(self):
        from epithresh.generators import power_law_expected_degrees, chung_lu_sample_fast
        from epithresh.spectral import spectral_radius
        from epithresh.estimators import t1_estimate

        ed = power_law_expected_degrees(50_000, 2.5, 1.0, seed=11)
        g = chung_lu_sample_fast(ed, 2)
        lam = spectral_radius(g).value
        t1 = t1_estimate(g).t1
        assert relative_error(t1, lam) <= 0.25

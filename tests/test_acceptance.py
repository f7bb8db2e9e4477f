"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The whole suite is sized for a desk machine (a few minutes); the
heaviest items are the million-step ergodic walks and the 100-seed
spectral-gap sweep.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from epithresh.estimators import relative_error, sample_size, t1_estimate
from epithresh.generators import (
    chung_lu_sample_fast,
    power_law_expected_degrees,
    preferential_attachment,
    uniform_expected_degrees,
)
from epithresh.graph import degree_stats, largest_component
from epithresh.harness import run_synthetic_experiment, run_t1_benchmark
from epithresh.service import OracleServer, RemoteOracle
from epithresh.sir import threshold_sweep
from epithresh.spectral import spectral_gap, spectral_radius
from epithresh.walker import LocalOracle, WalkConfig, random_walk_estimate

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_graph,
    star_graph,
    walk_path,
)
from oracles import chung_lu_sample_naive, jacobi_spectral_radius, pi_weighted_mean_degree


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: {detail}")


def test_criterion_01_eigenvalue_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        g = random_graph(n, float(rng.uniform(0.08, 0.4)), int(rng.integers(1 << 30)))
        got = spectral_radius(g, seed=1).value
        want = jacobi_spectral_radius(g)
        worst = max(worst, abs(got - want))

    analytic = {
        "K5": (complete_graph(5), 4.0),
        "star9": (star_graph(9), math.sqrt(8)),
        "cycle6": (cycle_graph(6), 2.0),
        "path3": (path_graph(3), math.sqrt(2)),
    }
    worst_analytic = 0.0
    for g, value in analytic.values():
        worst_analytic = max(worst_analytic, abs(spectral_radius(g).value - value))

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and worst_analytic <= 1e-8 and elapsed < 10.0
    report(
        1,
        "eigenvalue oracle equivalence",
        ok,
        f"max |power - jacobi| = {worst:.2e} over 100 graphs, "
        f"max analytic error = {worst_analytic:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert worst_analytic <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_benchmark_error_and_runtime():
    started = time.perf_counter()
    _, summary_5k, _ = run_t1_benchmark(5000, reps=20, seed=2025)
    _, summary_10k, _ = run_t1_benchmark(10000, reps=10, seed=2026)
    elapsed = time.perf_counter() - started
    ok = (
        summary_5k.mean_e1 <= 0.005
        and summary_10k.mean_e1 <= 0.003
        and summary_10k.runtime_ratio >= 100.0
        and elapsed < 1800.0
    )
    report(
        2,
        "moment-estimator benchmark (scaled)",
        ok,
        f"mean e1 = {summary_5k.mean_e1:.5f} (n=5000, <=0.005), "
        f"{summary_10k.mean_e1:.5f} (n=10000, <=0.003), "
        f"runtime ratio {summary_10k.runtime_ratio:.0f}x (>=100x), {elapsed:.0f}s",
    )
    assert summary_5k.mean_e1 <= 0.005
    assert summary_10k.mean_e1 <= 0.003
    assert summary_10k.runtime_ratio >= 100.0
    assert elapsed < 1800.0


def test_criterion_03_synthetic_instances():
    cl_errors = []
    for seed in (41, 42, 43):
        ed = power_law_expected_degrees(10_000, 2.5, 1.0, seed=seed)
        g = chung_lu_sample_fast(ed, seed + 100)
        cl_errors.append(
            relative_error(t1_estimate(g).t1, spectral_radius(g).value)
        )
    pa_errors = []
    for seed in (51, 52, 53):
        g = preferential_attachment(10_000, 5, seed=seed)
        pa_errors.append(
            relative_error(t1_estimate(g).t1, spectral_radius(g).value)
        )
    cl_pass = sum(e <= 0.30 for e in cl_errors)
    pa_pass = sum(e <= 0.30 for e in pa_errors)
    ok = cl_pass >= 2 and pa_pass >= 2
    report(
        3,
        "synthetic instance agreement (scaled)",
        ok,
        f"power-law e1 = {[f'{e:.3f}' for e in cl_errors]} ({cl_pass}/3 <= 0.30), "
        f"pref-attach e1 = {[f'{e:.3f}' for e in pa_errors]} ({pa_pass}/3 <= 0.30)",
    )
    assert cl_pass >= 2
    assert pa_pass >= 2


def test_criterion_04_error_curve_claims():
    result = run_synthetic_experiment(
        "chung-lu",
        10_000,
        seed=7,
        params={"deg_dist": "uniform", "low": 20.0, "high": 80.0},
        walk_seeds=10,
        thin=10,
    )
    by_fraction = {round(row.budget_fraction, 2): row for row in result.curve}
    at_10 = by_fraction[0.10]
    at_100 = by_fraction[1.00]
    coincidence = abs(at_100.mean_eps_lambda - at_100.mean_eps_t1)
    ok = (
        at_10.mean_eps_t1 <= 0.10
        and at_100.mean_eps_t1 <= 0.06
        and coincidence <= 0.03
    )
    report(
        4,
        "walk error-curve claims (scaled)",
        ok,
        f"mean eps_t1 @10% = {at_10.mean_eps_t1:.4f} (<=0.10), "
        f"@100% = {at_100.mean_eps_t1:.4f} (<=0.06), "
        f"|eps_lambda - eps_t1| @100% = {coincidence:.4f} (<=0.03)",
    )
    assert at_10.mean_eps_t1 <= 0.10
    assert at_100.mean_eps_t1 <= 0.06
    assert coincidence <= 0.03


def test_criterion_05_stationary_expectation_and_ergodic_average():
    graphs = [
        random_connected_graph(int(60 + 7 * k), seed=900 + k, extra_edges=150)
        for k in range(20)
    ]
    worst_exact = 0.0
    for g in graphs:
        stats = degree_stats(g)
        worst_exact = max(
            worst_exact, abs(pi_weighted_mean_degree(g) - stats.m2 / stats.m1)
        )

    worst_walk = 0.0
    for g in graphs[:10]:
        stats = degree_stats(g)
        reference = stats.m2 / stats.m1
        for seed in range(5):
            cfg = WalkConfig(t_star=0, r=1_000_000, thin=1, seed=seed)
            estimate = random_walk_estimate(LocalOracle(g), cfg).estimate
            worst_walk = max(worst_walk, abs(estimate - reference) / reference)

    ok = worst_exact <= 1e-12 and worst_walk <= 0.01
    report(
        5,
        "stationary degree expectation",
        ok,
        f"max exact deviation = {worst_exact:.2e} (<=1e-12) on 20 graphs, "
        f"max long-walk relative error = {worst_walk:.4f} (<=0.01) on 10x5 walks",
    )
    assert worst_exact <= 1e-12
    assert worst_walk <= 0.01


def test_criterion_06_sample_size_spot_values():
    stats = degree_stats(cycle_graph(10))
    first = sample_size(stats, gap=1.0, eps=1.0, delta=1 / math.e).r
    second = sample_size(stats, gap=0.5, eps=0.25, delta=0.1).r
    ok = first == 6 and second == 222
    report(
        6,
        "sample-size formula spot values",
        ok,
        f"regular/gap=1/eps=1/delta=1/e -> r = {first} (=6); "
        f"gap=0.5/eps=0.25/delta=0.1 -> r = {second} (=222)",
    )
    assert first == 6
    assert second == 222


def test_criterion_07_spectral_gap_values_and_bound():
    gap_k4 = spectral_gap(complete_graph(4)).gap
    gap_c4 = spectral_gap(cycle_graph(4)).gap
    gap_star = spectral_gap(star_graph(5)).gap
    analytic_ok = (
        abs(gap_k4 - 4 / 3) <= 1e-6
        and abs(gap_c4 - 1.0) <= 1e-6
        and abs(gap_star - 1.0) <= 1e-6
    )

    n = 2000
    d_min = 20.0 * math.log(n)
    holds = 0
    converged = 0
    worst_margin = -np.inf
    for seed in range(100):
        ed = uniform_expected_degrees(n, d_min, d_min + 40.0, seed=3000 + seed)
        g, _ = largest_component(chung_lu_sample_fast(ed, 4000 + seed))
        bound = 2.0 * math.sqrt(6.0 * math.log(2 * n) / ed.delta_min)
        solve = spectral_gap(g, tol=1e-8, max_iters=400)
        converged += solve.converged
        measured = solve.lambda2
        if abs(measured) < bound:
            holds += 1
        worst_margin = max(worst_margin, abs(measured) - bound)

    ok = analytic_ok and holds >= 95 and converged == 100
    report(
        7,
        "spectral gap analytics and expected-degree bound",
        ok,
        f"K4 gap {gap_k4:.8f}, C4 {gap_c4:.8f}, star {gap_star:.8f} (all 1e-6); "
        f"bound held in {holds}/100 seeds (worst margin {worst_margin:+.3f}); "
        f"{converged}/100 solves certified",
    )
    assert analytic_ok
    assert converged == 100
    assert holds >= 95


def test_criterion_08_walk_remote_equivalence():
    graphs = [
        random_connected_graph(60, seed=70, extra_edges=60),
        random_connected_graph(90, seed=71, extra_edges=30),
        star_graph(12),
        cycle_graph(25),
        complete_graph(9),
    ]
    checked = 0
    for g in graphs:
        with OracleServer(g) as server:
            with RemoteOracle(server.address) as remote:
                for seed in (1, 2, 3):
                    cfg = WalkConfig(t_star=11, r=80, thin=4, seed=seed)
                    a, a_nodes = walk_path(random_walk_estimate, LocalOracle(g), cfg)
                    b, b_nodes = walk_path(random_walk_estimate, remote, cfg)
                    assert a_nodes == b_nodes
                    assert a.estimate == b.estimate
                    assert a.total_queries == b.total_queries
                    assert a.distinct_nodes_seen == b.distinct_nodes_seen
                    checked += 1
    ok = checked == 15
    report(
        8,
        "walker determinism and remote equivalence",
        ok,
        f"{checked}/15 (graph, seed) pairs bit-exact across local and remote oracles",
    )
    assert checked == 15


def test_criterion_09_sir_threshold_boundary():
    ed = uniform_expected_degrees(5000, 5.0, 15.0, seed=81)
    g, _ = largest_component(chung_lu_sample_fast(ed, 82))
    lam = spectral_radius(g).value
    ratios = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0]
    rows = threshold_sweep(g, ratios, reps=50, seed=83, lam=lam)
    means = [row.mean_final_fraction for row in rows]
    subcritical = means[0]
    supercritical = means[-1]
    rho = float(sps.spearmanr(ratios, means).statistic)
    ok = (
        subcritical < 0.02
        and supercritical > 10 * subcritical
        and rho > 0.9
    )
    report(
        9,
        "SIR threshold boundary",
        ok,
        f"mean fraction @0.25/lambda = {subcritical:.5f} (<0.02), "
        f"@4/lambda = {supercritical:.3f} (>{10 * subcritical:.4f}), "
        f"spearman rho = {rho:.3f} (>0.9)",
    )
    assert subcritical < 0.02
    assert supercritical > 10 * subcritical
    assert rho > 0.9


def test_criterion_10_degree_moment_concentration():
    ed = uniform_expected_degrees(5000, 20.0, 80.0, seed=91)
    m1_hits = 0
    m2_hits = 0
    for seed in range(100):
        stats = degree_stats(chung_lu_sample_fast(ed, 9200 + seed))
        m1_hits += abs(stats.m1 / ed.mu1 - 1.0) <= 0.02
        m2_hits += abs(stats.m2 / ed.mu2 - 1.0) <= 0.05
    ok = m1_hits >= 99 and m2_hits >= 99
    report(
        10,
        "degree-moment concentration",
        ok,
        f"|m1/mu1 - 1| <= 0.02 in {m1_hits}/100 seeds (>=99), "
        f"|m2/mu2 - 1| <= 0.05 in {m2_hits}/100 seeds (>=99)",
    )
    assert m1_hits >= 99
    assert m2_hits >= 99


def test_criterion_11_generator_correctness():
    n = 200
    reps = 20_000
    ed = uniform_expected_degrees(n, 1.0, 5.0, seed=101)
    assert ed.feasible
    counts_fast = np.zeros((n, n))
    counts_naive = np.zeros((n, n))
    for seed in range(reps):
        pairs = chung_lu_sample_fast(ed, seed).edge_pairs()
        counts_fast[pairs[:, 0], pairs[:, 1]] += 1
        pairs = chung_lu_sample_naive(ed, reps + seed).edge_pairs()
        counts_naive[pairs[:, 0], pairs[:, 1]] += 1
    iu = np.triu_indices(n, k=1)
    freq_fast = counts_fast[iu] / reps
    freq_naive = counts_naive[iu] / reps
    pooled = (counts_fast[iu] + counts_naive[iu]) / (2 * reps)
    sigma = np.sqrt(np.maximum(pooled * (1 - pooled), 1e-12) * 2.0 / reps)
    within = float((np.abs(freq_fast - freq_naive) <= 3.0 * sigma).mean())

    pa_ok = all(
        preferential_attachment(size, 5, seed=7).m == 15 + 5 * (size - 6)
        for size in (10, 1000, 50_000)
    )
    ok = within >= 0.99 and pa_ok
    report(
        11,
        "generator correctness",
        ok,
        f"{within:.2%} of pairs within 3 sigma across samplers (>=99%), "
        f"pref-attach edge identity exact: {pa_ok}",
    )
    assert within >= 0.99
    assert pa_ok

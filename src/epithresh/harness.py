"""Experiment harness: the moment-estimator benchmark, synthetic-network
error-curve experiments, and self-describing CSV output.

Every experiment embeds its full configuration and seeds as '#' comment
lines in its CSV outputs, and all summary statistics are recomputable from
the raw per-replication records. Identical (config, seed) runs produce
byte-identical files. ``_csv_text`` is the one CSV format of the package,
which the CLI's ``sweep`` and ``sir`` share: the '#' lines, the header, then
the rows, every line ending in '\n', floats written by repr and None as an
empty cell. Relative errors are ``estimators.relative_error``, and a lambda
whose solve is not certified is refused, not written.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from collections.abc import Iterable
from dataclasses import astuple, dataclass, field

import numpy as np

from .estimators import relative_error, t1_estimate
from .generators import (
    ExpectedDegrees,
    chung_lu_sample_fast,
    count_clamped_pairs,
    expected_degrees,
    power_law_expected_degrees,
    preferential_attachment,
    uniform_expected_degrees,
)
from .graph import Graph
from .spectral import _certified, spectral_radius
from .walker import (DEFAULT_THIN, CurvePoint, LocalOracle, _default_t_star, _walked_component,
                     error_curve)

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "BenchmarkSummary",
    "CurveSummary",
    "ExperimentResult",
    "DEFAULT_BUDGET_FRACTIONS",
    "model_graph",
    "theta_product_expected_degrees",
    "run_t1_benchmark",
    "run_synthetic_experiment",
    "write_records_csv",
    "write_curve_csv",
]

DEFAULT_BUDGET_FRACTIONS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment byte-for-byte."""

    experiment: str
    model: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)
    walk_seeds: tuple[int, ...] = ()
    budget_fractions: tuple[float, ...] = DEFAULT_BUDGET_FRACTIONS
    thin: int = DEFAULT_THIN

    def comment_lines(self) -> list[str]:
        # thin and the budgets describe walks: a config without walks has none
        thin = f" thin={self.thin}" if self.walk_seeds else ""
        lines = [f"# experiment={self.experiment}", f"# model={self.model}"]
        lines.append(f"# n={self.n} seed={self.seed}{thin}")
        if self.params:
            kv = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            lines.append(f"# params: {kv}")
        if self.walk_seeds:
            lines.append(f"# walk_seeds={','.join(map(str, self.walk_seeds))}")
            lines.append(
                f"# budget_fractions={','.join(map(str, self.budget_fractions))}"
            )
        return lines


@dataclass(frozen=True, kw_only=True)
class ExperimentRecord:
    """One CSV row of per-replication results. A field left at None is a
    blank cell: the walk fields of a replication without a walk, and the
    runtimes of one that is not timed."""

    seed: int
    n: int
    m: int
    lambda_a: float
    t1: float
    t2: float | None = None
    e1: float
    eps_t1_t2: float | None = None
    eps_lambda_t2: float | None = None
    nodes_seen: int | None = None
    runtime_lambda: float | None = None
    runtime_t1: float | None = None
    runtime_t2: float | None = None


@dataclass(frozen=True)
class BenchmarkSummary:
    reps: int
    mean_e1: float
    sd_e1: float
    mean_runtime_lambda: float
    mean_runtime_t1: float
    runtime_ratio: float


@dataclass(frozen=True)
class CurveSummary:
    """Across-seed means at one distinct-nodes budget. A mean over no
    samples (``seeds_used`` 0) is None: an empty cell, and JSON null."""

    budget: int
    budget_fraction: float
    mean_nodes_seen: float
    mean_eps_t1: float | None
    mean_eps_lambda: float | None
    seeds_used: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: list[ExperimentRecord]
    curve_points: list[CurvePoint]
    curve: list[CurveSummary]
    lambda_a: float
    t1: float
    component_n: int
    component_t1: float
    component_lambda: float
    clamped_pairs: int  # count_clamped_pairs of the model's degrees; 0 for "pa"


def theta_product_expected_degrees(n: int, seed: int) -> ExpectedDegrees:
    """Product-form edge model P(i,j) = theta_i theta_j with theta ~ U(0, 0.25).

    Expressed as an expected-degree vector delta_i = theta_i * sum(theta),
    which gives exactly delta_i delta_j / S = theta_i theta_j, so the
    Chung-Lu samplers draw from the product model unchanged.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 0.25, n)
    while np.any(theta <= 0.0):  # measure-zero, but delta must stay positive
        zero = theta <= 0.0
        theta[zero] = rng.uniform(0.0, 0.25, int(zero.sum()))
    return expected_degrees(theta * theta.sum())


def run_t1_benchmark(
    n: int, reps: int, seed: int
) -> tuple[list[ExperimentRecord], BenchmarkSummary, ExperimentConfig]:
    """Moment-ratio versus spectral-radius benchmark on the product model.

    One theta vector is drawn from the master seed; ``reps`` graphs are then
    sampled from the same model and both estimators are computed and timed
    on each.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    config = ExperimentConfig(
        experiment="bench-t1", model="theta-product", n=n, seed=seed
    )
    master = np.random.default_rng(seed)
    theta_seed = int(master.integers(2**63 - 1))
    ed = theta_product_expected_degrees(n, theta_seed)
    records: list[ExperimentRecord] = []
    for _ in range(reps):
        rep_seed = int(master.integers(2**63 - 1))
        g = chung_lu_sample_fast(ed, rep_seed)

        start = time.perf_counter()
        lam = _certified(spectral_radius(g))
        runtime_lambda = time.perf_counter() - start

        start = time.perf_counter()
        moment = t1_estimate(g)
        runtime_t1 = time.perf_counter() - start

        records.append(
            ExperimentRecord(
                seed=rep_seed,
                n=g.n,
                m=g.m,
                lambda_a=lam,
                t1=moment.t1,
                e1=relative_error(moment.t1, lam),
                runtime_lambda=runtime_lambda,
                runtime_t1=runtime_t1,
            )
        )
    errors = np.array([rec.e1 for rec in records])
    mean_lambda_rt = float(np.mean([rec.runtime_lambda for rec in records]))
    mean_t1_rt = float(np.mean([rec.runtime_t1 for rec in records]))
    summary = BenchmarkSummary(
        reps=reps,
        mean_e1=float(errors.mean()),
        sd_e1=float(errors.std(ddof=1)) if reps > 1 else 0.0,
        mean_runtime_lambda=mean_lambda_rt,
        mean_runtime_t1=mean_t1_rt,
        runtime_ratio=mean_lambda_rt / mean_t1_rt if mean_t1_rt > 0 else math.inf,
    )
    return records, summary, config


def model_graph(
    model: str,
    n: int,
    seed: int,
    params: dict,
) -> tuple[Graph, dict, ExpectedDegrees | None]:
    """The graph of a named model, the parameters it used, and its expected
    degrees (None for a model without them).

    "chung-lu" draws expected degrees from ``seed``, of ``deg_dist``
    "powerlaw" (``beta``, ``d_min``) or "uniform" (``low``, ``high``), and
    samples the graph from them with ``chung_lu_sample_fast`` and ``seed + 1``.
    "pa" grows a preferential-attachment graph of ``edges_per_node`` from
    ``seed``.
    Missing entries take their defaults; entries the model does not use are
    ignored.
    """
    if model == "pa":
        epn = int(params.get("edges_per_node", 5))
        return preferential_attachment(n, epn, seed), {"edges_per_node": epn}, None
    if model != "chung-lu":
        raise ValueError(f"unknown model {model!r} (expected 'chung-lu' or 'pa')")
    dist = params.get("deg_dist", "powerlaw")
    if dist == "powerlaw":
        beta = float(params.get("beta", 2.5))
        d_min = float(params.get("d_min", 1.0))
        ed = power_law_expected_degrees(n, beta, d_min, seed)
        used = {"deg_dist": dist, "beta": beta, "d_min": d_min}
    elif dist == "uniform":
        low = float(params.get("low", 20.0))
        high = float(params.get("high", 80.0))
        ed = uniform_expected_degrees(n, low, high, seed)
        used = {"deg_dist": dist, "low": low, "high": high}
    else:
        raise ValueError(f"unknown degree distribution {dist!r}")
    return chung_lu_sample_fast(ed, seed + 1), used, ed


def run_synthetic_experiment(
    model: str,
    n: int,
    seed: int,
    params: dict | None = None,
    walk_seeds: int = 10,
    budget_fractions: tuple[float, ...] = DEFAULT_BUDGET_FRACTIONS,
    thin: int = DEFAULT_THIN,
) -> ExperimentResult:
    """One synthetic graph, its exact references, and seeded walk error curves.

    The graph's spectral radius and moment ratio make the headline record;
    the error curves are measured against those of its largest component,
    which the walks can reach, solved again only when it is not the whole
    graph. ``walk_seeds`` walk seeds are drawn from ``seed``. Budgets are
    fractions of the component's node count, and walks burn in
    ``_default_t_star`` steps for it, then sample every ``thin``-th step.
    A ``walk_seeds`` below 1, and ``budget_fractions`` that are empty or hold
    a value outside (0, 1], are refused before the graph is built; a
    ``thin`` below 1, or an even one on a bipartite component, before any
    eigen solve; a radius that is not certified, after it.
    """
    if walk_seeds < 1:
        raise ValueError("need at least one walk seed")
    if not budget_fractions or not all(0 < f <= 1 for f in budget_fractions):
        raise ValueError("budget fractions must lie in (0, 1]")
    master = np.random.default_rng(seed)
    seeds = tuple(int(master.integers(2**63 - 1)) for _ in range(walk_seeds))
    graph, used_params, ed = model_graph(model, n, seed, params or {})
    component, _ = _walked_component(graph, thin)
    config = ExperimentConfig(
        experiment="error-curve",
        model=model,
        n=n,
        seed=seed,
        params=used_params,
        walk_seeds=seeds,
        budget_fractions=tuple(budget_fractions),
        thin=thin,
    )

    lam_full = _certified(spectral_radius(graph))
    t1_full = t1_estimate(graph).t1
    if component is graph:
        comp_lambda, comp_t1 = lam_full, t1_full
    else:
        comp_lambda, comp_t1 = _certified(spectral_radius(component)), t1_estimate(component).t1
    frac_of: dict[int, float] = {}
    for f in sorted(budget_fractions):  # the smallest fraction names a shared budget
        frac_of.setdefault(max(1, math.ceil(f * component.n)), f)
    budgets = sorted(frac_of)

    points = error_curve(
        LocalOracle(component),
        t1_reference=comp_t1,
        lambda_reference=comp_lambda,
        seeds=list(seeds),
        budgets=budgets,
        t_star=_default_t_star(component.n),
        thin=thin,
    )

    # error_curve lists each seed's points in budget order, seed by seed
    width = len(budgets)
    e1 = relative_error(t1_full, lam_full)
    records = [
        ExperimentRecord(
            seed=last.seed,
            n=graph.n,
            m=graph.m,
            lambda_a=lam_full,
            t1=t1_full,
            t2=last.estimate,
            e1=e1,
            eps_t1_t2=last.eps_t1,
            eps_lambda_t2=last.eps_lambda,
            nodes_seen=last.nodes_seen,
        )
        for last in points[width - 1::width]
    ]

    curve: list[CurveSummary] = []
    for i, budget in enumerate(budgets):
        at_budget = points[i::width]
        valid = [p for p in at_budget if p.samples > 0]  # the points with an estimate
        curve.append(
            CurveSummary(
                budget=budget,
                budget_fraction=frac_of[budget],
                mean_nodes_seen=_mean([p.nodes_seen for p in at_budget]),
                mean_eps_t1=_mean([p.eps_t1 for p in valid]),
                mean_eps_lambda=_mean([p.eps_lambda for p in valid]),
                seeds_used=len(valid),
            )
        )

    return ExperimentResult(
        config=config,
        records=records,
        curve_points=points,
        curve=curve,
        lambda_a=lam_full,
        t1=t1_full,
        component_n=component.n,
        component_t1=comp_t1,
        component_lambda=comp_lambda,
        clamped_pairs=0 if ed is None else count_clamped_pairs(ed),
    )


def _mean(values: list) -> float | None:
    """The mean of ``values``, None (a missing value) when there are none."""
    return float(np.mean(values)) if values else None


def _csv_text(comments: list[str], header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """The one CSV format of the package: the '#' comment lines, the header,
    then one line per row. Every line ends in '\n'; csv writes a float cell
    by repr and a None cell as empty."""
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_text(path: str, text: str) -> None:
    """The one text-file writer of the package: UTF-8, line ends as given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, config: ExperimentConfig, row_type: type, rows: list) -> None:
    """The dataclass ``rows`` of ``row_type``, one column per field, under
    ``config``'s comment lines; the file's directory is made if missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    text = _csv_text(config.comment_lines(), row_type.__dataclass_fields__, map(astuple, rows))
    _write_text(path, text)


def write_records_csv(path: str, config: ExperimentConfig, records: list[ExperimentRecord]) -> None:
    _write_csv(path, config, ExperimentRecord, records)


def write_curve_csv(
    path: str, config: ExperimentConfig, curve: list[CurveSummary], points: list[CurvePoint]
) -> None:
    """The aggregated curve CSV, and beside it the per-seed raw points (same
    name with a .raw.csv suffix)."""
    _write_csv(path, config, CurveSummary, curve)
    raw_path = path[:-4] + ".raw.csv" if path.endswith(".csv") else path + ".raw"
    _write_csv(raw_path, config, CurvePoint, points)

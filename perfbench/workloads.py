"""The three workloads: instance sizes, set-up, timed operation and checks.

Every call into the library goes through the public ``epithresh`` names and
sits inside a span named ``<module>.<function>``, so the traced run can
charge its time to that layer.

Each workload runs on one fixed graph (expected-degree seed 7, graph seed
8): on power-law graphs the power-iteration count of ``spectral_gap``
swings from about 1.3k to 10k between samples and even between
relabelings, the cost of the SIR sweep is the number of outbreaks that
take off, and the experiment's walks need 1.9M to 2.4M steps to cover
different samples. The workload seed permutes the lines of the edge-list
file, which the parser must canonicalise back to the same graph, and
picks the seeds of the ``walk`` workload's local and remote walks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from pathlib import Path

import numpy as np

import epithresh as et
from epithresh.harness import write_curve_csv, write_records_csv
from spans import LAYERS, TimedOracle, duration_s

SETUP_REPS = 3
SETUP_MIN_S = 2.0  # the 0.2 s exact set-up needs more than three samples to be steady
MIN_OPS = 3
ERR_FLOOR = 1e-10
LAMBDA_TOL = 1e-6  # spectral_radius against eigsh; power iteration is at ~5e-11
GAP_TOL = 1e-3  # catches a grossly wrong gap; power iteration is at ~3e-6

SIZES = {
    "full": {
        "exact": {"n": 20_000, "beta": 2.5, "d_min": 1.0},
        "walk": {"n": 10_000, "low": 20.0, "high": 80.0, "walk_seeds": 5,
                 "local_r": 100_000, "remote_r": 2_490},
        "ingest": {"n": 50_000, "low": 20.0, "high": 80.0, "reps": 10},
    },
    "tiny": {
        "exact": {"n": 2_000, "beta": 2.5, "d_min": 1.0},
        "walk": {"n": 1_000, "low": 20.0, "high": 80.0, "walk_seeds": 2,
                 "local_r": 2_000, "remote_r": 100},
        "ingest": {"n": 3_000, "low": 20.0, "high": 80.0, "reps": 4},
    },
}
# Every workload's graph: expected degrees from INSTANCE_SEED, the sample from
# INSTANCE_SEED + 1, as the CLI and the experiment harness derive them.
INSTANCE_SEED = 7
SWEEP_RATIOS = (0.5, 1.0, 2.0, 4.0)
SWEEP_SEED = 7
WALK_T_STAR = 100
WALK_THIN = 10

clock = time.perf_counter


# ---------------------------------------------------------------- set-up


def generate(workload: str, size: dict, tr) -> et.Graph:
    """The workload's graph, sampled through the generators layer.

    For ``walk`` it is the graph run_synthetic_experiment draws.
    """
    with tr.span("generators.expected_degrees"):
        if workload == "exact":
            ed = et.power_law_expected_degrees(size["n"], size["beta"], size["d_min"], INSTANCE_SEED)
        else:
            ed = et.uniform_expected_degrees(size["n"], size["low"], size["high"], INSTANCE_SEED)
    with tr.span("generators.chung_lu_sample_fast"):
        return et.chung_lu_sample_fast(ed, INSTANCE_SEED + 1)


def write_input(g: et.Graph, path: Path, seed: int, tr) -> None:
    """Write the edge list, then permute its edge lines by the seed."""
    with tr.span("graph.write_edge_list"):
        et.write_edge_list(g, str(path))
    with open(path, "rb") as fh:
        header = fh.readline()
        lines = fh.read().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(lines)).tolist()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(b"".join([lines[i] for i in order]))


def walk_configs(size: dict, seed: int) -> tuple[et.WalkConfig, et.WalkConfig]:
    local_seed, remote_seed = np.random.default_rng(seed).integers(2**31, size=2).tolist()
    local = et.WalkConfig(t_star=WALK_T_STAR, r=size["local_r"], thin=WALK_THIN, seed=local_seed)
    remote = et.WalkConfig(t_star=WALK_T_STAR, r=size["remote_r"], thin=WALK_THIN, seed=remote_seed)
    return local, remote


# ---------------------------------------------------------------- timed operations


def op_exact(ctx: dict, tr, traced: bool) -> dict:
    """What `exact --gap` plus `bounds` compute: lambda, gap, t1 and the walk plan."""
    t0 = clock()
    with tr.span("graph.read_edge_list"):
        g = et.read_edge_list(ctx["edges"])
    with tr.span("graph.largest_component"):
        core, _ = et.largest_component(g)
    with tr.span("spectral.spectral_radius"):
        lam = et.spectral_radius(g)
    with tr.span("spectral.spectral_gap"):
        gap = et.spectral_gap(core)
    with tr.span("estimators.t1_estimate"):
        t1 = et.t1_estimate(g)
    with tr.span("graph.degree_stats"):
        stats = et.degree_stats(core)
    with tr.span("estimators.sample_size"):
        plan = et.sample_size(stats, gap, eps=0.1, delta=0.1)
    op_s = clock() - t0
    return {"op_s": op_s, "parts": {"exact_s": op_s}, "graph": g, "core_n": core.n,
            "lam": lam, "gap": gap, "t1": t1, "plan": plan}


def op_walk(ctx: dict, tr, traced: bool) -> dict:
    """Experiment error curves, a long local walk and a walk over the served oracle."""
    size, seed = ctx["size"], ctx["seed"]
    local_cfg, remote_cfg = walk_configs(size, seed)
    out_dir = ctx["out_dir"]
    t0 = clock()
    with tr.span("harness.run_synthetic_experiment"):
        res = et.run_synthetic_experiment(
            "chung-lu", size["n"], INSTANCE_SEED,
            params={"deg_dist": "uniform", "low": size["low"], "high": size["high"]},
            walk_seeds=size["walk_seeds"],
        )
    with tr.span("harness.write_records_csv"):
        write_records_csv(str(out_dir / "records.csv"), res.config, res.records)
    with tr.span("harness.write_curve_csv"):
        write_curve_csv(str(out_dir / "curve.csv"), res.config, res.curve,
                        points=res.curve_points)
    t1 = clock()
    with tr.span("walker.local_oracle"):
        oracle = et.local_oracle(ctx["graph"])
    t2 = clock()
    with tr.span("walker.random_walk_estimate/local"):
        local = et.random_walk_estimate(oracle, local_cfg)
    t3 = clock()
    with tr.span("service.remote_oracle"):
        remote_oracle = et.remote_oracle(ctx["addr"])
    try:
        t4 = clock()
        timed = TimedOracle(remote_oracle) if traced else None
        with tr.span("walker.random_walk_estimate/remote") as walk_span:
            remote = et.random_walk_estimate(timed or remote_oracle, remote_cfg)
        t5 = clock()
    finally:
        remote_oracle.close()
    op_s = clock() - t0
    latencies_us = None
    if timed is not None:
        tr.add_children(walk_span[0], "service.query", timed.starts, timed.ends)
        latencies_us = (np.asarray(timed.ends) - np.asarray(timed.starts)) / 1e3
    return {
        "op_s": op_s,
        "parts": {
            "experiment_s": t1 - t0,
            "walk_steps_per_s": local.total_steps / (t3 - t2),
            "remote_steps_per_s": remote.total_steps / (t5 - t4),
        },
        "lambda_a": res.lambda_a,
        "curve_points": len(res.curve_points),
        "csv_sha256": {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                       for name in ("records.csv", "curve.csv", "curve.raw.csv")},
        "local": local,
        "remote": remote,
        "latencies_us": latencies_us,
    }


def op_ingest(ctx: dict, tr, traced: bool) -> dict:
    """Parse a large edge list, take its moments, core and radius, then sweep SIR."""
    t0 = clock()
    with tr.span("graph.read_edge_list"):
        g = et.read_edge_list(ctx["edges"])
    with tr.span("estimators.t1_estimate"):
        t1 = et.t1_estimate(g)
    with tr.span("graph.largest_component"):
        core, _ = et.largest_component(g)
    with tr.span("spectral.spectral_radius"):
        lam = et.spectral_radius(g)
    t_mid = clock()
    with tr.span("sir.threshold_sweep"):
        rows = et.threshold_sweep(g, list(SWEEP_RATIOS), ctx["size"]["reps"], SWEEP_SEED,
                                  lam=lam.value)
    t_end = clock()
    return {"op_s": t_end - t0, "parts": {"ingest_s": t_mid - t0, "sweep_s": t_end - t_mid},
            "graph": g, "core_n": core.n, "lam": lam, "t1": t1, "rows": rows}


OPS = {"exact": op_exact, "walk": op_walk, "ingest": op_ingest}


# ---------------------------------------------------------------- references and checks


def _adjacency(g: et.Graph):
    from scipy.sparse import csr_matrix

    return csr_matrix((np.ones(g.neighbors.size), g.neighbors, g.offsets), shape=(g.n, g.n))


def references(workload: str, ctx: dict) -> dict:
    """Independent answers for the generated graph: scipy for eigenvalues and
    components, numpy integer sums for the degree moments, and for ``walk``
    the remote walk's configuration run on the in-memory oracle."""
    from scipy.sparse import diags
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import eigsh

    g = ctx["graph"]
    a = _adjacency(g)
    deg = g.degrees.astype(np.int64)
    ref = {
        "lambda": float(eigsh(a, k=1, which="LA", v0=np.ones(g.n), tol=0,
                              return_eigenvectors=False)[0]),
        "m1": int(deg.sum()),
        "m2": int((deg * deg).sum()),
    }
    _, labels = connected_components(a, directed=False)
    core = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    ref["core_n"] = int(core.size)
    if workload == "exact":
        sub = a[core][:, core]
        inv_sqrt = diags(1.0 / np.sqrt(np.asarray(sub.sum(axis=1)).ravel()))
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, core.size)
        top2 = eigsh(inv_sqrt @ sub @ inv_sqrt, k=2, which="LA", v0=v0, tol=0,
                     return_eigenvectors=False)
        ref["gap"] = 1.0 - float(min(top2))
    if workload == "walk":
        _, remote_cfg = walk_configs(ctx["size"], ctx["seed"])
        ref["remote"] = et.random_walk_estimate(et.local_oracle(g), remote_cfg)
    return ref


def rel_err(value: float, reference: float) -> float:
    return max(abs(value - reference) / abs(reference), ERR_FLOOR)


def _check_moments(out: dict, ref: dict) -> list[str]:
    t1 = out["t1"]
    if (t1.m1, t1.m2) != (ref["m1"], ref["m2"]) or t1.t1 != ref["m2"] / ref["m1"]:
        return [f"t1 {t1} != m2/m1 = {ref['m2']}/{ref['m1']}"]
    return []


def check(workload: str, out: dict, ref: dict, first: dict) -> list[str]:
    """Failure messages for one operation; ``first`` is the run's first operation.

    Also records the operation's error figures (lambda_err, gap_err,
    eig_err) on ``out``.
    """
    bad: list[str] = []
    if workload in ("exact", "ingest"):
        if not out["identical"]:
            bad.append("graph read back is not identical() to the generated graph")
        bad += _check_moments(out, ref)
        if out["core_n"] != ref["core_n"]:
            bad.append(f"core has {out['core_n']} nodes, scipy finds {ref['core_n']}")
        out["lambda_err"] = rel_err(out["lam"].value, ref["lambda"])
        out["eig_err"] = out["lambda_err"]
    if workload == "exact":
        out["gap_err"] = rel_err(out["gap"].gap, ref["gap"])
        out["eig_err"] = max(out["lambda_err"], out["gap_err"])
        if out["gap_err"] > GAP_TOL:
            bad.append(f"gap {out['gap'].gap} vs eigsh {ref['gap']}: relative error {out['gap_err']:.3g}")
        if out["plan"].r < 1 or out["plan"].gap != out["gap"].gap:
            bad.append(f"sampling plan {out['plan']} does not use the computed gap")
    if workload == "ingest":
        rows = out["rows"]
        if not rows[-1].mean_final_fraction > rows[0].mean_final_fraction:
            bad.append(f"outbreak at ratio {rows[-1].ratio} ({rows[-1].mean_final_fraction}) "
                       f"not above ratio {rows[0].ratio} ({rows[0].mean_final_fraction})")
    if workload == "walk":
        out["lambda_err"] = out["eig_err"] = rel_err(out["lambda_a"], ref["lambda"])
        if out["csv_sha256"] != first["csv_sha256"]:
            bad.append("experiment CSVs differ from the first repeat")
        local, remote = out["local"], out["remote"]
        if local != first["local"] or local.total_queries != 2 * local.total_steps:
            bad.append(f"local walk report {local} is not deterministic or miscounts queries")
        expected = dataclasses.asdict(ref["remote"])
        got = dataclasses.asdict(remote)
        diff = [k for k in expected if expected[k] != got[k]]
        if diff:
            bad.append(f"remote walk differs from the local walk in {diff}")
    if out["lambda_err"] > LAMBDA_TOL:
        bad.append(f"lambda relative error {out['lambda_err']:.3g} against eigsh")
    return bad


def corrupt(workload: str, out: dict) -> None:
    """Tamper with one operation's output (self-test only)."""
    if workload == "exact":
        out["lam"] = dataclasses.replace(out["lam"], value=out["lam"].value * (1 + 1e-3))
    elif workload == "walk":
        out["remote"] = dataclasses.replace(out["remote"], estimate=out["remote"].estimate + 1.0)
    else:
        out["rows"] = out["rows"][::-1]


# ---------------------------------------------------------------- metrics


def median(values) -> float:
    return float(statistics.median(list(values)))


def layer_metrics(workload: str, out: dict, spans: list) -> dict[str, float]:
    """Per-layer figures of one traced operation; 0 where the layer is idle."""
    m = dict.fromkeys(PER_LAYER_OP, 0.0)
    if workload in ("exact", "ingest"):
        m["graph.read_s"] = duration_s(spans, "graph.read_edge_list")
        m["graph.read_edges_per_s"] = out["m"] / m["graph.read_s"]
        m["graph.component_s"] = duration_s(spans, "graph.largest_component")
        m["spectral.radius_s"] = duration_s(spans, "spectral.spectral_radius")
        m["spectral.radius_iters"] = out["lam"].iterations
        m["estimators.t1_s"] = duration_s(spans, "estimators.t1_estimate")
    if workload == "exact":
        gap = out["gap"]
        m["spectral.gap_s"] = duration_s(spans, "spectral.spectral_gap")
        m["spectral.gap_iters"] = gap.iterations
        m["spectral.gap_s_per_iter"] = m["spectral.gap_s"] / gap.iterations
        m["spectral.gap_converged"] = int(gap.converged)
        m["spectral.gap_residual"] = gap.residual
        m["estimators.plan_s"] = duration_s(spans, "estimators.sample_size")
        m["estimators.plan_r"] = out["plan"].r
    if workload == "ingest":
        runs = sum(row.reps for row in out["rows"])
        m["sir.runs"] = runs
        m["sir.ms_per_run"] = duration_s(spans, "sir.threshold_sweep") / runs * 1e3
    if workload == "walk":
        local, remote, lat = out["local"], out["remote"], out["latencies_us"]
        walk_s = duration_s(spans, "walker.random_walk_estimate/local")
        remote_s = duration_s(spans, "walker.random_walk_estimate/remote")
        m["walker.oracle_build_s"] = duration_s(spans, "walker.local_oracle")
        m["walker.walk_s"] = walk_s
        m["walker.us_per_step"] = walk_s / local.total_steps * 1e6
        m["walker.steps"] = local.total_steps
        m["walker.queries"] = local.total_queries
        m["walker.distinct_nodes"] = local.distinct_nodes_seen
        m["service.connect_s"] = duration_s(spans, "service.remote_oracle")
        m["service.us_per_query"] = remote_s / remote.total_queries * 1e6
        m["service.query_p50_us"] = float(np.percentile(lat, 50))
        m["service.query_p99_us"] = float(np.percentile(lat, 99))
        m["service.queries_per_step"] = remote.total_queries / remote.total_steps
        m["service.remote_over_local"] = (remote_s / remote.total_steps) / (walk_s / local.total_steps)
        m["harness.experiment_s"] = duration_s(spans, "harness.run_synthetic_experiment")
        m["harness.curve_points"] = out["curve_points"]
    return m


# Per-layer metrics measured on the traced operation, with their units.
PER_LAYER_OP = {
    "spectral.gap_s": "s",
    "spectral.gap_iters": "count",
    "spectral.gap_s_per_iter": "s",
    "spectral.gap_converged": "bool",
    "spectral.gap_residual": "1",
    "spectral.radius_s": "s",
    "spectral.radius_iters": "count",
    "graph.read_s": "s",
    "graph.read_edges_per_s": "1/s",
    "graph.component_s": "s",
    "walker.oracle_build_s": "s",
    "walker.walk_s": "s",
    "walker.us_per_step": "us",
    "walker.steps": "count",
    "walker.queries": "count",
    "walker.distinct_nodes": "count",
    "service.connect_s": "s",
    "service.us_per_query": "us",
    "service.query_p50_us": "us",
    "service.query_p99_us": "us",
    "service.queries_per_step": "count",
    "service.remote_over_local": "ratio",
    "sir.runs": "count",
    "sir.ms_per_run": "ms",
    "harness.experiment_s": "s",
    "harness.curve_points": "count",
    "estimators.t1_s": "s",
    "estimators.plan_s": "s",
    "estimators.plan_r": "count",
}

# Figures printed by name on every untraced run, where the workload has them.
REPORT = {
    "exact": {"exact_s": "s", "gap_err": "1", "lambda_err": "1"},
    "walk": {"experiment_s": "s", "walk_steps_per_s": "steps/s",
             "remote_steps_per_s": "steps/s", "lambda_err": "1"},
    "ingest": {"ingest_s": "s", "sweep_s": "s", "lambda_err": "1"},
}

# Every run prints all of these; each workload defines op_s and eig_err for
# its own operation.
E2E = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "eig_err": "1"}

PER_LAYER = {
    **PER_LAYER_OP,
    "graph.write_s": "s",
    "generators.sample_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

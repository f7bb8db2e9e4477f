"""Unified command-line interface.

Subcommands: generate, exact, estimate, bounds, walk, serve, sir, sweep,
bench-t1, experiment. All emit JSON or CSV on stdout (or to --out), exit 0
on success, 1 on usage errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple

import numpy as np

from . import __version__
from .estimators import (
    chung_radcliffe_bound,
    chunglu_condition,
    hoeffding_m1_bound,
    sample_size,
    t1_estimate,
)
from .generators import (
    chung_lu_sample_fast,
    chung_lu_sample_naive,
    count_clamped_pairs,
    expected_degrees,
)
from .graph import degree_stats, largest_component, read_edge_list, write_edge_list
from .harness import (
    _csv_text,
    _write_text,
    model_graph,
    run_synthetic_experiment,
    run_t1_benchmark,
    write_curve_csv,
    write_records_csv,
)
from .service import OracleServer, RemoteOracle
from .sir import UPDATE_RULE, SirParams, SweepRow, sir_simulate, threshold_sweep
from .spectral import spectral_gap, spectral_radius
from .walker import (DEFAULT_THIN, LocalOracle, WalkConfig, _default_t_star, _walked_component,
                     random_walk_estimate)

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _write(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must look like host:port, got {text!r}")
    return host, int(port)


# The parameters the model flags set; harness.model_graph owns their defaults.
_MODEL_PARAMS = ("deg_dist", "beta", "d_min", "low", "high", "edges_per_node")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["chung-lu", "pa"], required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_argument_group("model parameters", "unset flags take the library defaults")
    group.add_argument("--deg-dist", choices=["powerlaw", "uniform"], help="chung-lu degree law")
    group.add_argument("--beta", type=float, help="power-law tail exponent")
    group.add_argument(
        "--dmin", dest="d_min", metavar="DMIN", type=float, help="minimum expected degree"
    )
    group.add_argument("--low", type=float, help="uniform degree low end")
    group.add_argument("--high", type=float, help="uniform degree high end")
    group.add_argument("--edges-per-node", type=int, help="pa edges added per new node")


def _given(args, names: tuple[str, ...]) -> dict:
    """The named arguments that were set; an unset one is None and is left
    to the library's default."""
    return {k: v for k in names if (v := getattr(args, k)) is not None}


def _cmd_generate(args) -> int:
    sampler = chung_lu_sample_naive if args.sampler == "naive" else chung_lu_sample_fast
    given = _given(args, _MODEL_PARAMS)
    g, params, ed = model_graph(args.model, args.n, args.seed, given, sampler)
    sidecar = {"model": args.model, **params, "n": g.n, "m": g.m, "seed": args.seed}
    if ed is not None:
        sidecar.update(
            S=ed.mu1,
            delta_max=ed.delta_max,
            feasible=ed.feasible,
            clamped_entries=ed.clamped,
            clamped_pairs=count_clamped_pairs(ed),
            sampler=args.sampler,
        )
    write_edge_list(g, args.out)
    _emit(sidecar, args.out + ".json")
    print(f"wrote {args.out} (n={g.n}, m={g.m}) and {args.out}.json")
    return 0


def _cmd_exact(args) -> int:
    g = read_edge_list(args.infile)
    solver = _given(args, ("seed", "tol", "max_iters"))
    result = spectral_radius(g, **solver)
    payload = {
        "lambda": result.value,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
    }
    if args.gap:
        component, _ = largest_component(g)
        gap = spectral_gap(component, **solver)
        payload.update(
            {
                "lambda2": gap.lambda2,
                "gap": gap.gap,
                "gap_iterations": gap.iterations,
                "gap_residual": gap.residual,
                "gap_converged": gap.converged,
                "component_n": component.n,
            }
        )
    _emit(payload, args.out)
    return 0


def _cmd_estimate(args) -> int:
    g = read_edge_list(args.infile)
    _emit(asdict(t1_estimate(g)), args.out)
    return 0


def _cmd_bounds(args) -> int:
    g = read_edge_list(args.infile)
    positive = g.degrees[g.degrees > 0].astype(np.float64)
    ed = expected_degrees(positive)
    hoeffding = hoeffding_m1_bound(ed, args.eps)
    radcliffe = chung_radcliffe_bound(ed, args.delta)
    condition = chunglu_condition(ed)
    component, _ = largest_component(g)
    gap = spectral_gap(component)
    plan = sample_size(degree_stats(component), gap, args.eps, args.delta)
    _emit(
        {
            "note": "expected degrees taken as the observed positive degrees",
            "hoeffding_m1": asdict(hoeffding),
            "chung_radcliffe": asdict(radcliffe),
            "chunglu_condition": condition._asdict(),
            "spectral_gap": asdict(gap),
            "sample_size_plan": asdict(plan),
            "component_n": component.n,
        },
        args.out,
    )
    return 0


def _cmd_walk(args) -> int:
    if (args.infile is None) == (args.remote is None):
        raise ValueError("provide exactly one of --in or --remote")
    r, t_star, plan_note = args.r, args.tstar, None
    if args.remote is not None:
        if r is None:
            raise ValueError("--r is required with --remote (no graph to plan from)")
        # `serve` serves a file's largest component, so ids are component ids
        oracle = RemoteOracle(_parse_addr(args.remote))
        start = args.start
    else:
        g = read_edge_list(args.infile)
        component, mapping = _walked_component(g, args.thin)
        oracle = LocalOracle(component)
        start = int(mapping[args.start]) if 0 <= args.start < g.n else -1
    try:
        n = oracle.node_count()
        if not 0 <= start < n:
            raise ValueError(
                f"start node {args.start} is not in the walked component ({n} nodes)"
            )
        if r is None:
            gap = spectral_gap(component)
            plan = sample_size(degree_stats(component), gap, args.eps, args.delta)
            r, plan_note = plan.r, asdict(plan)
            t_star = plan.t_star if t_star is None else t_star
        if t_star is None:
            t_star = _default_t_star(n)
        cfg = WalkConfig(t_star=t_star, r=r, thin=args.thin, seed=args.seed, start=start)
        report = random_walk_estimate(oracle, cfg)
    finally:
        if args.remote is not None:
            oracle.close()
    payload = {
        "t2": report.estimate,
        "r": report.r,
        "t_star": cfg.t_star,
        "thin": cfg.thin,
        "seed": cfg.seed,
        "start": args.start,
        "component_start": cfg.start,
        "total_steps": report.total_steps,
        "total_queries": report.total_queries,
        "distinct_nodes_seen": report.distinct_nodes_seen,
    }
    if plan_note:
        payload["sample_size_plan"] = plan_note
    _emit(payload, args.out)
    return 0


def _cmd_serve(args) -> int:
    # the graph `walk --in` walks: the largest component, relabeled
    g, _ = largest_component(read_edge_list(args.infile))
    host, port = _parse_addr(args.addr)
    server = OracleServer(g, (host, port))
    bound_host, bound_port = server.address
    print(f"serving oracle for n={g.n}, m={g.m} on {bound_host}:{bound_port}", flush=True)
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_sir(args) -> int:
    g = read_edge_list(args.infile)
    init = tuple(int(v) for v in args.init.split(","))
    params = SirParams(
        beta=args.beta,
        mu=args.mu,
        initial_infected=init,
        max_steps=args.max_steps,
        seed=args.seed,
    )
    traj = sir_simulate(g, params)
    comment = f"# sir beta={args.beta} mu={args.mu} seed={args.seed} init={args.init} {UPDATE_RULE}"
    rows = zip(range(len(traj.s)), traj.s, traj.i, traj.r)
    text = _csv_text([comment], ("step", "s", "i", "r"), rows)
    _write(text + f"# final_size={traj.final_size} steps={traj.steps}\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    g = read_edge_list(args.infile)
    ratios = [float(x) for x in args.ratios.split(",")]
    rows = threshold_sweep(g, ratios, reps=args.reps, seed=args.seed, **_given(args, ("mu",)))
    comment = f"# sweep mu={rows[0].mu} reps={args.reps} seed={args.seed} {UPDATE_RULE}"
    _write(_csv_text([comment], SweepRow.__dataclass_fields__, map(astuple, rows)), args.out)
    return 0


def _cmd_bench_t1(args) -> int:
    records, summary, config = run_t1_benchmark(args.n, args.reps, args.seed)
    if args.out:
        write_records_csv(os.path.join(args.out, "records.csv"), config, records)
    _emit(asdict(summary), None)
    return 0


def _cmd_experiment(args) -> int:
    result = run_synthetic_experiment(
        args.model,
        args.n,
        seed=args.seed,
        params=_given(args, _MODEL_PARAMS),
        **_given(args, ("walk_seeds", "thin")),
    )
    if args.out:
        write_records_csv(os.path.join(args.out, "records.csv"), result.config, result.records)
        write_curve_csv(
            os.path.join(args.out, "curve.csv"),
            result.config,
            result.curve,
            points=result.curve_points,
        )
    _emit(
        {
            "lambda": result.lambda_a,
            "t1": result.t1,
            "e1": result.records[0].e1,
            "component_n": result.component_n,
            "component_t1": result.component_t1,
            "component_lambda": result.component_lambda,
            "curve": [asdict(row) for row in result.curve],
        },
        None,
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="epithresh",
        description="Epidemic-threshold estimation: exact spectral radius, "
        "degree-moment and random-walk estimators, generators, SIR simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic graph edge list")
    _add_model_args(p)
    p.add_argument("--sampler", choices=["fast", "naive"], default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("exact", help="exact spectral radius (and optional gap)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gap", action="store_true", help="also compute the walk spectral gap")
    p.add_argument("--tol", type=float, help="eigensolver tolerance (default: the library's)")
    p.add_argument("--max-iters", type=int, help="iteration cap (default: the library's)")
    p.add_argument("--seed", type=int, help="solver start-vector seed (default: the library's)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("estimate", help="closed-form estimators")
    p.add_argument("quantity", choices=["t1"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bounds", help="concentration bounds and walk sampling plan")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("walk", help="random-walk estimate over a local or remote oracle")
    p.add_argument("--in", dest="infile")
    p.add_argument("--remote", help="host:port of a served oracle")
    p.add_argument("--r", type=int)
    p.add_argument("--tstar", type=int)
    p.add_argument("--thin", type=int, default=DEFAULT_THIN)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.1, help="accuracy for auto-planned r")
    p.add_argument("--delta", type=float, default=0.1, help="failure prob for auto-planned r")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("serve", help="serve a graph oracle over TCP")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--addr", default="127.0.0.1:0")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("sir", help="simulate one SIR trajectory")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--init", default="0", help="comma-separated initially infected nodes")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sir)

    p = sub.add_parser("sweep", help="threshold sweep: outbreak size vs beta/mu ratio")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ratios", default="0.25,0.5,0.75,1.0,1.5,2.0,3.0,4.0")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--mu", type=float, help="recovery probability (default: the library's)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench-t1", help="moment estimator vs spectral radius benchmark")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for the raw records CSV")
    p.set_defaults(func=_cmd_bench_t1)

    p = sub.add_parser("experiment", help="full synthetic experiment with error curves")
    _add_model_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walk-seeds", type=int, help="walks per curve (default: the library's)")
    p.add_argument("--thin", type=int, help="steps between samples (default: the library's)")
    p.add_argument("--out", help="directory for records.csv and curve.csv")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BrokenPipeError, KeyboardInterrupt):
        return RUNTIME_ERROR
    except Exception as exc:  # surface runtime failures as exit code 2
        print(f"epithresh: error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())

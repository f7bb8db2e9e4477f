"""Benchmark entry point for the epithresh pipeline.

    python3 perfbench/run.py --workload {exact,walk,ingest} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The script sets the workload up at least
SETUP_REPS times and for at least SETUP_MIN_S seconds: it samples the
graph, writes its edge list and, for ``walk``, starts an ``epithresh
serve`` process. Then it runs the timed operations in a fresh worker
process (worker.py) with ``EPITHRESH_THREADS`` unset. It prints the workload's named figures and the environment, and as
its last line one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Each run's metrics, environment
and (when traced) spans are also written to ``.perfbench/results/``.
Temporary inputs live in ``.perfbench/tmp-*`` and are removed on every exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # the whole run, set-up and checks included
CHECK_RESERVE_S = 40  # kept free after the timed loop for references and checks


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("exact", "walk", "ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny instances for the self-test")
    p.add_argument("--corrupt", action="store_true",
                   help="tamper with one output before checking it (self-test)")
    return p.parse_args(argv)


def start_server(edges: Path, env: dict) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start `epithresh serve` on a free loopback port; return it once it listens."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "epithresh.cli", "serve", "--in", str(edges), "--addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    if " on " not in line:
        stop(proc)
        raise RuntimeError(f"oracle server did not start (said {line!r})")
    host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
    return proc, (host, int(port))


def stop(proc: subprocess.Popen | None) -> None:
    """Interrupt a server (it shuts its socket down on SIGINT) and reap it."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def environment(seed: int, cpu: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": seed,
        "EPITHRESH_THREADS": None,  # the worker and server run with it unset
        "EPITHRESH_THREADS_caller": os.environ.get("EPITHRESH_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "epithresh" / "__init__.py").is_file():
        print(f"perfbench: no epithresh package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Everything the run starts inherits this one CPU: see README.md, "One CPU".
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import numpy as np

    import epithresh
    import workloads as wl
    from spans import LAYERS, Tracer, self_seconds

    if Path(epithresh.__file__).resolve().parent != (SRC / "epithresh").resolve():
        print(f"perfbench: imported epithresh from {epithresh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if k != "EPITHRESH_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    size = wl.SIZES[args.size][args.workload]
    tmp = ROOT / ".perfbench" / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    server = None
    try:
        tr = Tracer(enabled=bool(args.trace))
        edges = tmp / "edges.txt"
        setup_s, roots = [], []
        while len(setup_s) < wl.SETUP_REPS or sum(setup_s) < wl.SETUP_MIN_S:
            stop(server)
            server, addr = None, None
            with tr.span("setup") as root:
                t0 = time.perf_counter()
                g = wl.generate(args.workload, size, tr)
                wl.write_input(g, edges, args.seed, tr)
                if args.workload == "walk":
                    server, addr = start_server(edges, env)
                setup_s.append(time.perf_counter() - t0)
            if root is not None:
                roots.append(root[0])
        for name in ("offsets", "neighbors", "degrees"):
            np.save(tmp / f"{name}.npy", getattr(g, name))
        graph = {"n": g.n, "m": g.m, "dir": str(tmp)}
        del g

        spec = {
            "workload": args.workload, "size": args.size, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "corrupt": args.corrupt,
            "graph": graph, "edges": str(edges), "addr": addr,
            "out_dir": str(tmp), "result": str(tmp / "result.json"),
            "budget_s": RUN_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - started),
        }
        (tmp / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(tmp / "spec.json")],
            env=env, cwd=ROOT, stdout=sys.stderr,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started),
        )
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "result.json").read_text())
    finally:
        stop(server)
        shutil.rmtree(tmp, ignore_errors=True)

    for failure in result["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if args.trace:
        if "per_layer" not in result:
            print("perfbench: no traced operation completed", file=sys.stderr)
            return 1
        setup_self = [self_seconds(tr.spans, root) for root in roots]
        values = {
            **result["per_layer"],
            "graph.write_s": wl.median(s["graph"] for s in setup_self),
            "generators.sample_s": wl.median(s["generators"] for s in setup_self),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = (result["op_self_s"][layer]
                                         + wl.median(s[layer] for s in setup_self))
        units = wl.PER_LAYER
    else:
        if "e2e" not in result:
            print("perfbench: no operation completed", file=sys.stderr)
            return 1
        values = {"setup_s": wl.median(setup_s), **result["e2e"]}
        units = wl.E2E
    missing = [name for name in units if name not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env_record = environment(args.seed, cpu)

    print(f"perfbench: workload={args.workload} size={args.size} trace={args.trace} "
          f"operations={result['attempted']} failed={result['failed']}")
    print("env " + json.dumps(env_record))
    if not args.trace:
        for name, unit in wl.REPORT[args.workload].items():
            print(f"  {name:<28} {result['report'][name]:>14.6g} {unit}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"env": env_record, "workload": args.workload, "size": args.size,
              "trace": args.trace, "setup_s": setup_s, "metrics": metrics,
              "op_s_each": result["op_s_each"], "report": result.get("report"),
              "failures": result["failures"]}
    if args.trace:
        record["spans"] = {"setup": tr.spans, "ops": result["spans"]}
    out_path = results_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

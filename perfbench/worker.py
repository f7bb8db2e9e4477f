"""Runs one workload's timed operations in a fresh process and checks them.

run.py starts this with ``EPITHRESH_THREADS`` removed from the environment
and passes a JSON spec naming the inputs it set up. Operations repeat until
``seconds`` have passed, at least MIN_OPS times. With tracing on, they
alternate untraced and traced, so the run also measures what tracing costs.
Peak RSS is read when the first operation ends, before scipy is imported
for the reference answers, and all checks run after the timed loop. The
results go to a JSON file.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import epithresh as et
import workloads as wl
from spans import LAYERS, Tracer, self_seconds


def load_graph(spec: dict) -> et.Graph:
    """The generated graph, memory-mapped: its pages count towards RSS only
    once an operation or a check reads them."""
    arrays = {name: np.load(Path(spec["dir"]) / f"{name}.npy", mmap_mode="r")
              for name in ("offsets", "neighbors", "degrees")}
    return et.Graph(n=spec["n"], m=spec["m"], **arrays)


def peak_rss_mb() -> float:
    """This process's own high-water RSS.

    ru_maxrss would not do: Linux carries the parent's RSS at fork into it
    across exec, and the parent holds the set-up's graph.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_ops(spec: dict, ctx: dict) -> tuple[list[dict], list[list], float]:
    """Run the operations; also return the peak RSS once the first has ended.

    Later operations peak higher when the allocator does not reuse the
    memory the first one freed (on ``ingest`` the third peaks about 25 MB
    above the first), so the figure is taken where a one-shot CLI call
    would end.
    """
    op = wl.OPS[spec["workload"]]
    plain, traced_tr = Tracer(enabled=False), Tracer(enabled=True)
    ops: list[dict] = []
    first_peak = 0.0
    start = time.perf_counter()
    while len(ops) < wl.MIN_OPS or time.perf_counter() - start < spec["seconds"]:
        if ops and time.perf_counter() - start > spec["budget_s"]:
            print("perfbench: run time budget reached, stopping early", file=sys.stderr)
            break
        traced = bool(spec["trace"]) and len(ops) % 2 == 1
        tr = traced_tr if traced else plain
        try:
            with tr.span("op") as root:
                out = op(ctx, tr, traced)
        except Exception:  # a failed operation is counted, never fatal
            traceback.print_exc()
            ops.append({"error": traceback.format_exc(limit=3), "traced": traced})
            continue
        finally:
            first_peak = first_peak or peak_rss_mb()
        out["traced"] = traced
        read = out.pop("graph", None)
        if read is not None:
            out["identical"] = read.identical(ctx["graph"])
            out["m"] = read.m
            del read
        if traced:
            op_spans = traced_tr.spans[root[0]:]
            out["layers"] = wl.layer_metrics(spec["workload"], out, op_spans)
            out["self_s"] = self_seconds(traced_tr.spans, root[0])
        ops.append(out)
    return ops, traced_tr.spans, first_peak


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload = spec["workload"]
    ctx = {
        "size": wl.SIZES[spec["size"]][workload],
        "seed": spec["seed"],
        "graph": load_graph(spec["graph"]),
        "edges": spec["edges"],
        "addr": tuple(spec["addr"]) if spec["addr"] else None,
        "out_dir": Path(spec["out_dir"]),
    }
    ops, spans, first_peak = run_ops(spec, ctx)

    done = [out for out in ops if "error" not in out]
    if done and spec["corrupt"]:
        wl.corrupt(workload, done[0])
    ref = wl.references(workload, ctx) if done else None
    failures = []
    for i, out in enumerate(ops):
        bad = [f"raised\n{out['error']}"] if "error" in out else wl.check(workload, out, ref, done[0])
        failures += [f"op {i}: {msg}" for msg in bad]
        out["failed"] = bool(bad)

    plain = [out for out in done if not out["traced"]]
    traced = [out for out in done if out["traced"]]
    result = {"attempted": len(ops), "failed": sum(out["failed"] for out in ops),
              "failures": failures, "spans": spans,
              "op_s_each": [out.get("op_s") for out in ops]}
    if plain:
        result["e2e"] = {
            "op_s": wl.median(out["op_s"] for out in plain),
            "eig_err": wl.median(out["eig_err"] for out in plain),
            "peak_rss_mb": first_peak,
        }
        result["report"] = {
            name: wl.median(out["parts"].get(name, out.get(name)) for out in plain)
            for name in wl.REPORT[workload]
        }
    if traced:
        result["per_layer"] = {
            name: wl.median(out["layers"][name] for out in traced) for name in wl.PER_LAYER_OP
        }
        result["op_self_s"] = {
            layer: wl.median(out["self_s"][layer] for out in traced) for layer in LAYERS
        }
        if plain:
            result["per_layer"]["trace.overhead_s"] = (
                wl.median(out["op_s"] for out in traced) - wl.median(out["op_s"] for out in plain)
            )
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

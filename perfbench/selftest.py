"""Self-test of the benchmark on tiny instances of every workload.

    python3 perfbench/selftest.py

Runs from the root of a checkout and takes about a minute. It checks that
every run ends with a result holding exactly the metrics BENCHMARK.json
names, with its units; that the work counts repeat exactly between two
traced runs of one seed; that a tampered output counts as a failed
operation; and that the benchmark exits non-zero, printing nothing, in a
directory without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("spectral.gap_iters", "spectral.radius_iters", "estimators.plan_r",
          "walker.steps", "walker.queries", "sir.runs", "harness.curve_points")


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess, problems: list[str], what: str) -> dict | None:
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
        problems.append(f"{what}: malformed result {sorted(res)} attempted={res.get('attempted')}")
    return res


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        counts = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            what = f"{workload} trace={trace}"
            res = result_of(run(ROOT, workload, trace, "--size", "tiny"), problems, what)
            if res is None:
                continue
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            got = {name: metric["unit"] for name, metric in res["metrics"].items()}
            if got != expected:
                problems.append(f"{what}: metrics/units differ: {set(got.items()) ^ set(expected.items())}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{what}: {res['failed']} failed operations on correct code")
            values = {name: metric["value"] for name, metric in res["metrics"].items()}
            if kind == "end_to_end" and not all(v > 0 for v in values.values()):
                problems.append(f"{what}: an end-to-end metric is not positive: {values}")
            if kind == "per_layer":
                counts.append({name: values[name] for name in COUNTS})
                if values["walker.queries"] != 2 * values["walker.steps"]:
                    problems.append(f"{what}: walker.queries is not 2 x walker.steps")
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between runs: {counts}")

        what = f"{workload} --corrupt"
        res = result_of(run(ROOT, workload, 0, "--size", "tiny", "--corrupt"), problems, what)
        if res is not None and (res["correct"] or res["failed"] < 1):
            problems.append(f"{what}: tampered output was not counted as failed")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "exact", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

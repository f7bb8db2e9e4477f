"""Golden sha256 digests of the outputs that no eigen solve touches.

They hold the output contract as bytes: the edge-list writer, the JSON
emitter and the CSV format ('#' lines first, LF line ends, floats by repr,
None as an empty cell). The digests were taken with Python 3.11.7 and
numpy 2.4.6.

No output that carries lambda has a digest here (``experiment``, ``sweep``,
``exact``, ``bounds``): OpenBLAS picks its ``ddot`` kernel by CPU model, so
lambda's last digits can differ between machines, and those digests wait for
fixed-order reductions in the solver. The inputs are preferential-attachment
and uniform Chung-Lu graphs. Of the default power-law Chung-Lu draw only the
edge list is pinned, not its sidecar: a sidecar prints ``S`` in full, and
numpy may compute a power-law draw's ``**`` with a different SIMD routine on
another CPU.
"""

import hashlib
import math

from epithresh.cli import main
from epithresh.harness import (
    CurveSummary,
    ExperimentConfig,
    ExperimentRecord,
    write_curve_csv,
    write_records_csv,
)
from epithresh.walker import CurvePoint

CLI_DIGESTS = {
    "pa.txt": "a89ee08fee376914a990e45b19256d9b5c23ae55679bf4d1a5a78ef15c2af7cf",
    "pa.txt.json": "b99da9538085ad2fbf5ebbb81de92b30a87a7ee193d10185875dd461cb829e2a",
    "uniform.txt": "2ecb7efd87b941e50d76065ee03a2ee0c5391e4770617b9cd2eb419e7de5f38e",
    "uniform.txt.json": "57acd63ab38a760351eba675f6708223bc12efa3c458eb8587bd9e6e849063b0",
    "walk.json": "e1bdae54e6cc6ecd1d068b06571739cf37c3a57f88c150d7a68d415afbb0a6b6",
    "sir.csv": "021a92875e703239d9cdc636cc418b2463077e8b884557c668d0ae658b4d59be",
    "t1.json": "18470fbb83f7536c42c4f220bbbc95f7c1020161e455c979618f6f87c265dafa",
}

# generate --model chung-lu --n 3000 --seed 2: 5 clamped degrees, 10 pairs
# drawn with p = 1
POWER_LAW_EDGES_DIGEST = "697027b1b7e65bd17d2b3c82d84587f459c6771104d5acfbcaf203ccb1bbc3d5"

WRITER_DIGESTS = {
    "records.csv": "740f00e1a87c388bb966b934e99e938cc2c26762cb85c96e6e5e34ee1d3a0249",
    "curve.csv": "ae403bb213da372f8d876eb92d45c468ebe9595f7d469f6d9aaff81e5041e7b6",
    "curve.raw.csv": "46face8e22fd5ed749ac8ce0000f25c4f7a5e0300d97b9d735f2555143ac144f",
}


def digests(directory, names) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_cli_outputs_without_an_eigen_solve(tmp_path, capsys):
    pa, uniform = str(tmp_path / "pa.txt"), str(tmp_path / "uniform.txt")
    runs = [
        ("generate", "--model", "pa", "--n", "300", "--edges-per-node", "3", "--seed", "1",
         "--out", pa),
        ("generate", "--model", "chung-lu", "--deg-dist", "uniform", "--n", "300",
         "--low", "6", "--high", "14", "--seed", "2", "--out", uniform),
        ("walk", "--in", pa, "--r", "500", "--seed", "4", "--thin", "9",
         "--out", str(tmp_path / "walk.json")),
        ("sir", "--in", pa, "--beta", "0.2", "--mu", "0.3", "--seed", "5",
         "--out", str(tmp_path / "sir.csv")),
        ("estimate", "t1", "--in", pa, "--out", str(tmp_path / "t1.json")),
    ]
    for argv in runs:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    assert digests(tmp_path, CLI_DIGESTS) == CLI_DIGESTS


def test_power_law_edge_list(tmp_path, capsys):
    out = tmp_path / "cl.txt"
    assert main(["generate", "--model", "chung-lu", "--n", "3000", "--seed", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POWER_LAW_EDGES_DIGEST


def test_experiment_csv_writers(tmp_path):
    config = ExperimentConfig(
        experiment="error-curve",
        model="chung-lu",
        n=10,
        seed=3,
        params={"deg_dist": "uniform", "low": 6.0, "high": 14.0},
        walk_seeds=(11, 12),
        budget_fractions=(0.1, 1.0),
        thin=9,
    )
    records = [
        ExperimentRecord(seed=11, n=10, m=20, lambda_a=4.5, t1=1 / 3, t2=None, e1=0.1,
                         eps_t1_t2=None, eps_lambda_t2=None, nodes_seen=None,
                         runtime_lambda=None, runtime_t1=None, runtime_t2=None),
        ExperimentRecord(seed=12, n=10, m=20, lambda_a=4.5, t1=1 / 3, t2=4.25, e1=2 / 3,
                         eps_t1_t2=1e-17, eps_lambda_t2=1e22, nodes_seen=7,
                         runtime_lambda=0.5, runtime_t1=-0.0, runtime_t2=math.inf),
    ]
    curve = [
        CurveSummary(budget=1, budget_fraction=0.1, mean_nodes_seen=1.0,
                     mean_eps_t1=None, mean_eps_lambda=None, seeds_used=0),
        CurveSummary(budget=10, budget_fraction=1.0, mean_nodes_seen=9.5,
                     mean_eps_t1=0.125, mean_eps_lambda=1 / 7, seeds_used=2),
    ]
    points = [
        CurvePoint(seed=11, budget=1, nodes_seen=1, steps=1, samples=0,
                   estimate=math.nan, eps_t1=math.nan, eps_lambda=math.nan),
        CurvePoint(seed=12, budget=10, nodes_seen=10, steps=40, samples=3,
                   estimate=13 / 3, eps_t1=12.0, eps_lambda=0.1 / 3),
    ]
    write_records_csv(str(tmp_path / "out" / "records.csv"), config, records)
    write_curve_csv(str(tmp_path / "out" / "curve.csv"), config, curve, points=points)
    assert digests(tmp_path / "out", WRITER_DIGESTS) == WRITER_DIGESTS

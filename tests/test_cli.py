import json
import subprocess
import sys

import pytest

from epithresh.cli import main
from epithresh.graph import read_edge_list, write_edge_list

from conftest import random_connected_graph


@pytest.fixture
def edge_file(tmp_path):
    g = random_connected_graph(120, seed=3, extra_edges=200)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestGenerate:
    def test_chung_lu_with_sidecar(self, tmp_path):
        out = tmp_path / "cl.txt"
        code = run_cli(
            "generate", "--model", "chung-lu", "--n", "300", "--deg-dist", "uniform",
            "--low", "4", "--high", "10", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        g = read_edge_list(str(out))
        assert g.n == 300
        sidecar = json.loads((tmp_path / "cl.txt.json").read_text())
        assert sidecar["model"] == "chung-lu"
        assert sidecar["m"] == g.m
        assert {"S", "clamped_pairs", "seed"} <= set(sidecar)

    def test_pa(self, tmp_path):
        out = tmp_path / "pa.txt"
        assert run_cli(
            "generate", "--model", "pa", "--n", "200",
            "--edges-per-node", "4", "--seed", "2", "--out", str(out),
        ) == 0
        g = read_edge_list(str(out))
        assert g.m == 10 + 4 * (200 - 5)


class TestExactAndEstimate:
    def test_exact_json(self, edge_file, capsys):
        assert run_cli("exact", "--in", edge_file, "--gap") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["lambda"] > 0
        assert 0 <= payload["gap"] <= 2
        assert payload["gap_converged"]
        assert 0 <= payload["gap_residual"] < 1e-10
        assert payload["gap_iterations"] >= 1

    def test_estimate_t1(self, edge_file, capsys):
        assert run_cli("estimate", "t1", "--in", edge_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t1"] == pytest.approx(payload["m2"] / payload["m1"])

    def test_bounds(self, edge_file, capsys):
        assert run_cli("bounds", "--in", edge_file, "--eps", "0.2", "--delta", "0.1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hoeffding_m1"]["value"] >= 0
        assert payload["sample_size_plan"]["r"] >= 1
        assert "chunglu_condition" in payload
        gap = payload["spectral_gap"]
        assert set(gap) == {"lambda2", "gap", "iterations", "residual", "converged"}
        assert gap["converged"] and gap["residual"] < 1e-10
        assert payload["sample_size_plan"]["gap"] == gap["gap"]

    @pytest.mark.parametrize(
        "argv", [("bounds", "--eps", "0.2", "--delta", "0.1"), ("walk",)], ids=["bounds", "walk"]
    )
    def test_truncated_gap_is_refused(self, edge_file, capsys, monkeypatch, argv):
        from epithresh import cli

        real = cli.spectral_gap
        monkeypatch.setattr(cli, "spectral_gap", lambda g: real(g, max_iters=3))
        assert run_cli(argv[0], "--in", edge_file, *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not certified: Ritz residual" in captured.err


class TestWalkCommand:
    def test_walk_fixed_r(self, edge_file, capsys):
        assert run_cli("walk", "--in", edge_file, "--r", "200", "--seed", "4") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == 200
        assert payload["total_queries"] == 2 * payload["total_steps"]

    def test_walk_auto_plan(self, edge_file, capsys):
        assert run_cli(
            "walk", "--in", edge_file, "--eps", "0.5", "--delta", "0.2", "--thin", "1"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == payload["sample_size_plan"]["r"]

    def test_walk_requires_exactly_one_source(self, edge_file):
        assert run_cli("walk", "--in", edge_file, "--remote", "h:1", "--r", "5") == 2
        assert run_cli("walk", "--r", "5") == 2

    def test_walk_remote_matches_local(self, edge_file, capsys):
        from epithresh.service import serve_oracle

        g = read_edge_list(edge_file)
        with serve_oracle(g) as server:
            host, port = server.address
            assert run_cli(
                "walk", "--remote", f"{host}:{port}",
                "--r", "100", "--tstar", "7", "--seed", "5",
            ) == 0
            remote_payload = json.loads(capsys.readouterr().out)
        assert run_cli(
            "walk", "--in", edge_file, "--r", "100", "--tstar", "7", "--seed", "5",
        ) == 0
        local_payload = json.loads(capsys.readouterr().out)
        # the fixture graph is connected, so ids match and walks coincide
        assert remote_payload["t2"] == local_payload["t2"]
        assert remote_payload["total_queries"] == local_payload["total_queries"]

    def test_walk_start_outside_component(self, tmp_path, capsys):
        # nodes 0-2 form a triangle; 3-4 a separate edge: start 3 is excluded
        path = tmp_path / "two.txt"
        path.write_text("0 1\n1 2\n2 0\n3 4\n")
        assert run_cli("walk", "--in", str(path), "--r", "5", "--start", "3") == 2
        assert "not in the walked component" in capsys.readouterr().err


class TestSirCommands:
    def test_sir_trajectory_csv(self, edge_file, capsys):
        assert run_cli(
            "sir", "--in", edge_file, "--beta", "0.3", "--mu", "0.4", "--init", "0",
        ) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "step,s,i,r"
        first = lines[1].split(",")
        assert first == ["0", "119", "1", "0"]

    def test_sweep_csv(self, edge_file, capsys):
        assert run_cli(
            "sweep", "--in", edge_file, "--ratios", "0.5,2.0", "--reps", "3",
        ) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("ratio,beta,mu,")
        assert len(rows) == 3


class TestHarnessCommands:
    def test_bench_t1(self, capsys, tmp_path):
        assert run_cli(
            "bench-t1", "--n", "300", "--reps", "2", "--seed", "5",
            "--out", str(tmp_path / "bench"),
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reps"] == 2
        assert (tmp_path / "bench" / "records.csv").exists()

    def test_experiment_deterministic_files(self, tmp_path, capsys):
        argv = [
            "experiment", "--model", "chung-lu", "--n", "300", "--seed", "7",
            "--deg-dist", "uniform", "--low", "6", "--high", "12",
            "--walk-seeds", "2", "--thin", "5",
        ]
        assert run_cli(*argv, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*argv, "--out", str(tmp_path / "b")) == 0
        capsys.readouterr()
        for name in ("records.csv", "curve.csv", "curve.raw.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestExitCodes:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("exact", "--in", "g.txt", "--nonsense")
        assert info.value.code == 1
        assert "--nonsense" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as info:
            run_cli("frobnicate")
        assert info.value.code == 1

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("exact", "--in", "/nonexistent/g.txt") == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as info:
            run_cli("--help")
        assert info.value.code == 0

    def test_console_script(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "epithresh.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

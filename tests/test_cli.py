import csv
import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

import epithresh
from epithresh import cli
from epithresh.cli import main
from epithresh.graph import largest_component, read_edge_list, write_edge_list
from epithresh.harness import (
    model_graph,
    run_synthetic_experiment,
    write_curve_csv,
    write_records_csv,
)
from epithresh.sir import threshold_sweep
from epithresh.spectral import spectral_gap, spectral_radius
from epithresh.walker import _default_t_star

from conftest import random_connected_graph, sampler_warning


@pytest.fixture
def edge_file(tmp_path):
    g = random_connected_graph(120, seed=3, extra_edges=200)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


@contextmanager
def served(path: str):
    """Run `epithresh serve --in path` in a subprocess; yield its start-up
    line and its address as host:port."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(epithresh.__file__)))
    argv = [sys.executable, "-m", "epithresh.cli", "serve", "--in", path]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            line = proc.stdout.readline()
            yield line, line.rsplit(" on ", 1)[1].strip()
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)


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
        real = cli.spectral_gap
        monkeypatch.setattr(cli, "spectral_gap", lambda g: real(g, max_iters=3))
        assert run_cli(argv[0], "--in", edge_file, *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not certified: Ritz residual" in captured.err


@pytest.mark.parametrize(
    "argv",
    [("exact",), ("estimate", "t1"), ("sweep", "--ratios", "0.5,2.0", "--reps", "3")],
    ids=["exact", "estimate", "sweep"],
)
def test_out_file_gets_the_stdout_bytes(edge_file, tmp_path, capsys, argv):
    assert run_cli(*argv, "--in", edge_file) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert run_cli(*argv, "--in", edge_file, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


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

    def test_walk_requires_exactly_one_source(self, edge_file, capsys):
        assert run_cli("walk", "--in", edge_file, "--remote", "h:1", "--r", "5") == 2
        assert run_cli("walk", "--r", "5") == 2
        assert "exactly one of --in or --remote" in capsys.readouterr().err
        # both remote refusals come before any connection is attempted
        assert run_cli("walk", "--remote", "127.0.0.1:1") == 2
        assert "--r is required with --remote" in capsys.readouterr().err
        assert run_cli("walk", "--remote", "localhost", "--r", "5") == 2
        assert "address must look like host:port, got 'localhost'" in capsys.readouterr().err

    def test_walk_remote_matches_local(self, edge_file, capsys, monkeypatch):
        from epithresh.service import OracleServer, RemoteOracle

        opened = []

        def recording_remote_oracle(address):
            opened.append(RemoteOracle(address))
            return opened[-1]

        monkeypatch.setattr(cli, "RemoteOracle", recording_remote_oracle)
        g = read_edge_list(edge_file)
        with OracleServer(g) as server:
            host, port = server.address
            assert run_cli(
                "walk", "--remote", f"{host}:{port}",
                "--r", "100", "--tstar", "7", "--seed", "5",
            ) == 0
            remote_payload = json.loads(capsys.readouterr().out)
        # the command closes its connection instead of leaving it to the GC
        assert len(opened) == 1 and opened[0]._sock.fileno() == -1
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


    def test_walk_refuses_even_thin_on_a_bipartite_component(self, tmp_path, capsys):
        # the star K_{1,5}: m2/m1 = 30/10 = 3, but an even thin samples only
        # the center (or only the leaves), which printed t2 = 5.0
        path = tmp_path / "star.txt"
        path.write_text("".join(f"0 {leaf}\n" for leaf in range(1, 6)))
        assert run_cli("walk", "--in", str(path), "--r", "1000") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "size 1 and 5" in err and "thin=10" in err and "odd thin converges" in err
        assert run_cli("walk", "--in", str(path), "--r", "1000", "--thin", "9") == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["t2"] == 3.0 and err == ""

    def test_walk_refuses_thin_zero_before_the_bipartite_check(self, tmp_path, capsys):
        path = tmp_path / "star.txt"
        path.write_text("".join(f"0 {leaf}\n" for leaf in range(1, 6)))
        assert run_cli("walk", "--in", str(path), "--r", "10", "--thin", "0") == 2
        out, err = capsys.readouterr()
        assert out == "" and "thinning must be at least 1" in err and "bipartite" not in err


class TestDisconnectedFile:
    """`serve --in F` serves the component that `walk --in F` walks."""

    @pytest.fixture
    def power_law_file(self, tmp_path):
        path = str(tmp_path / "pl.txt")
        with sampler_warning("chung-lu", {}):
            assert run_cli(
                "generate", "--model", "chung-lu", "--n", "2000", "--seed", "7", "--out", path
            ) == 0
        return path

    def test_local_and_remote_walks_agree(self, power_law_file, capsys):
        component, mapping = largest_component(read_edge_list(power_law_file))
        inside, outside = 16, 15  # node 15 lies in a 2-node fragment
        assert mapping[inside] != inside and mapping[outside] == -1 < mapping[inside]
        cases = [("--r", "300", "--tstar", "9", "--seed", "3"), ("--r", "200", "--seed", "8")]
        remote = []
        with served(power_law_file) as (line, addr):
            assert f"n={component.n}, m={component.m} on " in line
            for flags in cases:
                start = str(mapping[inside])
                assert run_cli("walk", "--remote", addr, "--start", start, *flags) == 0
                remote.append(json.loads(capsys.readouterr().out))
            for start in (component.n, -1):
                assert run_cli("walk", "--remote", addr, "--start", str(start), "--r", "5") == 2
                assert "not in the walked component" in capsys.readouterr().err
        for flags, got in zip(cases, remote):
            assert run_cli("walk", "--in", power_law_file, "--start", str(inside), *flags) == 0
            want = json.loads(capsys.readouterr().out)
            assert (want.pop("start"), got.pop("start")) == (inside, mapping[inside])
            assert got == want
        # without --tstar, both paths burn in for the component's node count
        assert remote[1]["t_star"] == _default_t_star(component.n)
        assert run_cli("walk", "--in", power_law_file, "--start", str(outside), "--r", "5") == 2
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
        header = [line for line in (tmp_path / "bench" / "records.csv").read_text().splitlines()
                  if line.startswith("#")]
        # the benchmark runs no walks, so no walk settings are claimed
        assert "# n=300 seed=5" in header
        assert not any("thin=" in line or "budget_fractions" in line for line in header)

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


def blank_columns(path) -> set[frozenset[str]]:
    """The set of blank-column sets over the data rows of a CSV file: one
    set when every row leaves the same columns blank."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    return {frozenset(name for name, cell in zip(header, row) if cell == "") for row in rows}


def test_records_leave_exactly_the_unmeasured_cells_blank(tmp_path, capsys):
    assert run_cli("bench-t1", "--n", "300", "--reps", "2", "--seed", "5",
                   "--out", str(tmp_path / "bench")) == 0
    capsys.readouterr()
    # the benchmark times lambda and t1 but runs no walk
    assert blank_columns(tmp_path / "bench" / "records.csv") == {
        frozenset({"t2", "eps_t1_t2", "eps_lambda_t2", "nodes_seen", "runtime_t2"})}
    assert run_cli("experiment", "--model", "chung-lu", "--n", "300", "--seed", "7",
                   "--deg-dist", "uniform", "--low", "6", "--high", "12", "--walk-seeds", "2",
                   "--thin", "5", "--out", str(tmp_path / "exp")) == 0
    payload = json.loads(capsys.readouterr().out)
    # the experiment walks but times nothing
    records = tmp_path / "exp" / "records.csv"
    assert blank_columns(records) == {frozenset({"runtime_lambda", "runtime_t1", "runtime_t2"})}
    lines = [line for line in records.read_text().splitlines() if not line.startswith("#")]
    e1_cells = {row["e1"] for row in csv.DictReader(lines)}
    assert e1_cells == {repr(payload["e1"])}


def test_no_csv_holds_a_carriage_return(edge_file, tmp_path, capsys):
    runs = [
        ("experiment", "--model", "chung-lu", "--n", "300", "--seed", "7", "--deg-dist",
         "uniform", "--low", "6", "--high", "12", "--walk-seeds", "2", "--thin", "5",
         "--out", str(tmp_path / "exp")),
        ("bench-t1", "--n", "300", "--reps", "2", "--seed", "5", "--out", str(tmp_path / "bench")),
        ("sweep", "--in", edge_file, "--ratios", "0.5,2.0", "--reps", "3",
         "--out", str(tmp_path / "sweep.csv")),
        ("sir", "--in", edge_file, "--beta", "0.3", "--mu", "0.4", "--out", str(tmp_path / "sir.csv")),
    ]
    for argv in runs:
        assert run_cli(*argv) == 0, argv
    capsys.readouterr()
    written = ["exp/records.csv", "exp/curve.csv", "exp/curve.raw.csv", "bench/records.csv",
               "sweep.csv", "sir.csv"]
    assert [name for name in written if b"\r" in (tmp_path / name).read_bytes()] == []


# Each model with no parameter flags but the uniform law's name, and the
# library parameters they stand for: the CLI must use the library's defaults.
DEFAULT_MODELS = [
    ("chung-lu", (), {}),
    ("chung-lu", ("--deg-dist", "uniform"), {"deg_dist": "uniform"}),
    ("pa", (), {}),
]


@pytest.mark.parametrize("model,flags,params", DEFAULT_MODELS, ids=["powerlaw", "uniform", "pa"])
class TestLibraryDefaults:
    def test_generate_matches_model_graph(self, tmp_path, model, flags, params):
        out = str(tmp_path / "g.txt")
        with sampler_warning(model, params):
            assert run_cli(
                "generate", "--model", model, "--n", "300", "--seed", "3", *flags, "--out", out
            ) == 0
            assert read_edge_list(out).identical(model_graph(model, 300, 3, params)[0])

    def test_experiment_matches_run_synthetic_experiment(
        self, tmp_path, capsys, model, flags, params
    ):
        # once with the walk flags left to the library's defaults, once set
        for case, walk_flags, walk_kwargs in [
            ("defaults", (), {}),
            ("set", ("--walk-seeds", "2", "--thin", "5"), {"walk_seeds": 2, "thin": 5}),
        ]:
            out, ref = tmp_path / case / "cli", tmp_path / case / "lib"
            ref.mkdir(parents=True)
            with sampler_warning(model, params):
                assert run_cli(
                    "experiment", "--model", model, "--n", "300", "--seed", "3", *flags,
                    *walk_flags, "--out", str(out),
                ) == 0
                result = run_synthetic_experiment(model, 300, 3, params=params, **walk_kwargs)
            capsys.readouterr()
            write_records_csv(str(ref / "records.csv"), result.config, result.records)
            write_curve_csv(str(ref / "curve.csv"), result.config, result.curve,
                            points=result.curve_points)
            for name in ("records.csv", "curve.csv", "curve.raw.csv"):
                assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_exact_gap_matches_the_solvers(self, tmp_path, capsys, model, flags, params):
        with sampler_warning(model, params):
            g = model_graph(model, 300, 3, params)[0]
        write_edge_list(g, str(tmp_path / "g.txt"))
        assert run_cli("exact", "--in", str(tmp_path / "g.txt"), "--gap") == 0
        got = json.loads(capsys.readouterr().out)
        lam, gap = spectral_radius(g), spectral_gap(largest_component(g)[0])
        assert (got["lambda"], got["iterations"], got["residual"], got["converged"]) == (
            lam.value, lam.iterations, lam.residual, lam.converged)
        assert (got["lambda2"], got["gap"], got["gap_iterations"], got["gap_residual"],
                got["gap_converged"]) == (
            gap.lambda2, gap.gap, gap.iterations, gap.residual, gap.converged)

    def test_sweep_matches_threshold_sweep(self, tmp_path, capsys, model, flags, params):
        with sampler_warning(model, params):
            g = model_graph(model, 300, 3, params)[0]
        write_edge_list(g, str(tmp_path / "g.txt"))
        assert run_cli(
            "sweep", "--in", str(tmp_path / "g.txt"), "--ratios", "0.5,2", "--reps", "3",
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        want = threshold_sweep(g, [0.5, 2.0], reps=3, seed=0)
        assert lines[0].startswith(f"# sweep mu={want[0].mu} ")
        assert [tuple(map(float, line.split(","))) for line in lines[2:]] == [
            (r.ratio, r.beta, r.mu, r.mean_final_fraction, r.sd_final_fraction, r.reps)
            for r in want
        ]


# Every flag whose default the library owns, by subcommand; each must parse
# to None when absent, so that `_given` leaves it to the library.
LIBRARY_OWNED_FLAGS = {
    "generate": (["--model", "pa", "--n", "9", "--out", "g.txt"], cli._MODEL_PARAMS),
    "exact": (["--in", "g.txt"], ("seed", "tol", "max_iters")),
    "sweep": (["--in", "g.txt"], ("mu",)),
    "experiment": (["--model", "pa", "--n", "9"], ("walk_seeds", "thin", *cli._MODEL_PARAMS)),
}


@pytest.mark.parametrize("command", list(LIBRARY_OWNED_FLAGS))
def test_library_owned_flags_parse_to_none(command):
    argv, names = LIBRARY_OWNED_FLAGS[command]
    args = cli.build_parser().parse_args([command, *argv])
    assert {name: getattr(args, name) for name in names} == dict.fromkeys(names)


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

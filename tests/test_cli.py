"""Tests for the command line interface (driven through main(argv))."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from matchinv import build_family, feasible_set, graph6_decode, graph6_encode, invariant_triple
from matchinv.cli import main
from oracles import spec_grid

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_invariants_single(capsys):
    code, out, err = run_cli(capsys, ["invariants", "A_"])
    assert code == 0 and err == ""
    assert json_lines(out) == [{"connected": True, "ind": 1, "match": 1,
                                "min": 1, "n": 2}]


def test_invariants_multiple_and_reg(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "--reg", "A_", "DQc"])
    assert code == 0
    rows = json_lines(out)
    assert len(rows) == 2
    assert rows[0]["reg"] == 1
    assert rows[1]["n"] == 5
    assert all("reg" in row for row in rows)


def test_invariants_pretty(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "--pretty", "A_"])
    assert code == 0
    assert "n=2" in out and "ind=1" in out and "{" not in out


def test_invariants_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n\nDQc\n"))
    code, out, _ = run_cli(capsys, ["invariants"])
    assert code == 0
    assert [row["n"] for row in json_lines(out)] == [2, 5]


def test_invariants_bad_input(capsys):
    code, out, err = run_cli(capsys, ["invariants", "!!"])
    assert code == 2
    assert err.startswith("error:")


def test_construct_json(capsys):
    code, out, _ = run_cli(capsys, ["construct", "G2(2,0,1,0,1)"])
    assert code == 0
    row = json_lines(out)[0]
    assert row["family"] == "G2"
    assert row["params"] == [2, 0, 1, 0, 1]
    assert row["n"] == 8
    assert row["edge_count"] == 14
    assert row["labels"] == ["x1", "x2", "x3", "x4", "z1", "v1", "v2", "w"]
    assert row["predicted"] == {"ind": 2, "min": 3, "match": 4}
    assert row["graph6"] == "G~C?Nk"


def test_construct_params_flag(capsys):
    code, out, _ = run_cli(capsys, ["construct", "G1", "--params", "2,1,3"])
    assert code == 0
    row = json_lines(out)[0]
    assert row["family"] == "G1" and row["n"] == 9
    assert row["predicted"] == {"ind": 1, "min": 2, "match": 3}


def test_construct_graph6_format(capsys):
    code, out, _ = run_cli(capsys, ["construct", "G2(2,0,1,0,1)",
                                    "--format", "graph6"])
    assert code == 0
    assert out.strip() == "G~C?Nk"


def test_construct_dot_format(capsys):
    code, out, _ = run_cli(capsys, ["construct", "G3(1,0,1)",
                                    "--format", "dot"])
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out
    assert '"w"' in out


def test_construct_invalid_params(capsys):
    # --params goes through the same parser as a full spec like G1(2,0,1),
    # so a wrong parameter count is a usage error, not a traceback
    for argv in (["G1", "--params", "0,0,0"], ["G1", "--params", "2,1"],
                 ["G1", "--params", "1,2,3,4,5,6"],
                 ["G3", "--params", "1,0,1,0,0"]):
        code, out, err = run_cli(capsys, ["construct", *argv])
        assert code == 2 and out == "" and err.startswith("error:")


def test_construct_then_invariants_pipeline(capsys):
    for spec in ("G1(2,0,1)", "G2(1,0,1,1,0)", "G3(1,1,2)"):
        code, out, _ = run_cli(capsys, ["construct", spec])
        assert code == 0
        row = json_lines(out)[0]
        G = graph6_decode(row["graph6"])
        t = invariant_triple(G)
        assert {"ind": t.ind_match, "min": t.min_match,
                "match": t.match} == row["predicted"]


def test_witness_feasible(capsys):
    code, out, _ = run_cli(capsys, ["witness", "-p", "2", "-q", "3",
                                    "-r", "4", "-n", "8"])
    assert code == 0
    row = json_lines(out)[0]
    assert row["feasible"] is True
    assert row["family"] == "G2"
    assert row["verified"] == {"ind": 2, "min": 3, "match": 4}


def test_witness_at_the_vertex_cap(capsys):
    code, out, _ = run_cli(capsys, ["witness", "-p", "8", "-q", "21",
                                    "-r", "23", "-n", "64"])
    assert code == 0
    row = json_lines(out)[0]
    assert row["verified"] == {"ind": 8, "min": 21, "match": 23}
    assert graph6_decode(row["graph6"]).n == 64


def test_witness_above_the_vertex_cap(capsys):
    # feasible or not, the query is refused for its vertex count
    for p in ("1", "0"):
        code, out, err = run_cli(capsys, ["witness", "-p", p, "-q", "1",
                                          "-r", "1", "-n", "100"])
        assert code == 2 and out == ""
        assert err == "error: vertex count 100 exceeds 64\n"


def test_witness_infeasible(capsys):
    code, out, _ = run_cli(capsys, ["witness", "-p", "2", "-q", "2",
                                    "-r", "2", "-n", "4"])
    assert code == 1
    row = json_lines(out)[0]
    assert row == {"query": {"p": 2, "q": 2, "r": 2, "n": 4},
                   "feasible": False, "reason": "AV_EXCLUSION"}


def test_witness_graph6_format(capsys):
    code, out, _ = run_cli(capsys, ["witness", "-p", "1", "-q", "2",
                                    "-r", "2", "-n", "5", "--format", "graph6"])
    assert code == 0
    G = graph6_decode(out.strip())
    assert tuple(invariant_triple(G)) == (1, 2, 2)


def test_witness_infeasible_graph6_falls_back_to_json(capsys):
    code, out, _ = run_cli(capsys, ["witness", "-p", "0", "-q", "1",
                                    "-r", "1", "-n", "4", "--format", "graph6"])
    assert code == 1
    assert json_lines(out)[0]["reason"] == "P_BELOW_1"


def test_feasible(capsys):
    code, out, _ = run_cli(capsys, ["feasible", "-n", "6"])
    assert code == 0
    row = json_lines(out)[0]
    assert row["n"] == 6 and row["count"] == 7
    assert row["tuples"] == sorted(row["tuples"])
    assert [1, 1, 1] in row["tuples"] and [2, 2, 3] in row["tuples"]


def test_feasible_pretty(capsys):
    code, out, _ = run_cli(capsys, ["feasible", "-n", "6", "--pretty"])
    assert code == 0
    assert out.strip().endswith("total 7")
    assert "(1, 2, 3)" in out


def test_feasible_bad_n(capsys):
    code, out, err = run_cli(capsys, ["feasible", "-n", "1"])
    assert code == 2 and err.startswith("error:")
    code, out, err = run_cli(capsys, ["feasible", "-n", "65"])  # above the cap
    assert code == 2 and out == "" and err == "error: vertex count 65 exceeds 64\n"


def test_verify_first_main(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--check", "first-main",
                                    "--n-max", "4"])
    assert code == 0
    rows = json_lines(out)
    assert [row["n_range"] for row in rows] == [[2, 2], [3, 3], [4, 4]]
    assert all(row["passed"] for row in rows)
    assert all("elapsed" not in row for row in rows)


def test_verify_jobs_changes_nothing(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, ["verify", "--check", "first-main",
                                        "--n-max", "6", "--jobs", jobs])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_timing_flag(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--check", "first-main",
                                    "--n-max", "2", "--timing"])
    assert code == 0
    assert "elapsed" in json_lines(out)[0]


def test_verify_timing_adds_only_elapsed(capsys):
    # the CLI times each check; the timed rows are the untimed ones plus
    # one float per row
    argv = ["verify", "--check", "av", "--n-max", "6"]
    code, plain, _ = run_cli(capsys, argv)
    assert code == 0
    code, out, _ = run_cli(capsys, argv + ["--timing"])
    assert code == 0
    rows = json_lines(out)
    seconds = [row.pop("elapsed") for row in rows]
    assert rows == json_lines(plain) and len(rows) == 3
    assert all(isinstance(s, float) and s >= 0 for s in seconds)


def test_verify_first_main_needs_sample_above_7(capsys):
    code, out, err = run_cli(capsys, ["verify", "--check", "first-main",
                                      "--n-max", "8"])
    assert code == 2 and "--sample" in err


def test_verify_first_main_sampled(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--check", "first-main",
                                    "--n-max", "8", "--sample", "60"])
    assert code == 0
    rows = json_lines(out)
    assert len(rows) == 7  # exhaustive 2..7 plus sampled 8
    assert rows[-1]["check"] == "first-main-sampled"
    assert rows[-1]["details"]["exhaustive"] is False


def test_verify_av(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--check", "av", "--n-max", "6"])
    assert code == 0
    rows = json_lines(out)
    assert [row["n_range"][0] for row in rows] == [2, 4, 6]
    assert all(row["passed"] for row in rows)


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--check", "lemmas",
                                    "--n-max", "4", "--sample", "150",
                                    "--seed", "2"])
    assert code == 0
    row = json_lines(out)[0]
    assert row["passed"]
    assert row["details"]["samples"] == 150
    assert row["details"]["seed"] == 2


def test_verify_second_main(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--check", "second-main",
                                    "--n-max", "4"])
    assert code == 0
    assert json_lines(out)[0]["passed"]


def test_verify_caps(capsys):
    for argv in (["verify", "--check", "av", "--n-max", "8"],
                 ["verify", "--check", "lemmas", "--n-max", "8"],
                 ["verify", "--check", "second-main", "--n-max", "10"],
                 ["verify", "--check", "first-main", "--n-max", "12",
                  "--sample", "10"],
                 *(["verify", "--check", check, "--n-max", n]
                   for check in ("first-main", "av") for n in ("1", "0", "-3")),
                 *(["verify", "--check", "first-main", "--n-max", "3",
                    "--jobs", j] for j in ("0", "-3")),
                 # --sample where nothing samples
                 ["verify", "--check", "av", "--n-max", "4", "--sample", "10"],
                 ["verify", "--check", "second-main", "--n-max", "3",
                  "--sample", "10"],
                 ["verify", "--check", "first-main", "--n-max", "7",
                  "--sample", "10"],
                 # --sample below 1
                 ["verify", "--check", "first-main", "--n-max", "8",
                  "--sample", "0"],
                 ["verify", "--check", "first-main", "--n-max", "8",
                  "--sample", "-4"],
                 ["verify", "--check", "lemmas", "--n-max", "2",
                  "--sample", "-5"],
                 # --seed where nothing samples
                 ["verify", "--check", "av", "--n-max", "4", "--seed", "7"],
                 ["verify", "--check", "second-main", "--n-max", "3",
                  "--seed", "7"],
                 ["verify", "--check", "first-main", "--n-max", "7",
                  "--seed", "7"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and err.startswith("error:")


def test_verify_failures_out(capsys, tmp_path):
    target = tmp_path / "failures.g6"
    code, out, _ = run_cli(capsys, ["verify", "--check", "first-main",
                                    "--n-max", "3",
                                    "--failures-out", str(target)])
    assert code == 0
    assert target.read_text() == ""


def test_verify_failures_out_unwritable(capsys, tmp_path):
    # the file is opened before any check runs: no report, a usage error
    target = tmp_path / "missing" / "failures.g6"
    code, out, err = run_cli(capsys, ["verify", "--check", "av",
                                      "--n-max", "2",
                                      "--failures-out", str(target)])
    assert code == 2 and out == "" and err.startswith("error:")
    assert not target.parent.exists()


def test_reg_command(capsys):
    code, out, _ = run_cli(capsys, ["reg", "A_"])
    assert code == 0
    assert json_lines(out) == [{"reg": 1, "witness_W": [0, 1],
                                "witness_d": 1}]


def test_cli_deterministic_output(capsys):
    argv = ["witness", "-p", "2", "-q", "3", "-r", "4", "-n", "8"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def _stdout_grid():
    """263 commands over every JSON shape but verify's, and the tables."""
    argvs = [["construct", f"{spec.family}({','.join(map(str, spec.params()))})",
              "--format", fmt] for spec in spec_grid(12) for fmt in ("json", "graph6", "dot")]
    tuples = [(*t, n) for n in (8, 13) for t in sorted(feasible_set(n))]
    tuples += [(2, 2, 2, 4), (0, 1, 1, 4), (3, 2, 2, 8), (1, 1, 3, 8), (1, 5, 5, 8),
               (2, 4, 4, 8)]
    argvs += [["witness", *(f for flag, x in zip("pqrn", t) for f in (f"-{flag}", str(x)))]
              for t in tuples]
    graphs = [graph6_encode(build_family(spec)) for spec in spec_grid(10)]
    argvs += [[*cmd, *graphs] for cmd in (["invariants", "--reg"],
                                          ["invariants", "--pretty", "--reg"], ["reg"])]
    return argvs + [["feasible", "-n", "9"], ["feasible", "-n", "64"]]


def test_stdout_keeps_its_digest(capsys):
    # one SHA-256 over repr((argv, exit code, stdout)) of every command,
    # taken before the JSON text moved from the result classes into cli.py
    argvs = _stdout_grid()
    assert len(argvs) == 263
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_cli(capsys, argv)
        assert err == ""
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == \
        "4a62f67c1903ab7f572aa8ed2c45b6bb26cff39ad873dd8651929eb0dd4b188c"


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["witness", "-p", "1"])  # missing required flags
    assert exc.value.code == 2


def _check_console_script(command, env=None):
    """Run the ``matchinv`` command as its own process: arguments reach
    ``main()`` through ``sys.argv`` and its return value is the exit status."""
    proc = subprocess.run(command + ["feasible", "-n", "4"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 3
    proc = subprocess.run(command + ["invariants", "!!"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_console_script_installed():
    # Runs the wrapper that installing the package generates for the entry
    # point in pyproject.toml, so the check needs no install.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["matchinv"]
    module, _, func = entry.partition(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    _check_console_script([sys.executable, "-c", wrapper], _env_with_src())


def test_python_dash_m():
    _check_console_script([sys.executable, "-m", "matchinv"], _env_with_src())


@pytest.mark.skipif(shutil.which("matchinv") is None,
                    reason="matchinv is not installed on PATH")
def test_console_script_on_path():
    _check_console_script([shutil.which("matchinv")])

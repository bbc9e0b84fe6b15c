"""Tests for tools/witness_sweep.py, the timed re-check of every family witness."""

import importlib.util
from pathlib import Path

import pytest
from matchinv import TupleQuery, build_family, feasible_set, witness_spec
from matchinv.matching import _edge_conflicts

TOOL = Path(__file__).resolve().parent.parent / "tools" / "witness_sweep.py"
spec = importlib.util.spec_from_file_location("witness_sweep", TOOL)
witness_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(witness_sweep)


def test_sweep_up_to_eight_vertices(capsys):
    assert witness_sweep.main(["--n-max", "8"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].split() == ["n", "tuples", "total_s", "build_s", "ind_s", "min_s",
                                "match_s", "slowest_s", "rows_max"]
    rows = [line.split() for line in lines[1:-1]]
    assert [row[:2] for row in rows[:-1]] == [[str(n), str(len(feasible_set(n)))]
                                             for n in range(2, 9)]
    total, steps = float(rows[-1][2]), [float(cell) for cell in rows[-1][3:7]]
    assert rows[-1][:2] == ["all", "40"] and abs(total - sum(steps)) < 1e-3
    # the most conflict rows a witness keeps, per n and over the range
    most = [max(len(_edge_conflicts(build_family(witness_spec(TupleQuery(*tup, n)))))
                for tup in feasible_set(n)) for n in range(2, 9)]
    assert most == [n // 2 for n in range(2, 9)]
    assert [int(row[8]) for row in rows] == most + [max(most)]
    assert lines[-1].startswith("slowest tuple: (") and err == ""


def test_a_wrong_value_is_named_and_fails_the_sweep(capsys, monkeypatch):
    ind, _, match = witness_sweep.SOLVERS
    monkeypatch.setattr(witness_sweep, "SOLVERS", (ind, lambda G: 0, match))
    assert witness_sweep.main(["--n-min", "4", "--n-max", "4"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["wrong value: (1, 1, 1, 4) G1(1,0,2): solvers give (1, 0, 1)",
                   "wrong value: (1, 1, 2, 4) G1(1,1,0): solvers give (1, 0, 2)",
                   "wrong value: (1, 2, 2, 4) G1(2,0,0): solvers give (1, 0, 2)"]


def test_a_range_past_the_vertex_cap_is_refused():
    with pytest.raises(SystemExit) as stop:
        witness_sweep.main(["--n-max", "65"])
    assert stop.value.code == 2

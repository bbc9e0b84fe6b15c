"""Tests for tools/bench_pairs.py, the alternating-pairs benchmark driver."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_reproduces_the_committed_medians():
    parent = json.loads((ROOT / "BENCH_6975ae9.json").read_text())
    change = json.loads((ROOT / "BENCH_d235521.json").read_text())
    better = bench_pairs.better_directions()
    medians = {}
    for workload in bench_pairs.WORKLOADS:
        for name, a, b, spread, wins, pairs in bench_pairs.summarize(
                parent["runs"][workload], change["runs"][workload], better):
            assert pairs == 10 and 0 <= wins <= pairs and spread >= 0
            medians[workload, name] = (a, b)
    assert [round(x, 3) for x in medians["witness", "p90_ms"]] == [1.858, 1.854]
    assert [round(x) for x in medians["invariants", "ops_per_s"]] == [1147, 1216]
    assert [round(x) for x in medians["verify", "p90_ms"]] == [1671, 1432]


def test_a_metric_that_spreads_wider_than_its_bound_is_unresolved(capsys):
    # witness setup_s at 6975ae9: quartile spread 0.034 s on a 0.091 s
    # median, wider than its bound 0.25 x 0.091 = 0.023 s
    parent = json.loads((ROOT / "BENCH_6975ae9.json").read_text())["runs"]["witness"]
    change = json.loads((ROOT / "BENCH_d235521.json").read_text())["runs"]["witness"]
    rows = bench_pairs.summarize(parent, change, bench_pairs.better_directions())
    bench_pairs.print_summary(rows, bench_pairs.bounds(), "witness", "6975ae9", "d235521")
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "bound 0.25 " in lines["setup_s"] and lines["setup_s"].endswith("unresolved")
    assert "bound 0.1 " in lines["peak_rss_mb"]
    for name in ("completed_frac", "peak_rss_mb"):
        assert not lines[name].endswith("unresolved")


def fake_benchmark(tmp_path, last_line, status=0):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print('summary')\nprint({last_line!r})\nraise SystemExit({status})\n")
    return str(tmp_path)


def test_a_run_that_is_not_correct_stops_the_tool_and_names_the_pair(tmp_path):
    copy = fake_benchmark(tmp_path, '{"correct": false, "metrics": {}}')
    with pytest.raises(SystemExit, match="pair 3, change"):
        bench_pairs.run_once(copy, [], "pair 3, change abc1234")


def test_a_failed_run_stops_the_tool_and_names_the_pair(tmp_path):
    copy = fake_benchmark(tmp_path, '{"correct": true}', status=1)
    with pytest.raises(SystemExit, match="pair 2, parent .* exited 1"):
        bench_pairs.run_once(copy, [], "pair 2, parent abc1234")


def test_a_correct_run_gives_its_last_line(tmp_path):
    copy = fake_benchmark(tmp_path, '{"correct": true, "metrics": {"p90_ms": 1}}')
    assert bench_pairs.run_once(copy, [], "pair 1, parent abc1234") == \
        {"correct": True, "metrics": {"p90_ms": 1}}


def test_a_second_seed_leaves_the_seed_one_runs_alone(tmp_path):
    path = tmp_path / "BENCH_abc1234.json"
    path.write_text(json.dumps({"protocol": "ten pairs; a note on a key added by hand"}))
    first = [{"correct": True, "seed": 1}]
    bench_pairs.record(path, "abc1234", "change", "witness", 1, "seed 1 command", first)
    bench_pairs.record(path, "abc1234", "change", "invariants", 1, "other", first)
    held_out = [{"correct": True, "seed": 7}]
    bench_pairs.record(path, "abc1234", "change", "witness", 7, "seed 7 command", held_out)
    doc = json.loads(path.read_text())
    assert doc["runs"] == {"witness": first, "invariants": first}
    assert doc["runs_seed7"] == {"witness": held_out}
    assert doc["commands"] == {"witness": "seed 1 command", "invariants": "other",
                               "witness_seed7": "seed 7 command"}
    assert doc["role"] == "change"
    assert doc["protocol"] == "ten pairs; a note on a key added by hand"

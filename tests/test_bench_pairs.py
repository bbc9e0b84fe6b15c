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


def _verdicts(parent, change, capsys):
    """Metric -> last words of its summary line, for the seed-1 runs of
    two committed BENCH files."""
    old = json.loads((ROOT / f"BENCH_{parent}.json").read_text())["runs"]
    new = json.loads((ROOT / f"BENCH_{change}.json").read_text())["runs"]
    lines = {}
    for workload in bench_pairs.WORKLOADS:
        rows = bench_pairs.summarize(old[workload], new[workload],
                                     bench_pairs.better_directions())
        bench_pairs.print_summary(rows, bench_pairs.bounds(), workload, parent, change)
        for line in capsys.readouterr().out.splitlines()[1:]:
            lines[workload, line.split()[0]] = line.split(" of ")[-1].split(None, 1)[1]
    return lines


def test_each_metric_gets_a_verdict(capsys):
    # verify p90 1579 -> 1313 ms, better in 10 of 10, parent IQR 195 ms
    verdicts = _verdicts("b6d5249", "422c749", capsys)
    assert verdicts["verify", "p90_ms"] == "gain"
    assert verdicts["witness", "p90_ms"] == "within bound"  # 6 of 10
    assert verdicts["witness", "completed_frac"] == "within bound"  # all ties
    assert "regressed" not in verdicts.values()
    # the other way round: invariants p90 1.677 -> 2.153 ms is +28%,
    # past its bound 0.25; verify p90 +20% stays within it
    verdicts = _verdicts("422c749", "b6d5249", capsys)
    assert verdicts["invariants", "p90_ms"] == "regressed"
    assert verdicts["verify", "p90_ms"] == "within bound"
    assert "gain" not in verdicts.values()


def test_verdict_rules():
    # a lower-is-better metric with parent median 100, bound 0.25
    assert bench_pairs.verdict(100, 80, 10, 9, 10, 0.25, "lower") == "gain"
    assert bench_pairs.verdict(100, 80, 10, 8, 10, 0.25, "lower") == "within bound"
    assert bench_pairs.verdict(100, 95, 10, 10, 10, 0.25, "lower") == "within bound"
    assert bench_pairs.verdict(100, 126, 10, 0, 10, 0.25, "lower") == "regressed"
    assert bench_pairs.verdict(100, 124, 10, 0, 10, 0.25, "lower") == "within bound"
    # a spread wider than the bound allows hides a regression
    assert bench_pairs.verdict(100, 140, 30, 0, 10, 0.25, "lower") == "within bound"
    # higher is better: a drop is the regression
    assert bench_pairs.verdict(100, 70, 10, 0, 10, 0.25, "higher") == "regressed"
    assert bench_pairs.verdict(100, 130, 10, 10, 10, 0.25, "higher") == "gain"


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


VERIFY_STDOUT = """\
[verify] attempted 3889213, deadline hits 0, wrong 0, failed_frac 0.0000
[verify]   first_main_s = 0.5478 s
[verify]   av_s = 0.3164 s
[verify]   lemmas_s = 1.1611 s
[verify]   second_main_s = 0.3540 s
[verify]   setup_s = 0.111115 s
[verify]   ops_per_s = 1.63458e+06 1/s
[verify]   p90_ms = 1082.81 ms
[verify]   peak_rss_mb = 72.1562 MB
"""


def test_per_check_seconds_are_read_from_the_check_lines():
    metrics = {"setup_s": {}, "ops_per_s": {}, "p90_ms": {}, "peak_rss_mb": {}}
    assert bench_pairs.per_check_seconds(VERIFY_STDOUT, metrics) == {
        "first_main": 0.5478, "av": 0.3164, "lemmas": 1.1611, "second_main": 0.354}
    assert bench_pairs.per_check_seconds("[witness]   p90_ms = 1.2 ms\n", metrics) == {}


def test_a_verify_run_keeps_its_per_check_seconds(tmp_path, capsys):
    last = '{"correct": true, "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}'
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print({VERIFY_STDOUT!r}, end='')\nprint({last!r})\n")
    run = bench_pairs.run_once(str(tmp_path), [], "pair 1, parent abc1234")
    assert run["per_check_s"]["lemmas"] == 1.1611 and "setup_s" not in run["per_check_s"]
    faster = {**run, "per_check_s": {**run["per_check_s"], "lemmas": 0.9}}
    bench_pairs.print_checks([run, run, run], [faster, run, faster])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == \
        ["first_main_s", "av_s", "lemmas_s", "second_main_s"]
    assert lines[2].split()[2:5] == ["1.1611", "->", "0.9000"]
    # runs stored before the per-check seconds were kept print nothing
    bench_pairs.print_checks([{"metrics": {}}], [run])
    assert capsys.readouterr().out == ""

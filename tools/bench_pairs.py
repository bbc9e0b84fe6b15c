"""Run alternating parent/change pairs of the benchmark and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed 1]

PARENT and CHANGE are git revisions of this repository.  Each is written
by ``git archive`` into its own temporary directory outside the repository,
and every run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in that copy, with T the benchmark's ``run_seconds`` from
``BENCHMARK.json``; the last stdout line of a run is its result.  There are
ten pairs, the fewest the protocol accepts.  In pair i (from 1) the parent
runs first when i is odd and the change runs first when i is even.  The
tool stops with exit status 1, naming the pair, when a run fails or prints
``"correct": false``.

The runs go into ``BENCH_<short>.json`` at the repository root, one file
per revision, under ``runs[W]`` for seed 1 and ``runs_seed<S>[W]`` for any
other seed, so that pairs on a held-out seed leave the seed-1 runs alone;
the file's runs under other keys, and its protocol text, are kept.  Pair i
of one file matches pair i of the other.  The tool then prints, per
end-to-end metric, both medians, the metric's bound, the parent's
quartile spread, and in how many pairs the change was better (ties count
for neither side), and gives a verdict: ``gain`` (better in at least 9
of 10 pairs, by more than that spread in the median), ``regressed`` (a
median worse by more than bound x parent median) or ``within bound``.
It marks the metric ``unresolved`` when the parent's spread exceeds
bound x parent median, and then never calls it ``regressed``;
``BENCHMARK.json`` says which direction is better and gives the bound.
A ``verify`` run also prints the median seconds of each check
(``[verify]   lemmas_s = 1.0510 s``); these lines are kept on the stored
run as ``per_check_s``, and both sides' medians of each check are
printed, so a change shows which check moved.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("witness", "invariants", "verify")
PAIRS = 10
PROTOCOL = (
    "alternating pairs per workload, each commit run from its own git "
    "archive of the tree; pair i (from 1) runs the parent first when i is "
    "odd and the change first when i is even; pair i of one list matches "
    "pair i of the other commit's file; 'runs' holds seed 1 and "
    "'runs_seed<S>' a held-out seed S")


def better_directions(path: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """End-to-end metric name -> ``"lower"`` or ``"higher"``."""
    return {m["name"]: m["better"] for m in json.loads(path.read_text())["end_to_end"]}


def bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, float]:
    """End-to-end metric name -> the largest change, as a fraction of the
    parent's median, that still counts as no regression."""
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def summarize(old: list[dict], new: list[dict],
              better: dict[str, str]) -> list[tuple[str, float, float, float, int, int]]:
    """Per metric of the parent's and the change's runs of one workload:
    ``(name, parent median, change median, parent quartile spread, pairs
    where the change was better, pairs)``."""
    rows = []
    for name in better:
        a = [run["metrics"][name]["value"] for run in old]
        b = [run["metrics"][name]["value"] for run in new]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4)
        rows.append((name, statistics.median(a), statistics.median(b), q3 - q1,
                     wins, min(len(a), len(b))))
    return rows


def verdict(a: float, b: float, spread: float, wins: int, pairs: int, bound: float,
            better: str) -> str:
    """``gain`` when the change was better in at least 9 of 10 pairs and
    its median moved by more than the parent's quartile spread;
    ``regressed`` when its median is worse than the parent's by more than
    bound x parent median and the parent's spread is within that bound;
    ``within bound`` otherwise."""
    worse = (a - b if better == "higher" else b - a) > bound * abs(a)
    if wins * 10 >= 9 * pairs and abs(b - a) > spread:
        return "gain"
    return "regressed" if worse and spread <= bound * abs(a) else "within bound"


def print_summary(rows, bound: dict[str, float], label: str, parent: str,
                  change: str) -> None:
    """One line per metric, ending in its ``verdict``.  A metric whose
    parent runs spread wider than its bound allows (quartile spread above
    bound x parent median) is also marked ``unresolved``: its pairs can
    show no regression within the bound."""
    better = better_directions()
    print(f"{label}: {parent} -> {change}, medians")
    for name, a, b, spread, wins, pairs in rows:
        flag = "  unresolved" if spread > bound[name] * abs(a) else ""
        print(f"  {name:15} {a:12.4g} -> {b:<12.4g} bound {bound[name]:<6g} "
              f"parent IQR {spread:<10.3g} change better in {wins} of {pairs}  "
              f"{verdict(a, b, spread, wins, pairs, bound[name], better[name])}{flag}")


def archive(rev: str, into: str) -> None:
    """Write the tree of ``rev`` into the directory ``into``."""
    tar = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=tar.stdout, check=True)
    tar.stdout.close()
    if tar.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def per_check_seconds(stdout: str, metrics: dict) -> dict[str, float]:
    """Check name -> seconds from a run's ``[W]   <name>_s = <x> s`` lines.

    End-to-end metrics in seconds (``setup_s``) print the same way, so
    names that are keys of ``metrics`` are left out."""
    found = re.findall(r"^\[\w+\]\s+(\w+)_s = (\S+) s$", stdout, re.MULTILINE)
    return {name: float(x) for name, x in found if name + "_s" not in metrics}


def print_checks(old: list[dict], new: list[dict]) -> None:
    """Both sides' median seconds of each check that the runs report."""
    names = [name for name in old[0].get("per_check_s", {})
             if all(name in run.get("per_check_s", {}) for run in old + new)]
    for name in names:
        a = statistics.median(run["per_check_s"][name] for run in old)
        b = statistics.median(run["per_check_s"][name] for run in new)
        print(f"  check {name + '_s':15} {a:8.4f} -> {b:<8.4f} s")


def run_once(copy: str, args: list[str], label: str) -> dict:
    """One benchmark run in a copy; its last stdout line as a dict, with
    the run's per-check seconds under ``per_check_s`` when it prints any."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=copy,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"error: {label} printed \"correct\": false")
    checks = per_check_seconds(proc.stdout, result.get("metrics", {}))
    if checks:
        result["per_check_s"] = checks
    return result


def record(path: Path, commit: str, role: str, workload: str, seed: int,
           command: str, runs: list[dict]) -> None:
    """Merge one side's runs of one workload into the BENCH file at ``path``.

    A protocol text already in the file is kept: it may describe keys that
    were added by hand, such as a traced run."""
    suffix = "" if seed == 1 else f"_seed{seed}"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("commands", {})[workload + suffix] = command
    doc["commit"] = commit
    doc["host"] = (f"{len(os.sched_getaffinity(0))}-vCPU {platform.system()}, "
                   f"Python {platform.python_version()}")
    doc.setdefault("protocol", PROTOCOL)
    doc["role"] = role
    doc.setdefault("runs" + suffix, {})[workload] = runs
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench_pairs.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{seconds:g}", "--trace", "0"]
    sides = ("parent", "change")
    commits = []
    for rev in (args.parent, args.change):
        proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            parser.error(f"unknown revision {rev}")
        commits.append(proc.stdout.strip())
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as parent_copy, \
            tempfile.TemporaryDirectory() as change_copy:
        copies = dict(zip(sides, (parent_copy, change_copy)))
        for side, commit in zip(sides, commits):
            archive(commit, copies[side])
        for i in range(1, PAIRS + 1):
            for side in (sides if i % 2 else sides[::-1]):
                label = f"pair {i}, {side} {commits[sides.index(side)][:7]}"
                print(f"{label}: running", file=sys.stderr, flush=True)
                runs[side].append(run_once(copies[side], run_args, label))
    for side, commit in zip(sides, commits):
        record(ROOT / f"BENCH_{commit[:7]}.json", commit, side, args.workload, args.seed,
               "python3 perfbench/run.py " + " ".join(run_args), runs[side])
    rows = summarize(runs["parent"], runs["change"], better_directions())
    print_summary(rows, bounds(), f"{args.workload}, seed {args.seed}", commits[0][:7],
                  commits[1][:7])
    print_checks(runs["parent"], runs["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

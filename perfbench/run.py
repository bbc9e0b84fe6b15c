"""The matchinv benchmark.

    python3 perfbench/run.py --workload witness|invariants|verify|all \
        --seed N --seconds S --trace 0|1

Every round runs in a fresh interpreter, one at a time, so the package's
process-wide caches start cold as they do for a command-line user.

* ``witness`` and ``invariants`` run whole cycles of rounds of seeded
  inputs (see ``common.round_inputs``) until ``--seconds`` have passed;
  each operation runs under a ``DEADLINE_S`` deadline, and one that
  reaches it counts as timed out, with the deadline as its time.
* ``verify`` runs the four ``matchinv verify`` checks as separate
  command-line processes, in rounds until ``--seconds`` have passed; a
  check gets ``CHECK_DEADLINE_S``.  Its inputs do not depend on the seed.

Every output is compared with the expected outputs under ``fixtures/``.
The last stdout line is one JSON object: with ``--trace 0`` the
end-to-end metrics of the workload, with ``--trace 1`` the per-layer
metrics of all three workloads from a separate traced run.  Lines before
it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from common import (BENCH_DIR, CYCLE, FIXTURES, SRC, VERIFY_COMMANDS, child_env,
                    cli_argv)

WORKLOADS = ("witness", "invariants", "verify")
CHECK_DEADLINE_S = 40.0
ROUND_DEADLINE_S = 60.0
SETUP_SAMPLES = 5
CLI_STARTUP_ARGS = ("feasible", "-n", "2")


class BenchError(Exception):
    """A child failed in a way that leaves no measurement."""


def _spawn(argv: list[str], timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; returns it and its wall time."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as err:  # run() kills and reaps the child
        raise BenchError(f"{argv[1:4]} ran past {timeout} s") from err
    return proc, time.monotonic() - t0


def _worker(args: list[str], timeout: float = ROUND_DEADLINE_S) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    if args[0] in ("round", "setup"):
        argv += ["--spawned-at", repr(time.monotonic())]
    proc, _ = _spawn(argv, timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics:
    it averages the samples around the quantile instead of picking one,
    which matters here because latencies span three decades, so one rank
    more or less moves a single order statistic by several percent.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64  # midpoint rule inside each order statistic's 1/n slice
    grid = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ xs / weights.sum())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def measure_ops(workload: str, seed: int, seconds: float) -> dict:
    """Whole cycles of rounds of witness or invariants operations.

    The latencies are those of the operations the baseline code finished
    in time (pool class ``fast``), a failed one counting at the deadline;
    operations of class ``slow`` count in ``completed_frac`` and
    ``ops_per_s`` only, so that a change that lets them finish does not
    raise the percentiles.  A failed operation costs the deadline in
    ``ops_per_s``.
    """
    t_start = time.monotonic()
    rounds: list[dict] = []
    while not rounds or len(rounds) % CYCLE[workload] or time.monotonic() - t_start < seconds:
        rounds.append(_worker(["round", workload, "--seed", str(seed),
                               "--round", str(len(rounds))]))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(["setup", workload, "--seed", str(seed)])["setup_s"])
    latencies = [x for r in rounds for x in r["latencies"]]
    attempted = sum(r["attempted"] for r in rounds)
    completed = sum(r["completed"] for r in rounds)
    timed_out = sum(r["timed_out"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    return {
        "attempted": attempted, "timed_out": timed_out, "wrong": wrong,
        "rounds": len(rounds),
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(completed / sum(r["busy_s"] for r in rounds), "1/s"),
            "p50_ms": _metric(1000 * _quantile(latencies, 0.5), "ms"),
            "p90_ms": _metric(1000 * _quantile(latencies, 0.9), "ms"),
            "completed_frac": _metric(completed / attempted, "fraction"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        },
    }


def _cli_check(name: str, argv: tuple[str, ...], expected: dict) -> dict:
    """One verify check as a command-line process, checked byte for byte."""
    try:
        proc, wall = _spawn(cli_argv(sys.executable, argv), CHECK_DEADLINE_S)
    except BenchError:
        return {"name": name, "seconds": CHECK_DEADLINE_S, "timed_out": True,
                "ok": False}
    ok = proc.returncode == 0 and proc.stdout == expected["stdout"] and all(
        json.loads(line)["passed"] for line in proc.stdout.splitlines())
    if not ok:
        print(f"verify {name}: exit {proc.returncode}, output differs from the "
              f"fixture", file=sys.stderr)
    return {"name": name, "seconds": wall, "timed_out": False, "ok": ok}


def _cli_startup_s() -> float:
    return statistics.median(
        _spawn(cli_argv(sys.executable, CLI_STARTUP_ARGS), ROUND_DEADLINE_S)[1]
        for _ in range(SETUP_SAMPLES))


def measure_verify(seconds: float) -> dict:
    expected = json.loads((FIXTURES / "verify.json").read_text())
    t_start = time.monotonic()
    checks: list[dict] = []
    while not checks or time.monotonic() - t_start < seconds:
        checks += [_cli_check(name, argv, expected[name]) for name, argv in VERIFY_COMMANDS]
    setup_s = _cli_startup_s()
    graphs = sum(expected[c["name"]]["examined"] for c in checks)
    done = sum(expected[c["name"]]["examined"] for c in checks if c["ok"])
    times = [c["seconds"] for c in checks]
    per_check = {name: statistics.median(c["seconds"] for c in checks if c["name"] == name)
                 for name, _ in VERIFY_COMMANDS}
    return {
        "attempted": graphs,
        "timed_out": sum(expected[c["name"]]["examined"] for c in checks if c["timed_out"]),
        "wrong": graphs - done - sum(
            expected[c["name"]]["examined"] for c in checks if c["timed_out"]),
        "rounds": len(checks) // len(VERIFY_COMMANDS),
        "per_check_s": per_check,
        "metrics": {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(done / sum(times), "1/s"),
            "p50_ms": _metric(1000 * _quantile(times, 0.5), "ms"),
            "p90_ms": _metric(1000 * _quantile(times, 0.9), "ms"),
            "completed_frac": _metric(done / graphs, "fraction"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        },
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    if workload == "verify":
        return measure_verify(seconds)
    return measure_ops(workload, seed, seconds)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

_OPS_LAYERS = {
    "witness": ("graph.graph6_encode", "families.build_family",
                "realizability.witness_spec", "realizability.feasible_set"),
    "invariants": ("graph.graph6_decode", "regularity.regularity"),
}
_SOLVERS = ("matching.match_number", "matching.min_match_number",
            "matching.ind_match_number")
_COUNTED = ("regularity.regularity",)


def _layer_metrics(prefix: str, layers: dict, names, counts: bool) -> dict:
    out = {}
    for name in names:
        calls, secs, hits = layers.get(name, (0, 0.0, 0))
        out[f"{prefix}.{name}_s"] = _metric(secs, "s")
        if counts or name in _COUNTED:
            out[f"{prefix}.{name}.calls"] = _metric(calls, "count")
        if counts:
            out[f"{prefix}.{name}.deadline_hits"] = _metric(hits, "count")
    return out


def _merge_layers(parts: list[dict]) -> dict:
    total: dict = {}
    for layers in parts:
        for name, (calls, secs, hits) in layers.items():
            c, s, h = total.get(name, (0, 0.0, 0))
            total[name] = (c + calls, s + secs, h + hits)
    return total


def traced_run(seed: int) -> dict:
    """Per-layer metrics of all three workloads, plus tracing overhead.

    witness and invariants: round 0 of the seed, traced.  verify: the
    four checks as command-line processes (untraced), then each in
    process in a fresh traced interpreter, then the cold scan with two
    workers.  ``<workload>.trace_overhead_s`` is the wrappers' measured
    cost per call times the calls they saw.
    """
    metrics: dict = {}
    attempted = timed_out = wrong = 0
    for workload in ("witness", "invariants"):
        traced = _worker(["round", workload, "--seed", str(seed), "--round", "0", "--trace"])
        attempted += traced["attempted"]
        timed_out += traced["timed_out"]
        wrong += traced["wrong"]
        metrics.update(_layer_metrics(workload, traced["layers"], _OPS_LAYERS[workload], False))
        metrics.update(_layer_metrics(workload, traced["layers"], _SOLVERS, True))
        metrics[f"{workload}.trace_overhead_s"] = _metric(traced["overhead_s"], "s")

    expected = json.loads((FIXTURES / "verify.json").read_text())
    overhead = 0.0
    parts = []
    for name, argv in VERIFY_COMMANDS:
        cli = _cli_check(name, argv, expected[name])
        inproc = _worker(["check", name], CHECK_DEADLINE_S * 2)
        attempted += 2
        inproc_ok = inproc["exit"] == 0 and inproc["stdout"] == expected[name]["stdout"]
        wrong += (not cli["ok"]) + (not inproc_ok)
        parts.append(inproc["layers"])
        overhead += inproc["overhead_s"]
        metrics[f"verify.cli.verify_{name}_s"] = _metric(cli["seconds"], "s")
        metrics[f"verify.verifier.verify_{name}_s"] = _metric(inproc["wall_s"], "s")
    layers = _merge_layers(parts)
    metrics.update(_layer_metrics("verify", layers, (
        "regularity.regularity", "verifier.scan_invariants",
        "verifier.enumerate_connected"), False))
    jobs2 = _worker(["scan-jobs2"], CHECK_DEADLINE_S)
    metrics["verify.verifier.scan_invariants_jobs2_s"] = _metric(
        jobs2["layers"]["verifier.scan_invariants"][1], "s")
    metrics["verify.cli.startup_s"] = _metric(_cli_startup_s(), "s")
    metrics["verify.trace_overhead_s"] = _metric(overhead, "s")
    return {"attempted": attempted, "timed_out": timed_out, "wrong": wrong,
            "metrics": metrics}


# ---------------------------------------------------------------------------

def _summary(workload: str, result: dict) -> None:
    att, to, wr = result["attempted"], result.get("timed_out", 0), result["wrong"]
    print(f"[{workload}] attempted {att}, deadline hits {to}, wrong {wr}, "
          f"failed_frac {(to + wr) / att:.4f}")
    for name, seconds in result.get("per_check_s", {}).items():
        print(f"[{workload}]   {name}_s = {seconds:.4f} s")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matchinv" / "__init__.py").is_file():
        print(f"error: no matchinv package under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        if args.trace:
            result = traced_run(args.seed)
            _summary("trace", result)
            lines.append(result)
        else:
            for workload in workloads:
                result = measure(workload, args.seed, args.seconds)
                _summary(workload, result)
                lines.append(result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for result in lines:
        print(json.dumps({"correct": result["wrong"] == 0,
                          "attempted": result["attempted"],
                          "failed": result["wrong"],
                          "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

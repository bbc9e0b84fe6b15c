"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/worker.py round  WORKLOAD --seed S --round R --spawned-at T [--trace]
    python3 perfbench/worker.py setup  WORKLOAD --seed S --spawned-at T
    python3 perfbench/worker.py check  NAME
    python3 perfbench/worker.py scan-jobs2

``round`` imports the package, draws the round's inputs, runs every
operation under the per-operation deadline and checks each output
against the pool; with ``--trace`` it also times the layers.  ``setup``
stops after drawing the inputs.  ``check`` runs one ``verify`` check in
process with the layers timed and returns its report lines;
``scan-jobs2`` times the cold labeled scan with two workers.  The last
stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stdout

from common import (DEADLINE_S, REG_N_MAX, SRC, VERIFY_COMMANDS, WITNESS_NS,
                    feasible_tuples, load_pool, round_inputs, run_with_deadline)

sys.path.insert(0, str(SRC))


def _trace_report(stats) -> dict:
    """Per-layer calls, seconds and deadline hits, and the wrappers' own cost."""
    import layers
    return {"layers": {name: [rec.calls, rec.seconds, rec.deadline_hits]
                       for name, rec in stats.items()},
            "overhead_s": layers.overhead_s(stats)}


def _chain_ok(ind: int, mn: int, match: int) -> bool:
    return ind <= mn <= match <= 2 * mn


def _witness_op(mi, entry):
    def op():
        report = mi.synthesize_witness(
            mi.TupleQuery(entry["p"], entry["q"], entry["r"], entry["n"]))
        return mi.graph6_encode(report.graph), tuple(report.verified)

    def check(out) -> bool:
        g6, (ind, mn, match) = out
        if g6 != entry["graph6"] or match != entry["match"]:
            return False
        if entry["class"] == "slow":  # never finished on the baseline code
            return _chain_ok(ind, mn, match)
        return (ind, mn, match) == (entry["p"], entry["q"], entry["r"])
    return op, check


def _invariants_op(mi, entry):
    def op():
        G = mi.graph6_decode(entry["graph6"])
        t = mi.invariant_triple(G)
        reg = mi.regularity(G).reg if G.n <= REG_N_MAX else None
        return tuple(t), reg

    def check(out) -> bool:
        (ind, mn, match), reg = out
        if match != entry["match"] or reg != entry.get("reg"):
            return False
        if "min" not in entry:  # never finished on the baseline code
            return _chain_ok(ind, mn, match)
        return (ind, mn) == (entry["ind"], entry["min"])
    return op, check


def _traced() -> dict:
    import layers
    stats: dict = {}
    layers.install(stats)
    return stats


def _setup(args):
    """Optional tracing, import, inputs.  Returns (package, inputs, stats)."""
    stats = _traced() if args.trace else {}
    import matchinv as mi
    inputs = round_inputs(args.workload, load_pool(args.workload), args.seed,
                          args.round)
    if args.workload == "witness":
        # the universe the pool was drawn from must match the package's
        for n in WITNESS_NS:
            if sorted(mi.feasible_set(n)) != feasible_tuples(n):
                raise SystemExit(f"feasible_set({n}) disagrees with the closed form")
    return mi, inputs, stats


def run_ops(mi, workload: str, inputs: list[dict], deadline: float = DEADLINE_S) -> dict:
    """Run and check each input's operation under the deadline.

    A deadline hit or a wrong or crashed operation fails and counts as
    taking the deadline; the next operation runs normally either way.
    ``busy_s`` adds up the times of all operations, ``latencies`` holds
    those of the operations of pool class ``fast``.
    """
    make = _witness_op if workload == "witness" else _invariants_op
    latencies, busy_s, timed_out, wrong = [], 0.0, 0, 0
    for entry in inputs:
        op, check = make(mi, entry)
        try:
            out, seconds, hit = run_with_deadline(op, deadline)
            ok = not hit and check(out)
        except Exception as err:  # a crash is a wrong answer, not a stop
            hit, ok = False, False
            print(f"error on {entry}: {err!r}", file=sys.stderr)
        if hit:
            timed_out += 1
        elif not ok:
            wrong += 1
        if not ok:
            seconds = deadline
        busy_s += seconds
        if entry["class"] == "fast":
            latencies.append(seconds)
    return {"attempted": len(inputs), "completed": len(inputs) - timed_out - wrong,
            "busy_s": busy_s, "latencies": latencies,
            "timed_out": timed_out, "wrong": wrong}


def cmd_round(args) -> dict:
    mi, inputs, stats = _setup(args)
    setup_s = time.monotonic() - args.spawned_at
    out = run_ops(mi, args.workload, inputs)
    out["setup_s"] = setup_s
    if args.trace:
        out.update(_trace_report(stats))
    return out


def cmd_setup(args) -> dict:
    _setup(args)
    return {"setup_s": time.monotonic() - args.spawned_at}


def cmd_check(args) -> dict:
    stats = _traced()
    from matchinv import cli
    argv = dict(VERIFY_COMMANDS)[args.name]
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit": code, "stdout": buf.getvalue(),
            **_trace_report(stats)}


def cmd_scan_jobs2(args) -> dict:
    stats = _traced()
    from matchinv import verifier
    for n in range(2, 8):
        verifier.scan_invariants(n, jobs=2, use_cache=False)
    return _trace_report(stats)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("round", "setup"):
        p = sub.add_parser(name)
        p.add_argument("workload", choices=("witness", "invariants"))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--round", type=int, default=0)
        p.add_argument("--spawned-at", type=float, required=True)
        p.add_argument("--trace", action="store_true")
    p = sub.add_parser("check")
    p.add_argument("name", choices=[name for name, _ in VERIFY_COMMANDS])
    sub.add_parser("scan-jobs2")
    args = parser.parse_args(argv)
    handler = {"round": cmd_round, "setup": cmd_setup, "check": cmd_check,
               "scan-jobs2": cmd_scan_jobs2}[args.cmd]
    print(json.dumps(handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

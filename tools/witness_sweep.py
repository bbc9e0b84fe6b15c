"""Build and re-check the family witness of every feasible tuple, timed.

    python3 tools/witness_sweep.py [--n-min 2] [--n-max 64]

For each n in the range and each feasible (p, q, r) of ``feasible_set(n)``
the tool builds the witness ``build_family(witness_spec(...))`` and runs
``ind_match_number``, ``min_match_number`` and ``match_number`` on it,
timing the build and each solver apart.  It prints one line per n: the
number of tuples, the seconds of all four steps and of each, the seconds
of that n's slowest tuple, and the most edge-conflict rows any witness
keeps for ``ind_match_number`` (``_edge_conflicts``, counted outside the
timed steps); then the same totals and maxima over the range, and the
slowest tuple with its family spec.  A solver value that differs
from the tuple is named on stderr, and the tool then exits with status 1.
It imports ``matchinv`` from the ``src`` directory next to this script, so
it times that source.  Standard library plus the package.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchinv import (TupleQuery, build_family, feasible_set,  # noqa: E402
                      ind_match_number, match_number, min_match_number,
                      witness_spec)
from matchinv.matching import _edge_conflicts  # noqa: E402

STEPS = ("build", "ind", "min", "match")
SOLVERS = (ind_match_number, min_match_number, match_number)


def sweep_n(n: int, tuples: list[tuple[int, int, int]]
            ) -> tuple[list[float], float, tuple, int, list[str]]:
    """Per-step seconds, the slowest tuple's seconds and (p, q, r, n, spec),
    the most conflict rows kept, and one message per wrong value, over the
    given tuples at n."""
    seconds = [0.0] * len(STEPS)
    slowest, worst, rows = -1.0, (), 0
    wrong = []
    for tup in tuples:
        spec = witness_spec(TupleQuery(*tup, n))
        start = time.perf_counter()
        G = build_family(spec)
        marks = [start, time.perf_counter()]
        values = []
        for solver in SOLVERS:
            values.append(solver(G))
            marks.append(time.perf_counter())
        for i in range(len(STEPS)):
            seconds[i] += marks[i + 1] - marks[i]
        if marks[-1] - start > slowest:
            slowest, worst = marks[-1] - start, (*tup, n, spec)
        rows = max(rows, len(_edge_conflicts(G)))
        if tuple(values) != tup:
            wrong.append(f"{(*tup, n)} {spec}: solvers give {tuple(values)}")
    return seconds, slowest, worst, rows, wrong


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="witness_sweep.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=64)
    args = parser.parse_args(argv)
    if not 2 <= args.n_min <= args.n_max <= 64:
        parser.error("need 2 <= --n-min <= --n-max <= 64")
    header = "".join(f"{name + '_s':>10}" for name in ("total",) + STEPS)
    print(f"{'n':>4}{'tuples':>8}{header}{'slowest_s':>11}{'rows_max':>10}")
    totals = [0.0] * len(STEPS)
    count, slowest, worst, most, failed = 0, -1.0, (), 0, False
    for n in range(args.n_min, args.n_max + 1):
        tuples = sorted(feasible_set(n))
        seconds, top, at, rows, wrong = sweep_n(n, tuples)
        for message in wrong:
            print(f"wrong value: {message}", file=sys.stderr)
        failed = failed or bool(wrong)
        cells = "".join(f"{s:10.4f}" for s in [sum(seconds)] + seconds)
        print(f"{n:4}{len(tuples):8}{cells}{top:11.5f}{rows:10}", flush=True)
        totals = [a + b for a, b in zip(totals, seconds)]
        count += len(tuples)
        most = max(most, rows)
        if top > slowest:
            slowest, worst = top, at
    cells = "".join(f"{s:10.4f}" for s in [sum(totals)] + totals)
    print(f"{'all':>4}{count:8}{cells}{slowest:11.5f}{most:10}")
    p, q, r, n, spec = worst
    print(f"slowest tuple: {(p, q, r, n)}, {spec}: {slowest:.5f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Shared pieces of the matchinv benchmark.

Paths, the per-operation deadline, the pool constants, a graph6 encoder
and G(n, p) generator of the benchmark's own, and the seeded sampler
that turns ``--seed`` into the inputs of one round.

Inputs are drawn from fixed pools stored under ``fixtures/``: each pool
entry carries its input, its expected output and the time the baseline
code (the revision in ``baseline.json``) needed for it.  A round draws
the same number of entries from every cell of a pool, with the cell's
share of slow entries, and a cycle of rounds covers each cell's cost
range evenly, so every seed gets the same mix of easy and hard inputs
while the individual inputs differ.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"

# Per-operation deadline; an operation that reaches it counts as timed out.
DEADLINE_S = 0.5
# Pool classes, from two timings of the baseline code per entry: "fast"
# entries finished well inside the deadline both times, "slow" ones did
# not finish in four deadlines either time.  Entries in between are left
# out of the pools, so that the number of deadline hits per round holds
# even when the machine runs at half or double speed.
FAST_S = 0.2
SLOW_S = 4 * DEADLINE_S

WITNESS_NS = (16, 20, 24, 32, 48, 64)
FAMILIES = ("G1", "G2", "G3")
INVARIANT_NS = tuple(range(8, 23))
DENSITIES = (0.15, 0.3, 0.5, 0.7)
REG_N_MAX = 10

# Pools have cells, (n, family) for witness and (n, density) for
# invariants.  Each cell of a pool is a seeded sample of POOL_PER_CELL
# inputs, kept whatever their cost (less the in-between ones); every round
# draws PER_CELL entries from each cell.  Rounds come in cycles of CYCLE
# rounds whose fast draws are stratified together (see round_inputs); a
# run is a whole number of cycles.
CELL_KEYS = {"witness": ("n", "family"), "invariants": ("n", "density")}
POOL_PER_CELL = {"witness": 24, "invariants": 16}
PER_CELL = {"witness": 3, "invariants": 2}
CYCLE = {"witness": 4, "invariants": 8}

VERIFY_COMMANDS = (
    ("first_main", ("verify", "--check", "first-main", "--n-max", "7", "--jobs", "1")),
    ("av", ("verify", "--check", "av", "--n-max", "6", "--jobs", "1")),
    ("lemmas", ("verify", "--check", "lemmas", "--n-max", "7", "--jobs", "1")),
    ("second_main", ("verify", "--check", "second-main", "--n-max", "9", "--jobs", "1")),
)


class DeadlineExceeded(BaseException):
    """Raised from the SIGALRM handler when an operation runs too long.

    A BaseException, so that no ``except Exception`` in the code under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_with_deadline(fn, seconds: float):
    """Run ``fn()`` under a wall-clock deadline set with ``setitimer``.

    Returns ``(result, elapsed_s, timed_out)``.  A timed-out call
    reports ``result=None`` and an elapsed time of exactly ``seconds``.
    Main thread only; no extra thread or process is started.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return None, seconds, True
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result, time.perf_counter() - t0, False


# ---------------------------------------------------------------------------
# inputs, independent of the package under test
# ---------------------------------------------------------------------------

def feasible_tuples(n: int) -> list[tuple[int, int, int]]:
    """The closed-form feasible (p, q, r) for n vertices, sorted."""
    half = n // 2
    return sorted((p, q, r)
                  for q in range(1, half + 1)
                  for r in range(q, min(2 * q, half) + 1)
                  for p in range(1, q + 1)
                  if not (n % 2 == 0 and p >= 2 and q == r == half))


def family_of(p: int, q: int, r: int) -> str:
    """Which family the witness construction uses for (p, q, r)."""
    if p == 1:
        return "G1"
    if p + q - r <= 0 or q < r:
        return "G2"
    return "G3"


def gnp_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    return [(u, v) for v in range(1, n) for u in range(v) if rng.random() < density]


def encode_graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text of a simple graph with n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("encoder covers 0..62 vertices")
    present = {(min(e), max(e)) for e in edges}
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - i) for i, b in enumerate(bits[k:k + 6])) + 63
            for k in range(0, len(bits), 6)]
    return "".join(map(chr, [n + 63] + body))


# ---------------------------------------------------------------------------
# pools and seeded rounds
# ---------------------------------------------------------------------------

def load_pool(workload: str) -> list[dict]:
    with open(FIXTURES / f"{workload}.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cells(workload: str, pool: list[dict]) -> dict[tuple, list[dict]]:
    cells: dict[tuple, list[dict]] = {}
    for entry in pool:
        cells.setdefault(tuple(entry[k] for k in CELL_KEYS[workload]), []).append(entry)
    return cells


def slow_counts(workload: str, pool: list[dict]) -> dict[tuple, int]:
    """Slow entries every round draws from each cell.

    Each cell's share of slow entries in the pool, times ``PER_CELL``,
    rounded so that the total is the pool-wide expectation rounded
    (largest remainder).  It does not depend on the seed, so every round
    has the same number of deadline hits.
    """
    per = PER_CELL[workload]
    quota = {key: per * sum(e["class"] == "slow" for e in entries) / len(entries)
             for key, entries in _cells(workload, pool).items()}
    counts = {key: int(q) for key, q in quota.items()}
    extra = round(sum(quota.values())) - sum(counts.values())
    for key in sorted(quota, key=lambda k: (counts[k] - quota[k], k))[:extra]:
        counts[key] += 1
    return counts


def _cycle_fast(fast: list[dict], per_round: int, cycle: int,
                rng: random.Random) -> list[list[dict]]:
    """A cell's fast draws for each round of one cycle.

    The cell's fast entries, sorted by the baseline code's time, are cut
    into ``per_round * cycle`` equal cost strata and one entry is drawn
    from each.  Each run of ``cycle`` consecutive strata is dealt out at
    random, one stratum to each round, so every round gets one entry from
    each of ``per_round`` cost ranges and the cycle as a whole covers the
    cell's cost range evenly.
    """
    ordered = sorted(fast, key=lambda e: (e["seed_s"], e["graph6"]))
    strata = per_round * cycle
    drawn = [ordered[int((j + rng.random()) * len(ordered) / strata)]
             for j in range(strata)]
    rounds: list[list[dict]] = [[] for _ in range(cycle)]
    for i in range(per_round):
        group = drawn[i * cycle:(i + 1) * cycle]
        rng.shuffle(group)
        for pos, entry in enumerate(group):
            rounds[pos].append(entry)
    return rounds


def round_inputs(workload: str, pool: list[dict], seed: int, round_no: int) -> list[dict]:
    """Pool entries for one round, in a seeded order.

    From each cell: its ``slow_counts`` slow entries at random, and
    ``PER_CELL`` minus that many fast entries, one from each cost range
    (see ``_cycle_fast``; the draws of a cycle are fixed by the seed and
    the cycle number).
    """
    cycle_no, pos = divmod(round_no, CYCLE[workload])
    cycle_rng = random.Random(f"{workload}:{seed}:cycle:{cycle_no}")
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    cells = _cells(workload, pool)
    picked = []
    for key, n_slow in sorted(slow_counts(workload, pool).items()):
        slow = [e for e in cells[key] if e["class"] == "slow"]
        fast = [e for e in cells[key] if e["class"] == "fast"]
        picked += rng.sample(slow, n_slow)
        picked += _cycle_fast(fast, PER_CELL[workload] - n_slow, CYCLE[workload],
                              cycle_rng)[pos]
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# the command line, as a user runs it
# ---------------------------------------------------------------------------

CLI_BOOT = "import sys; from matchinv.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_argv(python: str, args) -> list[str]:
    """argv that runs ``matchinv <args>`` from the source tree."""
    return [python, "-c", CLI_BOOT, *args]


def child_env() -> dict:
    """Environment for child interpreters: the source tree on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env

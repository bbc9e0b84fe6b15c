"""Build the benchmark's input pools and expected outputs.

    python3 perfbench/make_fixtures.py [witness|invariants|verify ...]

Writes ``fixtures/witness.jsonl``, ``fixtures/invariants.jsonl`` and
``fixtures/verify.json``.  Expected outputs come from the package as it
stands; each one is cross-checked against routes that share no code with
its solvers:

* networkx ``max_weight_matching(maxcardinality=True)`` for ``match``,
  and networkx's graph6 reader for every graph6 line;
* the brute-force oracles in ``tests/oracles.py`` where they can run
  (triples for graphs with at most 16 edges, rational regularity for
  8-vertex graphs).

Each cell of a pool is a seeded sample of ``POOL_PER_CELL`` inputs, taken
whatever they cost.  Every input is timed twice and classed by the slower
time the package needed for it (``seed_s``, capped at ``SLOW_S``):
``fast`` (under ``FAST_S``), ``slow`` (not finished) or in between.  The
in-between ones are counted on stderr and left out, because whether they
beat the deadline depends on the machine's speed of the moment.  For a
``slow`` entry the package gave no answer, so only the networkx
``match`` is stored and a run checks the chain
``ind <= min <= match <= 2 min`` instead of the full triple.

Regenerate only together with a change to the benchmark itself: the
pools define the inputs that every later measurement is compared on.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import networkx as nx

from common import (DENSITIES, FAMILIES, FAST_S, FIXTURES, INVARIANT_NS, POOL_PER_CELL,
                    REG_N_MAX, ROOT, SLOW_S, SRC, VERIFY_COMMANDS, WITNESS_NS, child_env,
                    cli_argv, encode_graph6, family_of, feasible_tuples,
                    gnp_edges, run_with_deadline)

sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import oracles  # noqa: E402  (read-only reference implementations)
from matchinv import (TupleQuery, build_family, graph6_decode, graph6_encode,  # noqa: E402
                      invariant_triple, regularity, synthesize_witness, witness_spec)

_regularity_module = sys.modules["matchinv.regularity"]

ORACLE_MAX_EDGES = 16
Q_REG_N = 8


def _nx_graph(g6: str) -> nx.Graph:
    return nx.from_graph6_bytes(g6.encode())


def _nx_match(G: nx.Graph) -> int:
    return len(nx.max_weight_matching(G, maxcardinality=True))


def _timed(op, before=lambda: None):
    """Run op twice under SLOW_S; returns (result, slower time, class)."""
    runs = []
    for _ in range(2):
        before()
        runs.append(run_with_deadline(op, SLOW_S))
    result = next((out for out, _, hit in runs if not hit), None)
    seconds = max(s for _, s, _ in runs)
    if all(hit for _, _, hit in runs):
        return result, seconds, "slow"
    return result, seconds, "fast" if seconds < FAST_S else "mid"


def witness_pool() -> list[dict]:
    out = []
    for n in WITNESS_NS:
        by_family: dict[str, list] = {f: [] for f in FAMILIES}
        for t in feasible_tuples(n):
            by_family[family_of(*t)].append(t)
        for fam in FAMILIES:
            cell = by_family[fam]
            random.Random(f"pool:witness:{n}:{fam}").shuffle(cell)
            counts = {"fast": 0, "mid": 0, "slow": 0}
            for p, q, r in cell[:POOL_PER_CELL["witness"]]:
                query = TupleQuery(p, q, r, n)
                if witness_spec(query).family != fam:
                    raise SystemExit(f"family split disagrees on {query}")
                report, seconds, cls = _timed(lambda: synthesize_witness(query))
                counts[cls] += 1
                if cls == "mid":
                    continue
                g6 = graph6_encode(build_family(witness_spec(query)))
                if report is not None:
                    if graph6_encode(report.graph) != g6 or tuple(report.verified) != (p, q, r):
                        raise SystemExit(f"witness for {query} disagrees with itself")
                G = _nx_graph(g6)
                if G.number_of_nodes() != n or not nx.is_connected(G):
                    raise SystemExit(f"witness for {query} is not a connected {n}-vertex graph")
                match = _nx_match(G)
                if match != r:
                    raise SystemExit(f"networkx match {match} != r for {query}")
                entry = {"n": n, "p": p, "q": q, "r": r, "family": fam,
                         "class": cls, "seed_s": round(seconds, 4),
                         "graph6": g6, "match": match}
                if G.number_of_edges() <= ORACLE_MAX_EDGES:
                    if oracles.triple(graph6_decode(g6)) != (p, q, r):
                        raise SystemExit(f"oracle disagrees on witness for {query}")
                    entry["oracle"] = True
                out.append(entry)
            print(f"witness n={n} {fam}: {counts}", file=sys.stderr, flush=True)
    return out


def invariants_pool() -> list[dict]:
    out = []
    for n in INVARIANT_NS:
        for density in DENSITIES:
            rng = random.Random(f"pool:invariants:{n}:{density}")
            counts = {"fast": 0, "mid": 0, "slow": 0}
            for _ in range(POOL_PER_CELL["invariants"]):
                g6 = encode_graph6(n, gnp_edges(rng, n, density))
                G = _nx_graph(g6)
                if encode_graph6(n, list(G.edges())) != g6:
                    raise SystemExit(f"graph6 round trip failed for {g6}")

                def op():
                    H = graph6_decode(g6)
                    return invariant_triple(H), (regularity(H).reg if n <= REG_N_MAX else None)

                # time it as a cold start
                result, seconds, cls = _timed(op, _regularity_module._rank_cache.clear)
                counts[cls] += 1
                if cls == "mid":
                    continue
                match = _nx_match(G)
                entry = {"n": n, "density": density, "graph6": g6, "class": cls,
                         "seed_s": round(seconds, 4), "match": match}
                if result is not None:
                    triple, reg = result
                    if triple.match != match:
                        raise SystemExit(f"networkx match {match} != {triple} on {g6}")
                    entry.update(ind=triple.ind_match, min=triple.min_match)
                    if reg is not None:
                        entry["reg"] = reg
                    if G.number_of_edges() <= ORACLE_MAX_EDGES:
                        if oracles.triple(graph6_decode(g6)) != tuple(triple):
                            raise SystemExit(f"oracle disagrees on {g6}")
                        entry["oracle"] = True
                    if n == Q_REG_N and reg is not None:
                        if oracles.q_regularity(graph6_decode(g6)) != reg:
                            raise SystemExit(f"rational regularity disagrees on {g6}")
                        entry["q_reg"] = True
                out.append(entry)
            print(f"invariants n={n} p={density}: {counts}", file=sys.stderr, flush=True)
    return out


def verify_expected() -> dict:
    out = {}
    for name, args in VERIFY_COMMANDS:
        proc = subprocess.run(cli_argv(sys.executable, args), env=child_env(),
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        reports = [json.loads(line) for line in lines]
        if proc.returncode != 0 or not reports or not all(r["passed"] for r in reports):
            raise SystemExit(f"verify {name} did not pass: {proc.stderr}")
        out[name] = {"argv": list(args), "stdout": proc.stdout,
                     "examined": sum(r["examined"] for r in reports)}
        print(f"verify {name}: {out[name]['examined']} examined", file=sys.stderr, flush=True)
    return out


def _write_jsonl(name: str, entries: list[dict]) -> None:
    with open(FIXTURES / name, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    FIXTURES.mkdir(exist_ok=True)
    which = argv or ["witness", "invariants", "verify"]
    if "witness" in which:
        _write_jsonl("witness.jsonl", witness_pool())
    if "invariants" in which:
        _write_jsonl("invariants.jsonl", invariants_pool())
    if "verify" in which:
        with open(FIXTURES / "verify.json", "w") as fh:
            json.dump(verify_expected(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

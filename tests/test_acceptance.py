"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every check is exact (integer equality, set equality, byte equality);
there are no numeric tolerances anywhere.  Criteria 2, 4, 5 and 6 run
the four benchmark ``verify`` commands through ``cli.main`` on the argv
stored in ``perfbench/fixtures/verify.json``, check them as the benchmark
does (exit 0, the stored stdout byte for byte, every report passed, the
stored examined count), and read their details from the printed JSON.
"""

import json
from pathlib import Path

import numpy as np

from matchinv import (
    FamilySpec,
    TupleQuery,
    build_family,
    connected_graph_count,
    feasible_set,
    invariant_triple,
    is_connected,
    predict_invariants,
    regularity,
    scan_invariants,
    synthesize_witness,
    verify_av,
    verify_lemma_suite,
    verify_theorem_first_main,
    verify_theorem_second_main,
)
from matchinv.cli import main
from oracles import complete_bipartite_graph, complete_graph, expected_edge_count, spec_grid


VERIFY_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" \
    / "verify.json"


def _run_fixture(capsys, check):
    """Run one stored ``matchinv verify`` command: its JSON reports, and
    whether it matched the stored run as the benchmark requires."""
    stored = json.loads(VERIFY_FIXTURE.read_text())[check]
    code = main(stored["argv"])
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()]
    ok = code == 0 and out == stored["stdout"] and all(row["passed"] for row in rows)
    ok &= sum(row["examined"] for row in rows) == stored["examined"]
    return rows, ok


def _report(capsys, num, name, ok):
    # step around pytest's capture so the line shows in live/teed output
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}",
              flush=True)
    return ok


def test_criterion_1_family_grid_closed_forms(capsys):
    ok = True
    grid = spec_grid(12)
    ok &= len(grid) == 63
    for spec in grid:
        G = build_family(spec)
        n, predicted = predict_invariants(spec)
        ok &= G.n == n == spec.vertex_count() <= 12
        ok &= G.edge_count == expected_edge_count(spec)
        ok &= is_connected(G)
        ok &= tuple(invariant_triple(G)) == tuple(predicted)
        if not ok:
            break
    assert _report(capsys, 1, "family grid matches closed forms", ok)


def test_criterion_2_realized_equals_feasible(capsys):
    rows, ok = _run_fixture(capsys, "first_main")
    ok &= [row["n_range"] for row in rows] == [[n, n] for n in range(2, 8)]
    for n, row in zip(range(2, 8), rows):
        ok &= row["examined"] == connected_graph_count(n)
        ok &= set(map(tuple, row["details"]["realized"])) == feasible_set(n)
    assert _report(capsys, 2, "realized set equals feasible set for n <= 7", ok)


def test_criterion_3_witness_synthesis(capsys):
    ok = True
    count = 0
    for n in range(2, 13):
        for tup in sorted(feasible_set(n)):
            rep = synthesize_witness(TupleQuery(*tup, n))
            count += 1
            ok &= rep.feasible and rep.graph is not None
            ok &= rep.graph.n == n
            ok &= tuple(rep.verified) == tup
            ok &= is_connected(rep.graph)
        if not ok:
            break
    ok &= count == sum(len(feasible_set(n)) for n in range(2, 13))
    spot = synthesize_witness(TupleQuery(2, 3, 4, 8))
    ok &= spot.spec == FamilySpec("G2", 2, 0, 1, 0, 1)
    assert _report(capsys, 3, "every feasible tuple up to n = 12 has a verified witness",
                   ok)


def test_criterion_4_extremal_classification(capsys):
    rows, ok = _run_fixture(capsys, "av")
    ok &= [row["n_range"] for row in rows] == [[n, n] for n in (2, 4, 6)]
    for n, row in zip((2, 4, 6), rows):
        ok &= row["details"]["targets_found"].get("complete") is True
        if n >= 4:
            ok &= row["details"]["targets_found"].get("balanced_bipartite") is True
    assert _report(capsys, 4, "extremal graphs are complete or balanced bipartite", ok)


def test_criterion_5_lemma_suite(capsys):
    (row,), ok = _run_fixture(capsys, "lemmas")
    counts = row["details"]["checks"]
    ok &= row["details"]["samples"] == 10000 and row["details"]["seed"] == 0
    ok &= counts["deletion"] == sum(n * connected_graph_count(n)
                                    for n in range(2, 7)) == 164030
    ok &= counts["additivity"] == 10000
    ok &= counts["suspension"] == 10000
    ok &= counts["twin_leaf"] > 0
    ok &= counts["chain"] == sum(connected_graph_count(n) for n in range(2, 8))
    assert _report(capsys, 5, "lemma suite (deletion, twins, additivity, suspension, "
                      "chain)", ok)


def test_criterion_6_regularity(capsys):
    ok = True
    for n in range(2, 9):
        ok &= regularity(complete_graph(n)).reg == 1
    for m in range(1, 5):
        ok &= regularity(complete_bipartite_graph(m, m)).reg == 1
    (row,), fixture_ok = _run_fixture(capsys, "second_main")
    ok &= fixture_ok and row["n_range"] == [2, 9]
    ok &= row["details"]["witnesses"] == sum(len(feasible_set(n))
                                             for n in range(2, 10)) == 58
    ok &= row["details"]["exhaustive_graphs"] == sum(connected_graph_count(n)
                                                     for n in range(2, 7))
    assert _report(capsys, 6, "regularity witnesses and exhaustive sandwich", ok)


def test_criterion_7_determinism(capsys):
    ok = True
    # same scan arrays at either jobs value (multi-chunk case)
    a = scan_invariants(7, jobs=1, use_cache=False)
    b = scan_invariants(7, jobs=2, use_cache=False)
    ok &= np.array_equal(a.masks, b.masks) and np.array_equal(a.ind, b.ind)
    ok &= np.array_equal(a.minm, b.minm) and np.array_equal(a.match, b.match)
    # equal reports across repeated runs, each scanning afresh: a report
    # holds only what its check found, and cli.py prints it from its values
    for run in (lambda: verify_theorem_first_main(6),
                lambda: verify_lemma_suite(5, samples=500, seed=0),
                lambda: verify_av(4), lambda: verify_theorem_second_main(4),
                lambda: synthesize_witness(TupleQuery(2, 3, 4, 8))):
        ok &= run() == run()
    assert _report(capsys, 7, "byte-identical reports across runs and worker counts",
                   ok)

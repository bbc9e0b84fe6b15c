"""Tests for the feasibility test and witness synthesis."""

import json
from pathlib import Path

import pytest

from matchinv import (
    REASONS,
    FamilySpec,
    TupleQuery,
    feasible_set,
    graph6_decode,
    graph6_encode,
    invariant_triple,
    is_chordal,
    is_connected,
    is_feasible,
    predict_invariants,
    synthesize_witness,
    witness_spec,
)
from matchinv.cli import main

WITNESS_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" \
    / "witness.jsonl"


def test_reason_catalogue():
    assert REASONS == ("P_BELOW_1", "CHAIN_P_GT_Q", "CHAIN_Q_GT_R",
                       "R_GT_2Q", "R_GT_HALF_N", "AV_EXCLUSION")


def test_is_feasible_reasons():
    cases = [
        ((0, 1, 1, 4), "P_BELOW_1"),
        ((-3, 1, 1, 4), "P_BELOW_1"),
        ((2, 1, 2, 6), "CHAIN_P_GT_Q"),
        ((1, 3, 2, 8), "CHAIN_Q_GT_R"),
        ((1, 1, 3, 8), "R_GT_2Q"),
        ((1, 2, 3, 5), "R_GT_HALF_N"),
        ((2, 2, 2, 4), "AV_EXCLUSION"),
        ((2, 3, 3, 6), "AV_EXCLUSION"),
        ((3, 3, 3, 6), "AV_EXCLUSION"),
    ]
    for tup, reason in cases:
        ok, got = is_feasible(TupleQuery(*tup))
        assert not ok and got == reason
    # the first violated constraint wins when several fail
    ok, got = is_feasible(TupleQuery(0, 3, 2, 4))
    assert got == "P_BELOW_1"
    ok, got = is_feasible(TupleQuery(3, 2, 9, 4))
    assert got == "CHAIN_P_GT_Q"


def test_is_feasible_accepts():
    good = [(1, 1, 1, 2), (1, 1, 2, 4), (2, 2, 3, 7), (2, 3, 4, 8),
            (1, 3, 3, 6), (2, 3, 3, 7), (1, 2, 2, 4), (4, 4, 4, 9)]
    for tup in good:
        ok, reason = is_feasible(TupleQuery(*tup))
        assert ok and reason is None


def test_n_below_two_raises():
    with pytest.raises(ValueError):
        is_feasible(TupleQuery(1, 1, 1, 1))
    with pytest.raises(ValueError):
        feasible_set(0)


def test_feasible_set_stops_at_the_vertex_cap():
    assert len(feasible_set(64)) == 4593
    with pytest.raises(ValueError, match="exceeds 64"):
        feasible_set(65)


def test_n_above_the_vertex_cap_raises():
    with pytest.raises(ValueError, match="vertex count 65 exceeds 64"):
        is_feasible(TupleQuery(1, 1, 1, 65))
    for tup in ((1, 1, 1, 65), (0, 1, 1, 65)):
        with pytest.raises(ValueError, match="vertex count 65 exceeds 64"):
            synthesize_witness(TupleQuery(*tup))


def test_feasible_set_frozen():
    assert feasible_set(2) == {(1, 1, 1)}
    assert feasible_set(3) == {(1, 1, 1)}
    assert feasible_set(4) == {(1, 1, 1), (1, 1, 2), (1, 2, 2)}
    assert feasible_set(5) == {(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)}
    assert feasible_set(6) == {(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
                               (1, 2, 3), (1, 3, 3), (2, 2, 3)}
    assert feasible_set(7) == {(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2),
                               (1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3),
                               (3, 3, 3)}
    assert len(feasible_set(8)) == 15
    assert len(feasible_set(9)) == 18


def test_feasible_set_agrees_with_pointwise_test():
    for n in range(2, 12):
        full = {(p, q, r)
                for p in range(1, n) for q in range(1, n) for r in range(1, n)
                if is_feasible(TupleQuery(p, q, r, n))[0]}
        assert full == feasible_set(n)


def test_witness_spec_case_map():
    assert witness_spec(TupleQuery(1, 2, 3, 7)) == FamilySpec("G1", 2, 1, 1)
    assert witness_spec(TupleQuery(1, 2, 2, 5)) == FamilySpec("G1", 2, 0, 1)
    assert witness_spec(TupleQuery(1, 3, 3, 6)) == FamilySpec("G1", 3, 0, 0)
    assert witness_spec(TupleQuery(2, 2, 4, 9)) == \
        FamilySpec("G2", 1, 0, 2, 1, 0)
    assert witness_spec(TupleQuery(2, 3, 4, 8)) == \
        FamilySpec("G2", 2, 0, 1, 0, 1)
    assert witness_spec(TupleQuery(3, 3, 3, 9)) == FamilySpec("G3", 1, 1, 3)
    assert witness_spec(TupleQuery(2, 3, 3, 7)) == FamilySpec("G3", 2, 0, 1)
    with pytest.raises(ValueError):
        witness_spec(TupleQuery(2, 2, 2, 4))


def test_witness_spec_sound_small():
    for n in range(2, 10):
        for tup in sorted(feasible_set(n)):
            q = TupleQuery(*tup, n)
            spec = witness_spec(q)
            assert spec.vertex_count() == n


def test_synthesize_witness_feasible(capsys):
    rep = synthesize_witness(TupleQuery(2, 3, 4, 8))
    assert rep.feasible and rep.reason is None
    assert rep.spec == FamilySpec("G2", 2, 0, 1, 0, 1)
    assert rep.graph.n == 8
    assert rep.verified == (2, 3, 4)
    assert is_connected(rep.graph)
    assert is_chordal(rep.graph)
    assert main(["witness", "-p", "2", "-q", "3", "-r", "4", "-n", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["query"] == {"p": 2, "q": 3, "r": 4, "n": 8}
    assert data["feasible"] is True
    assert data["family"] == "G2"
    assert data["params"] == [2, 0, 1, 0, 1]
    assert data["graph6"] == "G~C?Nk"
    assert data["verified"] == {"ind": 2, "min": 3, "match": 4}
    assert "reason" not in data


def test_synthesize_witness_infeasible(capsys):
    rep = synthesize_witness(TupleQuery(2, 2, 2, 4))
    assert not rep.feasible
    assert rep.reason == "AV_EXCLUSION"
    assert rep.spec is None and rep.graph is None and rep.verified is None
    assert main(["witness", "-p", "2", "-q", "2", "-r", "2", "-n", "4"]) == 1
    assert set(json.loads(capsys.readouterr().out)) == {"query", "feasible", "reason"}


def test_synthesize_witness_all_small():
    for n in range(2, 10):
        for tup in sorted(feasible_set(n)):
            rep = synthesize_witness(TupleQuery(*tup, n))
            assert rep.feasible
            assert rep.graph.n == n
            assert tuple(rep.verified) == tup
            assert is_connected(rep.graph)
            assert invariant_triple(rep.graph) == tup


def test_every_witness_rechecks_at_24_and_32():
    # synthesize_witness raises unless the exact solvers reproduce the tuple
    count = 0
    for n in (24, 32):
        for tup in sorted(feasible_set(n)):
            rep = synthesize_witness(TupleQuery(*tup, n))
            assert rep.graph.n == n and tuple(rep.verified) == tup
            count += 1
    assert count == 283 + 633


def test_every_witness_rechecks_at_48_and_64():
    # min_match_number settles each of these at its root: the first-fit
    # matching is minimum, and the clique-cover bounds of the components of
    # G - hub add up to it; each tuple is checked against the families'
    # closed form as well as the query
    count = 0
    for n in (48, 64):
        for tup in sorted(feasible_set(n)):
            query = TupleQuery(*tup, n)
            rep = synthesize_witness(query)
            assert predict_invariants(witness_spec(query)) == (n, tup)
            assert rep.graph.n == n and tuple(rep.verified) == tup
            count += 1
    assert count == 2005 + 4593


def test_report_json_deterministic():
    a = synthesize_witness(TupleQuery(2, 3, 4, 8))
    b = synthesize_witness(TupleQuery(2, 3, 4, 8))
    assert a == b
    assert graph6_encode(a.graph) == "G~C?Nk"


def test_witness_pool_graph6_byte_for_byte():
    # the benchmark's witness pool pins the family builder and the graph6
    # encoder byte for byte; its 'fast' entries carry their checked triples
    entries = [json.loads(line) for line in WITNESS_FIXTURE.read_text().splitlines()]
    assert len(entries) == 408
    for entry in entries:
        rep = synthesize_witness(TupleQuery(entry["p"], entry["q"], entry["r"], entry["n"]))
        assert graph6_encode(rep.graph) == entry["graph6"]
        assert graph6_decode(entry["graph6"]) == rep.graph
        assert rep.verified.match == entry["match"]
        if entry["class"] == "fast":
            assert tuple(rep.verified) == (entry["p"], entry["q"], entry["r"])

"""Tests for the three witness families: validation, structure, invariants."""

import pytest

import oracles
from matchinv import (
    FAMILY_NAMES,
    FamilySpec,
    Graph,
    TupleQuery,
    block_labels,
    build_family,
    feasible_set,
    invariant_triple,
    is_chordal,
    is_connected,
    parse_family_spec,
    path_graph,
    predict_invariants,
    witness_spec,
)
from oracles import complete_graph, expected_edge_count, spec_grid


def test_family_names():
    assert FAMILY_NAMES == ("G1", "G2", "G3")


def test_spec_validation_accepts():
    FamilySpec("G1", 1, 0, 0)
    FamilySpec("G1", 3, 3, 0)
    FamilySpec("G2", 2, 1, 1, 1, 1)
    FamilySpec("G2", 1, 0, 1, 0, 1)
    FamilySpec("G3", 1, 0, 1)
    FamilySpec("G1", 32, 0, 0)  # exactly at the vertex cap


def test_spec_validation_rejects():
    bad = [
        ("G1", (0, 0, 0)),      # a too small
        ("G1", (1, 2, 0)),      # b > a
        ("G1", (1, 0, -1)),     # negative c
        ("G2", (1, 1, 1, 1, 0)),  # needs a > b
        ("G2", (1, 0, 0, 1, 0)),  # needs c >= 1
        ("G2", (1, 0, 1, 0, 0)),  # needs d + e >= 1
        ("G2", (1, 0, 1, -1, 2)),  # negative d
        ("G3", (0, 0, 1)),
        ("G3", (1, -1, 1)),
        ("G3", (1, 0, 0)),      # needs c >= 1
        ("G1", (32, 0, 1)),     # 65 vertices, over the cap
    ]
    for fam, params in bad:
        with pytest.raises(ValueError):
            FamilySpec(fam, *params)
    with pytest.raises(ValueError):
        FamilySpec("G4", 1, 0, 0)
    with pytest.raises(ValueError):
        FamilySpec("G1", 1, 0, 0, d=1)  # d/e are G2-only
    with pytest.raises(ValueError):
        FamilySpec("G3", 1, 0, 1, e=2)


def test_spec_text_round_trip():
    for text in ("G1(3,1,2)", "G2(2,0,1,0,1)", "G3(1,2,3)"):
        spec = parse_family_spec(text)
        assert str(spec) == text
    spec = parse_family_spec("G2(2, 0, 1, 0, 1)")
    assert spec == FamilySpec("G2", 2, 0, 1, 0, 1)
    assert spec.params() == (2, 0, 1, 0, 1)
    assert parse_family_spec("G1(1,0,0)").params() == (1, 0, 0)


def test_spec_parse_errors():
    for text in ("G4(1,1,1)", "G1(1,2)", "G2(1,0,1)", "G1(a,b,c)",
                 "G1[1,0,0]", "", "G1()", "G1(-1,0,0)"):
        with pytest.raises(ValueError):
            parse_family_spec(text)


def test_g1_smallest_members():
    G = build_family(FamilySpec("G1", 1, 0, 0))
    assert G.adj == complete_graph(2).adj
    assert block_labels(FamilySpec("G1", 1, 0, 0)) == ("x1", "x2")
    assert oracles.isomorphic(build_family(FamilySpec("G1", 1, 1, 0)),
                              path_graph(4))


def test_g1_structure_frozen():
    G = build_family(FamilySpec("G1", 1, 1, 2))
    assert G.n == 6
    assert G.edges() == [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)]
    assert block_labels(FamilySpec("G1", 1, 1, 2)) == ("x1", "x2", "y1", "y2", "z1", "z2")


def test_g2_structure_frozen():
    spec = FamilySpec("G2", 2, 0, 1, 0, 1)
    G = build_family(spec)
    assert G.n == 8
    assert block_labels(spec) == ("x1", "x2", "x3", "x4", "z1", "v1", "v2", "w")
    # the apex sees the clique and the V block, not the pendant
    assert G.adj[7] == 0b01101111
    assert G.adj[5] >> 6 & 1
    assert G.adj[3] >> 4 & 1
    assert G.edge_count == expected_edge_count(spec) == 14


def test_g2_pendant_blocks():
    # with d = 2 the U and U' blocks, vertices 3..10, induce two disjoint
    # 4-vertex paths, 7-3-5-9 and 8-4-6-10
    spec = FamilySpec("G2", 1, 0, 1, 2, 0)
    G = build_family(spec)
    assert G.n == 12
    assert block_labels(spec) == ("x1", "x2", "z1", "u1", "u2", "u3", "u4",
                                  "u'1", "u'2", "u'3", "u'4", "w")
    block = 0xFF << 3
    assert [G.adj[v] & block for v in range(3, 11)] == [
        1 << 5 | 1 << 7, 1 << 6 | 1 << 8, 1 << 3 | 1 << 9, 1 << 4 | 1 << 10,
        1 << 3, 1 << 4, 1 << 5, 1 << 6]
    assert invariant_triple(G) == predict_invariants(spec)[1] == (3, 3, 6)


def test_g3_structure_frozen():
    G = build_family(FamilySpec("G3", 1, 0, 1))
    assert G.n == 5
    assert G.edges() == [(0, 1), (0, 4), (1, 4), (2, 3), (3, 4)]
    assert block_labels(FamilySpec("G3", 1, 0, 1)) == ("x1", "x2", "z1", "v", "w")
    assert invariant_triple(G) == (2, 2, 2)


def test_g3_star_block():
    spec = FamilySpec("G3", 1, 2, 3)
    G = build_family(spec)
    assert G.n == 11
    # the leaves 6, 7, 8 see only the star center 9 within the block
    star = 0b1111 << 6
    assert G.adj[9] & star == 0b111 << 6
    assert all(G.adj[z] & star == 1 << 9 for z in (6, 7, 8))
    # apex w sees the clique, the matching block, and the star center
    assert G.adj[10] == 0b0111111111 & ~(0b111 << 6) | (1 << 9)


def test_built_graphs_pass_graph_validation(monkeypatch):
    # the rows are filled directly, so Graph's own checks must still run,
    # once per build
    calls = []
    check = Graph.__post_init__

    def counted(G):
        calls.append(G.n)
        check(G)
    monkeypatch.setattr(Graph, "__post_init__", counted)
    for spec in spec_grid(12):
        G = build_family(spec)
        assert type(G) is Graph
        assert calls == [spec.vertex_count()]
        calls.clear()


def test_one_block_label_per_vertex():
    specs = spec_grid(12) + [witness_spec(TupleQuery(*t, n)) for n in range(2, 17)
                             for t in sorted(feasible_set(n))]
    for spec in specs:
        assert len(block_labels(spec)) == spec.vertex_count()


def test_predictions_frozen():
    cases = [
        ("G1(2,1,3)", 9, (1, 2, 3)),
        ("G1(3,0,0)", 6, (1, 3, 3)),
        ("G2(2,0,1,0,1)", 8, (2, 3, 4)),
        ("G2(1,0,1,2,0)", 12, (3, 3, 6)),
        ("G3(1,1,3)", 9, (3, 3, 3)),
        ("G3(2,0,1)", 7, (2, 3, 3)),
    ]
    for text, n, triple in cases:
        got_n, got = predict_invariants(parse_family_spec(text))
        assert (got_n, tuple(got)) == (n, triple)


def test_grid_matches_predictions():
    for spec in spec_grid(10):
        G = build_family(spec)
        n, predicted = predict_invariants(spec)
        assert G.n == n == spec.vertex_count()
        assert G.edge_count == expected_edge_count(spec)
        assert is_connected(G)
        assert is_chordal(G)
        assert invariant_triple(G) == predicted


def test_grid_shape():
    grid = spec_grid(12)
    assert len(grid) == len(set(grid))
    assert all(s.vertex_count() <= 12 for s in grid)
    assert set(spec_grid(8)) <= set(grid)
    assert {s.family for s in grid} == {"G1", "G2", "G3"}
    # tighter budgets drop members but keep the smallest ones
    assert FamilySpec("G1", 1, 0, 0) in set(spec_grid(2))

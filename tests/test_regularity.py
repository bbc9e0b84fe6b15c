"""Tests for homology ranks of face lists, and regularity."""

import json
import random

import pytest

import oracles
from matchinv import (
    RegularityResult,
    from_edge_list,
    graph6_encode,
    ind_match_number,
    invariant_triple,
    is_chordal,
    TupleQuery,
    feasible_set,
    path_graph,
    reduced_homology_ranks,
    regularity,
    scan_invariants,
    synthesize_witness,
)
from matchinv.cli import main
from oracles import (all_graphs, complete_bipartite_graph, complete_graph, cycle_graph,
                     disjoint_union, star_graph)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def closure(maximal):
    """All faces of the complex generated by the given masks, ascending."""
    return sorted({s for f in maximal for s in range(f + 1) if not s & ~f})


def test_complex_validation():
    assert reduced_homology_ranks([0, 0b01, 0b10, 0b11]) == [0, 0, 0]  # segment
    with pytest.raises(ValueError):
        # pair without one of its vertices: not downward closed
        reduced_homology_ranks([0, 0b01, 0b11])
    with pytest.raises(ValueError):
        reduced_homology_ranks([0b01])  # empty face missing


def test_empty_and_point_complexes():
    assert reduced_homology_ranks([0]) == [1]
    assert reduced_homology_ranks([0, 0b1]) == [0, 0]


def test_homology_frozen():
    cases = [
        (closure([0b01, 0b10]), [0, 1]),                            # two points
        (closure([0b011, 0b101, 0b110]), [0, 0, 1]),                # circle
        (closure([0b111]), [0, 0, 0, 0]),                           # solid
        (closure([0b0111, 0b1011, 0b1101, 0b1110]), [0, 0, 0, 1]),  # sphere
        (oracles.independent_set_masks(cycle_graph(4)), [0, 1, 0]),
        (oracles.independent_set_masks(cycle_graph(5)), [0, 0, 1]),
        (oracles.independent_set_masks(
            disjoint_union(path_graph(2), path_graph(2))), [0, 0, 1]),
    ]
    for faces, expect in cases:
        assert reduced_homology_ranks(faces) == expect
        assert len(expect) == max(f.bit_count() for f in faces) + 1


def test_homology_matches_rational_oracle():
    # on independence complexes this small, GF(2) and rational ranks agree
    for n in range(1, 6):
        for G in all_graphs(n):
            faces = oracles.independent_set_masks(G)
            assert reduced_homology_ranks(faces) == oracles.q_homology_ranks(faces)


def test_euler_poincare():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 7)
        G = oracles.random_graph(rng, n)
        faces = oracles.independent_set_masks(G)
        ranks = reduced_homology_ranks(faces)
        chi = sum((-1) ** (k - 1) * r for k, r in enumerate(ranks))
        assert chi == sum((-1) ** (f.bit_count() - 1) for f in faces)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def test_regularity_frozen():
    cases = [
        (path_graph(2), 1),
        (path_graph(4), 1),
        (path_graph(5), 2),
        (complete_graph(6), 1),
        (complete_bipartite_graph(3, 3), 1),
        (complete_bipartite_graph(4, 4), 1),
        (star_graph(5), 1),
        (cycle_graph(4), 1),
        (cycle_graph(5), 2),
        (cycle_graph(7), 2),
        (disjoint_union(path_graph(2), path_graph(2)), 2),
        (from_edge_list(3, []), 0),
        (from_edge_list(0, []), 0),
    ]
    for G, expect in cases:
        assert regularity(G).reg == expect


def test_regularity_witnesses(capsys):
    r = regularity(path_graph(2))
    assert r == RegularityResult(1, (0, 1))
    assert main(["reg", graph6_encode(path_graph(2))]) == 0
    assert json.loads(capsys.readouterr().out) == {"reg": 1, "witness_W": [0, 1],
                                                   "witness_d": 1}
    assert regularity(cycle_graph(5)).witness_subset == (0, 1, 2, 3, 4)
    assert regularity(cycle_graph(7)).witness_subset == (0, 1, 3, 4)
    assert regularity(from_edge_list(3, [])) == RegularityResult(0, ())
    # the recorded subset really achieves the regularity, as a dimension
    for G in (cycle_graph(6), path_graph(6)):
        res = regularity(G)
        sub = 0
        for v in res.witness_subset:
            sub |= 1 << v
        faces = oracles.independent_set_masks(G, sub)
        assert oracles.q_homology_ranks(faces)[res.reg] > 0


def test_regularity_cap():
    regularity(from_edge_list(12, []))
    with pytest.raises(ValueError):
        regularity(from_edge_list(13, []))


def test_regularity_at_11_and_12_vertices():
    # reg(C_n) is n // 3 + 1 when n = 2 (mod 3) and n // 3 otherwise
    assert regularity(cycle_graph(11)).reg == 4
    assert regularity(cycle_graph(12)).reg == 4
    # regularity adds over disjoint unions
    K3, K2 = complete_graph(3), path_graph(2)
    assert regularity(disjoint_union(disjoint_union(K3, K3),
                                     disjoint_union(K3, K3))).reg == 4
    six_K2 = K2
    for _ in range(5):
        six_K2 = disjoint_union(six_K2, K2)
    assert regularity(six_K2).reg == 6


def test_regularity_of_witnesses_at_11_and_12_vertices():
    # chordal graphs have reg = ind, and the witness for (p, q, r, n) has ind = p
    for n in (11, 12):
        for p, q, r in sorted(feasible_set(n)):
            G = synthesize_witness(TupleQuery(p, q, r, n)).graph
            assert is_chordal(G)
            assert regularity(G).reg == p


def _first_reaching_subset(G):
    """Plain rational scan: the maximum and the first W reaching it."""
    best, best_w = 0, 0
    for w in range(1 << G.n):
        ranks = oracles.q_homology_ranks(oracles.independent_set_masks(G, w))
        d = max((k for k, r in enumerate(ranks) if r), default=0)
        if d > best:
            best, best_w = d, w
    return best, tuple(v for v in range(G.n) if best_w >> v & 1)


def test_regularity_witness_matches_rational_scan():
    # pins both skip rules of the scan and its witness order
    graphs = [G for n in range(1, 6) for G in all_graphs(n)]
    rng = random.Random(27)
    graphs += [oracles.random_graph(rng, n) for n in (6, 6, 7, 7, 8, 8)]
    # graphs whose whole vertex set folds: cycles with isolated vertices,
    # true twins (N[u] = N[v]) or false twins (N(u) = N(v)) added
    c5, c6, c7 = (cycle_graph(n).edges() for n in (5, 6, 7))
    graphs += [
        from_edge_list(6, c5),  # an isolated vertex
        from_edge_list(7, c6 + [(6, 1), (6, 5)]),  # a false twin of 0
        from_edge_list(8, c5 + [(5, 0), (5, 1), (5, 4)]),  # a true twin of 0, two isolated
        from_edge_list(8, c7 + [(7, 2), (7, 4)]),  # a false twin of 3
        from_edge_list(8, c6 + [(6, 0), (6, 1), (6, 5), (7, 2), (7, 4)]),  # one of each twin
    ]
    for G in graphs:
        res = regularity(G)
        assert (res.reg, res.witness_subset) == _first_reaching_subset(G)


def test_regularity_matches_rational_oracle():
    # one graph per isomorphism class of connected graphs on 2..6
    # vertices, the classes that second-main checks exhaustively
    graphs = [G for n in range(2, 7) for _, G, _ in scan_invariants(n).classes()]
    assert len(graphs) == 1 + 2 + 6 + 21 + 112
    for G in graphs:
        assert regularity(G).reg == oracles.q_regularity(G), graph6_encode(G)


def test_regularity_sandwich_and_chordal_equality():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(2, 7)
        G = oracles.random_graph(rng, n)
        ind, mini, _ = invariant_triple(G)
        reg = regularity(G).reg
        if G.edge_count == 0:
            assert reg == 0
            continue
        assert ind <= reg <= mini
        if is_chordal(G):
            assert reg == ind == ind_match_number(G)


def test_regularity_deterministic():
    G = cycle_graph(7)
    assert regularity(G) == regularity(G)

"""Tests for independence complexes, homology ranks, and regularity."""

import random

import pytest

import oracles
from matchinv import (
    RegularityResult,
    SimplicialComplexView,
    complete_bipartite_graph,
    complete_graph,
    disjoint_union,
    from_edge_list,
    from_maximal_faces,
    ind_match_number,
    independence_complex,
    invariant_triple,
    is_chordal,
    TupleQuery,
    feasible_set,
    path_graph,
    reduced_homology_ranks,
    regularity,
    star_graph,
    synthesize_witness,
)


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def all_graphs(n):
    import itertools
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [pairs[i] for i in range(len(pairs))
                                 if mask >> i & 1])


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def test_complex_construction():
    C = from_maximal_faces(3, [0b011, 0b101, 0b110])
    assert C.ground_n == 3
    assert C.f_vector() == (1, 3, 3)
    assert C.dim == 1
    assert C.faces_by_size[1] == (0b001, 0b010, 0b100)
    assert C.reduced_euler_characteristic() == -1 + 3 - 3


def test_complex_validation():
    SimplicialComplexView(2, ((0,), (0b01, 0b10), (0b11,)))  # the full segment
    with pytest.raises(ValueError):
        SimplicialComplexView(2, ((0,), (0b11,)))  # wrong size slot
    with pytest.raises(ValueError):
        SimplicialComplexView(2, ((0,), (0b100,)))  # outside ground set
    with pytest.raises(ValueError):
        # pair without one of its vertices: not downward closed
        SimplicialComplexView(2, ((0,), (0b01,), (0b11,)))
    with pytest.raises(ValueError):
        SimplicialComplexView(2, ((), (0b01,)))  # empty face missing


def test_empty_and_point_complexes():
    empty = from_maximal_faces(0, [])
    assert empty.f_vector() == (1,)
    assert empty.dim == -1
    assert reduced_homology_ranks(empty) == [1]
    point = from_maximal_faces(1, [0b1])
    assert point.f_vector() == (1, 1)
    assert reduced_homology_ranks(point) == [0, 0]


def test_independence_complex_examples():
    C4 = cycle_graph(4)
    IC = independence_complex(C4)
    assert IC.f_vector() == (1, 4, 2)
    assert IC.faces_by_size[2] == (0b0101, 0b1010)
    assert independence_complex(complete_graph(3)).f_vector() == (1, 3)
    assert independence_complex(cycle_graph(5)).f_vector() == (1, 5, 5)
    assert independence_complex(from_edge_list(2, [])).f_vector() == (1, 2, 1)


def test_independence_complex_cap():
    independence_complex(from_edge_list(16, []))
    with pytest.raises(ValueError):
        independence_complex(from_edge_list(17, []))


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def test_homology_frozen():
    cases = [
        (from_maximal_faces(2, [0b01, 0b10]), [0, 1]),            # two points
        (from_maximal_faces(3, [0b011, 0b101, 0b110]), [0, 0, 1]),  # circle
        (from_maximal_faces(3, [0b111]), [0, 0, 0, 0]),           # solid
        (from_maximal_faces(4, [0b0111, 0b1011, 0b1101, 0b1110]),
         [0, 0, 0, 1]),                                           # sphere
        (independence_complex(cycle_graph(4)), [0, 1, 0]),
        (independence_complex(cycle_graph(5)), [0, 0, 1]),
        (independence_complex(disjoint_union(path_graph(2), path_graph(2))),
         [0, 0, 1]),
    ]
    for C, expect in cases:
        assert reduced_homology_ranks(C) == expect
        assert len(reduced_homology_ranks(C)) == C.dim + 2


def test_homology_matches_rational_oracle():
    # on independence complexes this small, GF(2) and rational ranks agree
    for n in range(1, 6):
        for G in all_graphs(n):
            C = independence_complex(G)
            faces = [f for group in C.faces_by_size for f in group]
            assert reduced_homology_ranks(C) == oracles.q_homology_ranks(faces)


def test_euler_poincare():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 7)
        G = oracles.random_graph(rng, n)
        C = independence_complex(G)
        ranks = reduced_homology_ranks(C)
        chi = sum((-1) ** (k - 1) * r for k, r in enumerate(ranks))
        assert chi == C.reduced_euler_characteristic()


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


def test_regularity_witnesses():
    r = regularity(path_graph(2))
    assert r == RegularityResult(1, (0, 1), 1)
    assert r.to_json_dict() == {"reg": 1, "witness_W": [0, 1], "witness_d": 1}
    assert regularity(cycle_graph(5)).witness_subset == (0, 1, 2, 3, 4)
    assert regularity(cycle_graph(7)).witness_subset == (0, 1, 3, 4)
    assert regularity(from_edge_list(3, [])) == RegularityResult(0, (), 0)
    # the recorded subset really achieves the recorded dimension
    for G in (cycle_graph(6), path_graph(6)):
        res = regularity(G)
        sub = 0
        for v in res.witness_subset:
            sub |= 1 << v
        faces = oracles.independent_set_masks(G, sub)
        assert oracles.q_homology_ranks(faces)[res.witness_d] > 0


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
    for G in graphs:
        res = regularity(G)
        assert (res.reg, res.witness_subset) == _first_reaching_subset(G)


def test_regularity_matches_rational_oracle():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 6)
        G = oracles.random_graph(rng, n)
        assert regularity(G).reg == oracles.q_regularity(G)


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

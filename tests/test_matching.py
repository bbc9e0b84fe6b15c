"""Tests for matching predicates, the three solvers, and certificates."""

import itertools
import random

import pytest

import oracles
from matchinv import (
    InvariantTriple,
    Matching,
    complete_bipartite_graph,
    complete_graph,
    disjoint_union,
    from_edge_list,
    ind_match_number,
    invariant_triple,
    is_induced_matching,
    is_matching,
    is_maximal_matching,
    match_number,
    max_induced_matching,
    max_matching,
    min_match_number,
    min_maximal_matching,
    path_graph,
    star_graph,
)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [pairs[i] for i in range(len(pairs))
                                 if mask >> i & 1])


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_is_matching():
    P4 = path_graph(4)
    assert is_matching(P4, [])
    assert is_matching(P4, [(0, 1), (2, 3)])
    assert is_matching(P4, [(1, 0)])
    assert not is_matching(P4, [(0, 1), (1, 2)])
    # duplicates collapse to one copy
    assert is_matching(P4, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        is_matching(P4, [(0, 2)])
    with pytest.raises(ValueError):
        is_matching(P4, [(0, 4)])


def test_is_maximal_matching():
    P4 = path_graph(4)
    assert is_maximal_matching(P4, [(1, 2)])
    assert not is_maximal_matching(P4, [(0, 1)])
    assert is_maximal_matching(P4, [(0, 1), (2, 3)])
    assert not is_maximal_matching(P4, [])
    assert is_maximal_matching(from_edge_list(2, []), [])
    with pytest.raises(ValueError):
        is_maximal_matching(P4, [(0, 1), (1, 2)])


def test_is_induced_matching():
    P5 = path_graph(5)
    assert is_induced_matching(P5, [(0, 1), (3, 4)])
    assert not is_induced_matching(P5, [(0, 1), (2, 3)])
    P4 = path_graph(4)
    assert not is_induced_matching(P4, [(0, 1), (2, 3)])
    assert is_induced_matching(P4, [(1, 2)])
    assert is_induced_matching(P4, [])
    with pytest.raises(ValueError):
        is_induced_matching(P4, [(0, 1), (1, 2)])


def test_predicates_accept_matching_objects():
    P4 = path_graph(4)
    M = Matching(((0, 1), (2, 3)))
    assert M.size == 2
    assert M.covered_mask() == 0b1111
    assert is_matching(P4, M)
    assert is_maximal_matching(P4, M)
    assert not is_induced_matching(P4, M)


def test_predicates_match_oracle_exhaustive():
    for G in all_graphs(4):
        edges = G.edges()
        for k in range(len(edges) + 1):
            for sub in itertools.combinations(edges, k):
                M = list(sub)
                ok = len({v for e in M for v in e}) == 2 * len(M)
                assert is_matching(G, M) == ok
                if ok:
                    assert is_maximal_matching(G, M) == oracles._is_maximal(G, M)
                    assert is_induced_matching(G, M) == oracles._is_induced(G, M)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def test_named_triples():
    cases = [
        (path_graph(2), (1, 1, 1)),
        (path_graph(4), (1, 1, 2)),
        (path_graph(5), (2, 2, 2)),
        (complete_graph(4), (1, 2, 2)),
        (complete_graph(6), (1, 3, 3)),
        (complete_bipartite_graph(3, 3), (1, 3, 3)),
        (cycle_graph(5), (1, 2, 2)),
        (cycle_graph(7), (2, 3, 3)),
        (star_graph(5), (1, 1, 1)),
        (disjoint_union(path_graph(2), path_graph(2)), (2, 2, 2)),
        (from_edge_list(3, []), (0, 0, 0)),
        (from_edge_list(0, []), (0, 0, 0)),
        (petersen_graph(), (3, 3, 5)),
    ]
    for G, expect in cases:
        t = invariant_triple(G)
        assert t == expect
        assert (t.ind_match, t.min_match, t.match) == expect


def test_solvers_match_oracle_exhaustive():
    for n in range(6):
        for G in all_graphs(n):
            assert match_number(G) == oracles.match_number(G)
            assert min_match_number(G) == oracles.min_match_number(G)
            assert ind_match_number(G) == oracles.ind_match_number(G)


def test_solvers_match_oracle_random():
    rng = random.Random(5)
    done = 0
    while done < 150:
        n = rng.randint(6, 8)
        G = oracles.random_graph(rng, n)
        if G.edge_count > 14:
            continue
        assert invariant_triple(G) == oracles.triple(G)
        done += 1


def test_chain_inequalities_random():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 9)
        G = oracles.random_graph(rng, n)
        ind, mini, mat = invariant_triple(G)
        assert ind <= mini <= mat <= 2 * mini or (ind, mini, mat) == (0, 0, 0)
        assert mat <= n // 2


def test_component_additivity_spot():
    A = cycle_graph(5)
    B = path_graph(4)
    U = disjoint_union(A, B)
    ta, tb, tu = invariant_triple(A), invariant_triple(B), invariant_triple(U)
    assert tu == (ta.ind_match + tb.ind_match,
                  ta.min_match + tb.min_match,
                  ta.match + tb.match)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificates_examples():
    P4 = path_graph(4)
    assert max_matching(P4).edges == ((0, 1), (2, 3))
    assert min_maximal_matching(P4).edges == ((1, 2),)
    assert max_induced_matching(P4).edges == ((0, 1),)
    P5 = path_graph(5)
    assert max_induced_matching(P5).edges == ((0, 1), (3, 4))
    K4 = complete_graph(4)
    assert max_matching(K4).edges == ((0, 1), (2, 3))
    assert min_maximal_matching(K4).edges == ((0, 1), (2, 3))
    assert max_induced_matching(K4).edges == ((0, 1),)
    assert max_matching(from_edge_list(3, [])).edges == ()


def test_certificates_are_lex_first():
    rng = random.Random(9)
    graphs = list(all_graphs(4))
    while len(graphs) < 16 + 60:
        graphs.append(oracles.random_graph(rng, rng.randint(5, 6)))
    # 7 and 8 vertices and Petersen pin the unrestricted residual graphs
    graphs += [oracles.random_graph(rng, rng.choice((7, 8)), 0.4)
               for _ in range(40)]
    graphs.append(petersen_graph())
    for G in graphs:
        if G.edge_count == 0:
            continue
        assert max_matching(G).edges == oracles.lex_first_optima(G, "max")
        assert min_maximal_matching(G).edges == \
            oracles.lex_first_optima(G, "min_maximal")
        assert max_induced_matching(G).edges == \
            oracles.lex_first_optima(G, "induced")


def test_certificates_are_valid_and_optimal():
    rng = random.Random(10)
    for _ in range(80):
        n = rng.randint(2, 8)
        G = oracles.random_graph(rng, n)
        mm = max_matching(G)
        assert is_matching(G, mm)
        assert mm.size == match_number(G)
        lo = min_maximal_matching(G)
        if G.edge_count:
            assert is_maximal_matching(G, lo)
        assert lo.size == min_match_number(G)
        im = max_induced_matching(G)
        assert is_induced_matching(G, im)
        assert im.size == ind_match_number(G)


def test_certificates_deterministic():
    G = petersen_graph()
    assert max_matching(G) == max_matching(G)
    assert min_maximal_matching(G) == min_maximal_matching(G)
    assert max_induced_matching(G) == max_induced_matching(G)


def test_invariant_triple_fields():
    t = invariant_triple(path_graph(4))
    assert isinstance(t, InvariantTriple)
    assert t == (1, 1, 2)
    assert t.ind_match == 1 and t.min_match == 1 and t.match == 2

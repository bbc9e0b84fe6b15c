"""Tests for the three matching solvers and their search internals."""

import itertools
import random
import time

import oracles
import pytest
from matchinv import (
    FamilySpec,
    InvariantTriple,
    TupleQuery,
    build_family,
    feasible_set,
    from_edge_list,
    ind_match_number,
    invariant_triple,
    match_number,
    min_match_number,
    path_graph,
    regularity,
    synthesize_witness,
    witness_spec,
)
from matchinv.graph import _bits
from matchinv.matching import (_alpha, _blossom_matching, _edge_conflicts, _min_maximal,
                               _twin_classes, _twin_key)
from matchinv.verifier import _invariant_tables
from oracles import (all_graphs, complete_bipartite_graph, complete_graph, cycle_graph,
                     disjoint_union, star_graph)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


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
    for _ in range(150):
        G = oracles.random_graph(rng, rng.randint(6, 8))
        assert invariant_triple(G) == oracles.triple(G)


def matching_size(G, mate):
    """Size of the matching in a mate array, after checking that it is one."""
    assert len(mate) == G.n
    for v, u in enumerate(mate):
        assert u == -1 or (G.adj[v] >> u & 1 and mate[u] == v), (G, mate)
    return sum(u != -1 for u in mate) // 2


def test_blossom_mate_is_a_maximum_matching_up_to_six_vertices():
    # all 33,867 labeled graphs with 1 <= n <= 6, against the labeled scan's
    # match table, which fills it by a recurrence over edge masks
    for n in range(1, 7):
        match = _invariant_tables(n)[2]
        for mask, G in enumerate(all_graphs(n)):
            assert matching_size(G, _blossom_matching(G.n, G.adj)) == match[mask], mask


def test_match_number_equals_networkx_on_random_graphs():
    # the sparse graphs hold most of the blossoms; each density gets 167
    # graphs with n uniform in 2..64
    nx = pytest.importorskip("networkx")
    rng = random.Random(21)
    densities = (0.02, 0.05, 0.1, 0.2, 0.5, 0.8)
    for i in range(1002):
        n = rng.randint(2, 64)
        G = oracles.random_graph(rng, n, densities[i % len(densities)])
        H = nx.Graph(G.edges())
        nu = len(nx.max_weight_matching(H, maxcardinality=True))
        assert matching_size(G, _blossom_matching(G.n, G.adj)) == nu, G
        assert match_number(G) == nu


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


def test_min_maximal_is_exact_below_its_limit():
    # below the limit the value, otherwise a bound between limit and value;
    # a memo filled under one limit must serve the next, with or without
    # twin keys
    for n in range(6):
        for G in all_graphs(n):
            value = oracles.min_match_number(G)
            for classes in ((), _twin_classes(G.adj)):
                shared = {}
                for limit in (3, 2, 1, 0):
                    for memo in ({}, shared):
                        got = _min_maximal(G.adj, G.vertex_mask, limit, memo, classes)
                        if value < limit:
                            assert got == value
                        else:
                            assert limit <= got <= value


def test_alpha_on_conflict_rows_is_the_larger_of_floor_and_value():
    # a memo filled under one floor must serve the next
    for n in range(6):
        for G in all_graphs(n):
            value = oracles.ind_match_number(G)
            rows = _edge_conflicts(G)
            every_row = (1 << len(rows)) - 1
            shared = {}
            for floor in range(4):
                for memo in ({}, shared):
                    assert _alpha(rows, every_row, floor, memo) == max(floor, value)


def conflicts_by_definition(G):
    """Per edge of ``G.edges()``, bit j set iff the j-th edge differs and conflicts."""
    edges = G.edges()
    masks = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            x, y = f = edges[j]
            if (a in f or b in f or G.adj[a] >> x & 1 or G.adj[a] >> y & 1
                    or G.adj[b] >> x & 1 or G.adj[b] >> y & 1):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def kept_edges(G):
    """The edges ``_edge_conflicts`` keeps, in its order, from the rule: an
    edge {v, u} to a leaf or true twin u of v, one per closed
    neighbourhood N[v], then the edges with neither end such a v or u, one
    per S_e = N[a] | N[b], in ``G.edges()`` order."""
    closed = [G.adj[v] | 1 << v for v in range(G.n)]
    reps, pinned = [], set()
    for u in range(G.n):
        nb = list(_bits(G.adj[u]))
        twins = [v for v in nb if closed[v] == closed[u]]
        if len(nb) == 1 or (len(nb) > 1 and twins and twins[0] < u):
            v = nb[0] if len(nb) == 1 else twins[0]
            reps.append((v, u))
            pinned |= {v, u}
    rest = [(a, b) for a, b in G.edges() if a not in pinned and b not in pinned]
    kept, keys = [], []
    for a, b in reps + rest:
        if closed[a] | closed[b] not in keys:
            kept.append((a, b))
            keys.append(closed[a] | closed[b])
    return kept


def test_edge_conflicts_match_the_definition():
    # in K64 every edge has the whole vertex set as S_e, so one row is left
    assert _edge_conflicts(complete_graph(64)) == (0,)
    graphs = [from_edge_list(0, []), from_edge_list(1, []),
              from_edge_list(9, []), star_graph(20), cycle_graph(64),
              petersen_graph(), complete_graph(12), path_graph(2),
              with_leaves(complete_bipartite_graph(2, 3), 0, 2),
              build_family(FamilySpec("G1", 3, 1, 2))]
    rng = random.Random(15)
    for n in (2, 5, 12, 30, 48, 64):
        for p in (0.05, 0.15, 0.4, 0.9):
            graphs.append(oracles.random_graph(rng, n, p))
    for _ in range(30):  # leaves and twins of both kinds
        H = oracles.random_graph(rng, rng.randint(2, 7))
        G = blow_up(H, [rng.choice(("K1", "K2", "2K1")) for _ in range(H.n)])
        graphs.append(with_leaves(G, rng.randrange(G.n), rng.randint(0, 2)))
    for G in graphs:
        edges = G.edges()
        S = {e: G.adj[e[0]] | G.adj[e[1]] for e in edges}
        kept = kept_edges(G)
        # the rows are the conflicts among the kept edges
        full = conflicts_by_definition(G)
        index = [edges.index(e if e[0] < e[1] else e[::-1]) for e in kept]
        assert _edge_conflicts(G) == tuple(
            sum((full[i] >> j & 1) << k for k, j in enumerate(index)) for i in index)
        # the kept S_e are distinct, and each dropped edge has a kept one
        # whose S_f lies inside its own S_e, so it is dominated
        kept_sets = [S[edges[j]] for j in index]
        assert len(set(kept_sets)) == len(kept)
        for e in edges:
            assert any(f & ~S[e] == 0 for f in kept_sets), (G, e)


def test_family_witness_conflict_rows_stay_within_half_the_vertices_plus_one():
    for n in (24, 48, 64):
        for tup in sorted(feasible_set(n)):
            G = build_family(witness_spec(TupleQuery(*tup, n)))
            assert len(_edge_conflicts(G)) <= n // 2 + 1, (tup, n)


def test_alpha_is_the_larger_of_floor_and_independence_number():
    # a memo filled under one floor must serve the next
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(0, 10)
        G = oracles.random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
        alpha = max(m.bit_count() for m in oracles.independent_set_masks(G))
        shared = {}
        for floor in (4, 0, 2, 6, 1):
            for memo in ({}, shared):
                assert _alpha(G.adj, G.vertex_mask, floor, memo) == max(floor, alpha)


def test_alpha_on_bipartite_graphs_is_n_minus_match():
    # Koenig: alpha = n - match on a bipartite graph; a forest always keeps a
    # vertex of degree at most one, which is simplicial, so the simplicial
    # rule takes it apart without branching
    rng = random.Random(14)
    for n in (8, 20, 40, 64):
        for p in (0.05, 0.15, 0.4):
            side = [rng.random() < 0.5 for _ in range(n)]
            G = from_edge_list(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                   if side[u] != side[v] and rng.random() < p])
            assert _alpha(G.adj, G.vertex_mask, 0, {}) == n - match_number(G)
        forest = from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)
                                    if rng.random() < 0.9])
        memo = {}
        assert _alpha(forest.adj, forest.vertex_mask, 0, memo) == n - match_number(forest)
        assert memo == {}


def prism_ladder(k):
    """C3 x P_k: k triangles, the i-th vertex of each joined to the next's."""
    edges = []
    for t in range(k):
        edges += [(3 * t, 3 * t + 1), (3 * t + 1, 3 * t + 2), (3 * t, 3 * t + 2)]
        edges += [(3 * t - 3 + i, 3 * t + i) for i in range(3) if t]
    return from_edge_list(3 * k, edges)


def chained_five_cycles(k):
    """k copies of C5, vertex 1 of each joined to vertex 0 of the next."""
    edges = []
    for c in range(k):
        edges += [(5 * c + i, 5 * c + (i + 1) % 5) for i in range(5)]
        edges += [(5 * c - 4, 5 * c)] if c else []
    return from_edge_list(5 * k, edges)


def test_ind_match_on_cycles_ladders_and_chained_five_cycles():
    # past C3 and C3 x P1 no conflict graph here is chordal; a search that
    # took simplicial edges at the root only ran past 20 s on C64 and on
    # C3 x P21, and took 5 s on twelve chained C5s.  Only the solver is
    # timed; the matching oracle takes C3 x P5 and four chained C5s (27 and
    # 23 edges) in about 1 s, and five chained C5s in about 20 s
    took = 0.0
    for n in range(3, 65):
        start = time.perf_counter()
        value = ind_match_number(cycle_graph(n))
        took += time.perf_counter() - start
        assert value == n // 3
    graphs = ([prism_ladder(k) for k in range(1, 22)]
              + [chained_five_cycles(k) for k in range(1, 13)])
    for G in graphs:
        start = time.perf_counter()
        value = ind_match_number(G)
        took += time.perf_counter() - start
        assert value == oracles.ind_match_by_vertices(G)
        if G.edge_count <= 27:
            assert value == oracles.ind_match_number(G)
    assert took < 1


def test_dense_random_graphs_finish():
    # the alpha cut proves these optimal at once; without it G(30, 0.5) took
    # 10-30 s each and G(64, 0.5) ran past 20 s
    start = time.perf_counter()
    for seed in range(3):
        assert min_match_number(oracles.random_graph(random.Random(seed), 30, 0.5)) == 12
    assert min_match_number(oracles.random_graph(random.Random(0), 64, 0.5)) == 28
    assert time.perf_counter() - start < 5


def assert_solvers_match_oracle(G):
    assert min_match_number(G) == oracles.min_match_number(G)
    assert ind_match_number(G) == oracles.ind_match_number(G)


def test_memo_keeps_only_improving_exact_values():
    # an exact memo hit that does not beat the incumbent must not replace it
    G = from_edge_list(8, [(0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (4, 5),
                           (2, 6), (1, 7), (5, 7)])
    assert min_match_number(G) == oracles.min_match_number(G) == 3
    # a memo bound below the limit is not a value
    G = from_edge_list(12, [(0, 10), (2, 7), (4, 9), (6, 8), (7, 8), (8, 11),
                            (9, 11), (10, 11)])
    assert min_match_number(G) == oracles.min_match_number(G) == 3


def test_component_split_gives_the_second_part_what_the_first_leaves():
    # P4 plus an edge: the second part's limit is what the first leaves
    G = from_edge_list(6, [(0, 2), (0, 3), (1, 4), (3, 5)])
    assert min_match_number(G) == oracles.min_match_number(G) == 2


def spider(legs):
    """A centre 0 with one path per entry of legs, of that many edges."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return from_edge_list(n, edges)


def with_leaves(G, at, count):
    """G plus count new leaves at vertex at."""
    return from_edge_list(G.n + count, G.edges() + [(at, G.n + i) for i in range(count)])


def test_twin_leaves():
    for k in range(1, 9):
        assert invariant_triple(star_graph(k)) == (1, 1, 1)
    graphs = [spider(legs) for legs in
              ((1, 1, 1), (1, 1, 2), (2, 2, 1, 1), (1, 1, 3), (2, 2, 2, 1, 1, 1))]
    graphs += [with_leaves(path_graph(4), 1, 3),
               with_leaves(with_leaves(path_graph(5), 1, 2), 3, 2),
               with_leaves(spider((2, 2)), 1, 2),
               with_leaves(cycle_graph(5), 0, 3)]
    for G in graphs:
        assert_solvers_match_oracle(G)


def test_component_splits():
    parts = [path_graph(3), cycle_graph(5), complete_graph(4), star_graph(3),
             path_graph(2), spider((2, 1, 1))]
    rng = random.Random(11)
    for _ in range(12):
        chosen = rng.sample(parts, rng.randint(3, 4))
        U = chosen[0]
        for H in chosen[1:]:
            U = disjoint_union(U, H)
        expect = [sum(invariant_triple(H)[i] for H in chosen) for i in range(3)]
        assert tuple(invariant_triple(U)) == tuple(expect)
        assert_solvers_match_oracle(U)


def complete_multipartite(sizes):
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    return from_edge_list(len(part), [(u, v) for u, v in
                                      itertools.combinations(range(len(part)), 2)
                                      if part[u] != part[v]])


def test_twin_partners():
    for a in range(1, 5):
        for b in range(a, 6):
            G = complete_bipartite_graph(a, b)
            assert invariant_triple(G) == (1, a, a)
            assert_solvers_match_oracle(G)
    for sizes in ((1, 1, 1, 1), (1, 2, 3), (2, 2, 2), (1, 1, 4), (2, 2, 3),
                  (1, 1, 1, 3)):
        assert_solvers_match_oracle(complete_multipartite(sizes))


# ---------------------------------------------------------------------------
# the root bound: graphs with a cut vertex
# ---------------------------------------------------------------------------

def one_vertex_join(blocks, rng):
    """The blocks glued at one random vertex of each, which becomes a cut
    vertex, with the vertices of the result in a random order."""
    n = 1 + sum(B.n - 1 for B in blocks)
    order = list(range(n))
    rng.shuffle(order)
    edges, start = [], 1
    for B in blocks:
        at = rng.randrange(B.n)
        name = [0 if v == at else start + v - (v > at) for v in range(B.n)]
        edges += [(order[name[u]], order[name[v]]) for u, v in B.edges()]
        start += B.n - 1
    return from_edge_list(n, edges)


def random_connected(rng, n):
    while True:
        G = oracles.random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
        if oracles.connected(G):
            return G


def friendship_graph(k):
    """k triangles that share vertex 0."""
    return from_edge_list(2 * k + 1, [e for i in range(1, 2 * k, 2)
                                      for e in ((0, i), (0, i + 1), (i, i + 1))])


def without_apex_edges(max_vertices):
    """Each G2 and G3 witness on at most max_vertices vertices, once per
    edge at its apex w, the last vertex, with that edge removed."""
    graphs = []
    for n in range(2, max_vertices + 1):
        for tup in sorted(feasible_set(n)):
            spec = witness_spec(TupleQuery(*tup, n))
            if spec.family == "G1":
                continue
            G = build_family(spec)
            w = G.n - 1
            graphs += [from_edge_list(G.n, [e for e in G.edges() if e != (u, w)])
                       for u in _bits(G.adj[w])]
    return graphs


def test_min_match_on_graphs_with_a_cut_vertex():
    # min_match_number settles a root whose deletion bound, the clique-cover
    # bounds of the components of G - hub added up, reaches the first-fit
    # matching; a bound that overshoots on any of these returns the greedy
    rng = random.Random(30)
    graphs = [friendship_graph(k) for k in range(1, 6)]
    graphs += [spider(legs) for legs in ((2, 2), (2, 2, 2), (3, 3), (2, 2, 2, 2),
                                         (1, 1, 2, 2), (1, 2, 3, 4), (3, 3, 3),
                                         (4, 4, 2), (2, 2, 2, 2, 2))]
    joins = 0
    while joins < 400:
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(2, 4))]
        if 1 + sum(k - 1 for k in sizes) <= 11:
            graphs.append(one_vertex_join([random_connected(rng, k) for k in sizes], rng))
            joins += 1
    graphs += without_apex_edges(11)
    for G in graphs:
        assert min_match_number(G) == oracles.min_match_number(G), G


def test_family_witnesses_settle_at_the_root(monkeypatch):
    # the first-fit matching is minimum on every witness, and the root's
    # deletion bound proves it, so no witness runs the branch and bound
    calls = []

    def counting(*args):
        calls.append(args[1])
        return _min_maximal(*args)

    monkeypatch.setattr("matchinv.matching._min_maximal", counting)
    for n in (24, 48, 64):
        for tup in sorted(feasible_set(n)):
            G = build_family(witness_spec(TupleQuery(*tup, n)))
            assert min_match_number(G) == tup[1]
            assert not calls, (tup, n)


# ---------------------------------------------------------------------------
# twin keys
# ---------------------------------------------------------------------------

def twins_by_definition(G):
    """Pairs u < v with N(u) = N(v) or N[u] = N[v], from the edge list."""
    nb = [set() for _ in range(G.n)]
    for u, v in G.edges():
        nb[u].add(v)
        nb[v].add(u)
    return {(u, v) for u, v in itertools.combinations(range(G.n), 2)
            if nb[u] == nb[v] or nb[u] | {u} == nb[v] | {v}}


def family_witnesses(max_vertices):
    """The witness of every feasible tuple up to max_vertices, and the
    family members of ``oracles.spec_grid``."""
    graphs = [synthesize_witness(TupleQuery(*tup, n)).graph
              for n in range(2, max_vertices + 1) for tup in sorted(feasible_set(n))]
    return graphs + [build_family(spec) for spec in oracles.spec_grid(max_vertices)]


def twin_rich_graphs():
    # K_{2,3} with two pendants at 0: {2, 3, 4} and {5, 6} are false twins;
    # G1(3, 1, 2) adds the true twins x3, x4, x5 of its clique
    graphs = [with_leaves(complete_bipartite_graph(2, 3), 0, 2),
              build_family(FamilySpec("G1", 3, 1, 2)), complete_graph(7)]
    return graphs + family_witnesses(12) + [G for n in range(6) for G in all_graphs(n)]


def test_twin_classes_are_disjoint_and_complete():
    kinds = set()
    for G in twin_rich_graphs():
        classes = _twin_classes(G.adj)
        covered = 0
        for members, prefix in classes:
            assert not members & covered and members & (members - 1)
            covered |= members
            vs = list(_bits(members))
            assert prefix == tuple(sum(1 << v for v in vs[:k]) for k in range(len(vs) + 1))
            open_rows = {G.adj[v] for v in vs}
            closed_rows = {G.adj[v] | 1 << v for v in vs}
            assert len(open_rows) == 1 or len(closed_rows) == 1, (G, vs)
            kinds.add(len(open_rows) == 1)
        pairs = {(u, v) for members, _ in classes
                 for u, v in itertools.combinations(_bits(members), 2)}
        assert pairs == twins_by_definition(G), G
    assert kinds == {True, False}


def test_twin_key_is_shared_by_twin_swaps():
    rng = random.Random(16)
    for G in twin_rich_graphs():
        classes = _twin_classes(G.adj)
        for _ in range(8):
            mask = rng.getrandbits(G.n)
            key = _twin_key(mask, classes)
            outside = G.vertex_mask
            for members, prefix in classes:
                outside &= ~members
                # each class keeps its count, moved to its lowest members
                assert key & members == prefix[(mask & members).bit_count()]
            assert key & outside == mask & outside
            for members, _ in classes:
                for x, y in itertools.combinations(_bits(members), 2):
                    if (mask >> x ^ mask >> y) & 1:
                        assert _twin_key(mask ^ (1 << x | 1 << y), classes) == key


def partitions(n, largest=None):
    """Part sizes of n, non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def blow_up(H, kinds):
    """H with vertex i replaced by ``kinds[i]``: "K1" (a vertex), "K2" (an
    edge) or "2K1" (two non-adjacent vertices); each edge of H joins all of
    its ends' copies."""
    copies, edges = [], []
    for kind in kinds:
        start = sum(len(c) for c in copies)
        copies.append(range(start, start + (1 if kind == "K1" else 2)))
        if kind == "K2":
            edges.append((start, start + 1))
    for i, j in H.edges():
        edges += [(u, v) for u in copies[i] for v in copies[j]]
    return from_edge_list(sum(len(c) for c in copies), edges)


def test_min_match_on_twin_rich_graphs():
    graphs = [complete_multipartite(sizes) for n in range(1, 9)
              for sizes in partitions(n)]
    # one graph per isomorphism class on at most 4 vertices
    seen = []
    for n in range(5):
        for H in all_graphs(n):
            if not any(oracles.isomorphic(H, K) for K in seen):
                seen.append(H)
    for H in seen:
        graphs += [blow_up(H, kinds)
                   for kinds in itertools.product(("K1", "K2", "2K1"), repeat=H.n)]
    graphs += family_witnesses(8)
    assert len(seen) == 19  # 1, 1, 2, 4 and 11 on 0..4 vertices
    for G in graphs:
        assert min_match_number(G) == oracles.min_match_number(G), G


def random_chordal(rng, n):
    """Each new vertex joins a clique around a random earlier vertex."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        clique = [u]
        for w in rng.sample(sorted(adj[u]), len(adj[u])):
            if rng.random() < 0.6 and all(w in adj[x] for x in clique):
                clique.append(w)
        for x in clique:
            adj[v].add(x)
            adj[x].add(v)
    return from_edge_list(n, [(u, v) for v in range(n) for u in adj[v] if u < v])


def test_simplicial_edges_on_chordal_graphs():
    rng = random.Random(12)
    for _ in range(60):
        G = random_chordal(rng, rng.randint(4, 10))
        assert oracles.chordal(G)
        ind = ind_match_number(G)
        assert ind == regularity(G).reg
        assert ind == oracles.ind_match_number(G)
        assert min_match_number(G) == oracles.min_match_number(G)


def test_invariant_triple_fields():
    t = invariant_triple(path_graph(4))
    assert isinstance(t, InvariantTriple)
    assert t == (1, 1, 2)
    assert t.ind_match == 1 and t.min_match == 1 and t.match == 2

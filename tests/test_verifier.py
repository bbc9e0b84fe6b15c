"""Tests for the labeled scan (edge-mask tables of the three invariants
and of connectivity), enumeration, and verification reports."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

import oracles
import matchinv.matching
import matchinv.verifier
from matchinv import (
    InvariantTriple,
    connected_graph_count,
    enumerate_connected,
    feasible_set,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    invariant_triple,
    scan_invariants,
    verify_av,
    verify_first_main_sampled,
    verify_lemma_suite,
    verify_theorem_first_main,
    verify_theorem_second_main,
)
from matchinv.verifier import (
    VerificationReport,
    FailureRecord,
    _invariant_tables,
    _neighbourhoods,
)


def test_connected_graph_count_frozen():
    expect = [1, 1, 4, 38, 728, 26704, 1866256]
    assert [connected_graph_count(n) for n in range(1, 8)] == expect
    with pytest.raises(ValueError):
        connected_graph_count(0)


def test_invariant_tables_match_oracle():
    # all 1,098 labeled graphs on 2..5 vertices, disconnected ones included;
    # bit C(j, 2) + i of a mask is the pair {i, j}, as in graph6
    for n in range(2, 6):
        table = [(i, j) for j in range(n) for i in range(j)]
        ind, minm, match, comp0 = _invariant_tables(n)
        assert ind.shape == minm.shape == match.shape == comp0.shape \
            == (1 << len(table),)
        nbr = _neighbourhoods(n, np.arange(1 << len(table)))
        assert nbr.shape == (n, 1 << len(table))
        for mask in range(1 << len(table)):
            G = from_edge_list(n, [e for k, e in enumerate(table) if mask >> k & 1])
            assert (ind[mask], minm[mask], match[mask]) == oracles.triple(G), mask
            assert comp0[mask] == oracles.component(G, 0), mask
            assert [nbr[v][mask] for v in range(n)] == list(G.adj), mask
    # the one-vertex graph: one edgeless mask, all three numbers 0
    assert [t.tolist() for t in _invariant_tables(1)] == [[0], [0], [0], [1]]
    assert _neighbourhoods(1, np.arange(1)).tolist() == [[0]]


def test_tables_on_n_vertices_are_prefixes_of_those_on_n_plus_one():
    # the masks on n vertices are the first 2^C(n, 2) on n + 1, with vertex
    # n isolated, so every table entry, vertex 0's component and the
    # neighbourhoods of vertices 0..n-1 carry over
    bigger = _invariant_tables(2)
    for n in range(2, 7):
        tables, bigger = bigger, _invariant_tables(n + 1)
        size = 1 << math.comb(n, 2)
        for have, ext in zip(tables, bigger):
            assert np.array_equal(have, ext[:size]), n
        masks = np.arange(1 << math.comb(n + 1, 2))
        assert np.array_equal(_neighbourhoods(n, masks[:size]),
                              _neighbourhoods(n + 1, masks)[:n, :size]), n


def test_enumerate_connected_order():
    graphs = list(enumerate_connected(3))
    assert [G.edges() for G in graphs] == [
        [(0, 1), (0, 2)],
        [(0, 1), (1, 2)],
        [(0, 2), (1, 2)],
        [(0, 1), (0, 2), (1, 2)],
    ]
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_connected(n)) == connected_graph_count(n)
    with pytest.raises(ValueError):
        next(enumerate_connected(1))
    with pytest.raises(ValueError):
        next(enumerate_connected(8))


def test_scan_bounds():
    with pytest.raises(ValueError):
        scan_invariants(1)
    with pytest.raises(ValueError):
        scan_invariants(8)


def test_scan_counts_and_cache():
    scan = scan_invariants(5)
    assert scan.count == 728
    assert scan.masks.shape == scan.ind.shape == scan.minm.shape \
        == scan.match.shape
    fresh = scan_invariants(5, use_cache=False)
    assert fresh is not scan
    assert np.array_equal(fresh.masks, scan.masks)
    assert np.array_equal(fresh.ind, scan.ind)
    assert np.array_equal(fresh.minm, scan.minm)
    assert np.array_equal(fresh.match, scan.match)


def test_scan_agrees_with_solvers_exhaustive():
    for n in range(2, 6):
        scan = scan_invariants(n)
        for i, G in enumerate(enumerate_connected(n)):
            t = invariant_triple(G)
            assert (int(scan.ind[i]), int(scan.minm[i]), int(scan.match[i])) \
                == tuple(t)


def test_scan_agrees_with_solvers_sampled():
    # one representative of every isomorphism class at n = 6 and 7
    for n, want in ((6, 112), (7, 853)):
        scan = scan_invariants(n)
        classes = scan.classes()
        assert len(classes) == want
        assert sum(size for _, _, size in classes) == connected_graph_count(n)
        for i, G, _ in classes:
            assert (int(scan.ind[i]), int(scan.minm[i]), int(scan.match[i])) \
                == tuple(invariant_triple(G))


def test_scan_masks_are_graph6_body_bits():
    # graph6 writes pair {i, j} as body bit C(j, 2) + i, the scan's numbering
    for n in range(2, 6):
        scan = scan_invariants(n)
        for i in range(scan.count):
            body = graph6_encode(scan.graph(i))[1:]
            bits = "".join(format(ord(c) - 63, "06b") for c in body)
            assert int(bits[::-1], 2) == scan.masks[i], (n, i)


def _relabeled_mask(G, perm):
    table = [(i, j) for j in range(G.n) for i in range(j)]
    return sum(1 << table.index(tuple(sorted((perm[u], perm[v]))))
               for u, v in G.edges())


def test_scan_classes():
    # connected unlabeled graphs on 2..6 vertices (OEIS A001349); each
    # representative is the least mask over its relabelings, so distinct
    # representatives are distinct classes
    for n, want in zip(range(2, 7), (1, 2, 6, 21, 112)):
        scan = scan_invariants(n)
        classes = scan.classes()
        assert len(classes) == want
        assert sum(size for _, _, size in classes) == scan.count
        perms = list(itertools.permutations(range(n)))
        for i, G, size in classes:
            images = [_relabeled_mask(G, perm) for perm in perms]
            automorphisms = images.count(int(scan.masks[i]))
            assert size == math.factorial(n) // automorphisms
            assert int(scan.masks[i]) == min(images)


def test_realized_set_small():
    assert scan_invariants(2).triples() == {(1, 1, 1)}
    assert scan_invariants(3).triples() == {(1, 1, 1)}
    assert scan_invariants(4).triples() == {(1, 1, 1), (1, 1, 2), (1, 2, 2)}
    for n in range(2, 7):
        assert scan_invariants(n).triples() == feasible_set(n)


def test_report_serialization():
    rep = VerificationReport(check="demo", n_low=2, n_high=3, examined=5,
                             failures=[FailureRecord("A_", "x", "y")],
                             details={"k": 1})
    assert not rep.passed
    data = rep.to_json_dict()
    assert data == {"check": "demo", "n_range": [2, 3], "examined": 5,
                    "passed": False,
                    "failures": [{"graph6": "A_", "expected": "x",
                                  "actual": "y"}],
                    "details": {"k": 1}}
    timed = rep.to_json_dict(elapsed=1.25)
    assert timed == {**data, "elapsed": 1.25}
    assert json.loads(rep.to_json(elapsed=1.25)) == timed
    assert json.loads(rep.to_json()) == data


def test_first_main_small():
    rep = verify_theorem_first_main(4)
    assert rep.passed
    assert rep.examined == 38
    assert rep.details["connected_count"] == 38
    assert rep.details["feasible_count"] == 3
    assert rep.details["realized"] == [[1, 1, 1], [1, 1, 2], [1, 2, 2]]
    # serialized form is stable across repeated runs
    assert rep.to_json() == verify_theorem_first_main(4).to_json()


def test_first_main_n5_n6():
    for n in (5, 6):
        rep = verify_theorem_first_main(n)
        assert rep.passed
        assert rep.examined == connected_graph_count(n)


def test_av_check():
    rep = verify_av(4)
    assert rep.passed
    assert rep.details["extremal_count"] == 4
    assert rep.details["targets_found"] == {"complete": True,
                                            "balanced_bipartite": True}
    rep2 = verify_av(2)
    assert rep2.passed
    assert rep2.details["targets_found"] == {"complete": True}
    with pytest.raises(ValueError):
        verify_av(3)
    with pytest.raises(ValueError):
        verify_av(8)


def _skew_min(monkeypatch, n, masks, value):
    """Scans made after this call read min match ``value`` at the given
    n-vertex edge masks."""
    real = matchinv.verifier._invariant_tables

    def skewed(m):
        tables = real(m)
        if m == n:
            tables[1][masks] = value
        return tables

    monkeypatch.setattr(matchinv.verifier, "_invariant_tables", skewed)


def test_av_catches_extremal_graph_of_another_shape(monkeypatch):
    # min 3 on the 15 labeled K_6 - e, whose min match is 2: one record
    # each, in ascending mask order (the missing pair descending)
    table = [(i, j) for j in range(6) for i in range(j)]
    full = (1 << 15) - 1
    _skew_min(monkeypatch, 6, [full ^ 1 << k for k in range(15)], 3)
    rep = verify_av(6)
    assert not rep.passed
    assert [rec.graph6 for rec in rep.failures] == [
        graph6_encode(from_edge_list(6, table[:k] + table[k + 1:]))
        for k in reversed(range(15))]
    for rec in rep.failures:
        assert graph6_decode(rec.graph6).edge_count == 14
        assert rec.expected == \
            "isomorphic to the complete or balanced bipartite graph"
        assert rec.actual == "extremal graph with min match 3 of another shape"
    assert rep.details == {"extremal_count": 11 + 15,
                           "targets_found": {"complete": True,
                                             "balanced_bipartite": True}}


def test_av_catches_missing_target(monkeypatch):
    # min 2 on the 10 labeled K_{3,3}: vertex 0 and two of 1..5 on one side
    table = [(i, j) for j in range(6) for i in range(j)]
    sides = [{0, *pair} for pair in itertools.combinations(range(1, 6), 2)]
    _skew_min(monkeypatch, 6, [sum(1 << k for k, (i, j) in enumerate(table)
                                   if (i in side) != (j in side))
                               for side in sides], 2)
    rep = verify_av(6)
    assert [rec.to_json_dict() for rec in rep.failures] == [
        {"graph6": None,
         "expected": "balanced_bipartite graph attains min match 3",
         "actual": "not found in scan"}]
    assert rep.details == {"extremal_count": 1,
                           "targets_found": {"complete": True,
                                             "balanced_bipartite": False}}


def test_av_catches_one_missing_labeling(monkeypatch):
    # min 2 at one K_{3,3} only, sides {0, 1, 2} | {3, 4, 5}: the other nine
    # labelings stay extremal, but every labeling of a target must be
    table = [(i, j) for j in range(6) for i in range(j)]
    _skew_min(monkeypatch, 6, [sum(1 << k for k, (i, j) in enumerate(table) if i < 3 <= j)], 2)
    rep = verify_av(6)
    assert not rep.passed
    assert rep.details == {"extremal_count": 10,
                           "targets_found": {"complete": True,
                                             "balanced_bipartite": False}}


def test_lemma_suite_small():
    rep = verify_lemma_suite(4, samples=300, seed=1)
    assert rep.passed
    counts = rep.details["checks"]
    assert counts["deletion"] == 2 * 1 + 3 * 4 + 4 * 38
    assert counts["chain"] == 1 + 4 + 38
    assert counts["additivity"] == 300
    assert counts["suspension"] == 300
    assert counts["twin_leaf"] == 18
    assert rep.details["seed"] == 1
    with pytest.raises(ValueError):
        verify_lemma_suite(1)
    with pytest.raises(ValueError):
        verify_lemma_suite(8)
    with pytest.raises(ValueError, match="samples >= 0"):
        verify_lemma_suite(3, samples=-5)
    assert verify_lemma_suite(3, samples=0).examined == 2 * (1 + 4)


def test_lemma_suite_catches_broken_solver(monkeypatch):
    real = matchinv.matching.invariant_triple

    def skewed(G):
        t = real(G)
        return InvariantTriple(t.ind_match, t.min_match - 1, t.match)

    monkeypatch.setattr(matchinv.matching, "invariant_triple", skewed)
    rep = verify_lemma_suite(2, samples=40, seed=3)
    assert not rep.passed
    assert rep.failures
    rec = rep.failures[0]
    assert rec.expected != rec.actual
    if rec.graph6 is not None:
        graph6_decode(rec.graph6)  # failures point at a decodable graph


def test_lemma_suite_catches_one_class_fault(monkeypatch):
    # one table entry is wrong: match + 1 for the path 0-1-2-3, which is
    # the same mask on 4 vertices and, with vertex 4 isolated, on 5.  On 5
    # vertices its 15 connected deletion parents (vertex 4 joined to any
    # nonempty subset of 0..3) and its 2 twin-leaf parents (vertex 4 hung
    # on 1 or on 2) must show it; on 4 the chain excludes (1, 1, 3).
    real = matchinv.verifier._invariant_tables
    path = sum(1 << math.comb(j, 2) + i for i, j in ((0, 1), (1, 2), (2, 3)))

    def skewed(n):
        tables = real(n)
        if n == 5:
            tables[2][path] += 1
        return tables

    monkeypatch.setattr(matchinv.verifier, "_invariant_tables", skewed)
    rep = verify_lemma_suite(5, samples=1, seed=0)
    assert not rep.passed
    assert len(rep.failures) == 18
    chain, *parents = rep.failures
    G = graph6_decode(chain.graph6)
    assert G.n == 4 and G.edges() == [(0, 1), (1, 2), (2, 3)]
    assert chain.expected.startswith("ind <= min") and chain.actual == "(1, 1, 3)"
    expected = [rec.expected.split(" ")[1] for rec in parents]
    assert expected.count("vertex") == 15 and expected.count("twin") == 2
    for rec in parents:
        G = graph6_decode(rec.graph6)  # failures point at a decodable graph
        assert G.adj[4] and [e for e in G.edges() if 4 not in e] \
            == [(0, 1), (1, 2), (2, 3)]
        assert rec.actual.endswith(", 3)")
    assert rep.details["checks"]["deletion"] == 3806
    assert rep.details["checks"]["twin_leaf"] == 218


def test_lemma_suite_chain_catches_table_fault(monkeypatch):
    # match 3 for the star centred at 0 on 6 vertices (pairs {0, j}, bits
    # C(j, 2) = 0, 1, 3, 6 and 10): of the chain, only match <= 2 min
    # excludes (1, 1, 3)
    real = matchinv.verifier._invariant_tables
    star = sum(1 << math.comb(j, 2) for j in range(1, 6))

    def skewed(n):
        tables = real(n)
        if n == 6:
            tables[2][star] = 3
        return tables

    monkeypatch.setattr(matchinv.verifier, "_invariant_tables", skewed)
    rep = verify_lemma_suite(6, samples=1, seed=0)
    chain = [(rec.graph6, rec.actual) for rec in rep.failures
             if rec.expected.startswith("ind <= min")]
    assert chain == [(graph6_encode(oracles.star_graph(5)), "(1, 1, 3)")]


# The failure records of verify_lemma_suite(7, samples=30, seed=0) when
# every solver answer is one too high, in report order: the 30 additivity
# samples with their component sums, then the 30 suspension samples with
# the induced matching number the tables give.  They were taken while the
# samples were still drawn as Graph objects, each one
# _from_pair_mask(n, rng.getrandbits(C(n, 2))) as verify_first_main_sampled
# still draws them, so they pin the random stream and the sampled graphs.
_ADDITIVITY_RECORDS = [
    ('GO???G', (2, 2, 2)),
    ('H]W??GF', (2, 3, 4)),
    ('FOCGG', (2, 2, 3)),
    ('F??GO', (1, 1, 1)),
    ('B_', (1, 1, 1)),
    ('Gw?OOs', (3, 3, 3)),
    ('FnG??', (1, 2, 2)),
    ('CI', (1, 1, 1)),
    ('ETg?', (1, 1, 2)),
    ('Fx?GG', (2, 2, 3)),
    ('F@C@o', (1, 1, 2)),
    ('G~???K', (2, 3, 3)),
    ('E}_?', (1, 1, 2)),
    ('Dx?', (1, 1, 2)),
    ('F{?GG', (2, 2, 3)),
    ('C_', (1, 1, 1)),
    ('FJo?G', (3, 3, 3)),
    ('F@Cp?', (1, 1, 2)),
    ('CJ', (1, 1, 1)),
    ('H|_?GGA', (2, 2, 4)),
    ('Gqs???', (1, 2, 2)),
    ('GOk?GK', (2, 2, 3)),
    ('FU{?G', (2, 3, 3)),
    ('Iec??K@?O', (2, 2, 3)),
    ('DX?', (1, 1, 1)),
    ('FH?G?', (2, 2, 2)),
    ('D_C', (2, 2, 2)),
    ('B_', (1, 1, 1)),
    ('F?CG?', (1, 1, 1)),
    ('C_', (1, 1, 1)),
]


_SUSPENSION_RECORDS = [
    ('Bg', 1),
    ('FwkRW', 2),
    ('DM{', 1),
    ('Dxw', 1),
    ('GybSUK', 2),
    ('C^', 1),
    ('FlGlO', 2),
    ('FQnDg', 2),
    ('Cm', 1),
    ('Gz^e\\{', 2),
    ('Bg', 1),
    ('EFOW', 1),
    ('EKow', 2),
    ('Cn', 1),
    ('Bg', 1),
    ('EfTo', 1),
    ('Gp]?Uo', 2),
    ('GEeyBw', 2),
    ('GqVzRW', 2),
    ('GdsIt[', 1),
    ('Ci', 1),
    ('GvPPMk', 2),
    ('GG|Aao', 1),
    ('Djs', 1),
    ('Fl~yw', 1),
    ('Bo', 1),
    ('Bo', 1),
    ('DLS', 1),
    ('G`ddF_', 2),
    ('Bo', 1),
]


def test_lemma_samples_keep_their_random_stream(monkeypatch):
    real_triple = matchinv.matching.invariant_triple
    real_ind = matchinv.matching.ind_match_number

    def skewed_triple(G):
        t = real_triple(G)  # ind_match is already one too high, below
        return InvariantTriple(t.ind_match, t.min_match + 1, t.match + 1)

    monkeypatch.setattr(matchinv.matching, "invariant_triple", skewed_triple)
    monkeypatch.setattr(matchinv.matching, "ind_match_number", lambda G: real_ind(G) + 1)
    rep = verify_lemma_suite(7, samples=30, seed=0)
    want = [(g6, f"component sums {sums}",
             f"union measured {tuple(x + 1 for x in sums)}")
            for g6, sums in _ADDITIVITY_RECORDS]
    want += [(g6, f"suspension keeps induced matching number {ind}", f"measured {ind + 1}")
             for g6, ind in _SUSPENSION_RECORDS]
    assert [(r.graph6, r.expected, r.actual) for r in rep.failures] == want


def test_suspension_redraws_are_bounded(monkeypatch):
    # rows whose last vertex is always isolated: every suspension draw is
    # rejected, and each sample becomes one failure instead of a hang
    real = matchinv.verifier._pair_rows

    def last_isolated(n, mask):
        rows = real(n, mask)
        return tuple(row & ~(1 << n - 1) for row in rows[:-1]) + (0,)

    monkeypatch.setattr(matchinv.verifier, "_pair_rows", last_isolated)
    rep = verify_lemma_suite(4, samples=5)
    assert not rep.passed
    drawn = [rec for rec in rep.failures
             if rec.expected == "a graph without isolated vertices in 100 draws"]
    assert len(drawn) == 5
    for rec in drawn:
        assert rec.graph6 is None and rec.actual.endswith("isolated in the last draw")


# SHA-256 of .tobytes() of ind, minm, match, comp0 and the neighbourhoods
# of every mask, in that order; taken when the scan still stored the
# neighbourhoods as a fifth table, and unchanged since
_TABLE_DIGESTS = {
    6: ("52f0a7130de94141cf425472313e7fd09236063ec62d6434f8fb2712d00635c3",
        "e0876713525711e6c4f73dae934fdf7a880c64831ac3de07f403e186003e83ec",
        "a72c0654b539a02c4fac609f4f8bf0f225ecb98b6db164f112d8ca08b570b29c",
        "854134a99c345644126acc5d8455a46ebd258e022b12da245aa3aaaaca8b8ffa",
        "e7522101e77b99854499553128b1b86f496364a2069ff591323d0b28aaadd0a7"),
    7: ("f99aad691a788c5d3416cd61dde77b31d3732ede5a6ed4e775b6814c032687de",
        "2adde60ca5d39fccde1f4c5051e4c2f62e383bc4ad3c72f3537a2c0a2b6b334a",
        "34d40aa350061cfbdf422b128e8c2411891571c956547bb6ee0a857126050b74",
        "422b651c0acc8c9c416040880d1140c1146b6d63145cb605f507d51e1a89f646",
        "fa2cf4df27c1ddba9fad80e935cba975e6b5e04337624b10a93ba58f29aa230e"),
}


def test_tables_keep_their_digests():
    # every mask on 6 and 7 vertices, disconnected ones and the
    # neighbourhoods included, where the scan and the oracle test do not reach
    for n, digests in _TABLE_DIGESTS.items():
        size = 1 << math.comb(n, 2)
        tables = (*_invariant_tables(n), _neighbourhoods(n, np.arange(size)))
        assert [t.shape for t in tables] == [(size,)] * 4 + [(n, size)]
        assert all(t.dtype == np.uint8 for t in tables)
        assert tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in tables) == digests, n


def test_triples_decode_every_key():
    # invariants above n/2 cannot come from a correct table, but they
    # still decode to themselves
    three = np.array([0, 1, 2], dtype=np.uint8)
    scan = matchinv.verifier.ScanResult(2, three.astype(np.int64), three,
                                        np.array([1, 3, 1], dtype=np.uint8), three[::-1])
    assert scan.triples() == {(0, 1, 2), (1, 3, 1), (2, 1, 0)}


def test_exhaustive_checks_solve_one_graph_per_class(monkeypatch):
    calls = {"triple": 0, "reg": 0}
    real_triple = matchinv.matching.invariant_triple
    real_reg = matchinv.verifier.regularity

    def counted_triple(G):
        calls["triple"] += 1
        return real_triple(G)

    def counted_reg(G):
        calls["reg"] += 1
        return real_reg(G)

    monkeypatch.setattr(matchinv.matching, "invariant_triple", counted_triple)
    monkeypatch.setattr(matchinv.verifier, "regularity", counted_reg)
    # the lemma suite reads its exhaustive values from the tables: one
    # solve per additivity sample (the disjoint union) and none else
    assert verify_lemma_suite(6, samples=3, seed=0).passed
    assert calls["triple"] == 3
    # 1 + 1 + 3 + 7 + 14 witnesses up to 6 vertices, 142 representatives
    rep = verify_theorem_second_main(6)
    assert rep.passed and rep.details["exhaustive_graphs"] == 27475
    assert calls["reg"] == rep.details["witnesses"] + 142


def test_second_main_small():
    rep = verify_theorem_second_main(4)
    assert rep.passed
    assert rep.details["witnesses"] == 1 + 1 + 3
    assert rep.details["exhaustive_graphs"] == 1 + 4 + 38
    with pytest.raises(ValueError):
        verify_theorem_second_main(1)
    with pytest.raises(ValueError):
        verify_theorem_second_main(10)


def test_sampled_mode():
    rep = verify_first_main_sampled(8, 120, seed=0)
    assert rep.passed
    assert rep.examined == 120
    assert rep.details["exhaustive"] is False
    assert 0 < rep.details["connected_sampled"] <= 120
    assert rep.to_json() == verify_first_main_sampled(8, 120, seed=0).to_json()
    with pytest.raises(ValueError):
        verify_first_main_sampled(7, 10, seed=0)
    with pytest.raises(ValueError):
        verify_first_main_sampled(10, 10, seed=0)
    with pytest.raises(ValueError):
        verify_first_main_sampled(8, 0, seed=0)

"""Exhaustive small-n verification of the realizability results.

Connected labeled graphs on n <= 7 vertices are enumerated as edge
bitmasks over the n*(n-1)/2 vertex pairs, numbered in graph6's order:
bit C(j, 2) + i is the pair {i, j}, i < j.  Only :mod:`matchinv.graph`
writes that order down: ``_edge_table`` lists the pairs, and
``_pair_rows`` turns a mask into adjacency rows for the scan, the lemma
samples and graph6 decoding.  So the masks on n vertices are
the first 2^C(n, 2) masks on n + 1, and joining a new vertex n to a
vertex set S is an OR of S << C(n, 2); the lemma suite builds its
suspension samples by that OR.  The three matching invariants
and the component of vertex 0 of every edge mask, connected or not, fill
tables by recurrences on the mask's last vertex (``_invariant_tables``);
the tables on n vertices are the prefixes of those on n + 1, and the
masks whose component of vertex 0 holds every vertex are the scan.  The
vertex neighbourhoods are not stored: ``_neighbourhoods`` reads them off
the masks that need them.  This route is independent of the per-graph
solvers in :mod:`matchinv.matching` and the two are cross-checked in the
test suite; the tables are also checked against the brute-force oracles
on every labeled graph with n <= 5.  The edge-mask format stays behind
``ScanResult``: the first-main and second-main checks read their graphs
from the scan they hold (``graph(i)``) and their realized triples from
``triples()``.  The av check compares labeled masks: every extremal mask
must be a labeling of K_n or K_{n/2,n/2}, and every labeling of each
must be extremal.  Only ``classes()`` decides isomorphism, by the least
mask over all relabelings: second-main takes one graph per class from it
(n <= 6) and counts it ``size`` times.  The least masks come from the
scan's own masks, not from a second enumeration.  The lemma suite fills
the tables once, at its largest n, and reads each smaller n from their
prefixes, where G - v is the mask of G without the pairs at v: its
exhaustive lemmas compare table entries with table entries, and only its
two seeded samples call the per-graph solvers, against the tables.

The tables are filled in the calling process, one block of 2^C(v, 2)
masks per vertex v and neighbourhood of it.  ``scan_invariants`` is a pure
function: each call fills its tables afresh, and the module keeps no
state between calls.  A caller that needs one scan twice holds the
``ScanResult``.

A report holds only what its check found.  The checks do not time
themselves: ``matchinv verify --timing`` times each call and passes the
seconds to ``VerificationReport.to_json``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from . import matching as _matching
from .graph import (Graph, _bits, _edge_table, _from_pair_mask, _pair_rows, graph6_encode,
                    is_chordal, is_connected)
from .realizability import TupleQuery, feasible_set, synthesize_witness
from .regularity import regularity

_SCAN_CAP = 7


def connected_graph_count(n: int) -> int:
    """Number of connected labeled graphs on n vertices, by the standard
    recurrence (classifying the component of vertex 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    counts = [0, 1]
    for m in range(2, n + 1):
        total = 1 << (m * (m - 1) // 2)
        rest = sum(math.comb(m - 1, k - 1) * counts[k] * (1 << ((m - k) * (m - k - 1) // 2))
                   for k in range(1, m))
        counts.append(total - rest)
    return counts[n]


def _neighbourhoods(n: int, masks: np.ndarray) -> np.ndarray:
    """Row v: the neighbourhood of vertex v, as a vertex set, in each of
    the n-vertex edge ``masks``; uint8, shape (n, len(masks))."""
    table = _edge_table(n)
    # i + j - v is the other end of a pair {i, j} at v
    return np.array([sum(((masks >> k & 1) << i + j - v for k, (i, j) in enumerate(table)
                          if v in (i, j)), np.zeros_like(masks)) for v in range(n)], dtype=np.uint8)


def _invariant_tables(n: int) -> tuple[np.ndarray, ...]:
    """ind, min and match numbers and the component of vertex 0 of every
    edge mask on n vertices: ``ind, minm, match, comp0``.

    Edge k is the pair {i, j}, i < j, with k = C(j, 2) + i, graph6's pair
    order (``_edge_table``).  So the masks on n vertices are the first
    2^C(n, 2) masks on n + 1, with vertex n isolated, and each table on n
    vertices is the prefix of the one on n + 1: ``comp0[:2^C(n, 2)]`` is
    2^n - 1 exactly at the masks connected on n vertices.

    The tables grow one vertex at a time.  A mask on v + 1 vertices is
    g | s << C(v, 2): vertex v joins the v-vertex graph g with
    neighbourhood s.  For each s != 0 the block of 2^C(v, 2) masks, g
    ascending, is filled from the v-vertex prefix alone.  E(S) is the
    mask of the pairs inside vertex set S, and G - X is g & E(V_v - X),
    V_v = {0, ..., v - 1}; x ranges over s.
    - comp (one row per vertex; only comp[0] is returned): vertex v
      reaches {v} and the components comp[x][g].  A component that meets
      s lies inside that reach and becomes it; the others stay.  The rows
      are read at the masks on n - 1 vertices only, so they hold just those,
      and the last level writes the returned row alone.
    - match: the greater of match[g] (v unmatched) and 1 + match[G - x]
      (v matched to x).
    - ind: the greater of ind[g] (v uncovered) and 1 + ind of G less
      s and N(x) (v matched to x, so N[v] and N[x] go).  N(x) is read from
      ``_neighbourhoods`` of the prefix, once per level.
    - min: let x0 = min(s).  A maximal matching covers v or x0, since
      they are adjacent, and an edge f = {a, b} plus any maximal matching
      of G' - a - b (G' the graph on v + 1 vertices) is maximal; so min is
      1 + the least min of G' - a - b over the edges f at v or x0.  For
      f = {v, y} that is min[G - y].  For f = {x0, y}, y < v, vertex v
      keeps the neighbours s - {x0, y}, but no prefix mask has vertex v,
      so v takes the label of x0, which f has freed: G' - x0 - y is
      (G - x0 - y) | P with P the pairs {u, x0}, u in s - {x0, y}, a mask
      of the prefix.  Only the masks g holding f have that edge: the
      ``[:, 1]`` view of the block reshaped to (-1, 2, 2^f).
    For n = 1 the one mask is edgeless, with all three numbers 0.
    """
    table = _edge_table(n)
    pair = {e: k for k, e in enumerate(table)}
    sets = np.arange(1 << n, dtype=np.int64)
    inside = sum((sets >> i & sets >> j & 1) << k for k, (i, j) in enumerate(table))
    ind, minm, match, comp0 = (np.zeros(1 << len(table), dtype=np.uint8) for _ in range(4))
    # comp is read below the last level only, at masks on n - 1 vertices
    comp = np.zeros((n, 1 << math.comb(n - 1, 2)), dtype=np.uint8)
    comp[:] = (1 << np.arange(n))[:, None]  # vertex v is isolated below level v
    for v in range(1, n):
        size = 1 << math.comb(v, 2)
        g, low, rest = np.arange(size, dtype=np.int64), slice(0, size), (1 << v) - 1
        nbr = _neighbourhoods(v, g)
        # row x: the match and min numbers of G - x, one row at a time: a whole
        # (v, size) int64 index array would raise the peak RSS
        match_less, min_less = (np.array([t[g & inside[rest ^ 1 << x]] for x in range(v)])
                                for t in (match, minm))
        # the last level writes only the returned row, past the prefix
        rows = comp[:v + 1] if v < n - 1 else comp0[None]
        for s in range(1, 1 << v):
            xs = list(_bits(s))
            x0, block = xs[0], slice(s * size, (s + 1) * size)
            reach = np.bitwise_or.reduce(comp[xs, low], axis=0) | 1 << v
            old = comp[:len(rows), low]  # row v is {v}, which meets s | {v}
            rows[:, block] = old | reach * (old & (s | 1 << v) != 0)
            np.maximum(match_less[xs].max(axis=0) + 1, match[low], out=match[block])
            best = ind[block]
            best[:] = ind[low]
            for x in xs:
                np.maximum(best, ind[g & inside[rest ^ (s | nbr[x])]] + 1, out=best)
            best = minm[block]
            np.add(min_less[xs].min(axis=0), 1, out=best)
            for y in range(v):
                if y != x0:
                    e = pair[min(x0, y), max(x0, y)]
                    moved = sum(1 << pair[x0, u] for u in xs[1:] if u != y)
                    held, sub = (a.reshape(-1, 2, 1 << e)[:, 1] for a in (best, g))
                    np.minimum(held, minm[sub & inside[rest ^ 1 << x0 ^ 1 << y] | moved] + 1,
                               out=held)
    comp0[:comp.shape[1]] = comp[0]
    return ind, minm, match, comp0


@dataclass(frozen=True)
class ScanResult:
    """Invariants of every connected labeled graph on n vertices."""

    n: int
    masks: np.ndarray  # connected edge masks, ascending
    ind: np.ndarray
    minm: np.ndarray
    match: np.ndarray

    @property
    def count(self) -> int:
        return int(self.masks.shape[0])

    def graph(self, i: int) -> Graph:
        """The i-th graph of the scan."""
        return _from_pair_mask(self.n, int(self.masks[i]))

    def classes(self) -> list[tuple[int, Graph, int]]:
        """One ``(index, graph, size)`` per isomorphism class, ascending.

        ``index`` points at the class's least edge mask over all n!
        relabelings, and ``size`` counts the labeled graphs of the class.
        Swapping vertices v and v + 1 (v = 0..n-2) permutes the edge bits:
        pairs {v, x} and {v + 1, x} trade places.  These n - 1 swaps
        generate S_n, and every relabeling is a product of at most C(n, 2)
        of them, the length of the longest permutation, so C(n, 2) rounds
        of taking each mask's least label over its swap images leave every
        mask labeled with the least mask of its class.  Every edge mask
        gets a label, connected or not; relabeling keeps a graph connected,
        so the scan's entries read their least masks from the same array.
        """
        table = _edge_table(self.n)
        least = np.arange(1 << len(table), dtype=np.int32)  # each mask its own label
        images = []
        for v in range(self.n - 1):
            swap = {v: v + 1, v + 1: v}
            images.append(sum((least >> k & 1) << table.index(
                tuple(sorted((swap.get(i, i), swap.get(j, j)))))
                for k, (i, j) in enumerate(table)))
        for _ in range(len(table)):
            for image in images:
                np.minimum(least, least[image], out=least)  # least[image] copies
        reps, sizes = np.unique(least[self.masks], return_counts=True)
        return [(i, self.graph(i), size) for i, size in
                zip(np.searchsorted(self.masks, reps).tolist(), sizes.tolist())]

    def triples(self) -> set[tuple[int, int, int]]:
        """The distinct (ind, min, match) triples of the scan: the keys
        flagged in a table of b^3 flags, each triple read as a number in
        base b, one more than the largest value (at most n/2 + 1).  The
        keys take the least unsigned dtype that holds b^3 - 1."""
        b = int(max(t.max(initial=0) for t in (self.ind, self.minm, self.match))) + 1
        key = (self.ind.astype(np.min_scalar_type(b**3 - 1)) * b + self.minm) * b + self.match
        seen = np.zeros(b**3, dtype=bool)
        seen[key] = True
        return {(k // b // b, k // b % b, k % b) for k in np.flatnonzero(seen).tolist()}


def scan_invariants(n: int, jobs: int = 1, use_cache: bool = True) -> ScanResult:
    """Exhaustive invariant scan over connected labeled graphs (2 <= n <= 7).

    Each call fills the tables afresh; nothing is kept between calls.
    ``jobs`` and ``use_cache`` are accepted and change nothing.
    """
    if not 2 <= n <= _SCAN_CAP:
        raise ValueError(f"exhaustive scan supports 2 <= n <= {_SCAN_CAP}")
    ind, minm, match, comp0 = _invariant_tables(n)
    masks = np.flatnonzero(comp0 == (1 << n) - 1)
    return ScanResult(n, masks, ind[masks], minm[masks], match[masks])


def enumerate_connected(n: int):
    """Yield every connected labeled graph on n vertices, ascending by
    edge bitmask."""
    scan = scan_invariants(n)
    yield from (scan.graph(i) for i in range(scan.count))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailureRecord:
    graph6: str | None
    expected: str
    actual: str

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    check: str
    n_low: int
    n_high: int
    examined: int
    failures: list[FailureRecord] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self, elapsed: float | None = None) -> dict:
        out = {
            "check": self.check,
            "n_range": [self.n_low, self.n_high],
            "examined": self.examined,
            "passed": self.passed,
            "failures": [f.to_json_dict() for f in self.failures],
            "details": self.details,
        }
        if elapsed is not None:
            out["elapsed"] = elapsed
        return out

    def to_json(self, elapsed: float | None = None) -> str:
        return json.dumps(self.to_json_dict(elapsed), sort_keys=True)


_FAILURE_LIMIT = 100
_DRAWS = 100  # suspension draws per sample before it counts as failed


def _fail(failures: list[FailureRecord], G: Graph | None,
          expected: str, actual: str) -> None:
    if len(failures) < _FAILURE_LIMIT:
        g6 = graph6_encode(G) if G is not None else None
        failures.append(FailureRecord(g6, expected, actual))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def verify_theorem_first_main(n: int) -> VerificationReport:
    """Exhaustively compare the realized triple set with the closed form."""
    scan = scan_invariants(n)
    realized = scan.triples()
    expected = feasible_set(n)
    failures: list[FailureRecord] = []
    for triple in sorted(realized - expected):
        sel = ((scan.ind == triple[0]) & (scan.minm == triple[1])
               & (scan.match == triple[2]))
        _fail(failures, scan.graph(int(np.argmax(sel))),
              "triple inside the closed-form feasible set",
              f"connected graph realizes excluded triple {triple}")
    for triple in sorted(expected - realized):
        report = synthesize_witness(TupleQuery(*triple, n))
        _fail(failures, report.graph,
              f"some connected graph realizes {triple}",
              "triple missing from exhaustive scan")
    want_count = connected_graph_count(n)
    if scan.count != want_count:
        _fail(failures, None,
              f"{want_count} connected labeled graphs",
              f"enumerated {scan.count}")
    return VerificationReport(
        check="first-main", n_low=n, n_high=n, examined=scan.count,
        failures=failures,
        details={
            "connected_count": scan.count,
            "expected_connected_count": want_count,
            "feasible_count": len(expected),
            "realized": sorted(map(list, realized)),
        })


def verify_av(n: int) -> VerificationReport:
    """Connected graphs with min match n/2 are K_n or K_{n/2,n/2} only."""
    if n % 2 or not 2 <= n <= 6:
        raise ValueError("check runs for even n with 2 <= n <= 6")
    scan = scan_invariants(n)
    half = n // 2
    targets = {"complete": [(1 << math.comb(n, 2)) - 1]}
    if n >= 4:  # K_{h,h}, one labeling per side a that holds vertex 0
        targets["balanced_bipartite"] = [sum(1 << k for k, (i, j) in enumerate(_edge_table(n))
                                             if (a >> i ^ a >> j) & 1)
                                         for a in range(1, 1 << n, 2) if a.bit_count() == half]
    masks = scan.masks[scan.minm == half]
    failures: list[FailureRecord] = []
    for m in masks[~np.isin(masks, sum(targets.values(), []))].tolist():
        _fail(failures, _from_pair_mask(n, m),
              "isomorphic to the complete or balanced bipartite graph",
              f"extremal graph with min match {half} of another shape")
    # a target is found when every one of its labelings is extremal
    found = {name: bool(np.isin(want, masks).all()) for name, want in targets.items()}
    for name, ok in found.items():
        if not ok:
            _fail(failures, None,
                  f"{name} graph attains min match {half}", "not found in scan")
    return VerificationReport(
        check="av", n_low=n, n_high=n, examined=scan.count, failures=failures,
        details={"extremal_count": len(masks), "targets_found": found})


def verify_lemma_suite(n_max: int = 7, samples: int = 10000,
                       seed: int = 0) -> VerificationReport:
    """Structural lemma checks on the edge-mask tables.

    ``_invariant_tables(n_max)`` holds every graph on n_max vertices,
    connected or not, and its first 2^C(n, 2) entries are the graphs on
    n vertices, so one set of tables serves every n.  The chain
    ind <= min <= match <= 2 min and match <= n/2 is checked on the
    connected masks up to ``n_max``.  Exhaustive over connected graphs up
    to ``min(n_max, 6)``, comparing table entries with table entries:
    vertex-deletion monotonicity of all three invariants, and exact
    invariance under deleting a twin leaf, a leaf v with a second leaf u
    on the same neighbour (N(u) = N(v)).  Seeded-random, comparing
    the per-graph solvers with the tables: additivity over disjoint
    unions of graphs on 1..min(5, n_max) vertices, and preservation of
    the induced matching number by one-vertex suspensions, over an
    independent set, of graphs on 2..n_max vertices without isolated
    vertices.  The samples are drawn as edge masks and checked on their
    rows, so each builds one ``Graph`` for the solvers: a suspension H is
    the sample's mask with vertex n joined to V - S by the pair-order OR.
    A suspension sample whose ``_DRAWS`` draws all have an isolated vertex
    is one failure.
    """
    if not 2 <= n_max <= _SCAN_CAP:
        raise ValueError(f"the lemma suite supports 2 <= n <= {_SCAN_CAP}")
    if samples < 0:
        raise ValueError("the lemma suite needs samples >= 0")
    failures: list[FailureRecord] = []
    examined = 2 * samples
    counts = {"deletion": 0, "twin_leaf": 0, "additivity": samples,
              "suspension": samples, "chain": 0}
    ind, minm, match, comp0 = _invariant_tables(n_max)
    low = 1 << math.comb(min(n_max, 6), 2)
    t = np.stack((ind[:low], minm[:low], match[:low]))  # the masks on n <= 6
    for n in range(2, n_max + 1):
        size = 1 << math.comb(n, 2)
        p, q, r = ind[:size], minm[:size], match[:size]
        connected = comp0[:size] == (1 << n) - 1
        count = int(np.count_nonzero(connected))
        counts["chain"] += count
        examined += count
        bad = (p > q) | (q > r) | (r > n // 2)
        bad |= r - q > q  # match > 2 min; uint8 wraps only where min > match
        bad &= connected
        for m in np.flatnonzero(bad)[:_FAILURE_LIMIT].tolist():
            _fail(failures, _from_pair_mask(n, m),
                  "ind <= min <= match <= 2 min and match <= n/2",
                  f"({p[m]}, {q[m]}, {r[m]})")
        if n > 6:
            continue
        counts["deletion"] += n * count
        examined += count
        masks = np.flatnonzero(connected)
        # G - v is G without the pairs at v; v stays isolated, which changes
        # no invariant
        rest = np.array([sum(1 << k for k, e in enumerate(_edge_table(n)) if v not in e)
                         for v in range(n)])
        whole, deleted = t[:, masks], t[:, masks & rest[:, None]]  # (3, M), (3, n, M)
        adj = _neighbourhoods(n, masks)  # (n, M)
        leaf = (adj != 0) & ((adj & (adj - 1)) == 0)  # one neighbour
        # a twin leaf shares its neighbour with another leaf
        twin = leaf & ((leaf & (adj == adj[:, None])).sum(axis=1) > 1)
        counts["twin_leaf"] += int(np.count_nonzero(twin))
        for wrong, expected in (((deleted > whole[:, None]).any(axis=0),
                                 "deleting vertex {} cannot increase any invariant"),
                                (twin & (deleted != whole[:, None]).any(axis=0),
                                 "deleting twin leaf {} preserves all invariants")):
            for i, v in np.argwhere(wrong.T)[:_FAILURE_LIMIT].tolist():
                _fail(failures, _from_pair_mask(n, int(masks[i])), expected.format(v),
                      f"{tuple(whole[:, i].tolist())} -> {tuple(deleted[:, v, i].tolist())}")

    rng = random.Random(seed)
    sums_of = t[:, :1 << 10].T.tolist()  # the triples of the masks on n <= 5
    for _ in range(samples):
        n1 = rng.randint(1, min(5, n_max))
        n2 = rng.randint(1, min(5, n_max))
        a = rng.getrandbits(math.comb(n1, 2))
        b = rng.getrandbits(math.comb(n2, 2))
        U = Graph(n1 + n2, _pair_rows(n1, a) + tuple(row << n1 for row in _pair_rows(n2, b)))
        sums = tuple(x + y for x, y in zip(sums_of[a], sums_of[b]))
        measured = tuple(_matching.invariant_triple(U))
        if measured != sums:
            _fail(failures, U, f"component sums {sums}", f"union measured {measured}")

    for _ in range(samples):
        for _ in range(_DRAWS):
            n = rng.randint(2, n_max)
            mask = rng.getrandbits(math.comb(n, 2))
            rows = _pair_rows(n, mask)
            if all(rows):  # the suspension lemma assumes no isolated vertices
                break
        else:
            _fail(failures, None, f"a graph without isolated vertices in {_DRAWS} draws",
                  f"vertex {rows.index(0)} of {n} isolated in the last draw")
            continue
        order = list(range(n))
        rng.shuffle(order)
        smask = 0
        for v in order[:rng.randint(0, n)]:
            if not rows[v] & smask:
                smask |= 1 << v
        # vertex n joins V - S
        H = _from_pair_mask(n + 1, mask | ((1 << n) - 1 ^ smask) << math.comb(n, 2))
        before = int(ind[mask])
        after = _matching.ind_match_number(H)
        if before != after:
            _fail(failures, H,
                  f"suspension keeps induced matching number {before}",
                  f"measured {after}")

    return VerificationReport(
        check="lemmas", n_low=2, n_high=n_max,
        examined=examined, failures=failures,
        details={"checks": counts, "samples": samples, "seed": seed})


def verify_theorem_second_main(n_max: int = 9) -> VerificationReport:
    """Regularity version of the realizability theorem.

    Witness part: every feasible (p, q, r, n) up to ``n_max`` has a
    chordal witness whose regularity equals p.  Exhaustive part: for
    every connected graph up to ``min(n_max, 6)``, checked once per
    isomorphism class and counted by the class size, the triple
    (reg, min, match) lies in the feasible set, the sandwich
    ind <= reg <= min holds, and chordal graphs have reg = ind.  The
    exhaustive part stops at 6 vertices although ``classes()`` reaches 7:
    the 853 classes at 7 would change the report's ``exhaustive_graphs``
    count (27,475 labeled graphs up to 6 vertices).
    """
    if not 2 <= n_max <= 9:
        raise ValueError("the regularity check supports 2 <= n <= 9")
    failures: list[FailureRecord] = []
    examined = 0
    witness_count = 0

    for n in range(2, n_max + 1):
        for triple in sorted(feasible_set(n)):
            report = synthesize_witness(TupleQuery(*triple, n))
            G = report.graph
            assert G is not None
            witness_count += 1
            examined += 1
            if not is_chordal(G):
                _fail(failures, G,
                      f"witness for {triple} on {n} vertices is chordal",
                      "not chordal")
                continue
            reg = regularity(G).reg
            if reg != triple[0]:
                _fail(failures, G,
                      f"witness regularity {triple[0]}", f"measured {reg}")

    exhaustive_count = 0
    for n in range(2, min(n_max, 6) + 1):
        scan = scan_invariants(n)
        expected = feasible_set(n)
        for i, G, size in scan.classes():
            ind, mn, mt = int(scan.ind[i]), int(scan.minm[i]), int(scan.match[i])
            reg = regularity(G).reg
            examined += size
            exhaustive_count += size
            if not ind <= reg <= mn:
                _fail(failures, G,
                      f"sandwich {ind} <= reg <= {mn}", f"reg = {reg}")
            if (reg, mn, mt) not in expected:
                _fail(failures, G,
                      "(reg, min, match) inside the feasible set",
                      f"({reg}, {mn}, {mt}) excluded")
            if is_chordal(G) and reg != ind:
                _fail(failures, G,
                      f"chordal graph has reg = ind = {ind}", f"reg = {reg}")

    return VerificationReport(
        check="second-main", n_low=2, n_high=n_max,
        examined=examined, failures=failures,
        details={"witnesses": witness_count,
                 "exhaustive_graphs": exhaustive_count})


def verify_first_main_sampled(n: int, count: int, seed: int) -> VerificationReport:
    """Non-exhaustive smoke check for n in {8, 9}: sampled connected
    graphs realize only feasible triples."""
    if not 8 <= n <= 9:
        raise ValueError("sampled mode is for n in {8, 9}")
    if count < 1:
        raise ValueError("sampled mode needs a sample count of at least 1")
    rng = random.Random(seed)
    expected = feasible_set(n)
    failures: list[FailureRecord] = []
    connected = 0
    for _ in range(count):
        G = _from_pair_mask(n, rng.getrandbits(math.comb(n, 2)))
        if not is_connected(G):
            continue
        connected += 1
        t = _matching.invariant_triple(G)
        if tuple(t) not in expected:
            _fail(failures, G,
                  "triple inside the closed-form feasible set",
                  f"sampled graph realizes {tuple(t)}")
    return VerificationReport(
        check="first-main-sampled", n_low=n, n_high=n, examined=count,
        failures=failures,
        details={"connected_sampled": connected, "seed": seed,
                 "exhaustive": False})

"""Castelnuovo-Mumford regularity of edge ideals, at desk scale.

The regularity of the quotient by the edge ideal of a graph G equals

    max over W subseteq V of max { d : dim H~_{d-1}(IndComplex(G[W])) > 0 }

where IndComplex is the independence complex and homology is reduced.
The empty subset contributes d = 0, so the value is always >= 0 and
equals 0 exactly for edgeless graphs.

Complexes are plain lists of face bitmasks.  The scan makes one pass
over the vertex subsets W in ascending mask order with one alpha DP:
W is a face exactly when alpha(G[W]) = |W|, and the faces found so far
are then the whole independence complex of every later G[W].

Homology here is computed over GF(2) by boundary-matrix ranks.  Over
other fields the ranks can differ in general.  The test suite compares
the GF(2) regularity with a rational-arithmetic oracle on every graph
with at most 5 vertices and on one graph of each of the 142 isomorphism
classes of connected graphs with 2 to 6 vertices, the classes that the
second-main check covers, and finds them equal.

Cap: regularity up to 12 vertices (the subset scan is 2^n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _bits

_REG_CAP = 12


def _gf2_rank(rows: list[int]) -> int:
    """Rank of a GF(2) matrix given as row bitmasks."""
    pivots: list[int] = []
    rank = 0
    for row in rows:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
            rank += 1
    return rank


def reduced_homology_ranks(faces: list[int]) -> list[int]:
    """Reduced GF(2) homology ranks of a complex; entry k is dimension k - 1.

    ``faces`` lists every face of a downward-closed complex once, as
    vertex bitmasks, the empty face 0 included.  Entry 0 (dimension -1)
    is 1 exactly when the complex is the single empty face.  A face
    missing one of its boundary faces (the empty face is the boundary
    of every vertex) raises ``ValueError``.
    """
    top = max((f.bit_count() for f in faces), default=0)
    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for f in faces:
        by_size[f.bit_count()].append(f)
    # boundary[k] = rank of the map from k-vertex faces down
    boundary = [0] * (len(by_size) + 1)
    for k in range(1, len(by_size)):
        index = {f: i for i, f in enumerate(by_size[k - 1])}
        rows = []
        for f in by_size[k]:
            row = 0
            for v in _bits(f):
                i = index.get(f ^ (1 << v))
                if i is None:
                    raise ValueError("complex is not downward closed")
                row |= 1 << i
            rows.append(row)
        boundary[k] = _gf2_rank(rows)
    return [len(group) - boundary[k] - boundary[k + 1]
            for k, group in enumerate(by_size)]


@dataclass(frozen=True)
class RegularityResult:
    """Regularity value with the first subset W that attains it: the
    reduced homology of Ind(G[W]) is nonzero in dimension ``reg - 1``."""

    reg: int
    witness_subset: tuple[int, ...]


def regularity(G: Graph) -> RegularityResult:
    """Edge-ideal regularity over GF(2) by subset scan (n <= 12).

    One pass over W = 1 .. 2^n - 1 fills alpha[W] = alpha(G[W]) by
    alpha[W] = max(alpha[W - v], 1 + alpha[W - N[v]]) for the lowest v,
    and collects W as a face when alpha[W] = |W|.  The same pass fills
    common[W] = common[W - v] & N(v), the vertices adjacent to every
    vertex of W (common[0] is every vertex).  A subset W is skipped
    without building its complex when either

    * alpha[W] <= best: homology in dimension d - 1 needs a face with
      d vertices;
    * G[W] has non-adjacent u != v with N(u) & W inside N(v): by the
      fold lemma (Engstrom 2008) Ind(G[W]) is homotopy equivalent to
      Ind(G[W - v]), a smaller mask the scan has already seen.  Such a
      v is a vertex of W - N[u] in common[N(u) & W], so the test is one
      AND per u in W; N(u) & W is a proper subset of W, already filled.
      An isolated u is the case N(u) & W empty.

    Neither skip can pass over the first W, in ascending mask order, that
    reaches the maximum, so that W is the witness.
    """
    if G.n > _REG_CAP:
        raise ValueError(f"regularity computation capped at {_REG_CAP} vertices")
    adj = G.adj
    far = [~(row | 1 << u) for u, row in enumerate(adj)]  # outside N[u]
    alpha = bytearray(1 << G.n)
    common = [(1 << G.n) - 1] * (1 << G.n)  # common[S]: adjacent to all of S
    faces = [0]
    best, best_w = 0, 0
    for w in range(1, 1 << G.n):
        low = w & -w
        rest = w ^ low
        v = low.bit_length() - 1
        common[w] = common[rest] & adj[v]
        a = alpha[w] = max(alpha[rest], 1 + alpha[rest & ~adj[v]])
        if a == w.bit_count():
            faces.append(w)
        if a <= best:
            continue
        for u in range(G.n):
            if w >> u & 1 and w & far[u] & common[adj[u] & w]:
                break  # W folds on u and some v in W outside N[u]
        else:
            ranks = reduced_homology_ranks([s for s in faces if not s & ~w])
            for d in range(len(ranks) - 1, best, -1):
                if ranks[d]:
                    best, best_w = d, w
                    break
    return RegularityResult(best, tuple(_bits(best_w)))

"""Castelnuovo-Mumford regularity of edge ideals, at desk scale.

The regularity of the quotient by the edge ideal of a graph G equals

    max over W subseteq V of max { d : dim H~_{d-1}(IndComplex(G[W])) > 0 }

where IndComplex is the independence complex and homology is reduced.
The empty subset contributes d = 0, so the value is always >= 0 and
equals 0 exactly for edgeless graphs.

Homology here is computed over GF(2) by boundary-matrix ranks.  Over
other fields the ranks can differ in general; for the graphs checked in
this package (chordal witnesses and their complements) the GF(2) value
agrees with the characteristic-zero one.

Caps: independence complexes up to 16 ground vertices, regularity up to
12 vertices (the subset scan is 2^n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _bits

_COMPLEX_CAP = 16
_REG_CAP = 12


@dataclass(frozen=True)
class SimplicialComplexView:
    """Faces of a finite complex, grouped by size and stored as bitmasks.

    ``faces_by_size[k]`` holds the k-vertex faces sorted by mask value;
    index 0 is always ``(0,)``, the empty face.  Downward closure is
    checked on construction.
    """

    ground_n: int
    faces_by_size: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.faces_by_size[0] != (0,):
            raise ValueError("complex must contain the empty face")
        known = {0}
        for k, faces in enumerate(self.faces_by_size):
            for f in faces:
                if f.bit_count() != k:
                    raise ValueError(f"face {f:b} filed under size {k}")
                if f >> self.ground_n:
                    raise ValueError("face outside the ground set")
                for v in _bits(f):
                    if f ^ (1 << v) not in known:
                        raise ValueError("complex is not downward closed")
                known.add(f)

    @property
    def dim(self) -> int:
        return len(self.faces_by_size) - 2

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by size, starting with the empty face."""
        return tuple(len(faces) for faces in self.faces_by_size)

    def reduced_euler_characteristic(self) -> int:
        return sum((-1) ** (k - 1) * len(faces)
                   for k, faces in enumerate(self.faces_by_size))


def _group_faces(ground_n: int, faces: set[int]) -> SimplicialComplexView:
    top = max((f.bit_count() for f in faces), default=0)
    grouped: list[list[int]] = [[] for _ in range(top + 1)]
    for f in faces:
        grouped[f.bit_count()].append(f)
    return SimplicialComplexView(
        ground_n, tuple(tuple(sorted(g)) for g in grouped))


def from_maximal_faces(ground_n: int, maximal: list[int]) -> SimplicialComplexView:
    """Complex generated by the given face bitmasks (downward closure)."""
    faces = {0}
    stack = list(maximal)
    while stack:
        f = stack.pop()
        if f in faces:
            continue
        faces.add(f)
        for v in _bits(f):
            stack.append(f ^ (1 << v))
    return _group_faces(ground_n, faces)


def independence_complex(G: Graph) -> SimplicialComplexView:
    """All independent sets of G, as a complex."""
    if G.n > _COMPLEX_CAP:
        raise ValueError(f"independence complex capped at {_COMPLEX_CAP} vertices")
    return _group_faces(G.n, set(_independent_sets(G.n, G.adj)))


def _independent_sets(n: int, adj: tuple[int, ...]) -> list[int]:
    """Bitmasks of all independent sets, by subset-DP over masks."""
    out = [0]
    ok = bytearray([1]) + bytearray((1 << n) - 1)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if ok[rest] and not adj[v] & rest:
            ok[mask] = 1
            out.append(mask)
        else:
            ok[mask] = 0
    return out


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


def _boundary_rank(faces: tuple[int, ...], facets_below: tuple[int, ...]) -> int:
    """Rank over GF(2) of the boundary map from faces to facets_below."""
    index = {f: i for i, f in enumerate(facets_below)}
    rows = []
    for f in faces:
        row = 0
        for v in _bits(f):
            row |= 1 << index[f ^ (1 << v)]
        rows.append(row)
    return _gf2_rank(rows)


def reduced_homology_ranks(C: SimplicialComplexView) -> list[int]:
    """Reduced GF(2) homology ranks; entry k is dimension k - 1.

    Entry 0 (dimension -1) is 1 exactly when the complex is the single
    empty face.
    """
    sizes = [len(faces) for faces in C.faces_by_size]
    top = len(sizes) - 1
    # boundary_rank[k] = rank of the map from k-vertex faces down;
    # the size-1 -> size-0 map sends every vertex to the empty face.
    boundary = [0] * (top + 2)
    for k in range(1, top + 1):
        boundary[k] = _boundary_rank(C.faces_by_size[k], C.faces_by_size[k - 1])
    return [sizes[k] - boundary[k] - boundary[k + 1] for k in range(top + 1)]


@dataclass(frozen=True)
class RegularityResult:
    """Regularity value with the first maximizing (subset, dimension) pair."""

    reg: int
    witness_subset: tuple[int, ...]
    witness_d: int

    def to_json_dict(self) -> dict:
        return {"reg": self.reg,
                "witness_W": list(self.witness_subset),
                "witness_d": self.witness_d}


def _folds(adj: tuple[int, ...], w: int) -> bool:
    """Whether G[w] has vertices u != v with N(u) & w inside N(v)."""
    for u in _bits(w):
        # the v adjacent to every neighbour of u inside w
        common = w & ~(1 << u)
        for x in _bits(adj[u] & w):
            common &= adj[x]
        if common:
            return True
    return False


def regularity(G: Graph) -> RegularityResult:
    """Edge-ideal regularity over GF(2) by subset scan (n <= 12).

    A subset W is skipped without building its complex when either

    * alpha(G[W]) <= best: homology in dimension d - 1 needs a face with
      d vertices.  alpha comes from one DP over the scan,
      alpha[W] = max(alpha[W - v], 1 + alpha[W - N[v]]) for the lowest v;
    * G[W] has u != v with N(u) & W inside N(v): by the fold lemma
      (Engstrom 2008) Ind(G[W]) is homotopy equivalent to Ind(G[W - v]),
      a smaller mask the scan has already seen.  An isolated u is the
      case N(u) & W empty.

    Neither skip can pass over the first W, in ascending mask order, that
    reaches the maximum, so that W is the witness.
    """
    if G.n > _REG_CAP:
        raise ValueError(f"regularity computation capped at {_REG_CAP} vertices")
    adj = G.adj
    indep = _independent_sets(G.n, adj)
    alpha = bytearray(1 << G.n)
    best, best_w = 0, 0
    for w in range(1, 1 << G.n):
        low = w & -w
        rest = w ^ low
        alpha[w] = max(alpha[rest], 1 + alpha[rest & ~adj[low.bit_length() - 1]])
        if alpha[w] <= best or _folds(adj, w):
            continue
        faces = {s for s in indep if not s & ~w}
        ranks = reduced_homology_ranks(_group_faces(G.n, faces))
        for d in range(len(ranks) - 1, best, -1):
            if ranks[d]:
                best, best_w = d, w
                break
    return RegularityResult(best, tuple(_bits(best_w)), best)

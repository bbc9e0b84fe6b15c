"""Independent brute-force reference implementations used by the tests.

Everything here works from first definitions (subset enumeration,
permutation search, one memoised recurrence) and shares no code with the
solvers under test.  The file also holds the test shapes (complete,
complete bipartite and star graphs, disjoint unions), the families'
closed-form edge count and the small family parameter grid the tests run
over.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator

from matchinv import FamilySpec, Graph, from_edge_list


def all_matchings(G: Graph) -> list[list[tuple[int, int]]]:
    """Every subset of pairwise disjoint edges, each once: a matching grows
    only by an edge later in ``G.edges()`` than its own, and only by one
    that meets none of its vertices.  So it visits the matchings alone, 764
    on K8, where an edge-subset scan would visit 2^28 subsets."""
    edges = G.edges()
    out = []

    def grow(matching: list[tuple[int, int]], start: int, used: set[int]) -> None:
        out.append(matching)
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                grow(matching + [edges[i]], i + 1, used | {u, v})

    grow([], 0, set())
    return out


def _is_maximal(G: Graph, M: list[tuple[int, int]]) -> bool:
    covered = {v for e in M for v in e}
    return all(u in covered or v in covered for u, v in G.edges())


def _is_induced(G: Graph, M: list[tuple[int, int]]) -> bool:
    for (a, b), (c, d) in itertools.combinations(M, 2):
        for x, y in G.edges():
            if (x in (a, b) or y in (a, b)) and (x in (c, d) or y in (c, d)):
                return False
    return True


def match_number(G: Graph) -> int:
    return max(len(M) for M in all_matchings(G))


def min_match_number(G: Graph) -> int:
    return min(len(M) for M in all_matchings(G) if _is_maximal(G, M))


def ind_match_number(G: Graph) -> int:
    return max(len(M) for M in all_matchings(G) if _is_induced(G, M))


def ind_match_by_vertices(G: Graph) -> int:
    """Maximum induced matching by a recurrence over vertex masks.

    The lowest vertex v stays unmatched, or is matched to a neighbour x,
    and then no other matched edge may meet N[v] | N[x].  It never builds
    the edge conflict graph, and memoised on the mask it is quick on long
    thin graphs numbered along their length, such as cycles and ladders.
    """
    adj = G.adj

    @functools.cache
    def best(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        value = best(mask ^ 1 << v)
        for x in range(G.n):
            if (adj[v] & mask) >> x & 1:
                gone = adj[v] | adj[x] | 1 << v | 1 << x
                value = max(value, 1 + best(mask & ~gone))
        return value

    return best(G.vertex_mask)


def triple(G: Graph) -> tuple[int, int, int]:
    return (ind_match_number(G), min_match_number(G), match_number(G))


def isomorphic(G: Graph, H: Graph) -> bool:
    """Permutation brute force, for n <= 7."""
    if G.n != H.n:
        return False
    gedges = set(G.edges())
    hedges = set(H.edges())
    if len(gedges) != len(hedges):
        return False
    for perm in itertools.permutations(range(G.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in hedges
               for u, v in gedges):
            return True
    return False


def component(G: Graph, v: int) -> int:
    """The vertex mask of v's component, by search over the edge list."""
    seen = {v}
    frontier = [v]
    edges = G.edges()
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return sum(1 << u for u in seen)


def connected(G: Graph) -> bool:
    return G.n <= 1 or component(G, 0) == (1 << G.n) - 1


def chordal(G: Graph) -> bool:
    """No induced cycle of length >= 4, by subset scan."""
    for k in range(4, G.n + 1):
        for sub in itertools.combinations(range(G.n), k):
            inside = [(u, v) for u, v in G.edges() if u in sub and v in sub]
            if len(inside) != k:
                continue
            deg = {v: 0 for v in sub}
            for u, v in inside:
                deg[u] += 1
                deg[v] += 1
            H = from_edge_list(G.n, inside)
            if all(d == 2 for d in deg.values()) and _subset_connected(H, sub):
                return False
    return True


def _subset_connected(H: Graph, sub: Iterable[int]) -> bool:
    sub = list(sub)
    seen = {sub[0]}
    frontier = [sub[0]]
    while frontier:
        v = frontier.pop()
        for u, w in H.edges():
            for x, y in ((u, w), (w, u)):
                if x == v and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == len(sub)


def random_graph(rng, n: int, density: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return from_edge_list(n, edges)


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on vertices 0..n-1, by ascending edge mask, with
    the pairs numbered as in graph6: bit C(j, 2) + i is the pair {i, j}."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Side A is vertices 0..a-1."""
    return from_edge_list(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def star_graph(leaves: int) -> Graph:
    """Vertex 0 joined to 1..leaves."""
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(G: Graph, H: Graph) -> Graph:
    """G's rows, then H's shifted up by G.n, as the lemma suite joins its
    samples; unlabeled."""
    return Graph(G.n + H.n, G.adj + tuple(row << G.n for row in H.adj))


# ---------------------------------------------------------------------------
# references for the packed checks of matchinv.graph
# ---------------------------------------------------------------------------

def adjacency_error(n: int, adj: tuple[int, ...]) -> str | None:
    """The first fault of the rows of an n-vertex graph, visited row by row
    and, in each row, edge by edge, or None: a row with out-of-range
    vertices, a loop, or an edge {v, u} with v missing from ``adj[u]``.
    ``Graph`` reports the same text for a graph with one fault."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"adjacency row {v} mentions out-of-range vertices"
        if row >> v & 1:
            return f"loop edge at vertex {v}"
        for u in range(n):
            if row >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric adjacency between {v} and {u}"
    return None


def graph6_by_columns(G: Graph) -> str:
    """graph6 written column by column: the size header, then for j = 1..n-1
    the pairs {i, j}, i < j, one bit each, padded to whole 6-bit characters
    63 + value (McKay's format description)."""
    n = G.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    bits = "".join("1" if G.adj[j] >> i & 1 else "0" for j in range(n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    body = [int(bits[i:i + 6], 2) + 63 for i in range(0, len(bits), 6)]
    return "".join(map(chr, head + body))


# ---------------------------------------------------------------------------
# the witness families: closed-form edge count and a small parameter grid
# ---------------------------------------------------------------------------

def expected_edge_count(spec: FamilySpec) -> int:
    """Closed-form edge count of ``build_family(spec)``."""
    a, b, c, d, e = spec.a, spec.b, spec.c, spec.d, spec.e
    clique = a * (2 * a - 1)
    if spec.family == "G1":
        return clique + 2 * b + c
    if spec.family == "G2":
        return clique + 2 * b + c + d + 2 * d + e + (2 * a + 2 * d + 2 * e)
    return clique + b + c + (2 * a + 2 * b + 1)


def spec_grid(max_vertices: int = 12) -> list[FamilySpec]:
    """Small valid parameter grid across all three families.

    Ranges: G1 with a <= 3, b <= a, c <= 3; G2 with a <= 2, b < a,
    c <= 2, d <= 1, e <= 1; G3 with a <= 2, b <= 2, c <= 3; filtered to
    the given vertex budget.
    """
    out: list[FamilySpec] = []
    for a in range(1, 4):
        for b in range(0, a + 1):
            for c in range(0, 4):
                spec = FamilySpec("G1", a, b, c)
                if spec.vertex_count() <= max_vertices:
                    out.append(spec)
    for a in range(1, 3):
        for b in range(0, a):
            for c in range(1, 3):
                for d in range(0, 2):
                    for e in range(0, 2):
                        if d + e < 1:
                            continue
                        spec = FamilySpec("G2", a, b, c, d, e)
                        if spec.vertex_count() <= max_vertices:
                            out.append(spec)
    for a in range(1, 3):
        for b in range(0, 3):
            for c in range(1, 4):
                spec = FamilySpec("G3", a, b, c)
                if spec.vertex_count() <= max_vertices:
                    out.append(spec)
    return out

# ---------------------------------------------------------------------------
# simplicial homology over the rationals (signed boundary matrices)
# ---------------------------------------------------------------------------

def _q_rank(mat) -> int:
    from fractions import Fraction
    mat = [row[:] for row in mat]
    rank = 0
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        rank += 1
        if r == len(mat):
            break
    return rank


def q_homology_ranks(face_masks) -> list[int]:
    """Reduced rational homology ranks; entry k is dimension k - 1."""
    from fractions import Fraction
    groups: dict[int, list[int]] = {}
    for f in face_masks:
        groups.setdefault(bin(f).count("1"), []).append(f)
    top = max(groups)
    sizes = [len(sorted(groups.get(k, []))) for k in range(top + 1)]
    bnd = [0] * (top + 2)
    for k in range(1, top + 1):
        below = sorted(groups[k - 1])
        idx = {f: i for i, f in enumerate(below)}
        mat = []
        for f in sorted(groups[k]):
            row = [Fraction(0)] * len(below)
            verts = [v for v in range(64) if f >> v & 1]
            for pos, v in enumerate(verts):
                row[idx[f ^ (1 << v)]] = Fraction((-1) ** pos)
            mat.append(row)
        bnd[k] = _q_rank(mat)
    return [sizes[k] - bnd[k] - bnd[k + 1] for k in range(top + 1)]


def independent_set_masks(G: Graph, within: int | None = None) -> list[int]:
    if within is None:
        within = (1 << G.n) - 1
    out = []
    for m in range(1 << G.n):
        if m & ~within:
            continue
        if all(not (m >> v & 1 and G.adj[v] & m) for v in range(G.n)):
            out.append(m)
    return out


def q_regularity(G: Graph) -> int:
    """Edge-ideal regularity over the rationals by full subset scan."""
    best = 0
    for w in range(1 << G.n):
        ranks = q_homology_ranks(independent_set_masks(G, w))
        for d in range(len(ranks) - 1, best, -1):
            if ranks[d]:
                best = d
                break
    return best

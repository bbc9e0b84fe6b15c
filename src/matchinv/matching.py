"""Exact matching invariants.

Three numbers per graph:

* ``match_number``     -- maximum matching size (polynomial, Edmonds'
  blossom search from a first-fit matching in degree order)
* ``min_match_number`` -- minimum maximal matching size (NP-hard, exact
  branch and bound over vertex masks; a matching is maximal iff the
  uncovered vertices form an independent set)
* ``ind_match_number`` -- maximum induced matching size (NP-hard, the
  exact independence number of the edge conflict graph)

The branch-and-bound searches are exact and exponential in the worst case.
Each is one recursive function that takes a mask and a bound and returns one
number: ``_min_maximal`` the exact value when it is below the bound and a
lower bound of at least the bound otherwise, and ``_alpha``, the one
independence-number search, the larger of the bound and the exact value.
``_min_maximal`` uses the paper's twin-leaf and additivity lemmas and two
lower bounds per node.  The clique-cover bound cuts a node on entry, and a
branch that reaches it ends the branching.  Before a connected node
branches, the alpha cut drops it when its independence number, from
``_alpha``, is so small that every maximal matching, which leaves an
independent set uncovered, reaches the limit.  Its memo is keyed by G's
twin classes, so the masks that differ by swapping twins of G, whose
subgraphs are isomorphic, share one entry.
``min_match_number`` searches only when two root lower bounds fall short
of the first-fit matching: the clique-cover bound of G, and the same bound
added up over the components of G - hub, which deletion monotonicity and
additivity allow.  They settle every family witness up to 64 vertices.
Otherwise a second upper bound joins the first-fit size: for the vertex
cover C left by a greedy independent set, |C| - nu(G[C]), the size of an
edge dominating set, which is never below a minimum maximal matching
(Yannakakis and Gavril, 1980).  The smaller of the two is the answer when a
root lower bound reaches it, and the search's first limit otherwise.
``ind_match_number`` is ``_alpha`` on the edge conflict graph of the kept
edges.  An edge whose S_e = N(a) | N(b) holds the S_f of another edge f
is dominated in the conflict graph, so it may go without changing the
independence number.  Two cases are cheap to find: an edge to a leaf or
a true twin of a vertex v has S_e = N[v], inside the S_e of every edge at
v, so at such a v only that edge is kept; and of the edges with one S_e,
true twins in the conflict graph, only the first is kept.  The rows take
one pass over the vertices, one dict lookup per edge among the other
vertices, and mask ORs over the ends of the kept edges; ``_alpha`` takes
simplicial vertices at every node.

``match_number`` is Edmonds' augmenting-path search with blossom
contraction (1965).  Its first matching is ``_first_fit`` over the vertices
by ascending degree, so it matches each pendant vertex whose neighbour is
still free; the same first-fit in index order gives ``min_match_number``
its upper bound.  A root whose search failed never gains an augmenting
path later, so the last exposed vertex is not searched from.

Measured figures are in the README, under "Limits and caveats".
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .graph import Graph, _bits, _component


class InvariantTriple(NamedTuple):
    """(induced, minimum maximal, maximum) matching sizes of one graph."""

    ind_match: int
    min_match: int
    match: int


# ---------------------------------------------------------------------------
# maximum matching (blossom augmentation)
# ---------------------------------------------------------------------------

def _first_fit(adj: tuple[int, ...], order: Iterable[int]) -> tuple[list[int], int]:
    """A maximal matching: each vertex of ``order`` that is still free is
    matched to its lowest free neighbour.  Returns the mate array (-1 for
    a free vertex) and the mask of the free vertices.
    """
    mate = [-1] * len(adj)
    free = (1 << len(adj)) - 1
    for v in order:
        nb = adj[v] & free
        if free >> v & 1 and nb:
            u = (nb & -nb).bit_length() - 1
            mate[v], mate[u] = u, v
            free &= ~(1 << v | 1 << u)
    return mate, free


def _blossom_matching(n: int, adj: tuple[int, ...]) -> list[int]:
    """Maximum matching as a mate array (Edmonds, "Paths, trees, and
    flowers", 1965): augmenting-path searches that contract odd cycles.

    Any first matching gives the maximum once the searches have run; a good
    one leaves few exposed vertices to search from.  This one is
    ``_first_fit`` over the vertices by ascending degree.  A pendant
    vertex's turn comes before that of every vertex of higher degree, so it
    is matched whenever its neighbour is still free, and a pendant edge lies
    in some maximum matching.  The order matters: in index order,
    first-fit would pair the clique vertices of a family witness with
    each other and leave each pendant to a search through the clique.

    The searches start from the exposed vertices in the same order.  A root
    whose search fails has no augmenting path after any later augmentation
    either, so it stays exposed; a path found from a root therefore ends at
    an exposed vertex not yet searched, and the last unsearched one needs no
    search.  The search reads the adjacency rows ``adj`` bit by bit.
    """
    order = sorted(range(n), key=lambda v: adj[v].bit_count())
    mate, free = _first_fit(adj, order)

    def find_augmenting(root: int) -> bool:
        parent = [-1] * n
        base = list(range(n))
        in_tree = [False] * n
        in_tree[root] = True
        queue = deque([root])

        def lowest_common_base(a: int, b: int) -> int:
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if mate[a] == -1:
                    break
                a = parent[mate[a]]
            while True:
                b = base[b]
                if seen[b]:
                    return b
                b = parent[mate[b]]

        def mark_path(v: int, b: int, child: int, flag: list[bool]) -> None:
            while base[v] != b:
                flag[base[v]] = True
                flag[base[mate[v]]] = True
                parent[v] = child
                child = mate[v]
                v = parent[mate[v]]

        while queue:
            v = queue.popleft()
            row = adj[v]
            while row:
                low = row & -row
                row ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # odd cycle: contract the blossom down to its base
                    cur = lowest_common_base(v, to)
                    flag = [False] * n
                    mark_path(v, cur, to, flag)
                    mark_path(to, cur, v, flag)
                    for i in range(n):
                        if flag[base[i]]:
                            base[i] = cur
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        while to != -1:  # augment along the alternating path
                            prev = parent[to]
                            nxt = mate[prev]
                            mate[prev] = to
                            mate[to] = prev
                            to = nxt
                        return True
                    in_tree[mate[to]] = True
                    queue.append(mate[to])
        return False

    left = free.bit_count()
    for v in order:
        if left < 2:
            break
        if mate[v] == -1:
            left -= 2 if find_augmenting(v) else 1
    return mate


def match_number(G: Graph) -> int:
    """Size of a maximum matching."""
    return (G.n - _blossom_matching(G.n, G.adj).count(-1)) // 2


# ---------------------------------------------------------------------------
# minimum maximal matching
# ---------------------------------------------------------------------------

def _clique_cover_bound(adj: tuple[int, ...], vmask: int) -> int:
    """Lower bound on min maximal matching of the induced subgraph.

    The uncovered vertices of a maximal matching are independent, so the
    matching covers at least |V'| - alpha vertices; a greedy clique cover
    bounds alpha from above.  Tight on cliques, paths and pendant shapes.
    """
    cliques = 0
    rem = vmask
    while rem:
        v = (rem & -rem).bit_length() - 1
        clique = 1 << v
        cand = adj[v] & rem
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= adj[u]
        rem &= ~clique
        cliques += 1
    return (vmask.bit_count() - cliques + 1) // 2


def _hub_deletion_bound(adj: tuple[int, ...]) -> int:
    """Lower bound on min maximal matching of G: the clique-cover bounds of
    the components of G - hub, added up.

    ``hub`` is the first vertex with the most non-leaf neighbours.  Deleting
    a vertex v never raises the value.  Take M, a minimum maximal matching
    of G.  If v is unmatched, M stays maximal in G - v.  Otherwise drop v's
    edge: every edge left undominated then meets v's mate u, so one edge at
    u restores maximality, and the size does not grow.  The components of
    G - hub add up (additivity lemma), and each one's greedy clique cover
    bounds its independence number on its own.
    """
    nonleaf = 0
    for v, row in enumerate(adj):
        if row & (row - 1):
            nonleaf |= 1 << v
    counts = [(row & nonleaf).bit_count() for row in adj]
    rest = ((1 << len(adj)) - 1) ^ 1 << counts.index(max(counts))
    bound = 0
    while rest:
        comp = _component(adj, rest)
        rest ^= comp
        if comp & (comp - 1):  # a lone vertex bounds nothing
            bound += _clique_cover_bound(adj, comp)
    return bound


def _vertex_cover_bound(adj: tuple[int, ...]) -> int:
    """Upper bound on min maximal matching of G: |C| - nu(G[C]) for the
    vertex cover C = V - I, I a greedy independent set over the vertices
    by ascending degree.

    A minimum maximal matching is a minimum edge dominating set
    (Yannakakis and Gavril, SIAM J. Appl. Math. 1980).  I is maximal, so
    each vertex of C has a neighbour in I; a maximum matching of G[C] plus
    one such edge at each vertex of C it leaves free meets every vertex of
    C, hence every edge, in |C| - nu(G[C]) edges.
    """
    indep = blocked = 0
    for v in sorted(range(len(adj)), key=lambda v: adj[v].bit_count()):
        if not blocked >> v & 1:
            indep |= 1 << v
            blocked |= adj[v]
    cover = ((1 << len(adj)) - 1) ^ indep
    rows = tuple(row & cover if cover >> v & 1 else 0 for v, row in enumerate(adj))
    mate = _blossom_matching(len(adj), rows)
    return cover.bit_count() - (len(adj) - mate.count(-1)) // 2


def _alpha(adj: tuple[int, ...], mask: int, floor: int,
           memo: dict[int, tuple[int, bool]]) -> int:
    """The larger of ``floor`` and the independence number of G[mask].

    A simplicial vertex, one whose neighbours form a clique, is in some
    maximum independent set (the simplicial case of the domination rule of
    Akiba and Iwata, Theor. Comput. Sci. 2016); a vertex of degree at most
    one is the special case.  Otherwise every maximal independent set meets
    N[v], for v of least degree, so the search branches on the first vertex
    of N[v] a set holds.  ``adj`` may be ``G.adj`` or the rows of
    ``_edge_conflicts``.  Results go to ``memo`` under the negative key
    ``~mask``, next to ``_min_maximal``'s, each with whether it was above its
    floor, hence exact.
    """
    taken = 0
    while mask:
        # take each simplicial vertex as the pass meets it, and repeat until
        # a pass takes none, so that v has least degree; a vertex of degree
        # above the least seen so far is not tested
        before = taken
        v, least = -1, mask.bit_count()
        rem = mask
        while rem:
            low = rem & -rem
            rem ^= low
            x = low.bit_length() - 1
            nb = adj[x] & mask
            degree = nb.bit_count()
            if degree > least:
                continue
            # N(x) is a clique when each neighbour is adjacent to the later ones
            others = nb
            while others:
                f = others & -others
                others ^= f
                if others & ~adj[f.bit_length() - 1]:
                    break
            if not others:
                taken += 1
                mask &= ~(nb | low)
                rem &= ~nb
            elif degree < least:
                v, least = x, degree
        if taken == before:
            break
    else:
        return max(floor, taken)
    floor -= taken
    hit = memo.get(~mask)
    if hit is not None and (hit[1] or hit[0] <= floor):
        return taken + max(floor, hit[0])
    best = floor
    rem = adj[v] & mask | 1 << v
    unseen = mask
    while rem:
        low = rem & -rem
        rem ^= low
        # sets holding an earlier vertex of N[v] were searched already
        unseen ^= low
        left = unseen & ~adj[low.bit_length() - 1]
        if left.bit_count() >= best:
            best = 1 + _alpha(adj, left, best - 1, memo)
    memo[~mask] = (best, best > floor)
    return taken + best


def _twin_classes(adj: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """G's twin classes of two or more vertices, each as ``(members,
    prefix)``, ``prefix[k]`` the mask of its k lowest members.

    False twins have equal N(v), true twins equal N[v]; each is an
    equivalence.  No vertex x has twins of both kinds: for a true twin y
    and a false twin z, y is in N(x) = N(z), so z is in N(y), within
    N[y] = N[x]; as z != x, z is in N(x) = N(z), which no vertex is.  An
    open row never equals a closed one either: N(u) = N[v] holds v, so u
    is in N(v), hence in N[v] = N(u).  So the classes are disjoint, and
    one dict keyed by both kinds of row collects every class.
    Sorting the rows instead was no faster on the benchmark's graphs.
    """
    groups = {}
    for v, row in enumerate(adj):
        groups.setdefault(row, []).append(v)
        groups.setdefault(row | 1 << v, []).append(v)
    classes = []
    for members in groups.values():
        if len(members) > 1:
            prefix = [0]
            for v in members:
                prefix.append(prefix[-1] | 1 << v)
            classes.append((prefix[-1], tuple(prefix)))
    return tuple(classes)


def _twin_key(mask: int, classes: tuple[tuple[int, tuple[int, ...]], ...]) -> int:
    """``mask`` with its part in each twin class moved to that class's
    lowest members, as many as there were.

    Swapping two twins of G is an automorphism of G, and the move is a
    product of such swaps, so G[key] is isomorphic to G[mask]; masks that
    differ by twin swaps share a key.
    """
    for members, prefix in classes:
        part = mask & members
        mask ^= part ^ prefix[part.bit_count()]
    return mask


def _min_maximal(adj: tuple[int, ...], mask: int, limit: int,
                 memo: dict[int, tuple[int, bool]],
                 classes: tuple[tuple[int, tuple[int, ...]], ...]) -> int:
    """Min maximal matching of G[mask] when below ``limit``.

    Otherwise the result is a lower bound of at least ``limit``.  ``memo``
    maps the twin key (``_twin_key``) of a reduced mask to its best result
    so far and whether that result was below its limit, hence exact, for
    one solver call; ``_alpha`` keeps its results there under negative
    keys.  The value, and the bound at a limit, depend on G[mask] only up
    to isomorphism, so every mask with the same key may read the entry.
    ``classes`` are G's ``_twin_classes``.
    """
    # isolated vertices leave the clique-cover bound as it is, so it may cut
    # before the reduction does
    cover = _clique_cover_bound(adj, mask)
    if cover >= limit:
        return cover
    # isolated vertices need nothing, and of several leaves at one vertex
    # one is enough (twin-leaf lemma); a leaf's neighbour must be covered
    keep = forced = 0
    rem = mask
    while rem:
        low = rem & -rem
        rem ^= low
        nb = adj[low.bit_length() - 1] & mask
        if nb & (nb - 1):
            keep |= low
        elif nb and not nb & forced:
            forced |= nb
            keep |= low
    mask = keep
    if not mask:
        return 0
    key = _twin_key(mask, classes)
    hit = memo.get(key)
    if hit is not None and (hit[1] or hit[0] >= limit):
        return hit[0]
    # components add up (additivity lemma)
    comp = _component(adj, mask)
    if comp != mask:
        value = _min_maximal(adj, comp, limit, memo, classes)
        if value < limit:
            value += _min_maximal(adj, mask & ~comp, limit - value, memo, classes)
    else:
        # the uncovered vertices are independent, so the value is at least
        # ceil((|mask| - alpha) / 2), which reaches the limit iff alpha <= t;
        # a greedy independent set above t shows that alpha is too
        t = mask.bit_count() - 2 * limit + 1
        size, rem = 0, mask
        while rem and size <= t:
            low = rem & -rem
            rem &= ~(adj[low.bit_length() - 1] | low)
            size += 1
        if size <= t and _alpha(adj, mask, t, memo) == t:
            memo[key] = (limit, False)
            return limit
        # a maximal matching covers a forced vertex, and dominates the
        # lowest edge {u, v} by some edge meeting u or v
        if forced:
            w, least = -1, mask.bit_count()
            for x in _bits(forced):
                degree = (adj[x] & mask).bit_count()
                if degree < least:
                    w, least = x, degree
            branches = ((w, adj[w] & mask),)
        else:
            u = (mask & -mask).bit_length() - 1
            nb = adj[u] & mask
            v = (nb & -nb).bit_length() - 1
            branches = ((u, nb), (v, adj[v] & mask & ~(1 << u)))
        value = limit
        for a, partners in branches:
            left = mask & ~(1 << a)
            seen = set()
            for b in _bits(partners):
                # true or false twins in G[mask] - a leave isomorphic graphs
                open_nb = adj[b] & left
                if open_nb in seen or open_nb | 1 << b in seen:
                    continue
                seen.update((open_nb, open_nb | 1 << b))
                found = 1 + _min_maximal(adj, left & ~(1 << b), value - 1, memo,
                                         classes)
                if found < value:
                    value = found
                    if value == cover:
                        memo[key] = (cover, True)
                        return cover
    memo[key] = (value, value < limit)
    return value


def min_match_number(G: Graph) -> int:
    """Size of a minimum maximal matching (exact).

    The size of ``_first_fit`` in index order is an upper bound, and the
    root tries two lower bounds before any search: the clique-cover bound
    of G, and, when that falls short, ``_hub_deletion_bound``, the
    clique-cover bounds of the components of G - hub added up.  If either
    reaches the first-fit size, that size is the value.  On the family
    witnesses of every feasible tuple up to 64 vertices one of them does,
    so these take no search, memo or twin classes.

    Otherwise ``_vertex_cover_bound`` gives a second upper bound, the size
    of an edge dominating set: a maximum matching of G[C], for the vertex
    cover C = V - I of a greedy independent set I, plus one edge into I at
    each vertex of C it leaves free, meets every vertex of C, hence every
    edge, and a minimum edge dominating set is as small as a minimum
    maximal matching.  Let ``upper`` be the smaller of the two upper
    bounds.  If either lower bound reaches it, it is the value.  So the
    root order is: the clique-cover bound, the hub bound, each against the
    first-fit size, then both against ``upper``.

    Otherwise branch and bound over vertex masks with ``upper`` as the
    first limit.  Each node drops isolated vertices and all but one leaf
    at a vertex (the paper's twin-leaf lemma), splits into components whose
    values add up (its additivity lemma), and branches on the edges at a
    vertex some maximal matching must cover, skipping twin partners.  A
    maximal matching leaves an independent set uncovered, so it has at
    least (|S| - alpha(G[S])) / 2 edges on a vertex set S; before a
    connected node branches, that bound cuts it when it reaches the limit.
    A greedy independent set that is already too large lets the node
    branch without the exact alpha.

    The memo keys a node by its mask with each twin class of G filled from
    its lowest members (``_twin_key``).  Swapping twins of G maps G onto
    itself, so masks with one key induce isomorphic graphs, whose value,
    or bound at a limit, is the same, so on a graph with many twins, such
    as a blow-up of a small graph, twin-swapped subproblems take one entry.
    The classes are built when the search starts, so a graph whose root a
    bound settles builds none.
    """
    adj, mask = G.adj, G.vertex_mask
    greedy = (G.n - _first_fit(adj, range(G.n))[1].bit_count()) // 2
    clique = _clique_cover_bound(adj, mask)
    if clique >= greedy:
        return greedy
    hub = _hub_deletion_bound(adj)
    if hub >= greedy:
        return greedy
    upper = min(greedy, _vertex_cover_bound(adj))
    if max(clique, hub) >= upper:
        return upper
    return min(upper, _min_maximal(adj, mask, upper, {}, _twin_classes(adj)))


# ---------------------------------------------------------------------------
# maximum induced matching
# ---------------------------------------------------------------------------

def _edge_conflicts(G: Graph) -> tuple[int, ...]:
    """Adjacency rows of the edge conflict graph on the kept edges of G.

    Two edges conflict in an induced matching when they share a vertex or
    some edge of G joins their endpoints, that is, when the second meets
    S_e = N(a) | N(b) for the first edge e = {a, b}; S_e is N[a] | N[b],
    as a and b are neighbours.  If S_f lies inside S_e, every edge that
    conflicts with f conflicts with e, so some maximum independent set of
    the conflict graph avoids e (the domination rule of Akiba and Iwata,
    Theor. Comput. Sci. 2016), and e may go.  Two cases are cheap to find:

    * a vertex v with a leaf or a true twin u: S_vu = N[v] lies inside the
      S_e of every edge e at v, so {v, u} stands for all of them;
    * edges with equal S_e, true twins in the conflict graph: the first
      one met stands for the others.

    So the edges at such a v go, but for one {v, u} per distinct N[v],
    and the edges among the other vertices are kept once per S_e, in
    ``G.edges()`` order.  The kept S_e are distinct, each dropped edge has
    a kept one whose S_f lies inside its own S_e, and the independence
    number does not change.  Like ``G.adj``, a row leaves out its own
    edge.  ``incident[x]`` holds the kept edges at x, ``reach[v]``, for an
    end v of a kept edge, their OR over the kept edges' ends in N(v), and
    the row of {a, b} is ``reach[a] | reach[b]`` less {a, b}.
    """
    adj = G.adj
    kept = {}  # S_e to the first edge e met with it
    pinned = 0
    closed = {}
    for u, row in enumerate(adj):
        if row & (row - 1):
            v = closed.setdefault(row | 1 << u, u)  # the first true twin
            if v == u:
                continue
        elif row:
            v = row.bit_length() - 1  # u is a leaf at v
        else:
            continue
        pinned |= 1 << v | 1 << u
        key = row | adj[v]
        if key not in kept:
            kept[key] = (v, u)
    for a, row in enumerate(adj):
        if pinned >> a & 1:
            continue
        upper = row >> (a + 1) << (a + 1) & ~pinned
        while upper:
            low = upper & -upper
            upper ^= low
            b = low.bit_length() - 1
            key = row | adj[b]
            if key not in kept:
                kept[key] = (a, b)
    ends = list(kept.values())
    incident = [0] * G.n
    touched = 0
    for i, (a, b) in enumerate(ends):
        bit = 1 << i
        incident[a] |= bit
        incident[b] |= bit
        touched |= 1 << a | 1 << b
    reach = [0] * G.n
    rem = touched
    while rem:
        low = rem & -rem
        rem ^= low
        v = low.bit_length() - 1
        nb = adj[v] & touched
        mask = 0
        while nb:
            low = nb & -nb
            nb ^= low
            mask |= incident[low.bit_length() - 1]
        reach[v] = mask
    rows = []
    for a, b in ends:
        rows.append((reach[a] | reach[b]) ^ 1 << len(rows))
    return tuple(rows)


def ind_match_number(G: Graph) -> int:
    """Size of a maximum induced matching (exact).

    The independence number of the edge conflict graph, by ``_alpha``, on
    the edges ``_edge_conflicts`` keeps: one edge to a leaf or true twin
    of each vertex that has one, in place of every edge at it, and among
    the other edges one per distinct S_e.  The conflict graph of G is the
    square of its line graph, which is chordal when G is (Cameron 1989);
    the kept edges induce a subgraph of it, which is chordal too, so it
    always has a simplicial vertex, a simplicial edge of G; on the family
    witnesses tried, ``_alpha``'s simplicial rule leaves no branching.  A
    family witness on n vertices keeps at most n // 2 + 1 edges.
    """
    rows = _edge_conflicts(G)
    return _alpha(rows, (1 << len(rows)) - 1, 0, {})


def invariant_triple(G: Graph) -> InvariantTriple:
    """All three matching invariants of one graph."""
    return InvariantTriple(
        ind_match=ind_match_number(G),
        min_match=min_match_number(G),
        match=match_number(G),
    )

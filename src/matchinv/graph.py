"""Immutable bitset graphs on at most 64 vertices.

Vertices are integers 0..n-1.  Adjacency is stored as one Python int per
vertex, bit u of ``adj[v]`` meaning the edge {v, u} is present.  Vertex
subsets passed to the functions below are iterables of vertex indices;
internally everything is a bitmask.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, field
from typing import Iterable, Iterator

MAX_VERTICES = 64


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose_rounds(stride: int) -> tuple[tuple[int, int], ...]:
    """The block-swap rounds that transpose a stride x stride bit matrix
    packed row by row into one int, bit r * stride + c for entry (r, c)
    (Warren, Hacker's Delight, 2nd ed., section 7-3).

    The round for a power of two j swaps entry (r, c) with (r + j, c - j)
    wherever bit j of r is clear and bit j of c is set, which exchanges
    bit j of the row and column numbers; one round per bit transposes.  A
    round is ``(shift, mask)``: the mask marks (r, c), and (r + j, c - j)
    lies ``shift`` = j * (stride - 1) bits above it.
    """
    rounds = []
    j = stride >> 1
    while j:
        columns = sum(1 << c for c in range(stride) if c & j)
        mask = sum(columns << r * stride for r in range(stride) if not r & j)
        rounds.append((j * (stride - 1), mask))
        j >>= 1
    return tuple(rounds)


# the rounds for each stride 2^k that a graph of at most 64 vertices uses
_TRANSPOSE_ROUNDS = tuple(_transpose_rounds(1 << k) for k in range(7))

# base64 digits, in value order, to graph6 characters 63 + value
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bitmask adjacency rows.

    ``labels``, when present, carries one short tag per vertex.  Only
    ``build_family`` sets them, to mark construction blocks.

    Construction checks each row for out-of-range vertices and a loop, row
    by row, and then symmetry at once: the rows, packed into one int at a
    stride of the next power of two of at least n, must equal their
    transpose (``_transpose_rounds``).  A graph that breaks symmetry is
    reported by its first row v, and in it the first u, with v missing
    from ``adj[u]``, after every row passed the other two checks.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        stride = 1 << (self.n - 1).bit_length()
        packed = 0
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} mentions out-of-range vertices")
            if row >> v & 1:
                raise ValueError(f"loop edge at vertex {v}")
            packed |= row << v * stride
        flipped = packed
        for shift, mask in _TRANSPOSE_ROUNDS[stride.bit_length() - 1]:
            swap = (flipped ^ flipped >> shift) & mask
            flipped ^= swap ^ swap << shift
        if flipped != packed:
            # the lowest bit of the packed rows missing from their transpose
            # is the first row v, and in it the first u, without v in adj[u]
            first = packed & ~flipped
            v, u = divmod((first & -first).bit_length() - 1, stride)
            raise ValueError(f"asymmetric adjacency between {v} and {u}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count does not match vertex count")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1).

    No package code builds paths; this stays public because the
    benchmark's own tests (``perfbench/test_perfbench.py``) call it.
    """
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def _component(adj: tuple[int, ...], mask: int) -> int:
    """The component of G[mask] that holds the lowest vertex of ``mask``;
    0 when ``mask`` is empty."""
    comp = frontier = mask & -mask
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier ^= 1 << v
        new = adj[v] & mask & ~comp
        comp |= new
        frontier |= new
    return comp


def is_connected(G: Graph) -> bool:
    """Connectivity: the component of vertex 0 is every vertex.

    Graphs with fewer than 2 vertices count as connected; with n = 0 the
    component of the empty mask is empty, which is the whole vertex set.
    """
    return _component(G.adj, G.vertex_mask) == G.vertex_mask


def is_chordal(G: Graph) -> bool:
    """Chordality by simplicial elimination (Fulkerson-Gross).

    Repeatedly delete a vertex whose remaining neighbours form a clique.
    A simplicial vertex lies on no chordless cycle and every chordal graph
    has one, so the graph is chordal exactly when this empties it.
    """
    rest = G.vertex_mask
    while rest:
        for v in _bits(rest):
            nb = G.adj[v] & rest
            if all(nb & ~G.adj[u] == 1 << u for u in _bits(nb)):
                rest ^= 1 << v
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# graph6 text format
# ---------------------------------------------------------------------------

def graph6_encode(G: Graph) -> str:
    """Encode in graph6: size header, then upper-triangle bits column-major.

    The body is the pair mask of ``_pair_rows``, the first bit as bit 0:
    column ``col``, rows 0..col-1, is by symmetry ``adj[col]`` below
    ``col``, at bit C(col, 2).  Reversed once and padded with zeros to
    whole 24-bit groups, its bytes are cut into 6-bit digits by base64,
    and a translation table turns digit d into the character 63 + d; the
    digits past the C(n, 2) bits, padded to a multiple of 6, are cut off.
    """
    n = G.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    pairs = 0
    for col in range(1, n):
        pairs |= (G.adj[col] & ~(-1 << col)) << (col * (col - 1) // 2)
    nbits = n * (n - 1) // 2
    width = -(-nbits // 24) * 24
    body = int(format(pairs, f"0{width}b")[::-1], 2).to_bytes(width // 8, "big")
    digits = binascii.b2a_base64(body, newline=False).translate(_BASE64_TO_GRAPH6)
    return "".join(map(chr, head)) + digits[:(nbits + 5) // 6].decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string; strict about length and padding bits.

    The body bits, the first one as bit 0, are the pair mask that
    ``_from_pair_mask`` turns into the graph, the routine the labeled scan
    of :mod:`matchinv.verifier` reads its edge masks with.
    """
    data = [ord(c) - 63 for c in text]
    if any(v < 0 or v > 63 for v in data):
        raise ValueError("invalid character in graph6 string")
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] == 63:
        if len(data) >= 2 and data[1] == 63:
            raise ValueError("graph6 size exceeds 64 vertices")
        if len(data) < 4:
            raise ValueError("truncated graph6 size header")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 size {n} exceeds {MAX_VERTICES} vertices")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} chars, expected {need}")
    bits = "".join(format(val, "06b") for val in body)
    mask = int(bits[::-1] or "0", 2)  # the first body bit is bit 0
    if mask >> nbits:
        raise ValueError("nonzero padding bits in graph6 string")
    return _from_pair_mask(n, mask)


def _edge_table(n: int) -> list[tuple[int, int]]:
    """The vertex pairs in graph6's order: pair {i, j}, i < j, is bit
    C(j, 2) + i of an edge mask."""
    return [(i, j) for j in range(n) for i in range(j)]


def _pair_rows(n: int, mask: int) -> tuple[int, ...]:
    """The adjacency rows of the n-vertex graph whose edges are the set
    bits of ``mask``, numbered in graph6's pair order (``_edge_table``).
    Column j, bits C(j, 2) .. C(j + 1, 2) - 1, is the row of j below j.
    The rows are not validated."""
    rows = [0] * n
    for col in range(1, n):
        rows[col] = low = mask >> (col * (col - 1) // 2) & ~(-1 << col)
        for row in _bits(low):
            rows[row] |= 1 << col
    return tuple(rows)


def _from_pair_mask(n: int, mask: int) -> Graph:
    """The graph of ``_pair_rows(n, mask)``.  The labeled scan of
    :mod:`matchinv.verifier` numbers its edge masks the same way, so the
    masks on n vertices are the first 2^C(n, 2) masks on n + 1."""
    return Graph(n, _pair_rows(n, mask))


def to_dot(G: Graph) -> str:
    """GraphViz text; vertex labels include block tags when present."""
    lines = ["graph G {"]
    for v in range(G.n):
        if G.labels is not None:
            lines.append(f'  {v} [label="{G.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in G.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

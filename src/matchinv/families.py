"""Parameterized witness families with closed-form matching invariants.

Three families, G1/G2/G3, each a clique core decorated with pendant and
matching blocks.  Every valid parameter choice has known values for all
three matching invariants, which is what makes the families usable as
realizability witnesses:

* ``G1(a, b, c)``: clique on 2a vertices (block X), a pendant vertex y_i
  on x_i for i = 1..2b (block Y), and c pendant vertices on x_2a
  (block Z).  Invariants (1, a, a+b).
* ``G2(a, b, c, d, e)``: a G1 part, plus d disjoint edges inside a block
  U of 2d vertices, a pendant u'_i on every u_i (block U'), e disjoint
  edges on a block V of 2e vertices, and an apex w joined to X, U and V.
  Invariants (d+e+1, a+d+e, a+b+2d+e+1).
* ``G3(a, b, c)``: clique block X, b disjoint edges on a block Y of 2b
  vertices, a star center v with c leaves (block Z), and an apex w
  joined to X, Y and v.  Invariants (b+2, a+b+1, a+b+1).

Canonical vertex order is X, Y, Z, U, U', V, then w, and
``block_labels`` gives the block tag of each vertex in that order.
``build_family`` fills the adjacency rows directly, block X as one clique
mask per vertex, and hands them to ``Graph``, which validates them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph
from .matching import InvariantTriple

FAMILY_NAMES = ("G1", "G2", "G3")


@dataclass(frozen=True)
class FamilySpec:
    """One family member: family tag plus integer parameters."""

    family: str
    a: int
    b: int
    c: int
    d: int = 0
    e: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != "G2" and (self.d or self.e):
            raise ValueError(f"{self.family} takes only parameters a, b, c")
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.e
        if self.family == "G1":
            if a < 1:
                raise ValueError("G1 needs a >= 1")
            if not a >= b >= 0:
                raise ValueError("G1 needs a >= b >= 0")
            if c < 0:
                raise ValueError("G1 needs c >= 0")
        elif self.family == "G2":
            if not a > b >= 0:
                raise ValueError("G2 needs a > b >= 0")
            if c < 1:
                raise ValueError("G2 needs c >= 1")
            if d < 0 or e < 0:
                raise ValueError("G2 needs d, e >= 0")
            if d + e < 1:
                raise ValueError("G2 needs d + e >= 1")
        else:
            if a < 1:
                raise ValueError("G3 needs a >= 1")
            if b < 0:
                raise ValueError("G3 needs b >= 0")
            if c < 1:
                raise ValueError("G3 needs c >= 1")
        if self.vertex_count() > MAX_VERTICES:
            raise ValueError(
                f"{self} would have {self.vertex_count()} vertices, "
                f"more than {MAX_VERTICES}")

    def vertex_count(self) -> int:
        a, b, c, d, e = self.a, self.b, self.c, self.d, self.e
        if self.family == "G1":
            return 2 * a + 2 * b + c
        if self.family == "G2":
            return 2 * a + 2 * b + c + 4 * d + 2 * e + 1
        return 2 * a + 2 * b + c + 2

    def params(self) -> tuple[int, ...]:
        if self.family == "G2":
            return (self.a, self.b, self.c, self.d, self.e)
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"{self.family}({','.join(map(str, self.params()))})"


_SPEC_RE = re.compile(r"^(G[123])\((-?\d+(?:,-?\d+)*)\)$")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse text like ``G2(2,0,1,0,1)`` back into a FamilySpec."""
    m = _SPEC_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse family spec {text!r}")
    family = m.group(1)
    nums = [int(x) for x in m.group(2).split(",")]
    want = 5 if family == "G2" else 3
    if len(nums) != want:
        raise ValueError(f"{family} takes {want} parameters, got {len(nums)}")
    return FamilySpec(family, *nums)


def predict_invariants(spec: FamilySpec) -> tuple[int, InvariantTriple]:
    """Closed-form (vertex count, invariant triple) for a family member."""
    a, b, d, e = spec.a, spec.b, spec.d, spec.e
    if spec.family == "G1":
        triple = InvariantTriple(1, a, a + b)
    elif spec.family == "G2":
        triple = InvariantTriple(d + e + 1, a + d + e, a + b + 2 * d + e + 1)
    else:
        triple = InvariantTriple(b + 2, a + b + 1, a + b + 1)
    return spec.vertex_count(), triple


def block_labels(spec: FamilySpec) -> tuple[str, ...]:
    """The block tag of each vertex of ``build_family(spec)``, in vertex
    order: x1.., y1.., z1.., then u1.., u'1.., v1.. and w for G2, and v
    and w for G3.  The blocks U, U' and V are empty outside G2."""
    blocks = [("x", 2 * spec.a), ("y", 2 * spec.b), ("z", spec.c),
              ("u", 2 * spec.d), ("u'", 2 * spec.d), ("v", 2 * spec.e)]
    labels = tuple(f"{tag}{i + 1}" for tag, size in blocks for i in range(size))
    return labels + {"G1": (), "G2": ("w",), "G3": ("v", "w")}[spec.family]


def build_family(spec: FamilySpec) -> Graph:
    """Construct the family graph in canonical vertex order.

    The adjacency rows are filled directly: each clique vertex gets the
    whole block X less itself in one mask, and every other edge goes
    through ``join``.  The rows then pass ``Graph``'s own validation.
    """
    a, b, c, d, e = spec.a, spec.b, spec.c, spec.d, spec.e
    n = spec.vertex_count()
    rows = [0] * n

    def join(u: int, v: int) -> None:
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    # block X: clique on 2a vertices (all families)
    for i in range(2 * a):
        rows[i] = ((1 << 2 * a) - 1) ^ 1 << i
    y0 = 2 * a

    if spec.family in ("G1", "G2"):
        # block Y: pendant y_i on x_i
        for i in range(2 * b):
            join(i, y0 + i)
        # block Z: pendants on the last clique vertex
        z0 = y0 + 2 * b
        for i in range(c):
            join(2 * a - 1, z0 + i)
        if spec.family == "G1":
            return Graph(n, tuple(rows))
        # block U: perfect matching u_i -- u_{d+i}
        u0 = z0 + c
        for i in range(d):
            join(u0 + i, u0 + d + i)
        # block U': pendant u'_i on every u_i
        up0 = u0 + 2 * d
        for i in range(2 * d):
            join(u0 + i, up0 + i)
        # block V: perfect matching v_i -- v_{e+i}
        v0 = up0 + 2 * d
        for i in range(e):
            join(v0 + i, v0 + e + i)
        # apex w joined to X, U and V
        w = v0 + 2 * e
        for i in [*range(2 * a), *range(u0, up0), *range(v0, w)]:
            join(i, w)
        return Graph(n, tuple(rows))

    # G3.  Block Y: b disjoint edges y_i -- y_{b+i}.
    for i in range(b):
        join(y0 + i, y0 + b + i)
    z0 = y0 + 2 * b
    v = z0 + c
    w = v + 1
    # block Z: star leaves around v
    for i in range(c):
        join(v, z0 + i)
    # apex w joined to X, Y and v (X and Y are the first 2a + 2b vertices)
    for i in [*range(z0), v]:
        join(i, w)
    return Graph(n, tuple(rows))

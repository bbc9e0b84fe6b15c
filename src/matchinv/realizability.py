"""Which (ind, min, match) triples occur on connected n-vertex graphs.

A triple (p, q, r) with target order ind <= min <= match is realizable on
some connected graph with n vertices exactly when

    1 <= p <= q <= r <= 2q  and  r <= floor(n / 2),

except that for even n the corner q = r = n/2 only admits p = 1 (the only
connected graphs with min match n/2 are the complete and the balanced
complete bipartite graph, and both have induced matching number 1).

``synthesize_witness`` builds an explicit witness from the three families
by one of four closed-form parameter maps and re-checks it with the exact
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .families import FamilySpec, build_family, predict_invariants
from .graph import MAX_VERTICES, Graph, graph6_encode
from .matching import InvariantTriple, invariant_triple

# Closed set of infeasibility reasons, in first-violated-constraint order.
REASONS = (
    "P_BELOW_1",
    "CHAIN_P_GT_Q",
    "CHAIN_Q_GT_R",
    "R_GT_2Q",
    "R_GT_HALF_N",
    "AV_EXCLUSION",
)


class TupleQuery(NamedTuple):
    """A candidate (ind, min, match) = (p, q, r) value on n vertices."""

    p: int
    q: int
    r: int
    n: int


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"vertex count must be at least 2, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")


def is_feasible(query: TupleQuery) -> tuple[bool, str | None]:
    """Feasibility of the triple plus the first violated constraint, if any,
    as its entry of ``REASONS``."""
    p, q, r, n = query
    _check_n(n)
    if p < 1:
        return False, REASONS[0]
    if p > q:
        return False, REASONS[1]
    if q > r:
        return False, REASONS[2]
    if r > 2 * q:
        return False, REASONS[3]
    if r > n // 2:
        return False, REASONS[4]
    if n % 2 == 0 and p >= 2 and q == r == n // 2:
        return False, REASONS[5]
    return True, None


def feasible_set(n: int) -> set[tuple[int, int, int]]:
    """All feasible (p, q, r) for the given vertex count (2 <= n <= 64).

    The set grows as about n^3 / 48, so it stops at the graph cap.
    """
    _check_n(n)
    out = set()
    half = n // 2
    for q in range(1, half + 1):
        for r in range(q, min(2 * q, half) + 1):
            for p in range(1, q + 1):
                if n % 2 == 0 and p >= 2 and q == r == half:
                    continue
                out.add((p, q, r))
    return out


def witness_spec(query: TupleQuery) -> FamilySpec:
    """Family parameters realizing a feasible query (no graph built).

    Four cases; the p = 1 branch takes precedence even when q = r.
    """
    ok, reason = is_feasible(query)
    if not ok:
        raise ValueError(f"query {tuple(query)} is infeasible ({reason})")
    p, q, r, n = query
    if p == 1:
        k = r - q
        return FamilySpec("G1", q, k, n - 2 * (q + k))
    if p + q - r <= 0:
        return FamilySpec("G2", q - p + 1, r - p - q, n - 2 * r + 1, p - 1, 0)
    if q < r:
        return FamilySpec("G2", q - p + 1, 0, n - 2 * r + 1, r - q - 1, p + q - r)
    return FamilySpec("G3", q - p + 1, p - 2, n - 2 * q)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a witness request, JSON-serializable."""

    query: TupleQuery
    feasible: bool
    reason: str | None = None
    spec: FamilySpec | None = None
    graph: Graph | None = None
    verified: InvariantTriple | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "query": {"p": self.query.p, "q": self.query.q,
                      "r": self.query.r, "n": self.query.n},
            "feasible": self.feasible,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.spec is not None:
            out["family"] = self.spec.family
            out["params"] = list(self.spec.params())
        if self.graph is not None:
            out["graph6"] = graph6_encode(self.graph)
        if self.verified is not None:
            out["verified"] = {"ind": self.verified.ind_match,
                               "min": self.verified.min_match,
                               "match": self.verified.match}
        return out


def synthesize_witness(query: TupleQuery) -> WitnessReport:
    """Build and verify a witness graph for the query, if one exists.

    For feasible queries the family graph is constructed and the exact
    solvers must reproduce (p, q, r); a mismatch raises, since it would
    mean a bug in either the builders or the solvers.
    """
    ok, reason = is_feasible(query)
    if not ok:
        return WitnessReport(query=query, feasible=False, reason=reason)
    spec = witness_spec(query)
    size, predicted = predict_invariants(spec)
    if size != query.n:
        raise RuntimeError(
            f"internal error: {spec} has {size} vertices, wanted {query.n}")
    graph = build_family(spec)
    verified = invariant_triple(graph)
    if verified != (query.p, query.q, query.r) or verified != predicted:
        raise RuntimeError(
            f"internal error: witness {spec} for {tuple(query)} "
            f"measured {tuple(verified)}")
    return WitnessReport(query=query, feasible=True, spec=spec,
                         graph=graph, verified=verified)

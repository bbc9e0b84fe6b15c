"""Tests for graph construction, operations, encodings, and predicates."""

import json
import random
from pathlib import Path

import pytest

import oracles
from matchinv import (
    Graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    is_chordal,
    is_connected,
    path_graph,
    to_dot,
)
from matchinv.graph import _component
from oracles import (all_graphs, complete_bipartite_graph, complete_graph, cycle_graph,
                     disjoint_union, star_graph)


def test_from_edge_list_basic():
    G = from_edge_list(4, [(0, 1), (2, 1), (1, 2)])
    assert G.n == 4
    assert G.edges() == [(0, 1), (1, 2)]
    assert G.edge_count == 2
    assert G.adj[1].bit_count() == 2
    assert G.adj[3].bit_count() == 0
    assert G.adj[1] == 0b101


def test_from_edge_list_errors():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(2, [(-1, 0)])
    with pytest.raises(ValueError):
        from_edge_list(-1, [])
    with pytest.raises(ValueError):
        from_edge_list(65, [])


def test_graph_validation():
    # adjacency must be symmetric and loop-free
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b01), labels=("a",))
    # the top bits of a 64-vertex graph: the back edge 63 -> 0 is missing,
    # a loop at 63, and a row that mentions vertex 64
    rows = list(complete_graph(64).adj)
    Graph(64, tuple(rows))
    with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 63"):
        Graph(64, (rows[0], *rows[1:63], rows[63] ^ 1))
    with pytest.raises(ValueError, match="loop edge at vertex 63"):
        Graph(64, (*rows[:63], rows[63] | 1 << 63))
    with pytest.raises(ValueError, match="adjacency row 5 mentions out-of-range"):
        Graph(64, (*rows[:5], rows[5] | 1 << 64, *rows[6:]))


def construction_error(n, adj):
    """The text of the ValueError ``Graph(n, adj)`` raises, or None."""
    try:
        Graph(n, adj)
    except ValueError as err:
        return str(err)
    return None


def test_validation_matches_the_edge_by_edge_reference():
    # each single-bit flip of a valid graph, out-of-range bit n included,
    # is one fault, so the packed check names the reference's; flipping
    # both bits of a pair leaves a valid graph
    rng = random.Random(41)
    for n in range(1, 65):
        for density in (0.1, 0.5, 0.95):
            adj = oracles.random_graph(rng, n, density).adj
            assert construction_error(n, adj) is None
            for _ in range(12):
                v, u = rng.randrange(n), rng.randrange(n + 1)
                rows = list(adj)
                rows[v] ^= 1 << u
                flipped = tuple(rows)
                assert construction_error(n, flipped) == oracles.adjacency_error(n, flipped)
                assert construction_error(n, flipped) is not None
                if u < n and u != v:
                    rows[u] ^= 1 << v
                    assert construction_error(n, tuple(rows)) is None
                    assert oracles.adjacency_error(n, tuple(rows)) is None


def test_standard_constructors():
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert path_graph(1).edge_count == 0
    with pytest.raises(ValueError):
        path_graph(0)


def test_connectivity():
    assert is_connected(path_graph(4))
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
    assert is_connected(complete_graph(1))
    assert is_connected(from_edge_list(0, []))
    assert not is_connected(from_edge_list(2, []))
    for n in range(6):
        for G in all_graphs(n):
            assert is_connected(G) == oracles.connected(G)
    # one 64-vertex path, then the same vertices as two 32-vertex paths
    assert is_connected(path_graph(64))
    assert not is_connected(disjoint_union(path_graph(32), path_graph(32)))


def test_component_of_induced_subgraphs():
    # the solvers search G[mask] for a proper sub-mask, whose edges to the
    # vertices outside it must not count
    for n in range(6):
        for G in all_graphs(n):
            for mask in range(1, 1 << n):
                inside = from_edge_list(n, [(u, v) for u, v in G.edges()
                                            if mask >> u & mask >> v & 1])
                low = (mask & -mask).bit_length() - 1
                assert _component(G.adj, mask) == oracles.component(inside, low), (G, mask)


def test_chordal_examples():
    assert is_chordal(complete_graph(5))
    assert is_chordal(path_graph(6))
    assert is_chordal(star_graph(4))
    assert is_chordal(from_edge_list(0, []))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(5))
    assert not is_chordal(complete_bipartite_graph(2, 3))
    # C4 plus one chord is chordal
    assert is_chordal(from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3),
                                         (0, 2)]))


def test_chordal_exhaustive_small():
    for n in range(6):
        for G in all_graphs(n):
            assert is_chordal(G) == oracles.chordal(G)


def test_chordal_random():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(6, 7)
        G = oracles.random_graph(rng, n)
        assert is_chordal(G) == oracles.chordal(G)


def test_graph6_known_strings():
    assert graph6_encode(path_graph(2)) == "A_"
    assert graph6_encode(complete_graph(1)) == "@"
    assert graph6_encode(from_edge_list(0, [])) == "?"
    # the long header; 1,953 bits at n = 63 end in the padded 111000, 'w'
    assert graph6_encode(complete_graph(63)) == "~??~" + "~" * 325 + "w"
    assert graph6_encode(complete_graph(64)) == "~?@?" + "~" * 336
    assert graph6_decode("A_").edges() == [(0, 1)]
    assert graph6_decode("@").n == 1
    assert graph6_decode("?").n == 0
    assert graph6_decode("DQc").n == 5


def test_graph6_encode_matches_the_column_reference():
    rng = random.Random(43)
    for n in range(65):
        for density in (0.0, 0.2, 0.5, 1.0):
            G = oracles.random_graph(rng, n, density)
            text = graph6_encode(G)
            assert text == oracles.graph6_by_columns(G)
            assert text.startswith("~") == (n >= 63)


def test_graph6_round_trip_exhaustive():
    for n in range(6):
        for G in all_graphs(n):
            H = graph6_decode(graph6_encode(G))
            assert H.n == G.n and H.adj == G.adj


def test_graph6_round_trip_random():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(6, 12)
        G = oracles.random_graph(rng, n)
        H = graph6_decode(graph6_encode(G))
        assert H.adj == G.adj


def test_graph6_long_header():
    # 63 and 64 vertices need the extended length header
    for n in (63, 64):
        rng = random.Random(n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.1]
        G = from_edge_list(n, edges)
        s = graph6_encode(G)
        assert s.startswith("~")
        H = graph6_decode(s)
        assert H.n == n and H.adj == G.adj


def test_graph6_malformed():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("A")          # truncated body
    with pytest.raises(ValueError):
        graph6_decode("A_?")        # trailing junk
    with pytest.raises(ValueError):
        graph6_decode("A" + chr(30))  # char below printable range
    with pytest.raises(ValueError):
        graph6_decode("~")          # truncated extended header
    with pytest.raises(ValueError):
        graph6_decode("AB")         # nonzero padding bits for n=2
    with pytest.raises(ValueError):
        graph6_decode("~~?@?")      # width beyond the supported cap


def test_graph6_decode_is_strict_for_every_size():
    for n in range(65):
        empty = graph6_encode(Graph(n, (0,) * n))
        head, body = (empty[:4], empty[4:]) if n > 62 else (empty[:1], empty[1:])
        if body:  # a body one character short
            with pytest.raises(ValueError, match="chars, expected"):
                graph6_decode(head + body[:-1])
        with pytest.raises(ValueError, match="chars, expected"):
            graph6_decode(empty + "?")  # one character long
        # the last character's low bits pad the C(n, 2) pair bits to a
        # multiple of 6, and the graph is edgeless, so that character is
        # 63 plus the one padding bit set
        for bit in range(-(n * (n - 1) // 2) % 6):
            with pytest.raises(ValueError, match="padding"):
                graph6_decode(empty[:-1] + chr(63 + (1 << bit)))


def test_graph6_round_trips_the_benchmark_pool():
    path = Path(__file__).resolve().parent.parent / "perfbench/fixtures/invariants.jsonl"
    for line in path.read_text().splitlines():
        text = json.loads(line)["graph6"]
        assert graph6_encode(graph6_decode(text)) == text


def test_to_dot():
    G = Graph(3, (0b10, 0b01, 0), ("a", "b", "c"))
    assert to_dot(G) == ('graph G {\n  0 [label="a"];\n  1 [label="b"];\n'
                         '  2 [label="c"];\n  0 -- 1;\n}\n')
    assert to_dot(path_graph(2)) == "graph G {\n  0;\n  1;\n  0 -- 1;\n}\n"

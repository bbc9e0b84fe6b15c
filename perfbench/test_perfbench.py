"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from common import (CELL_KEYS, CYCLE, DEADLINE_S, DENSITIES, FAMILIES, INVARIANT_NS,
                    PER_CELL, POOL_PER_CELL, SRC, WITNESS_NS, encode_graph6, family_of,
                    feasible_tuples, gnp_edges, load_pool, round_inputs,
                    run_with_deadline, slow_counts)

sys.path.insert(0, str(SRC))

import matchinv  # noqa: E402
from worker import run_ops  # noqa: E402


def _keys(workload: str, seed: int, round_no: int = 0) -> str:
    """The round's inputs as the program receives them, one per line."""
    pool = load_pool(workload)
    entries = round_inputs(workload, pool, seed, round_no)
    if workload == "witness":
        return "\n".join(f"{e['p']} {e['q']} {e['r']} {e['n']}" for e in entries)
    return "\n".join(e["graph6"] for e in entries)


@pytest.mark.parametrize("workload", ["witness", "invariants"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _keys(workload, 11)
    assert first == _keys(workload, 11)
    assert first != _keys(workload, 12)
    assert first != _keys(workload, 11, round_no=1)


def _cell(workload: str, entry: dict) -> tuple:
    return tuple(entry[k] for k in CELL_KEYS[workload])


def _fast_ranks(workload: str, pool: list[dict], key: tuple) -> dict[str, int]:
    """Rank of each fast entry of a cell by the baseline code's time."""
    ordered = sorted((e for e in pool if _cell(workload, e) == key and e["class"] == "fast"),
                     key=lambda e: (e["seed_s"], e["graph6"]))
    return {e["graph6"]: i for i, e in enumerate(ordered)}


@pytest.mark.parametrize("workload", ["witness", "invariants"])
def test_every_round_draws_each_cell_at_its_slow_share(workload):
    pool = load_pool(workload)
    per = PER_CELL[workload]
    counts = slow_counts(workload, pool)
    shares = {}
    for e in pool:
        shares.setdefault(_cell(workload, e), []).append(e["class"] == "slow")
    assert set(counts) == set(shares)
    quota = {key: per * sum(s) / len(s) for key, s in shares.items()}
    assert sum(counts.values()) == round(sum(quota.values()))
    assert all(abs(counts[key] - quota[key]) < 1 for key in quota)
    for seed in range(3):
        for round_no in (0, CYCLE[workload] + 1):
            picked = round_inputs(workload, pool, seed, round_no)
            for key, n_slow in counts.items():
                mine = [e for e in picked if _cell(workload, e) == key]
                assert len(mine) == per
                assert sum(e["class"] == "slow" for e in mine) == n_slow


@pytest.mark.parametrize("workload", ["witness", "invariants"])
def test_a_cycle_draws_one_fast_entry_from_each_cost_stratum(workload):
    pool = load_pool(workload)
    cycle = CYCLE[workload]
    for seed in range(3):
        rounds = [round_inputs(workload, pool, seed, cycle + pos) for pos in range(cycle)]
        for key, n_slow in slow_counts(workload, pool).items():
            rank = _fast_ranks(workload, pool, key)
            m, k = len(rank), PER_CELL[workload] - n_slow
            strata = k * cycle
            drawn = []
            for picked in rounds:
                mine = sorted(rank[e["graph6"]] for e in picked
                              if _cell(workload, e) == key and e["class"] == "fast")
                # one from each of the k cost ranges, each `cycle` strata wide
                for i, r in enumerate(mine):
                    assert i * cycle * m // strata <= r and r * strata < (i + 1) * cycle * m
                drawn += mine
            for j, r in enumerate(sorted(drawn)):
                assert j * m // strata <= r and r * strata < (j + 1) * m


def test_witness_pool_is_a_seeded_sample_of_each_cell():
    by_cell: dict[tuple, list] = {}
    for e in load_pool("witness"):
        by_cell.setdefault((e["n"], e["family"]), []).append((e["p"], e["q"], e["r"]))
    for n in WITNESS_NS:
        for fam in FAMILIES:
            cell = [t for t in feasible_tuples(n) if family_of(*t) == fam]
            random.Random(f"pool:witness:{n}:{fam}").shuffle(cell)
            sample = cell[:POOL_PER_CELL["witness"]]
            kept = by_cell[(n, fam)]
            # in order, with only the in-between entries left out
            assert kept == [t for t in sample if t in kept]


def test_invariants_pool_is_the_seeded_gnp_stream():
    by_cell: dict[tuple, list] = {}
    for e in load_pool("invariants"):
        by_cell.setdefault((e["n"], e["density"]), []).append(e["graph6"])
    for n in INVARIANT_NS:
        for density in DENSITIES:
            rng = random.Random(f"pool:invariants:{n}:{density}")
            stream = [encode_graph6(n, gnp_edges(rng, n, density))
                      for _ in range(POOL_PER_CELL["invariants"])]
            kept = by_cell[(n, density)]
            assert kept == [g6 for g6 in stream if g6 in kept]


def test_pools_hold_only_fast_and_slow_entries():
    for workload in ("witness", "invariants"):
        assert {e["class"] for e in load_pool(workload)} <= {"fast", "slow"}


def test_own_graph6_encoder_matches_the_package():
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 13, 40, 62):
        edges = gnp_edges(rng, n, 0.4)
        assert encode_graph6(n, edges) == matchinv.graph6_encode(
            matchinv.from_edge_list(n, edges))


def test_closed_form_universe_matches_the_package():
    for n in WITNESS_NS[:3]:
        assert feasible_tuples(n) == sorted(matchinv.feasible_set(n))
        for p, q, r in feasible_tuples(n):
            spec = matchinv.witness_spec(matchinv.TupleQuery(p, q, r, n))
            assert family_of(p, q, r) == spec.family


def test_deadline_interrupts_a_slow_call_and_the_next_runs():
    slow = next(e for e in load_pool("witness") if e["class"] == "slow")
    G = matchinv.build_family(matchinv.witness_spec(
        matchinv.TupleQuery(slow["p"], slow["q"], slow["r"], slow["n"])))
    t0 = time.perf_counter()
    out, seconds, hit = run_with_deadline(lambda: matchinv.min_match_number(G), 0.05)
    assert hit and out is None and seconds == 0.05
    assert time.perf_counter() - t0 < 1.0
    out, seconds, hit = run_with_deadline(
        lambda: matchinv.min_match_number(matchinv.path_graph(5)), 0.5)
    assert (out, hit) == (2, False) and seconds < 0.5


def test_a_timed_out_operation_is_counted_and_the_next_is_checked():
    pool = load_pool("witness")
    slow = next(e for e in pool if e["class"] == "slow")
    fast = min((e for e in pool if e["class"] == "fast"), key=lambda e: e["seed_s"])
    out = run_ops(matchinv, "witness", [slow, fast], deadline=0.05)
    assert (out["attempted"], out["completed"], out["timed_out"], out["wrong"]) == (2, 1, 1, 0)
    # only the fast entry has a latency; the slow one costs the deadline
    assert len(out["latencies"]) == 1 and out["latencies"][0] < 0.05
    assert out["busy_s"] == pytest.approx(0.05 + out["latencies"][0])


def test_a_wrong_output_is_counted():
    fast = dict(next(e for e in load_pool("invariants") if e["class"] == "fast"))
    fast["match"] += 1
    out = run_ops(matchinv, "invariants", [fast])
    assert (out["completed"], out["timed_out"], out["wrong"]) == (0, 0, 1)
    assert out["latencies"] == [DEADLINE_S]

"""Command line front end.

Subcommands:

  construct   build a family graph from its parameters
  invariants  exact matching invariants of graph6 inputs
  witness     realizability decision plus witness for one (p, q, r, n)
  feasible    the full feasible triple set for one n
  verify      exhaustive / sampled verification checks
  reg         edge-ideal regularity of graph6 inputs

Exit codes: 0 on success, 1 when a verification check fails or a
requested tuple is infeasible, 2 on usage errors.  Output is JSON on
stdout (one object per input line where applicable); ``--pretty`` prints
small tables instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from functools import partial
from typing import Iterable

from .families import (FamilySpec, block_labels, build_family, parse_family_spec,
                       predict_invariants)
from .graph import Graph, graph6_decode, graph6_encode, is_connected, to_dot
from .matching import invariant_triple
from .realizability import TupleQuery, feasible_set, synthesize_witness
from .regularity import regularity


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _graph_output(G: Graph, spec: FamilySpec, fmt: str,
                  extra: dict | None = None) -> None:
    if fmt == "graph6":
        print(graph6_encode(G))
    elif fmt == "dot":
        sys.stdout.write(to_dot(G, block_labels(spec)))
    else:
        out = dict(extra or {})
        out["graph6"] = graph6_encode(G)
        _print_json(out)


def _input_graphs(args: argparse.Namespace) -> Iterable[Graph]:
    lines = args.graph6 if args.graph6 else sys.stdin
    for line in lines:
        line = line.strip()
        if line:
            yield graph6_decode(line)


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = parse_family_spec(args.family if args.params is None
                             else f"{args.family}({args.params})")
    G = build_family(spec)
    size, predicted = predict_invariants(spec)
    _graph_output(G, spec, args.format, {
        "family": spec.family,
        "params": list(spec.params()),
        "n": size,
        "edge_count": G.edge_count,
        "labels": list(block_labels(spec)),
        "predicted": {"ind": predicted.ind_match, "min": predicted.min_match,
                      "match": predicted.match},
    })
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    for G in _input_graphs(args):
        t = invariant_triple(G)
        row = {"n": G.n, "ind": t.ind_match, "min": t.min_match,
               "match": t.match, "connected": is_connected(G)}
        if args.reg:
            row["reg"] = regularity(G).reg
        if args.pretty:
            cols = "  ".join(f"{k}={v}" for k, v in row.items())
            print(cols)
        else:
            _print_json(row)
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    report = synthesize_witness(TupleQuery(args.p, args.q, args.r, args.n))
    if args.format in ("graph6", "dot") and report.graph is not None:
        _graph_output(report.graph, report.spec, args.format)
    else:
        _print_json(report.to_json_dict())
    return 0 if report.feasible else 1


def _cmd_feasible(args: argparse.Namespace) -> int:
    triples = sorted(feasible_set(args.n))
    if args.pretty:
        for p, q, r in triples:
            print(f"({p}, {q}, {r})")
        print(f"total {len(triples)}")
    else:
        _print_json({"n": args.n, "count": len(triples),
                     "tuples": [list(t) for t in triples]})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here because it loads numpy, which no other command needs
    from .verifier import (VerificationReport, verify_av,
                           verify_first_main_sampled, verify_lemma_suite,
                           verify_theorem_first_main, verify_theorem_second_main)
    cap = {"first-main": 9, "av": 6, "lemmas": 7, "second-main": 9}[args.check]
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    if args.n_max > cap:
        raise ValueError(f"the {args.check} check is capped at {cap}")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    samples = args.check == "lemmas" or (args.check == "first-main" and args.n_max > 7)
    if (args.sample is not None or args.seed is not None) and not samples:
        raise ValueError("--sample and --seed are used only by lemmas and by "
                         "first-main above 7 vertices")
    if args.sample is not None and args.sample < 1:
        raise ValueError("--sample must be at least 1")
    if args.check == "first-main" and args.n_max > 7 and args.sample is None:
        raise ValueError("n above 7 needs --sample (exhaustive scan "
                         "is capped at 7 vertices)")
    seed = args.seed or 0
    # opened before any check runs, so a bad path fails at once
    with (open(args.failures_out, "w") if args.failures_out
          else contextlib.nullcontext()) as fh:
        if args.check == "first-main":
            checks = [partial(verify_theorem_first_main, n)
                      for n in range(2, min(args.n_max, 7) + 1)]
            checks += [partial(verify_first_main_sampled, n, args.sample, seed)
                       for n in range(8, args.n_max + 1)]
        elif args.check == "av":
            checks = [partial(verify_av, n) for n in range(2, args.n_max + 1, 2)]
        elif args.check == "lemmas":
            checks = [partial(verify_lemma_suite, args.n_max,
                              samples=args.sample or 10000, seed=seed)]
        else:  # second-main
            checks = [partial(verify_theorem_second_main, args.n_max)]
        # every check runs before any report prints; each is timed here,
        # since the checks do not time themselves
        runs: list[tuple[VerificationReport, float]] = []
        for check in checks:
            t0 = time.perf_counter()
            runs.append((check(), time.perf_counter() - t0))
        for report, seconds in runs:
            print(report.to_json(elapsed=seconds if args.timing else None))
            for rec in report.failures:
                if fh and rec.graph6:
                    fh.write(rec.graph6 + "\n")
    return 0 if all(report.passed for report, _ in runs) else 1


def _cmd_reg(args: argparse.Namespace) -> int:
    for G in _input_graphs(args):
        _print_json(regularity(G).to_json_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchinv",
        description="Exact matching invariants, witness families, "
                    "realizability and edge-ideal regularity of small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family graph")
    p.add_argument("family",
                   help="family tag G1|G2|G3, or full spec like 'G2(2,0,1,0,1)'")
    p.add_argument("--params", help="comma-separated parameters, e.g. 2,0,1,0,1")
    p.add_argument("--format", choices=("json", "graph6", "dot"), default="json")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("invariants", help="matching invariants of graph6 inputs")
    p.add_argument("graph6", nargs="*", help="graph6 strings (default: stdin lines)")
    p.add_argument("--reg", action="store_true",
                   help="also compute regularity (n <= 12)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("witness", help="decide one (p, q, r, n) and build a witness")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "graph6", "dot"), default="json")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("feasible", help="feasible triple set for one n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser("verify", help="run a verification check")
    p.add_argument("--check", required=True,
                   choices=("first-main", "av", "lemmas", "second-main"))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and changes nothing: the "
                        "labeled scan runs in one process (at least 1)")
    p.add_argument("--sample", type=int,
                   help="sample count: lemmas, and first-main above 7 vertices")
    p.add_argument("--seed", type=int,
                   help="sampling seed (default 0): lemmas, and first-main "
                        "above 7 vertices")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed seconds in the report")
    p.add_argument("--failures-out",
                   help="write failing graphs as graph6 lines to this path")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reg", help="edge-ideal regularity of graph6 inputs")
    p.add_argument("graph6", nargs="*", help="graph6 strings (default: stdin lines)")
    p.set_defaults(fn=_cmd_reg)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

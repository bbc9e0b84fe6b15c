"""Exact matching invariants of small simple graphs.

Core objects: immutable bitset :class:`Graph`, exact solvers for the
three matching invariants, three parameterized witness families, the
closed-form realizability test with witness synthesis, edge-ideal
regularity at desk scale, and exhaustive small-n verifiers.
"""

from .graph import (Graph, from_edge_list, graph6_decode, graph6_encode,
                    is_chordal, is_connected, path_graph, to_dot)
from .matching import (InvariantTriple, ind_match_number, invariant_triple,
                       match_number, min_match_number)
from .families import (FAMILY_NAMES, FamilySpec, block_labels, build_family,
                       parse_family_spec, predict_invariants)
from .realizability import (REASONS, TupleQuery, WitnessReport, feasible_set,
                            is_feasible, synthesize_witness, witness_spec)
from .regularity import RegularityResult, reduced_homology_ranks, regularity

__version__ = "0.1.0"

# the verifiers import numpy, which no other command needs, so they load on
# first use
_VERIFIER_NAMES = ("ScanResult", "VerificationReport", "connected_graph_count",
                   "enumerate_connected", "scan_invariants", "verify_av",
                   "verify_first_main_sampled", "verify_lemma_suite",
                   "verify_theorem_first_main", "verify_theorem_second_main")


def __getattr__(name: str):
    if name in _VERIFIER_NAMES:
        from . import verifier
        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

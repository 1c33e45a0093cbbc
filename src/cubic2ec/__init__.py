"""Exact uniform-7/9 certificates and 2EC oracles for cubic 3EC graphs."""

from .canon import canonical_form
from .combine import (
    Certificate,
    Certifier,
    ConvexCombination,
    Subgraph,
    TARGET,
    VerificationReport,
    average,
    base_case_combination,
    certificate_from_json,
    certificate_to_json,
    certify,
    combination,
    edge_occurrences,
    glue,
    lift,
    min_support_subgraph,
    pad_to_uniform,
    support_bound,
    verify_certificate,
)
from .connectivity import (
    Cut,
    Lemma3Report,
    SafePairDecision,
    edge_connectivity,
    enumerate_cuts,
    essential_4cut_with_pair,
    find_essential_3cut,
    find_safe_pair,
    is_2ec,
    is_essentially_4ec,
    make_cut,
    verify_lemma3,
)
from .errors import (
    GraphFormatError,
    InvariantViolation,
    Lemma3Violation,
    StructuralViolation,
)
from .graphs import (
    Graph,
    Reduction,
    builtin,
    contract_shore,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    remove_edges_and_smooth,
    to_graph6,
)
from .oracle import GapReport, LpSolution, exact_opt, integrality_gap, lp_bound

__version__ = "0.1.0"

"""Exact uniform-7/9 certificates and 2EC oracles for cubic 3EC graphs."""

from . import exact_lp  # perfbench's tracer needs it loaded; no module imports it
from .canon import canonical_form
from .certificate import (
    Certificate,
    ConvexCombination,
    Subgraph,
    TARGET,
    VerificationReport,
    certificate_from_json,
    certificate_to_json,
    min_support_subgraph,
    support_bound,
    verify_certificate,
)
from .combine import (
    Certifier,
    average,
    base_case_combination,
    certify,
    combination,
    edge_occurrences,
    glue,
    lift,
    pad_to_uniform,
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

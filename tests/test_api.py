"""The package's public names, pinned: adding or removing an export is a
change to this list."""

import types

import cubic2ec

PUBLIC = [
    "Certificate",
    "Certifier",
    "ConvexCombination",
    "Cut",
    "GapReport",
    "Graph",
    "GraphFormatError",
    "InvariantViolation",
    "Lemma3Report",
    "Lemma3Violation",
    "LpSolution",
    "Reduction",
    "SafePairDecision",
    "StructuralViolation",
    "Subgraph",
    "TARGET",
    "VerificationReport",
    "average",
    "base_case_combination",
    "builtin",
    "canonical_form",
    "certificate_from_json",
    "certificate_to_json",
    "certify",
    "combination",
    "contract_shore",
    "edge_connectivity",
    "edge_occurrences",
    "enumerate_cuts",
    "essential_4cut_with_pair",
    "exact_opt",
    "find_essential_3cut",
    "find_safe_pair",
    "format_edge_list",
    "glue",
    "integrality_gap",
    "is_2ec",
    "is_essentially_4ec",
    "lift",
    "lp_bound",
    "make_cut",
    "min_support_subgraph",
    "pad_to_uniform",
    "parse_edge_list",
    "parse_graph6",
    "remove_edges_and_smooth",
    "support_bound",
    "to_graph6",
    "verify_certificate",
    "verify_lemma3",
]


def test_public_names_are_pinned():
    """Every attribute of ``cubic2ec`` that is neither a submodule nor
    starts with ``_``."""
    names = sorted(
        name
        for name, value in vars(cubic2ec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC

import dataclasses
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from support import (
    maxflow_edge_connectivity,
    natural_mask,
    pattern_weights_at_vertex,
    piecewise_pivot_occurrences,
    reference_is_2ec,
    reference_is_essentially_4ec,
    reference_pivot,
    reference_small_cubic_graphs,
    reference_two_ec_spanning_subgraphs,
)
from test_differential import generalized_petersen
from test_oracle import TWO_K4_MINUS_EDGE

from cubic2ec import (
    Certifier,
    ConvexCombination,
    Certificate,
    Graph,
    TARGET,
    average,
    base_case_combination,
    builtin,
    certificate_from_json,
    certificate_to_json,
    certify,
    combination,
    contract_shore,
    edge_occurrences,
    find_essential_3cut,
    glue,
    lift,
    min_support_subgraph,
    pad_to_uniform,
    remove_edges_and_smooth,
    support_bound,
    to_graph6,
    verify_certificate,
)
from cubic2ec import (
    InvariantViolation,
    canon,
    canonical_form,
    certificate,
    combine,
    connectivity,
    masked,
    parse_graph6,
)
from cubic2ec.cli import main

F = Fraction


def k4_cycles(k4):
    ids = lambda pairs: tuple(sorted(k4.edge_id(u, v) for u, v in pairs))
    return [
        ids([(0, 1), (1, 3), (2, 3), (0, 2)]),
        ids([(0, 1), (1, 2), (2, 3), (0, 3)]),
        ids([(0, 2), (1, 2), (1, 3), (0, 3)]),
    ]


def k4_witness(k4):
    cycles = k4_cycles(k4)
    entries = [(F(2, 9), c) for c in cycles]
    entries.append((F(1, 3), tuple(range(6))))
    return combination(k4, entries)


# edge_occurrences -----------------------------------------------------------


def test_occurrences_single_full_entry(k4):
    comb = combination(k4, [(F(1), tuple(range(6)))])
    assert set(edge_occurrences(comb)) == {F(1)}


def test_occurrences_k4_hand_witness_is_uniform(k4):
    assert set(edge_occurrences(k4_witness(k4))) == {TARGET}


def test_empty_combination_rejected(k4):
    with pytest.raises(ValueError):
        combination(k4, [])
    with pytest.raises(ValueError):
        combination(k4, [(F(1, 2), tuple(range(6)))])


def test_combination_rejects_non_2ec_member(k4):
    tree = (k4.edge_id(0, 1), k4.edge_id(0, 2), k4.edge_id(0, 3))
    with pytest.raises(ValueError):
        combination(k4, [(F(1), tree)])


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_combination_rejects_non_int_edge_ids(k4, bad):
    """True would stand for edge 1 and 1.0 would merge into it."""
    with pytest.raises(ValueError, match=f"edge id {bad!r} in entry"):
        combination(k4, [(1, (0, 1, 2, 3, 4, bad))])


def _public_call(name, k4, petersen, prism, certifier):
    """(combination, call): a ConvexCombination that the public function
    ``name`` reads, and that function as a call on it."""
    if name == "lift":
        red = remove_edges_and_smooth(
            petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
        )
        return certifier.certify(red.child).combination, lambda c: lift(c, red)
    if name == "glue":
        cut = find_essential_3cut(prism)
        red1 = contract_shore(prism, cut, "inside")
        red2 = contract_shore(prism, cut, "outside")
        c2 = certifier.certify(red2.child).combination
        return (
            certifier.certify(red1.child).combination,
            lambda c: glue(c, c2, red1, red2),
        )
    calls = {
        "average": lambda c: average([(1, c)]),
        "edge_occurrences": edge_occurrences,
        "pad_to_uniform": lambda c: pad_to_uniform(c, TARGET),
    }
    return base_case_combination(k4), calls[name]


@pytest.mark.parametrize(
    "name", ["average", "lift", "glue", "edge_occurrences", "pad_to_uniform"]
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (-1, r"edge id out of range in entry \(-1, "),
        ("m", r"edge id out of range in entry \(.*\)$"),
        (True, r"edge id True in entry \(.*\) is not an int"),
        (1.0, r"edge id 1\.0 in entry \(.*\) is not an int"),
    ],
    ids=["negative", "m", "bool", "float"],
)
def test_public_functions_check_entries_as_combination_does(
    name, bad, message, k4, petersen, prism, certifier
):
    """A ConvexCombination reaches the masked form only through
    combination()'s checks.  Without them -1 becomes bit m of a mask, m a
    negative shift, True edge 1 and 1.0 a TypeError."""
    comb, call = _public_call(name, k4, petersen, prism, certifier)
    bad = comb.host.m if bad == "m" else bad
    (w, es), *rest = comb.entries
    edited = ConvexCombination(comb.host, ((w, es + (bad,)), *rest))
    with pytest.raises(ValueError, match=message):
        combination(comb.host, edited.entries)
    with pytest.raises(ValueError, match=message):
        call(edited)


@pytest.mark.parametrize(
    "name",
    ["combination", "average", "lift", "glue", "edge_occurrences", "pad_to_uniform"],
)
@pytest.mark.parametrize(
    "bad",
    [None, object(), "x", float("inf"), float("-inf"), float("nan")],
    ids=["none", "object", "str", "inf", "minus_inf", "nan"],
)
def test_public_functions_reject_unreadable_weights_by_entry(
    name, bad, k4, petersen, prism, certifier
):
    """An entry weight is read as verify_certificate reads it
    (``certificate._exact``): one that Fraction() cannot read exactly is a
    ValueError naming the entry, not a TypeError or an OverflowError."""
    if name == "combination":
        comb, call = base_case_combination(k4), None
    else:
        comb, call = _public_call(name, k4, petersen, prism, certifier)
    (_, es), *rest = comb.entries
    edited = ConvexCombination(comb.host, ((bad, es), *rest))
    message = rf"entry 0 has weight {re.escape(repr(bad))}, not a number"
    with pytest.raises(ValueError, match=message):
        combination(comb.host, edited.entries)
    if call is not None:
        with pytest.raises(ValueError, match=message):
            call(edited)


@pytest.mark.parametrize(
    "name", ["combination", "edge_occurrences", "pad_to_uniform", "verify_certificate"]
)
def test_a_bool_weight_is_not_a_number(name, k4):
    """True is not the weight 1: every reader of a weight reads it through
    ``certificate._exact``, which refuses a bool as an edge id is refused."""
    full = tuple(range(k4.m))
    bogus = ConvexCombination(k4, ((True, full),))
    if name == "verify_certificate":
        report = verify_certificate(k4, Certificate(k4, bogus, TARGET, ()))
        failed = {check.name for check in report.checks if not check.passed}
        assert {"weights_positive", "weights_sum_to_one"} <= failed
        return
    calls = {
        "combination": lambda: combination(k4, bogus.entries),
        "edge_occurrences": lambda: edge_occurrences(bogus),
        "pad_to_uniform": lambda: pad_to_uniform(bogus, TARGET),
    }
    with pytest.raises(ValueError, match="entry 0 has weight True, not a number"):
        calls[name]()
    if name == "pad_to_uniform":
        with pytest.raises(ValueError, match="target True is not a number"):
            pad_to_uniform(combination(k4, [(1, full)]), True)


def test_average_drops_a_zero_weight_entry_as_combination_does(k4):
    comb = base_case_combination(k4)
    padded = ConvexCombination(k4, comb.entries + ((F(0), tuple(range(k4.m))),))
    assert average([(1, padded)]) == combination(k4, padded.entries) == comb


def test_occurrences_invariant_under_entry_order_and_dups(k4):
    cycles = k4_cycles(k4)
    a = combination(k4, [(F(2, 9), cycles[0]), (F(2, 9), cycles[1]),
                         (F(2, 9), cycles[2]), (F(1, 3), tuple(range(6)))])
    b = combination(k4, [(F(1, 3), tuple(range(6))), (F(2, 9), cycles[2]),
                         (F(1, 9), cycles[0]), (F(1, 9), cycles[0]),
                         (F(2, 9), cycles[1])])
    assert a == b
    assert edge_occurrences(a) == edge_occurrences(b)


# base cases -----------------------------------------------------------------


def test_base_case_k4(k4):
    comb = base_case_combination(k4)
    assert set(edge_occurrences(comb)) == {TARGET}


def test_base_case_k33(k33):
    comb = base_case_combination(k33)
    assert set(edge_occurrences(comb)) == {TARGET}
    assert all(len(es) >= 6 for _, es in comb.entries)


def test_base_case_rejects_prism(prism):
    with pytest.raises(ValueError):
        base_case_combination(prism)


@pytest.mark.parametrize("key", sorted(combine._BASE_CASES))
def test_base_case_graphs_are_their_own_canonical_form(key):
    """The certifier reads the table straight on K = parse_graph6(key),
    since K's canonical form is key under the identity, and the public
    base_case_combination of K is that same table entry."""
    K = parse_graph6(key)
    assert canonical_form(K) == (key, tuple(range(K.n)))
    assert base_case_combination(K) == masked._public(combine._base_case(K, key))


def test_base_case_census_is_two():
    graphs = [
        g
        for n in (4, 6)
        for g in reference_small_cubic_graphs(n)
        if maxflow_edge_connectivity(g) >= 3 and reference_is_essentially_4ec(g)
    ]
    assert len(graphs) == 2
    assert sorted(g.n for g in graphs) == [4, 6]


def test_two_ec_spanning_subgraph_counts(k4):
    subs = reference_two_ec_spanning_subgraphs(k4)
    # 3 Hamiltonian cycles + 6 five-edge subsets + the full graph
    assert len(subs) == 10


@pytest.mark.parametrize("name", ["k4", "k33"])
def test_base_case_on_relabelings(name):
    g = builtin(name)
    perm = list(range(g.n))[::-1]
    perm[0], perm[1] = perm[1], perm[0]
    for h in (
        Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges)),
        Graph(g.n, tuple((perm[v], perm[u]) for u, v in reversed(g.edges))),
    ):
        comb = base_case_combination(h)
        assert comb.host == h
        assert len(comb.entries) == 6
        assert set(edge_occurrences(comb)) == {TARGET}
        assert all(reference_is_2ec(h, es) for _, es in comb.entries)


K4_TABLE = combine._BASE_CASES["C~"]
TAMPERED_K4 = {
    # the 4-cycle (0, 2, 3, 5) without an edge is a path
    "member": K4_TABLE[:4] + ((K4_TABLE[4][0], (0, 2, 3)),) + K4_TABLE[5:],
    # the weights no longer sum to 1
    "weight_sum": tuple((F(2, 9), es) for _, es in K4_TABLE),
    # the first two weights swap: the sum stays 1, edge 3 rises to 8/9
    "weight_uniform": (
        (K4_TABLE[1][0], K4_TABLE[0][1]),
        (K4_TABLE[0][0], K4_TABLE[1][1]),
    )
    + K4_TABLE[2:],
}


@pytest.mark.parametrize(
    "name, message",
    [
        ("member", "not a spanning 2-edge-connected"),
        ("weight_sum", "sum to 1"),
        ("weight_uniform", "occurrence other than 7/9"),
    ],
)
def test_base_case_table_is_checked_on_use(name, message, k4, monkeypatch, capsys):
    monkeypatch.setitem(combine._BASE_CASES, "C~", TAMPERED_K4[name])
    with pytest.raises(InvariantViolation, match=message):
        base_case_combination(k4)
    assert main(["certify", "--graph", "k4"]) == 3
    assert "internal invariant violation" in capsys.readouterr().err


def test_build_rejects_a_child_with_a_two_edge_cut():
    g = TWO_K4_MINUS_EDGE
    assert g.is_cubic
    identity = tuple((e,) for e in range(g.m))  # the child is g, edge for edge
    with pytest.raises(InvariantViolation, match="not cubic 3-edge-connected"):
        Certifier()._pull(g, g, identity)


def reversed_labels(g):
    """g with its vertex and edge orders reversed."""
    return Graph(g.n, tuple((g.n - 1 - u, g.n - 1 - v) for u, v in reversed(g.edges)))


def test_certify_rejects_a_root_with_a_two_edge_cut():
    with pytest.raises(ValueError, match="input graph must be 3-edge-connected"):
        Certifier().certify(reversed_labels(TWO_K4_MINUS_EDGE))


def test_certify_indexes_canonical_graphs_only(petersen, prism, monkeypatch):
    seen = []
    summary = connectivity._cut_summary

    def spy(h):
        seen.append(h)
        return summary(h)

    monkeypatch.setattr(connectivity, "_cut_summary", spy)
    for g in (reversed_labels(petersen), prism):
        Certifier().certify(g)
    assert seen
    assert all(to_graph6(h) == canonical_form(h)[0] for h in seen)


def test_certificates_do_not_depend_on_what_the_certifier_has_seen(corpus, cold_e4_n16):
    seasoned = Certifier(max_n=16)
    for g in corpus:
        seasoned.certify(g)
    for g in (cold_e4_n16, generalized_petersen(8, 3)):
        fresh = certificate_to_json(Certifier(max_n=16).certify(g))
        assert certificate_to_json(seasoned.certify(g)) == fresh


def test_certifier_calls_no_public_combination_function(k4, prism, petersen, monkeypatch):
    """The certifier runs on the masked kernels alone: with every public
    combination function raising, the base case (K4), case 2 (the prism)
    and case 1 (Petersen, GP(8,3)) give the same certificates."""
    graphs = [k4, prism, petersen, generalized_petersen(8, 3)]
    want = [certificate_to_json(Certifier(max_n=16).certify(g)) for g in graphs]

    def forbidden(*args, **kwargs):
        raise AssertionError("the certifier called a public combination function")

    for name in (
        "average",
        "combination",
        "base_case_combination",
        "lift",
        "glue",
        "pad_to_uniform",
        "edge_occurrences",
    ):
        monkeypatch.setattr(combine, name, forbidden)
    assert [certificate_to_json(Certifier(max_n=16).certify(g)) for g in graphs] == want


def test_a_fresh_certifier_searches_in_full_for_its_first_graph_of_each_class(
    corpus, monkeypatch
):
    seasoned = Certifier(max_n=16)
    for g in corpus:
        seasoned.certify(g)
    searches = []  # per search: (leaves, whether it found g's class held)
    search = canon._search

    def spy_search(g, index=None):
        out = search(g, index)
        searches.append((out[2], out[3] is None))
        return out

    lookups = []  # (key, searches) per lookup, in order with placements
    lookup, carry = Certifier._canonical_form, Certifier._carried_form

    def spy_lookup(self, g):
        searches.clear()
        out = lookup(self, g)
        lookups.append((out[0], list(searches)))
        return out

    def spy_carry(self, g, tree, order):
        """A placement carried from an automorphism searches nothing and
        finds what the full search finds."""
        searches.clear()
        out = carry(self, g, tree, order)
        lookups.append((out[0], list(searches)))
        assert out == canonical_form(g)
        return out

    monkeypatch.setattr(canon, "_search", spy_search)
    monkeypatch.setattr(Certifier, "_canonical_form", spy_lookup)
    monkeypatch.setattr(Certifier, "_carried_form", spy_carry)
    fresh = Certifier(max_n=16)
    for g in [generalized_petersen(8, 3)] + corpus:
        fresh.certify(g)
    first = {}
    carried = 0
    for key, found in lookups:
        if key in first:
            assert found in ([(1, True)], [])
            carried += found == []
        else:
            [(_, hit)] = found
            assert not hit
        first.setdefault(key, found)
    assert set(first) == set(fresh._cache) >= set(seasoned._cache)
    assert len(lookups) - carried > len(first)
    assert carried > 0


# lift -----------------------------------------------------------------------


def test_lift_full_child_gives_parent_minus_removed(petersen, certifier):
    red = remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )
    child_full = combination(red.child, [(F(1), tuple(range(red.child.m)))])
    lifted = lift(child_full, red)
    assert lifted.entries == (
        (F(1), tuple(sorted(set(range(petersen.m)) - red.forced_exclude))),
    )


def test_lift_forced_edges_present_even_when_child_omits_merged(petersen):
    red = remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )
    merged = [ce for ce, path in enumerate(red.edge_provenance) if len(path) > 1]
    child = red.child
    for ce in merged:
        rest = tuple(e for e in range(child.m) if e != ce)
        from cubic2ec import is_2ec

        if not is_2ec(child, rest):
            continue
        lifted = lift(combination(child, [(F(1), rest)]), red)
        (w, es), = lifted.entries
        assert red.forced_include <= set(es)
        assert not (red.forced_exclude & set(es))


def test_lift_preserves_weight_multiset(petersen, certifier):
    red = remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )
    child_comb = certifier.certify(red.child).combination
    lifted = lift(child_comb, red)
    assert sum(w for w, _ in lifted.entries) == 1
    assert sorted(w for w, _ in child_comb.entries) == sorted(
        w for w, _ in lifted.entries
    )


# average --------------------------------------------------------------------


def test_average_idempotent_on_identical_parts(k4):
    w = k4_witness(k4)
    assert average([(F(1, 2), w), (F(1, 2), w)]) == w


def test_average_rejects_bad_weights_and_hosts(k4, k33):
    w = k4_witness(k4)
    with pytest.raises(ValueError):
        average([(F(1, 3), w), (F(1, 3), w)])
    w33 = base_case_combination(k33)
    with pytest.raises(ValueError):
        average([(F(1, 2), w), (F(1, 2), w33)])


@pytest.mark.parametrize("bad", [0.5, True, "1/2"], ids=["float", "bool", "str"])
def test_average_rejects_part_weights_other_than_int_or_fraction(k4, bad):
    w = k4_witness(k4)
    with pytest.raises(ValueError, match=f"part 1 has weight {bad!r}, not an int"):
        average([(F(1, 2), w), (bad, w)])


def test_average_rejects_a_negative_part_weight_by_name(k4):
    w = k4_witness(k4)
    with pytest.raises(ValueError, match="part 1 has negative weight -1/2"):
        average([(F(3, 2), w), (F(-1, 2), w)])


def test_average_takes_int_part_weights(k4):
    w = k4_witness(k4)
    assert average([(1, w), (0, w)]) == w


def test_average_error_messages(k4, k33):
    w, w33 = k4_witness(k4), base_case_combination(k33)
    cases = [
        ([], "average needs at least one part"),
        ([(F(1, 2), w), (0.5, w)], "part 1 has weight 0.5, not an int or a Fraction"),
        ([(F(3, 2), w), (F(-1, 2), w)], "part 1 has negative weight -1/2"),
        ([(F(1, 3), w), (F(1, 3), w)], "part weights must sum to 1 exactly (got 2/3)"),
        ([(F(1, 2), w), (F(1, 2), w33)], "all combinations must share one host graph"),
    ]
    for parts, message in cases:
        with pytest.raises(ValueError) as info:
            average(parts)
        assert str(info.value) == message


def test_masked_average_rejects_a_part_not_summing_to_its_denominator(k4):
    whole = masked._merged(k4, 1, [(1, (1 << k4.m) - 1)])
    part = dataclasses.replace(whole, den=9)
    with pytest.raises(ValueError) as info:
        masked._average(k4, [(1, part)])
    assert str(info.value) == "weights must sum to 1 exactly (got 1/9)"


# the certifier's edge masks ---------------------------------------------------


def mask_of(es, m):
    return sum(1 << (m - 1 - e) for e in es)


def assert_tuple_order(members, m):
    """Sorting masks by _tuple_order gives the order of sorted tuples."""
    masks = [mask_of(es, m) for es in members]
    by_key = sorted(masks, key=masked._tuple_order(m))
    assert [masked._edges(x, m) for x in by_key] == sorted(members)


@pytest.mark.parametrize("m", range(1, 11))
def test_tuple_order_matches_tuples_on_every_subset(m):
    members = [
        es for k in range(m + 1) for es in itertools.combinations(range(m), k)
    ]
    assert_tuple_order(members, m)


def test_tuple_order_matches_tuples_on_random_masks_at_27_edges():
    rng = random.Random(27)
    members = {
        tuple(e for e in range(27) if rng.random() < p)
        for p in (0.1, 0.5, 0.8, 0.95)
        for _ in range(500)
    }
    assert_tuple_order(sorted(members), 27)


@pytest.mark.parametrize(
    "first, second",
    [((0, 1), (0, 1, 2)), ((0, 2), (0, 1, 3)), ((0, 1, 3), (0, 2)), ((), (0,))],
    ids=["prefix", "longer-first", "shorter-first", "empty"],
)
def test_tuple_order_on_named_pairs(first, second):
    order = masked._tuple_order(8)
    want = first < second
    assert (order(mask_of(first, 8)) < order(mask_of(second, 8))) == want


def test_masked_round_trip_keeps_entries(petersen, certifier):
    comb = certifier.certify(petersen).combination
    held = masked._masked(comb)
    assert [masked._edges(x, petersen.m) for x in held.masks] == [
        es for _, es in comb.entries
    ]
    assert masked._public(held) == comb
    assert [
        connectivity.is_2ec(petersen, natural_mask(x, petersen.m))
        for x in held.masks
    ] == [True] * len(comb.entries)
    for x in held.masks:
        natural = natural_mask(x, petersen.m)
        assert natural == sum(1 << e for e in masked._edges(x, petersen.m))


# pad_to_uniform -------------------------------------------------------------


def test_pad_noop_on_uniform_input(k4):
    w = k4_witness(k4)
    assert pad_to_uniform(w, TARGET) == w


def test_pad_rejects_occurrence_above_target(k4):
    cycle = k4_cycles(k4)[0]
    comb = combination(k4, [(F(1), cycle)])
    with pytest.raises(ValueError):
        pad_to_uniform(comb, TARGET)


def test_pad_uniform_thirds_of_cycles(k4):
    comb = combination(k4, [(F(1, 3), c) for c in k4_cycles(k4)])
    assert set(edge_occurrences(comb)) == {F(2, 3)}
    out = pad_to_uniform(comb, TARGET)
    assert set(edge_occurrences(out)) == {TARGET}
    assert all(
        any(e in es for e in range(6)) for _, es in out.entries
    )


def test_pad_single_deficient_edge(k4):
    cycles = k4_cycles(k4)
    full = tuple(range(6))
    entries = [(F(2, 9), c) for c in cycles]
    entries += [(F(1, 3) - F(1, 18), full), (F(1, 18), full[1:])]
    comb = combination(k4, entries)
    occ = edge_occurrences(comb)
    assert occ[0] == TARGET - F(1, 18)
    assert all(v == TARGET for v in occ[1:])
    before = len(comb.entries)
    out = pad_to_uniform(comb, TARGET)
    assert set(edge_occurrences(out)) == {TARGET}
    assert len(out.entries) <= before + 1


def test_pad_reads_float_weights_exactly(k4):
    """Weights are split as combination() reads them: exactly, whatever
    their type, and off the normalized entries, so a float twin and a
    reordered twin with a repeated member pad as the Fraction one does."""
    cycles = k4_cycles(k4)
    members = cycles + [cycles[0]]
    fractions = ConvexCombination(k4, tuple((F(1, 4), c) for c in members))
    floats = ConvexCombination(k4, tuple((0.25, c) for c in members))
    reordered = ConvexCombination(
        k4,
        (
            (F(1, 8), tuple(reversed(cycles[0]))),
            (F(1, 4), cycles[2]),
            (F(1, 4), cycles[0]),
            (F(1, 4), cycles[1]),
            (F(1, 8), cycles[0]),
        ),
    )
    padded = pad_to_uniform(fractions, TARGET)
    assert set(edge_occurrences(padded)) == {TARGET}
    assert pad_to_uniform(floats, TARGET) == padded
    assert pad_to_uniform(reordered, TARGET) == padded


# one pivot -------------------------------------------------------------------


def test_pivot_matches_piecewise_profile(petersen, certifier):
    for uv in (0, 7, 14):
        comb, t, r = reference_pivot(petersen, uv, certifier)
        assert list(edge_occurrences(comb)) == piecewise_pivot_occurrences(
            petersen, uv
        )
        assert (t, r) == (0, 8)  # girth 5: no 4-cycles
        assert combine._case1_expectation(petersen, uv)[:2] == (t, r)


# certify --------------------------------------------------------------------


def test_certify_k4_support_meets_bound(k4):
    cert = certify(k4)
    assert len(min_support_subgraph(cert).edges) <= support_bound(4) == 4
    assert certificate_to_json(cert) == certificate_to_json(Certifier().certify(k4))


def test_certify_petersen(petersen, certifier):
    cert = certifier.certify(petersen)
    assert set(edge_occurrences(cert.combination)) == {TARGET}
    assert len(min_support_subgraph(cert).edges) <= 11
    assert cert.trace[0]["kind"] == "case1"
    assert len(cert.trace[0]["pivots"]) == 15


def test_certify_prism_uses_case2(prism, certifier):
    cert = certifier.certify(prism)
    assert cert.trace[0]["kind"] == "case2"
    assert set(edge_occurrences(cert.combination)) == {TARGET}
    child_kinds = {r["kind"] for r in cert.trace[1:]}
    assert child_kinds == {"base"}


def test_certify_rejects_bad_inputs(petersen, certifier):
    from cubic2ec import Graph

    with pytest.raises(ValueError):
        certifier.certify(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))  # not cubic
    with pytest.raises(ValueError):
        Certifier(max_n=4).certify(petersen)  # over the configured cap
    with pytest.raises(ValueError):
        Certifier(max_n=40)  # over the hard cap


def test_certificates_are_deterministic(petersen):
    a = Certifier().certify(petersen)
    b = Certifier().certify(petersen)
    assert a.combination == b.combination
    assert certificate_to_json(a) == certificate_to_json(b)


# an n = 14 corpus graph with an essential 3-cut: its children are K4 and
# an n = 12 graph of 134 entries, so gluing reads a compactable child
CASE2_N14 = "M??GXDCKIaP?c@w??"


@pytest.mark.parametrize("name", ["petersen", CASE2_N14])
def test_compacted_children_leave_their_parents_unchanged(corpus_lines, name):
    """Certifying the children as roots first compacts their certificates
    but not the cached combinations their parent is built from.  (The
    Petersen children, K4 and the prism, have 6 entries, nothing to
    compact; the n = 14 graph's n = 12 child is compacted.)"""
    if name == "petersen":
        g = builtin(name)
    else:
        assert name in corpus_lines
        g = parse_graph6(name)
    cold = Certifier()
    cert = cold.certify(g)
    children = cert.trace[0]["children"]
    warm = Certifier()
    compacted = 0
    for key in children:
        child = parse_graph6(key)
        compacted += len(warm.certify(child).combination.entries) < len(
            warm._cache[key][0].masks
        )
    assert compacted == (name == CASE2_N14)
    assert certificate_to_json(warm.certify(g)) == certificate_to_json(cert)
    for key in children:
        assert warm._cache[key][0] == cold._cache[key][0]
        assert len(warm._cache[key][0].masks) == warm._cache[key][1]["entries"]


# glue -----------------------------------------------------------------------


def test_glue_prism_from_k4_children(prism, certifier):
    cut = find_essential_3cut(prism)
    red1 = contract_shore(prism, cut, "inside")
    red2 = contract_shore(prism, cut, "outside")
    c1 = certifier.certify(red1.child).combination
    c2 = certifier.certify(red2.child).combination
    glued = glue(c1, c2, red1, red2)
    assert set(edge_occurrences(glued)) == {TARGET}


def test_glue_rejects_children_from_different_cuts(certifier):
    from cubic2ec import builtin

    prism = builtin("prism")
    cut = find_essential_3cut(prism)
    red1 = contract_shore(prism, cut, "inside")
    red2 = contract_shore(prism, cut, "inside")
    c1 = certifier.certify(red1.child).combination
    with pytest.raises(ValueError):
        glue(c1, c1, red1, red2)


def test_pattern_weights_on_certificates(petersen, prism, certifier):
    for g in (petersen, prism):
        comb = certifier.certify(g).combination
        for v in range(g.n):
            omit, full = pattern_weights_at_vertex(comb, v)
            assert set(omit.values()) == {F(2, 9)}
            assert full == F(1, 3)


# verification and serialization ----------------------------------------------


def test_verify_fresh_certificate(petersen, certifier):
    cert = certifier.certify(petersen)
    report = verify_certificate(petersen, cert)
    assert report.ok


def test_verify_flags_tampered_weight(petersen, certifier):
    cert = certifier.certify(petersen)
    w0, es0 = cert.combination.entries[0]
    tampered = ConvexCombination(
        cert.graph,
        ((w0 + F(1, 10**6), es0),) + cert.combination.entries[1:],
    )
    bad = Certificate(cert.graph, tampered, cert.target, cert.trace)
    report = verify_certificate(petersen, bad)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert "weights_sum_to_one" in failed
    assert "occurrences_uniform" in failed


def test_verify_reports_float_weights_exactly(k4):
    members = k4_cycles(k4) + [tuple(range(6))]
    comb = ConvexCombination(k4, tuple((0.25, es) for es in members))
    report = verify_certificate(k4, Certificate(k4, comb, TARGET, ()))
    checks = {c.name: c for c in report.checks}
    assert checks["weights_sum_to_one"].passed
    assert not checks["occurrences_uniform"].passed


WEIGHT_CHECKS = {"weights_positive", "weights_sum_to_one"}
ID_CHECKS = {"entries_well_formed", "members_spanning_2ec"}


@pytest.mark.parametrize(
    "tamper, failed",
    [
        (lambda w, es: (float("nan"), es), WEIGHT_CHECKS),
        (lambda w, es: (float("inf"), es), WEIGHT_CHECKS),
        (lambda w, es: (None, es), WEIGHT_CHECKS),
        (lambda w, es: ("x", es), WEIGHT_CHECKS),
        (lambda w, es: (w, ("a",) + es[1:]), ID_CHECKS),
        (lambda w, es: (w, tuple(map(float, es))), ID_CHECKS),
        (lambda w, es: (w, (True,) + es[1:]), ID_CHECKS),
    ],
    ids=["nan", "inf", "none", "string", "id-string", "id-floats", "id-bool"],
)
def test_verify_reports_unreadable_weights_and_ids(k4, tamper, failed):
    """verify_certificate reports what it cannot read instead of raising."""
    cert = certify(k4)
    entries = cert.combination.entries
    bad = ConvexCombination(k4, (tamper(*entries[0]),) + entries[1:])
    report = verify_certificate(k4, Certificate(k4, bad, cert.target, cert.trace))
    assert {c.name for c in report.checks if not c.passed} == failed


@pytest.mark.parametrize(
    "entry, failed",
    [
        (lambda w: (w,), WEIGHT_CHECKS | ID_CHECKS),
        (lambda w: (w, None), ID_CHECKS),
        (lambda w: (w, 3), ID_CHECKS),
        (lambda w: None, WEIGHT_CHECKS | ID_CHECKS),
    ],
    ids=["weight-only", "edges-none", "edges-int", "entry-none"],
)
def test_verify_reports_entries_it_cannot_unpack(k4, entry, failed):
    """An entry that is not a (weight, edges) pair, or whose edges are not
    iterable, fails the checks that read it; the checks that need valid
    ids are left out."""
    cert = certify(k4)
    entries = cert.combination.entries
    bad = ConvexCombination(k4, (entry(entries[0][0]),) + entries[1:])
    report = verify_certificate(k4, Certificate(k4, bad, cert.target, cert.trace))
    assert {c.name for c in report.checks if not c.passed} == failed
    assert [c.name for c in report.checks] == [
        "graph_match",
        "has_entries",
        "weights_positive",
        "weights_sum_to_one",
        "target_is_7_9",
        "entries_well_formed",
        "members_spanning_2ec",
    ]
    if "weights_sum_to_one" in failed:
        (check,) = [c for c in report.checks if c.name == "weights_sum_to_one"]
        assert check.detail == "a weight is not a number"


def test_verify_flags_bridge_member(k4):
    tree = (0, 1, 2)
    comb = ConvexCombination(k4, ((F(1), tree),))
    bad = Certificate(k4, comb, TARGET, ())
    report = verify_certificate(k4, bad)
    failed = {c.name for c in report.checks if not c.passed}
    assert "members_spanning_2ec" in failed


def test_verify_flags_wrong_graph(petersen, prism, certifier):
    cert = certifier.certify(prism)
    report = verify_certificate(petersen, cert)
    assert not report.ok
    assert any(c.name == "graph_match" and not c.passed for c in report.checks)


def test_certificate_json_roundtrip(petersen, certifier):
    cert = certifier.certify(petersen)
    text = certificate_to_json(cert)
    doc = json.loads(text)
    assert list(doc) == ["n", "edges", "target", "entries", "trace", "min_support_size"]
    assert doc["target"] == "7/9"
    assert all("/" in ent["weight"] for ent in doc["entries"])
    loaded = certificate_from_json(text)
    assert loaded.graph == cert.graph
    assert loaded.combination.entries == cert.combination.entries
    assert verify_certificate(petersen, loaded).ok


def test_certificate_json_keeps_a_target_other_than_7_9(petersen, certifier):
    """A certificate's target survives the JSON round trip, so one that
    fails verification for its target still fails after it."""
    cert = dataclasses.replace(certifier.certify(petersen), target=F(1, 2))
    loaded = certificate_from_json(certificate_to_json(cert))
    assert loaded.target == F(1, 2)

    def failed(c):
        checks = verify_certificate(petersen, c).checks
        return {check.name for check in checks if not check.passed}

    assert failed(cert) == {"target_is_7_9", "occurrences_uniform"}
    assert failed(loaded) == failed(cert)


@pytest.mark.parametrize("max_n", [10.5, 10.0, True, "10", None])
def test_certifier_rejects_a_max_n_that_is_not_an_int(max_n):
    """A bool is no vertex count, and 10.5 no int (``--max-n`` already
    rejects both)."""
    message = rf"max_n must be an int, not {re.escape(repr(max_n))}"
    with pytest.raises(ValueError, match=message):
        Certifier(max_n)


def test_certify_k33_support_within_bound(k33, certifier):
    cert = certifier.certify(k33)
    assert len(min_support_subgraph(cert).edges) <= support_bound(6) == 7


def test_provenance_maps_any_child_subset_cleanly(petersen):
    import random

    red = remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )
    rng = random.Random(11)
    for _ in range(50):
        child_subset = {
            ce for ce in range(red.child.m) if rng.random() < 0.5
        }
        parent = set()
        for ce in child_subset:
            path = red.edge_provenance[ce]
            assert not (set(path) & red.forced_exclude)
            parent.update(path)
        assert parent <= set(range(petersen.m)) - red.forced_exclude


def test_min_support_tie_breaks_lexicographically(k4):
    cycles = k4_cycles(k4)
    comb = combination(
        k4, [(F(1, 3), cycles[0]), (F(1, 3), cycles[1]), (F(1, 3), cycles[2])]
    )
    cert = Certificate(k4, comb, F(2, 3), ())
    assert min_support_subgraph(cert).edges == min(cycles)


def test_smallest_member_rule_holds_for_unsorted_entries(k4):
    """A parsed certificate may list entries in any order; the compaction's
    kept member and the reported one are both least by (|S|, edges)."""
    cycles = k4_cycles(k4)
    doc = json.loads(certificate_to_json(certify(k4)))
    doc["entries"] = [
        {"weight": "1/3", "edges": list(c)} for c in sorted(cycles, reverse=True)
    ]
    cert = certificate_from_json(json.dumps(doc))
    assert [es for _, es in cert.combination.entries] == sorted(cycles, reverse=True)
    assert certificate._smallest(cert.combination) == min(cycles)
    assert min_support_subgraph(cert).edges == min(cycles)

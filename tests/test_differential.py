"""The Gray-code shore walk kept as an oracle, λ from the cut index or by
augmenting paths, the cycle-space cut index against every edge
subset of at most four edges, the essential-cut index, the integer-numerator
weight sums, the closed-form cut LP, the pruned canonical form, the
base-case table and the integer compaction against the per-shore edge
scan, the per-query cut rescans, the Fraction loop, the full-enumeration
simplex, the full search tree, the feasibility search they replaced, and
the same compaction in Fractions; the one-average case-1 node and the
re-sorting relabeling against the per-pivot merge and padding, and the
rebuild through ``combination()``, they replaced; the once-per-node
member check against every member the lifts and glues return; each
child pulled onto its parent in one edge-map pass against the relabeling
followed by lift or glue's shore mapping, the two passes it replaced, and
against the per-member sets and child-space pattern classes those
replaced; the smoothing that walks each path once from each surviving
end against the two-way walk from inside the path it replaced; the 2EC
check by a breadth-first tree and its fundamental cycles against
Tarjan's low-link search it replaced and a per-edge removal scan; the lane-parallel check of a node's members
against that check and both references, member by member; and every
certified node and root, held as edge masks over integer numerators,
against the (Fraction, edge tuple) plumbing it replaced, rebuilt from the
same children; the canonical lookup placed from the first leaf of a held
class by the automorphisms its full search recorded, and the orbit
pruning at every node, against the whole search and the full tree; the
refinement by one-integer signatures against the rounds of
neighbor-count vectors it replaced; and every pivot's safe pair
decided after one check of the graph against ``find_safe_pair``, the
smoothing kernel against ``remove_edges_and_smooth`` and the reference
smoothing, the one-map average against ``reference_average``, the
one-pass essential-cut filter against ``is_essential_cut``,
``verify_lemma3`` against the per-query body it replaced, and the
degree-pruned branch and bound against the search that asked ``is_2ec``
before every exclusion."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
import support
from hypothesis import given, settings, strategies as st
from support import (
    brute_force_min_2ec,
    maxflow_edge_connectivity,
    reference_base_case,
    reference_canonical_form,
    reference_least_leaves,
    reference_caratheodory,
    reference_crossing_mask,
    reference_edge_occurrences,
    reference_essential_3cut,
    reference_essential_4cut_with_pair,
    reference_exact_opt,
    reference_is_essential,
    reference_is_essentially_4ec,
    reference_average,
    reference_case1_combination,
    reference_combination,
    reference_glue,
    reference_is_2ec,
    reference_lift,
    reference_map_combination,
    reference_occurrences,
    reference_refine,
    reference_remove_edges_and_smooth,
    reference_shore_scan,
    reference_small_cubic_graphs,
    reference_small_cuts,
    reference_tarjan_is_2ec,
    reference_two_ec_spanning_subgraphs,
    reference_verify_lemma3,
    reference_walk_cuts,
    time_limit,
)
from test_oracle import C5, TWO_K4_MINUS_EDGE
from test_scripts import load

from cubic2ec import (
    Certifier,
    Cut,
    Graph,
    InvariantViolation,
    StructuralViolation,
    average,
    base_case_combination,
    builtin,
    canonical_form,
    combination,
    contract_shore,
    edge_connectivity,
    edge_occurrences,
    enumerate_cuts,
    essential_4cut_with_pair,
    exact_opt,
    find_essential_3cut,
    find_safe_pair,
    is_essentially_4ec,
    lift,
    lp_bound,
    parse_graph6,
    remove_edges_and_smooth,
    to_graph6,
    verify_lemma3,
)
from cubic2ec import canon, combine, connectivity, oracle
from cubic2ec.canon import canonical_lookup
from cubic2ec.connectivity import (
    CutIndex,
    _cut_summary,
    _iter_bits,
    _mask_cut,
    is_essential_cut,
)
from cubic2ec.errors import Lemma3Violation
from cubic2ec.exact_lp import solve_cut_lp
from cubic2ec.graphs import BUILTIN_NAMES, _smooth, graph6_bits

F = Fraction


def assert_cuts_match_scan(g):
    """The reference walk lists the scan's cuts, and λ and the index agree
    with them; a disconnected graph indexes no cut."""
    scan = reference_shore_scan(g)
    sizes = [cross.bit_count() for _, cross in scan]
    assert reference_walk_cuts(g, g.m) == (min(sizes), scan)
    assert edge_connectivity(g) == min(sizes)
    assert _cut_summary(g).small == tuple(
        (shore, cross)
        for (shore, cross), size in zip(scan, sizes)
        if size <= 4 and min(sizes)
    )


def relabel(g, perm, order):
    return Graph(g.n, tuple((perm[g.edges[e][0]], perm[g.edges[e][1]]) for e in order))


def test_shore_walk_matches_scan_on_corpus(corpus):
    for g in corpus:
        assert_cuts_match_scan(g)


def complete(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@pytest.mark.parametrize(
    "g",
    [
        Graph(5, ((0, 1), (2, 3), (3, 4), (2, 4))),  # disconnected
        complete(6),  # min cut 5, above the cached cut sizes
        complete(8),
    ],
)
def test_shore_walk_matches_scan_off_the_cubic_class(g):
    assert_cuts_match_scan(g)
    for shore, cross in reference_shore_scan(g):
        cut = Cut(tuple(_iter_bits(shore)), tuple(_iter_bits(cross)))
        assert is_essential_cut(g, cut) == reference_is_essential(g, shore)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_shore_walk_matches_scan_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    assert_cuts_match_scan(relabel(g, perm, order))


# small cuts read from the index ------------------------------------------------


def assert_small_cuts_match_scan(g):
    """enumerate_cuts(g, k <= 4) equals the scan's cuts of at most k edges
    on a connected graph, and k = 5 raises; a disconnected graph raises."""
    scan = reference_shore_scan(g)
    if min(cross.bit_count() for _, cross in scan) == 0:
        with pytest.raises(ValueError, match="^cut enumeration needs a connected graph$"):
            enumerate_cuts(g, 4)
        return
    for k in range(5):
        assert enumerate_cuts(g, k) == [
            Cut(tuple(_iter_bits(shore)), tuple(_iter_bits(cross)))
            for shore, cross in scan
            if cross.bit_count() <= k
        ]
    with pytest.raises(ValueError, match="at most 4 edges"):
        enumerate_cuts(g, 5)


def test_small_cuts_come_from_the_index(corpus):
    for g in corpus + [
        complete(6),
        complete(8),
        Graph(5, ((0, 1), (2, 3), (3, 4), (2, 4))),  # disconnected
    ]:
        assert_small_cuts_match_scan(g)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_small_cuts_come_from_the_index_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    assert_small_cuts_match_scan(relabel(g, perm, order))


def test_cut_summary_never_walks_the_shores():
    """A disconnected graph, and a connected one with no cut of at most
    four edges, get λ and an empty index at n = 40, where a walk over the
    2^39 shores would not end."""
    apart = Graph(40, tuple((i, i + 20) for i in range(20)))  # a perfect matching
    # the circulant C40(1, 2, 3): 6-regular and vertex-transitive
    dense = Graph(40, tuple((i, (i + s) % 40) for i in range(40) for s in (1, 2, 3)))
    with time_limit(10):
        assert _cut_summary(apart) == CutIndex(0, (), (), ())
        assert _cut_summary(dense) == CutIndex(6, (), (), ())
    assert maxflow_edge_connectivity(dense) == 6


@pytest.mark.parametrize("k, step", [(11, 2), (12, 5)])
def test_cut_index_matches_edge_subsets_above_the_walk_cap(k, step):
    """Every cut of at most four edges at n = 22 and 24, where the shores
    are never walked, on the graph and on one relabeling of it."""
    g = generalized_petersen(k, step)
    rng = random.Random(k)
    relabeled = relabel(g, rng.sample(range(g.n), g.n), rng.sample(range(g.m), g.m))
    for h in (g, relabeled):
        small = reference_small_cuts(h)
        index = _cut_summary(h)
        assert index.min_size == min(size for _, _, size in small) == 3
        assert index.small == tuple((shore, cross) for shore, cross, _ in small)
        for size, found in ((3, index.essential3), (4, index.essential4)):
            assert found == tuple(
                (shore, cross)
                for _, shore, cross in sorted(
                    (shore.bit_count(), shore, cross)
                    for shore, cross, count in small
                    if count == size and reference_is_essential(h, shore)
                )
            )


# essential-cut index ----------------------------------------------------------


def assert_index_matches_rescan(g):
    """The index holds exactly the essential 3- and 4-cuts, and every
    essential-cut query on g equals the per-query rescan: the 3-cut,
    and the 4-cut of every edge pair with no shore excluded, with each
    endpoint shore {u, v} whose cut holds the pair excluded, and with the
    first answer's own shore excluded."""
    small = reference_small_cuts(g)
    index = _cut_summary(g)
    for size, found in ((3, index.essential3), (4, index.essential4)):
        assert sorted(found) == [
            (shore, cross)
            for shore, cross, k in small
            if k == size and reference_is_essential(g, shore)
        ]
    if edge_connectivity(g) >= 3:
        assert find_essential_3cut(g) == reference_essential_3cut(g, small)
    endpoint_cuts = [
        ((u, v), reference_crossing_mask(g, (1 << u) | (1 << v))) for u, v in g.edges
    ]
    for e1, e2 in itertools.combinations(range(g.m), 2):
        found = essential_4cut_with_pair(g, e1, e2)
        assert found == reference_essential_4cut_with_pair(g, small, e1, e2)
        want = (1 << e1) | (1 << e2)
        excluded = [uv for uv, cross in endpoint_cuts if cross & want == want]
        if found is not None:
            excluded.append(found.shore)
        for shore in excluded:
            assert essential_4cut_with_pair(
                g, e1, e2, shore
            ) == reference_essential_4cut_with_pair(g, small, e1, e2, shore)


def test_cut_index_matches_rescan_on_corpus(corpus):
    for g in corpus:
        assert_index_matches_rescan(g)


def test_cut_index_matches_rescan_on_safe_pair_graphs(corpus, monkeypatch):
    seen = []  # every graph safe_pairs receives while certifying the corpus

    def record(g):
        seen.append(g)
        return safe_pairs(g)

    safe_pairs = connectivity.safe_pairs
    monkeypatch.setattr(connectivity, "safe_pairs", record)
    certifier = Certifier()
    for g in corpus:
        certifier.certify(g)
    monkeypatch.undo()
    graphs = list(dict.fromkeys(seen))
    assert len(graphs) > 0
    for g in graphs:
        assert_index_matches_rescan(g)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_cut_index_matches_rescan_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    assert_index_matches_rescan(relabel(g, perm, order))


def test_cut_index_matches_rescan_on_cube():
    assert_index_matches_rescan(SYMMETRIC["cube"])


def assert_essential_index_matches_filter(g):
    """The index's essential 3- and 4-cuts, found in one pass with degree
    sums from popcounts, are the small cuts of that size that
    ``is_essential_cut`` keeps, sorted by (|shore|, shore)."""
    index = _cut_summary(g)
    for size, found in ((3, index.essential3), (4, index.essential4)):
        kept = [
            (shore.bit_count(), shore, cross)
            for shore, cross in index.small
            if cross.bit_count() == size
            and is_essential_cut(g, Cut(tuple(_iter_bits(shore)), tuple(_iter_bits(cross))))
        ]
        assert found == tuple((shore, cross) for _, shore, cross in sorted(kept))


def test_essential_index_matches_filter_on_corpus(corpus):
    for g in corpus:
        assert_essential_index_matches_filter(g)
        # one edge fewer: vertices of degree 2 and 3, two degree classes
        assert_essential_index_matches_filter(Graph(g.n, g.edges[1:]))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_essential_index_matches_filter_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    h = relabel(g, perm, order)
    assert_essential_index_matches_filter(h)
    assert_essential_index_matches_filter(Graph(h.n, h.edges[1:]))


def test_verify_lemma3_matches_rescan_on_corpus(corpus):
    """verify_lemma3, which checks its graph and reads its essential 4-cuts
    once, reports exactly what the body it replaced reports when every
    query rescans the small cuts on its own."""
    graphs = [g for g in corpus if g.n > 6 and is_essentially_4ec(g)]
    graphs += [generalized_petersen(8, 3), generalized_petersen(9, 2)]
    assert len(graphs) > 2
    reports = [verify_lemma3(g) for g in graphs]
    assert reports == [reference_verify_lemma3(g) for g in graphs]
    assert any(r.orientation_flips for r in reports)


def test_verify_lemma3_matches_rescan_on_violations_and_divergences(
    petersen, monkeypatch
):
    """An essential 4-cut planted in the index (and in the rescanned small
    cuts) blocks both orientations around the last pivot, and a safe-pair
    decision that raises at pivot 0 comes before any literal violation:
    both versions report the same violations and the same divergence."""
    g = petersen
    small = reference_small_cuts(g)
    u, v = g.endpoints(g.m - 1)
    a = min(w for w in g.neighbors(u) if w != v)
    c, d = sorted(w for w in g.neighbors(v) if w != u)
    crossing = {g.edge_id(a, u), g.edge_id(v, c), g.edge_id(v, d)}
    crossing.add(min(set(range(g.m)) - crossing))
    # a shore with both sides essential; the crossing is planted
    shore = next(
        s for s in range(2, 1 << g.n, 2) if s.bit_count() == 5 and reference_is_essential(g, s)
    )
    cross = sum(1 << e for e in crossing)
    index = _cut_summary(g)
    essential4 = index.essential4 + ((shore, cross),)
    planted = index._replace(
        essential4=tuple(sorted(essential4, key=lambda c: (c[0].bit_count(), c[0])))
    )
    monkeypatch.setattr(connectivity, "_cut_summary", lambda h: planted)
    honest, honest_reference = connectivity._safe_pair, support.reference_safe_pair
    witnesses = (_mask_cut(shore, cross),) * 2

    def raising(h, uv, essential4):
        if uv == 0:
            raise Lemma3Violation("planted", witnesses=witnesses)
        return honest(h, uv, essential4)

    def raising_reference(h, small, uv):
        if uv == 0:
            raise Lemma3Violation("planted", witnesses=witnesses)
        return honest_reference(h, small, uv)

    monkeypatch.setattr(connectivity, "_safe_pair", raising)
    monkeypatch.setattr(support, "reference_safe_pair", raising_reference)
    report = verify_lemma3(g)
    assert report == reference_verify_lemma3(g, small + [(shore, cross, 4)])
    assert [x["pivot"] for x in report.divergences] == [0]
    assert any("path" in x for x in report.violations)  # the literal phrasing
    assert report.violations[-1].keys() == {"pivot", "witnesses"}  # constructive
    assert report.violations[-1]["pivot"] == g.m - 1


# edge occurrences -------------------------------------------------------------


def test_occurrences_match_fraction_loop_on_corpus(corpus, certifier):
    for g in corpus:
        comb = certifier.certify(g).combination
        assert edge_occurrences(comb) == reference_edge_occurrences(comb)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_occurrences_match_fraction_loop_on_relabelings(corpus, certifier, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    comb = certifier.certify(relabel(g, perm, order)).combination
    assert edge_occurrences(comb) == reference_edge_occurrences(comb)


def test_coprime_large_denominators(k4):
    members = reference_two_ec_spanning_subgraphs(k4)
    primes = (1_000_003, 1_000_033, 1_000_037, 2_147_483_647)
    # two entries per member with pairwise coprime denominators, so both
    # the dedup and the occurrence sums run over their lcm
    raw = [(F(1, p), members[i]) for i, p in enumerate(primes)]
    raw += [(F(2, p), members[i + 1]) for i, p in enumerate(primes)]
    rest = 1 - sum(w for w, _ in raw)
    raw.append((rest / 2, members[0]))
    raw.append((rest / 2, members[-1]))
    comb = combination(k4, raw)

    expected: dict[tuple[int, ...], Fraction] = {}
    for w, es in raw:
        expected[es] = expected.get(es, F(0)) + w
    assert comb.entries == tuple((w, es) for es, w in sorted(expected.items()))
    assert sum(w for w, _ in comb.entries) == 1
    assert max(w.denominator for w, _ in comb.entries) > 10**18
    assert edge_occurrences(comb) == reference_edge_occurrences(comb)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_weights_match_fraction_loop(prism, data):
    members = reference_two_ec_spanning_subgraphs(prism)
    picks = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(members),
                st.integers(min_value=1, max_value=10**6),
                st.integers(min_value=1, max_value=10**9),
            ),
            min_size=1,
            max_size=12,
        )
    )
    weights = [F(a, b) for _, a, b in picks]
    total = sum(weights)
    raw = [(w / total, es) for w, (es, _, _) in zip(weights, picks)]
    comb = combination(prism, raw)
    expected: dict[tuple[int, ...], Fraction] = {}
    for w, es in raw:
        expected[es] = expected.get(es, F(0)) + w
    assert comb.entries == tuple((w, es) for es, w in sorted(expected.items()))
    assert edge_occurrences(comb) == reference_edge_occurrences(comb)


def test_closed_form_lp_matches_simplex(corpus):
    for g in corpus + [builtin("k4"), builtin("petersen")]:
        sol = lp_bound(g)
        _, cuts = reference_walk_cuts(g, g.m)
        value, _ = solve_cut_lp(g.m, [cmask for _, cmask in cuts])
        assert sol.value == value == g.n
        for _, cross in reference_shore_scan(g):
            assert sum(sol.x[e] for e in _iter_bits(cross)) >= 2
        assert sol.tight_cuts == tuple(
            c for c in enumerate_cuts(g, 3) if len(c.crossing) == 3
        )


# canonical form ---------------------------------------------------------------


def certifier_lookups(monkeypatch, certifier, graphs) -> list:
    """(graph, (key, perm)) of every canonical-form lookup ``certifier``
    makes while it certifies ``graphs``."""
    seen = []
    honest = Certifier._canonical_form

    def record(self, g):
        out = honest(self, g)
        seen.append((g, out[:2]))
        return out

    monkeypatch.setattr(Certifier, "_canonical_form", record)
    for g in graphs:
        certifier.certify(g)
    monkeypatch.undo()
    return seen


def assert_lookups_match_full_search(seen):
    assert all(found == canonical_form(g) for g, found in seen)
    for g in dict.fromkeys(g for g, _ in seen):
        assert canonical_form(g) == reference_canonical_form(g)


def test_canonical_form_matches_full_search_on_certified_graphs(corpus, monkeypatch):
    seen = certifier_lookups(monkeypatch, Certifier(), corpus)
    graphs = list(dict.fromkeys(corpus + [g for g, _ in seen]))
    assert len(graphs) > len(corpus)
    assert len({key for _, (key, _) in seen}) < len(seen)
    assert_lookups_match_full_search(seen)


def test_certifier_lookups_match_full_search_at_n16(cold_e4_n16, monkeypatch):
    for g in (generalized_petersen(8, 3), cold_e4_n16, generalized_petersen(9, 2)):
        seen = certifier_lookups(monkeypatch, Certifier(max_n=18), [g])
        assert len({key for _, (key, _) in seen}) < len(seen)
        assert_lookups_match_full_search(seen)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_matches_full_search_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    h = relabel(g, perm, order)
    assert canonical_form(h) == reference_canonical_form(h)


def cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_bipartite(a, b):
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def heawood():
    """The 14-cycle plus the chords (i, i + 5) from even i."""
    pairs = [(i, (i + 1) % 14) for i in range(14)]
    pairs += [(i, i + 5) for i in range(0, 14, 2)]
    return Graph(14, tuple((i, j % 14) for i, j in pairs))


# the corpus script's construction, loaded without keeping its sys.path edits
_path = list(sys.path)
generalized_petersen = load("make_corpus").generalized_petersen
sys.path[:] = _path


# Large automorphism groups and deep branching: most leaves tie with the
# least one, so these are where a pruning or tie-breaking fault shows in perm.
SYMMETRIC = {
    "C9": cycle(9),
    "C12": cycle(12),
    "K6": complete(6),
    "K3,3": complete_bipartite(3, 3),
    "K4,4": complete_bipartite(4, 4),
    "cube": Graph(8, tuple((i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b)),
    "heawood": heawood(),
    "GP(8,3)": generalized_petersen(8, 3),
    "GP(9,2)": generalized_petersen(9, 2),
    "empty1": Graph(1, ()),
    "empty2": Graph(2, ()),
    "K2": Graph(2, ((0, 1),)),
    "empty5": Graph(5, ()),
    "matching": Graph(8, tuple((2 * i, 2 * i + 1) for i in range(4))),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_form_matches_full_search_on_symmetric_graphs(name):
    g = SYMMETRIC[name]
    assert canonical_form(g) == reference_canonical_form(g)
    rotate = tuple((i + 1) % g.n for i in range(g.n))
    h = relabel(g, rotate, range(g.m)[::-1])
    assert canonical_form(h) == reference_canonical_form(h)


def two_switches(g):
    """Graphs one 2-switch away from g: edges ab and cd become ac and bd."""
    for (a, b), (c, d) in itertools.combinations(g.edges, 2):
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            kept = tuple(e for e in g.edges if e not in ((a, b), (c, d)))
            yield Graph(g.n, kept + ((a, c), (b, d)))


def decoys(g, count) -> list:
    """One graph of each class among the first ``count`` 2-switches of g,
    other than g's own class."""
    first = {}
    for h in itertools.islice(two_switches(g), count):
        first.setdefault(reference_canonical_form(h)[0], h)
    first.pop(reference_canonical_form(g)[0], None)
    return list(first.values())


def held(graphs) -> dict:
    """The index a Certifier holds after full searches of ``graphs``, one
    class each, all with one n."""
    index: dict = {}
    for g in graphs:
        *_, tree = canonical_lookup(g, index)
        assert tree is not None
        index.update(dict.fromkeys(tree.seen, tree))
    return index


def relabeling(g, data):
    return relabel(
        g, data.draw(st.permutations(range(g.n))), data.draw(st.permutations(range(g.m)))
    )


def assert_lookup_matches_canonical_form(g, others, data):
    """canonical_lookup on a relabeling of g, given the index of full
    searches of a drawn subset of ``others`` (graphs of classes other than
    g's) with or without a drawn labeling of g, returns the key and perm of
    the full tree, and stops at the first leaf exactly when g's class is
    held."""
    h = relabeling(g, data)
    graphs = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    own = data.draw(st.booleans())
    if own:
        graphs.append(relabeling(g, data))
    index = held(graphs)
    key, perm, tree = canonical_lookup(h, index)
    assert (key, perm) == canonical_form(h) == reference_canonical_form(h)
    assert (tree is None) == own
    if own:
        assert canon._search(h, index)[2] == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_lookup_matches_canonical_form_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    others = [h for h in corpus if h.n == g.n and h != g]
    assert_lookup_matches_canonical_form(g, others, data)


TIED = {name: g for name, g in SYMMETRIC.items() if g.n and g.is_cubic}
TIED["petersen"] = builtin("petersen")


@pytest.mark.parametrize("name", sorted(TIED))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_canonical_lookup_matches_canonical_form_on_symmetric_graphs(name, data):
    g = TIED[name]
    assert_lookup_matches_canonical_form(g, decoys(g, 8), data)


@st.composite
def any_graphs(draw, max_n=12):
    """Simple graphs with 1 to max_n vertices, cubic or not, edgeless ones
    included."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges))


@st.composite
def ordered_partitions(draw, n):
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n]))


REFINED = {
    "single": Graph(1, ()),
    "empty5": Graph(5, ()),
    "K2": Graph(2, ((0, 1),)),
    "star": Graph(5, tuple((0, i) for i in range(1, 5))),
    "path": Graph(6, tuple((i, i + 1) for i in range(5))),
    "K6": complete(6),
    "petersen": builtin("petersen"),
    "GP(8,3)": generalized_petersen(8, 3),
}


def assert_refine_matches_reference(g, cells):
    """From ``cells`` and from every individualization of the equitable
    partition refinement reaches, ``_refine`` gives the reference's cells,
    with and without the individualized vertex as hint."""
    nbrs, weight = canon._tables(g)
    equitable = reference_refine(cells, nbrs)
    assert canon._refine(cells, nbrs, weight) == equitable
    for target, cell in enumerate(equitable):
        for v in cell if len(cell) > 1 else ():
            child = canon._individualize(equitable, target, v)
            expected = reference_refine(child, nbrs)
            assert canon._refine(child, nbrs, weight, v) == expected
            assert canon._refine(child, nbrs, weight) == expected


@pytest.mark.parametrize("name", sorted(REFINED))
def test_refine_matches_reference_from_the_unit_partition(name):
    g = REFINED[name]
    assert_refine_matches_reference(g, (tuple(range(g.n)),))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refine_matches_reference_on_random_partitions(data):
    g = data.draw(any_graphs())
    assert_refine_matches_reference(g, data.draw(ordered_partitions(g.n)))


# Orbit pruning skips children, and leaves subtrees, under automorphisms
# that fix the path.  Large groups make most leaves tie with the least one.
# The last graph (three vertices joined to four that are matched in pairs,
# plus two isolated vertices) is one where a search that returned one level
# above the deepest node two tied leaves share would lose the first least
# leaf, as labeled here.
PRUNED = {
    "k4": builtin("k4"),
    "k33": builtin("k33"),
    "prism": builtin("prism"),
    "cube": SYMMETRIC["cube"],
    "petersen": builtin("petersen"),
    "GP(8,3)": SYMMETRIC["GP(8,3)"],
    "K3,4+matching+2K1": Graph(
        9, tuple((a, b) for a in (4, 6, 8) for b in (0, 1, 3, 7)) + ((0, 1), (3, 7))
    ),
}


def assert_pruned_search_matches_full_tree(g, other, misses):
    """The full search of g, and lookups of g in the index ``misses`` of
    other classes with and without the full search of ``other``, a
    labeling of g's class, return the full tree's key and perm; only the
    lookup with ``other`` held stops, at g's first leaf."""
    expected = reference_canonical_form(g)
    assert canonical_form(g) == expected
    key, perm, tree = canonical_lookup(g, misses)
    assert (key, perm) == expected
    assert tree is not None and tree.enc == canon._search(g)[1]
    index = held([other]) | misses
    assert canonical_lookup(g, index) == (*expected, None)
    assert canon._search(g, index)[2] == 1


@pytest.mark.parametrize("name", sorted(PRUNED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_orbit_pruning_keeps_the_first_least_leaf(name, data):
    """Full search, and lookups in an index of decoy classes with and
    without g's own, on g as labeled and on a drawn relabeling, each found
    from the other's full search, against the full tree."""
    g = PRUNED[name]
    misses = held(decoys(g, 6))
    h = relabeling(g, data)
    for x, other in ((g, h), (h, g)):
        assert_pruned_search_matches_full_tree(x, other, misses)


def count_least(trie) -> int:
    """The leaves of a tree's trie of least leaves."""
    if type(trie) is not dict:
        return 1
    return sum(count_least(node) for node in trie.values())


# |Aut| of each: the number of least leaves in the full, unpruned tree.
AUTOMORPHISMS = {"k4": 24, "k33": 72, "prism": 12, "cube": 48, "petersen": 120, "GP(8,3)": 96}


@pytest.mark.parametrize("name", sorted(AUTOMORPHISMS))
def test_recorded_automorphisms_generate_the_whole_group(name):
    """The closure of the automorphisms a full search records holds every
    least leaf of the unpruned tree, one per automorphism, and each is a
    leaf of the tree with the least encoding."""
    g = PRUNED[name]
    *_, tree = canonical_lookup(g, {})
    least = tree.least()
    assert count_least(least) == reference_least_leaves(g) == AUTOMORPHISMS[name]
    stack = [least]
    while stack:
        node = stack.pop()
        for child in node.values():
            if type(child) is dict:
                stack.append(child)
            else:
                at = [0] * g.n
                for position, old in enumerate(child):
                    at[old] = position
                assert graph6_bits(g.n, g.edges, at) == tree.enc


def test_a_held_class_is_placed_at_its_first_least_leaf():
    """Seeded relabelings of GP(9,2), looked up in the index of its full
    search as labeled, get the full tree's key and perm.  In some of them
    the held graph's first least leaf, pulled back through the first
    leaf's isomorphism, is a least leaf other than the first, so these
    lookups need the least path over the whole group."""
    g = SYMMETRIC["GP(9,2)"]
    index = held([g])
    [tree] = set(index.values())
    rng = random.Random(0)
    pulled_back_elsewhere = 0
    for _ in range(12):
        h = relabel(g, rng.sample(range(g.n), g.n), rng.sample(range(g.m), g.m))
        key, perm = reference_canonical_form(h)
        assert canonical_lookup(h, index) == (key, perm, None)
        *_, whole = canonical_lookup(h, {})
        enc, (first, _) = next(iter(whole.seen.items()))  # h's first leaf
        back = dict(zip(tree.seen[enc][0], first))
        order = tuple(back[v] for v in tree.seen[tree.enc][0])
        pulled_back_elsewhere += order != tuple(sorted(range(g.n), key=perm.__getitem__))
    assert pulled_back_elsewhere > 0


# Leaves visited over every lookup a fresh Certifier makes, as (full search,
# lookup in the Certifier's index of leaf encodings).  The counts are deterministic, so a
# change that prunes less, or more, fails here even when every key and
# perm stays right.
PINNED_LEAVES = {"cold_e4_n16": (1770, 530), "GP(8,3)": (849, 214)}


@pytest.mark.parametrize("name", sorted(PINNED_LEAVES))
def test_search_visits_the_pinned_number_of_leaves(name, cold_e4_n16, monkeypatch):
    g = cold_e4_n16 if name == "cold_e4_n16" else generalized_petersen(8, 3)
    lookups = []
    honest = Certifier._canonical_form

    def record(self, h):
        lookups.append((h, dict(self._index.get(h.n, {}))))
        return honest(self, h)

    monkeypatch.setattr(Certifier, "_canonical_form", record)
    Certifier(max_n=16).certify(g)
    full = sum(canon._search(h)[2] for h, _ in lookups)
    indexed = sum(canon._search(h, index)[2] for h, index in lookups)
    assert (full, indexed) == PINNED_LEAVES[name]


# base-case table --------------------------------------------------------------


def test_base_case_table_matches_feasibility_search():
    table = {}
    for n in (4, 6):
        for g in reference_small_cubic_graphs(n):
            if maxflow_edge_connectivity(g) < 3 or not reference_is_essentially_4ec(g):
                continue
            key = reference_canonical_form(g)[0]
            K = parse_graph6(key)
            table[key] = reference_base_case(K)
            assert base_case_combination(K).entries == table[key]
    assert table == combine._BASE_CASES


# compaction -------------------------------------------------------------------


@pytest.fixture(scope="module")
def certified(corpus):
    """One Certifier that has certified every corpus graph and GP(8,3)."""
    certifier = Certifier(max_n=16)
    for g in corpus + [generalized_petersen(8, 3)]:
        certifier.certify(g)
    return certifier


@pytest.fixture(scope="module")
def compacted(corpus, certified):
    """(unreduced, compacted) canonical combinations of every corpus root
    and GP(8,3), in the certifier's masked form."""
    keys = [canonical_form(g)[0] for g in corpus + [generalized_petersen(8, 3)]]
    return [(certified._cache[key][0], certified._roots[key]) for key in keys]


def test_compaction_matches_fraction_reference(compacted):
    reduced = [(full, red) for full, red in compacted if len(full.entries) > full.host.m + 1]
    assert len(reduced) == 19  # 18 corpus roots and GP(8,3)
    for full, red in reduced:
        full, red = combine._public(full), combine._public(red)
        assert combination(full.host, reference_caratheodory(full)) == red


@pytest.mark.parametrize("bits", [128, 192])
def test_compaction_is_independent_of_lane_width(compacted, monkeypatch, bits):
    """Lanes wider than the bound needs (n = 18 needs 128 bits) give the
    same compaction as the 64-bit lanes the corpus needs."""
    monkeypatch.setattr(combine, "_lane_bits", lambda bound: bits)
    for full, red in compacted:
        assert combine._compact(full) == red


def assert_compacted(full, red):
    """red is a uniform-7/9 combination of at most m + 1 of full's members,
    with full's least member size."""
    assert {es for _, es in red.entries} <= {es for _, es in full.entries}
    assert len(red.entries) <= min(len(full.entries), red.host.m + 1)
    assert set(reference_edge_occurrences(red)) == {F(7, 9)}
    assert all(w > 0 for w, _ in red.entries)
    assert sum(w for w, _ in red.entries) == 1
    assert min(len(es) for _, es in red.entries) == min(len(es) for _, es in full.entries)


def test_compaction_keeps_members_occurrences_and_min_size(compacted):
    for full, red in compacted:
        assert_compacted(combine._public(full), combine._public(red))
        if len(full.entries) <= full.host.m + 1:
            assert red is full


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_compaction_keeps_min_size_on_relabelings(corpus, certifier, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    h = relabel(g, perm, order)
    cert = certifier.certify(h)
    key, kperm = canonical_form(h)
    full = combine._map_combination(certifier._cache[key][0], h, kperm)
    assert_compacted(combine._public(full), cert.combination)


# the one-map average -----------------------------------------------------------


def assert_average_matches_reference(parts):
    """average of parts, and ``_average`` of their masked forms (the
    certifier's kernel), equal reference_average."""
    want = reference_average(parts)
    assert average(parts) == want
    host = parts[0][1].host
    masked = combine._average(host, [(w, combine._masked(c)) for w, c in parts if w])
    assert combine._public(masked) == want


def test_average_matches_reference_on_fixed_parts(corpus, certifier):
    g = next(g for g in corpus if g.n == 10)
    comb = certifier.certify(g).combination
    first, second = (combination(g, [(1, es)]) for _, es in comb.entries[:2])
    assert_average_matches_reference(
        [(F(1, 3), comb), (F(1, 6), first), (0, second), (F(1, 2), comb)]
    )
    assert_average_matches_reference([(0, first), (1, comb), (F(0), second)])
    assert_average_matches_reference([(F(1, 2), first), (F(1, 2), first)])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_average_matches_reference_on_drawn_parts(corpus, certifier, data):
    """Parts drawn from a certificate and its members one at a time, so
    members repeat across parts, at Fraction weights, with an int zero
    weight part and int weights where a weight is whole."""
    g = data.draw(st.sampled_from(corpus))
    comb = certifier.certify(g).combination
    pool = [comb] + [combination(g, [(1, es)]) for _, es in comb.entries]
    picks = [comb, pool[1]] + data.draw(st.lists(st.sampled_from(pool), max_size=4))
    nums = data.draw(
        st.lists(st.integers(0, 5), min_size=len(picks), max_size=len(picks)).filter(any)
    )
    total = sum(nums)
    weights = [F(num, total) for num in nums]
    parts = [(int(w) if w.denominator == 1 else w, c) for w, c in zip(weights, picks)]
    assert_average_matches_reference(parts + [(0, pool[-1])])


# case 1 and relabeling --------------------------------------------------------


def test_case1_nodes_match_per_pivot_construction(corpus, certified):
    """Each case-1 node, one average of its 2m lifted children, equals the
    average over pivots of each pivot's half-and-half merge, padded."""
    graphs = [builtin("petersen"), generalized_petersen(8, 3)]
    graphs += [g for g in corpus if g.n > 6 and is_essentially_4ec(g)]
    for g in graphs:
        key, _ = canonical_form(g)
        comb, record = certified._cache[key]
        assert record["kind"] == "case1"
        assert combine._public(comb) == reference_case1_combination(
            parse_graph6(key), certified
        )


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_map_combination_matches_rebuild_on_relabelings(corpus, certified, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    h = relabel(g, perm, order)
    key, kperm = canonical_form(h)
    for comb in (certified._cache[key][0], certified._roots[key]):
        mapped = combine._map_combination(comb, h, kperm)
        assert combine._public(mapped) == reference_map_combination(
            combine._public(comb), h, kperm
        )


# nodes against the (Fraction, edge tuple) plumbing -----------------------------


def reference_node(certifier, key):
    """Node ``key`` of certifier's cache rebuilt from its cached children by
    the reference plumbing: the base table, glue of the two shores, or the
    average of the 2m lifted children."""
    K = parse_graph6(key)
    record = certifier._cache[key][1]

    def child(g):
        child_key, perm = canonical_form(g)
        assert child_key in record["children"]
        comb = combine._public(certifier._cache[child_key][0])
        return reference_map_combination(comb, g, perm)

    if record["kind"] == "base":
        table = reference_combination(K, combine._BASE_CASES[key])
        return reference_map_combination(table, K, canonical_form(K)[1])
    if record["kind"] == "case2":
        cut = find_essential_3cut(K)
        assert list(cut.shore) == record["shore"]
        red_in, red_out = (contract_shore(K, cut, side) for side in ("inside", "outside"))
        return reference_glue(child(red_in.child), child(red_out.child), red_in, red_out)
    parts = []
    for uv, pivot in enumerate(record["pivots"]):
        assert pivot["pivot"] == uv
        for pair in pivot["removed"]:
            red = remove_edges_and_smooth(K, *pair)
            parts.append((Fraction(1, 2 * K.m), reference_lift(child(red.child), red)))
    return reference_average(parts)


def assert_nodes_match_references(certifier):
    """Every cached node and every root of certifier, converted to
    (Fraction, edge tuple) entries, equals its reference rebuild entry for
    entry, in order, and has the reference occurrences."""
    for key, (node, record) in certifier._cache.items():
        public = combine._public(node)
        assert public == reference_node(certifier, key), key
        assert len(public.entries) == record["entries"]
        occ = reference_occurrences(node.host.m, public.entries)
        assert edge_occurrences(public) == occ
    for key, root in certifier._roots.items():
        full = combine._public(certifier._cache[key][0])
        if len(full.entries) > full.host.m + 1:
            full = reference_combination(full.host, reference_caratheodory(full), check=False)
        assert combine._public(root) == full, key


def test_nodes_match_references_on_corpus(corpus):
    certifier = Certifier(max_n=16)
    for g in corpus + [generalized_petersen(8, 3)]:
        certifier.certify(g)
    kinds = {record["kind"] for _, record in certifier._cache.values()}
    assert kinds == {"base", "case1", "case2"}
    assert_nodes_match_references(certifier)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_nodes_match_references_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    h = relabel(g, perm, order)
    certifier = Certifier()
    cert = certifier.certify(h)
    assert_nodes_match_references(certifier)
    key, kperm = canonical_form(h)
    root = combine._public(certifier._roots[key])
    assert cert.combination == reference_map_combination(root, h, kperm)


# lift and glue ----------------------------------------------------------------


def pulled_reduction(parent, child, provenance, always=(), normalize=True):
    """The Reduction behind one ``_pull_members`` call: for a lift (not
    normalized), ``remove_edges_and_smooth`` of the two parent edges its
    provenance leaves out; for a shore, the ``contract_shore`` of parent's
    essential 3-cut with its provenance.  Either must have the pull's
    child, provenance and forced edges."""
    if normalize:
        cut = find_essential_3cut(parent)
        sides = [contract_shore(parent, cut, side) for side in ("inside", "outside")]
        (red,) = [red for red in sides if red.edge_provenance == tuple(provenance)]
    else:
        covered = {pe for path in provenance for pe in path}
        red = remove_edges_and_smooth(parent, *sorted(set(range(parent.m)) - covered))
    assert red.child == child
    assert red.edge_provenance == tuple(provenance)
    assert red.forced_include == frozenset(always)
    return red


def certify_recording(monkeypatch, graphs):
    """(reference, args, result) of every case-1 child pull and every glue
    of two pulled shores while a fresh Certifier certifies graphs.  A pull
    is checked as ``reference_lift`` of its child and a glue as
    ``reference_glue`` of its two children, each child the reference
    relabeling of its cached canonical combination; results are
    normalized and converted to ConvexCombinations."""
    calls = []
    shores = {}  # parent graph -> [(child, reduction)] of its pulled shores
    pull_members, glue_shores = combine._pull_members, combine._glue

    def pulled(comb_k, perm, *reduced):
        out = pull_members(comb_k, perm, *reduced)
        red = pulled_reduction(*reduced)
        child = reference_map_combination(combine._public(comb_k), red.child, perm)
        if red.kind == "case1_removal":
            lifted = combine._merged(red.parent, out.den, out.entries)
            calls.append((reference_lift, (child, red), combine._public(lifted)))
        else:
            shores.setdefault(red.parent, []).append((child, red))
        return out

    def glued(shore1, shore2, cut):
        out = glue_shores(shore1, shore2, cut)
        (c1, red1), (c2, red2) = shores.pop(shore1.host)
        calls.append((reference_glue, (c1, c2, red1, red2), combine._public(out)))
        return out

    monkeypatch.setattr(combine, "_pull_members", pulled)
    monkeypatch.setattr(combine, "_glue", glued)
    certifier = Certifier(max_n=16)
    for g in graphs:
        certifier.certify(g)
    assert not shores
    return calls


def test_lift_and_glue_match_reference_on_corpus(corpus, monkeypatch):
    calls = certify_recording(monkeypatch, corpus + [generalized_petersen(8, 3)])
    assert {reference for reference, _, _ in calls} == {reference_lift, reference_glue}
    for reference, args, out in calls:
        assert out == reference(*args)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_lift_and_glue_match_reference_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = certify_recording(monkeypatch, [relabel(g, perm, order)])
    assert calls or g.n <= 6
    for reference, args, out in calls:
        assert out == reference(*args)


def test_pulls_match_the_two_step_path(corpus, cold_e4_n16, monkeypatch):
    """Every child a fresh Certifier pulls, carried onto its parent in one
    pass, equals the relabeling by ``_map_combination`` followed by the
    public ``lift`` (once normalized) or by glue's shore mapping; each pull
    is compared as it is made, before the node's own checks run."""
    kinds = []
    pull_members = combine._pull_members

    def compared(comb_k, perm, *reduced):
        out = pull_members(comb_k, perm, *reduced)
        red = pulled_reduction(*reduced)
        child = combine._map_combination(comb_k, red.child, perm)
        assert out.host == red.parent
        if red.kind == "case1_removal":
            assert (out.den, len(out.entries)) == (comb_k.den, len(comb_k.entries))
            lifted = combine._merged(red.parent, out.den, out.entries)
            assert combine._public(lifted) == lift(combine._public(child), red)
        else:
            assert out == combine._map_members(child, red.parent, red.edge_provenance)
        kinds.append(red.kind)
        return out

    monkeypatch.setattr(combine, "_pull_members", compared)
    certifier = Certifier(max_n=16)
    for g in corpus + [generalized_petersen(8, 3), cold_e4_n16]:
        certifier.certify(g)
    assert set(kinds) == {"case1_removal", "case2_contraction"}


# member checks ----------------------------------------------------------------


def test_lifted_and_glued_members_are_each_checked_once(corpus, monkeypatch):
    """Every (host, member) that lift and glue return is checked spanning
    2EC, and no pair is checked twice, over one Certifier's whole run."""
    checked = []
    honest = connectivity.first_non_2ec

    def counted(g, masks):
        checked.extend((to_graph6(g), combine._edges(x, g.m)) for x in masks)
        return honest(g, masks)

    monkeypatch.setattr(connectivity, "first_non_2ec", counted)
    calls = certify_recording(monkeypatch, corpus + [generalized_petersen(8, 3)])
    returned = {(to_graph6(out.host), es) for *_, out in calls for _, es in out.entries}
    assert returned and returned <= set(checked)
    assert len(checked) == len(set(checked))


# case-1 smoothing -------------------------------------------------------------


def smoothing_outcome(smooth, g, e1, e2):
    try:
        return smooth(g, e1, e2)
    except (ValueError, StructuralViolation, InvariantViolation) as exc:
        return exc


def assert_smoothing_matches_reference(g):
    """On every ordered pair of distinct edges, the same Reduction, or the
    same exception class; a ValueError also with the same message."""
    for e1, e2 in itertools.permutations(range(g.m), 2):
        want = smoothing_outcome(reference_remove_edges_and_smooth, g, e1, e2)
        got = smoothing_outcome(remove_edges_and_smooth, g, e1, e2)
        if not isinstance(want, Exception):
            assert got == want, (e1, e2)
            continue
        assert type(got) is type(want), (e1, e2, got, want)
        if type(want) is ValueError:
            assert str(got) == str(want)


def test_smoothing_matches_reference_on_every_pair(corpus):
    builtins = [builtin(name) for name in BUILTIN_NAMES]
    for g in corpus + builtins + [generalized_petersen(8, 3)]:
        assert_smoothing_matches_reference(g)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_smoothing_matches_reference_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    assert_smoothing_matches_reference(relabel(g, perm, order))


# safe pairs and the smoothing kernel ------------------------------------------


def pivot_graphs(corpus, cold_e4_n16):
    """The essentially 4-edge-connected corpus graphs with n > 6, GP(8,3),
    GP(9,2) and the seed-0 cold input: the graphs that have safe pairs."""
    graphs = [g for g in corpus if g.n > 6 and is_essentially_4ec(g)]
    return graphs + [generalized_petersen(8, 3), generalized_petersen(9, 2), cold_e4_n16]


def test_safe_pairs_match_find_safe_pair(corpus, cold_e4_n16):
    graphs = pivot_graphs(corpus, cold_e4_n16)
    assert len(graphs) > 3
    for g in graphs:
        assert connectivity.safe_pairs(g) == [find_safe_pair(g, uv) for uv in range(g.m)]


def test_smoothing_kernel_matches_the_reduction_on_safe_pairs(corpus):
    """On every safe pair of the corpus, the kernel's (child, provenance,
    forced_include) are those of ``remove_edges_and_smooth`` and of the
    reference smoothing."""
    pairs = 0
    for g in corpus:
        if g.n <= 6 or not is_essentially_4ec(g):
            continue
        for decision in connectivity.safe_pairs(g):
            for pair in (decision.pair_a, decision.pair_b):
                got = _smooth(g, *pair)
                for red in (
                    remove_edges_and_smooth(g, *pair),
                    reference_remove_edges_and_smooth(g, *pair),
                ):
                    assert got == (red.child, red.edge_provenance, red.forced_include)
                pairs += 1
    assert pairs > 0


# 2EC check --------------------------------------------------------------------


def recorded_is_2ec_calls(monkeypatch, corpus):
    """(graph, member, answer) of every is_2ec call, and of every member of
    every first_non_2ec call, while a fresh Certifier certifies the corpus
    and GP(8,3), and while exact_opt runs on the corpus.  An is_2ec member
    is kept as the bitmask or the tuple of ids passed, a first_non_2ec
    member as the tuple of its ids, with the kernel's own answer: the
    members before the index it returns pass, the one at it fails, and
    the kernel is asked again about the rest."""
    calls = []
    honest = connectivity.is_2ec
    honest_kernel = connectivity.first_non_2ec

    def recorded(g, sub):
        sub = sub if isinstance(sub, int) else tuple(sub)
        answer = honest(g, sub)
        calls.append((g, sub, answer))
        return answer

    def recorded_kernel(g, masks):
        first = k = honest_kernel(g, masks)
        rest = list(masks)
        while k is not None:
            calls.extend((g, combine._edges(x, g.m), True) for x in rest[:k])
            calls.append((g, combine._edges(rest[k], g.m), False))
            rest = rest[k + 1 :]
            k = honest_kernel(g, rest)
        calls.extend((g, combine._edges(x, g.m), True) for x in rest)
        return first

    monkeypatch.setattr(connectivity, "is_2ec", recorded)
    monkeypatch.setattr(connectivity, "first_non_2ec", recorded_kernel)
    certifier = Certifier(max_n=16)
    for g in corpus + [generalized_petersen(8, 3)]:
        certifier.certify(g)
    for g in corpus:
        oracle.exact_opt(g)
    return calls


def checked_is_2ec(g, make_sub):
    """is_2ec's answer, once the Tarjan search it replaced and the per-edge
    removal scan agree with it; make_sub() gives a fresh copy of the
    member for each."""
    got = connectivity.is_2ec(g, make_sub())
    assert got == reference_tarjan_is_2ec(g, make_sub())
    sub = make_sub()
    ids = set(_iter_bits(sub)) if isinstance(sub, int) else set(sub)
    assert got == reference_is_2ec(g, ids)
    return got


def test_is_2ec_matches_references_on_recorded_calls(corpus, monkeypatch):
    calls = recorded_is_2ec_calls(monkeypatch, corpus)
    monkeypatch.undo()
    assert any(isinstance(sub, int) for _, sub, _ in calls)
    assert any(isinstance(sub, tuple) for _, sub, _ in calls)
    assert {answer for *_, answer in calls} == {True, False}
    for g, sub, answer in set(calls):
        assert checked_is_2ec(g, lambda: sub) == answer, sub


def member_forms(ids, repeats):
    """The member ids as each input form is_2ec takes, each a factory for
    a fresh copy: a list with repeated ids, a set, a generator, a bitmask."""
    return {
        "list": lambda: list(repeats),
        "set": lambda: set(ids),
        "generator": lambda: (e for e in ids),
        "bitmask": lambda: sum(1 << e for e in ids),
    }


@pytest.mark.parametrize("form", ["list", "set", "generator", "bitmask"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_2ec_matches_references_on_drawn_members(corpus, form, data):
    """Members drawn by leaving out any set of edges of a builtin or corpus
    graph, so that 2EC and non-2EC members both occur."""
    g = data.draw(st.sampled_from([builtin(name) for name in BUILTIN_NAMES] + corpus))
    left_out = data.draw(st.sets(st.integers(0, g.m - 1)))
    ids = sorted(set(range(g.m)) - left_out)
    extra = data.draw(st.lists(st.sampled_from(ids), max_size=4)) if ids else []
    repeats = data.draw(st.permutations(ids + extra))
    checked_is_2ec(g, member_forms(ids, repeats)[form])


def petersen_cycles():
    """The outer 5-cycle and the inner pentagram of the Petersen graph."""
    g = builtin("petersen")
    outer = [g.edge_id(i, (i + 1) % 5) for i in range(5)]
    inner = [g.edge_id(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return g, outer, inner


@pytest.mark.parametrize(
    "case, want",
    [
        ("empty", False),
        ("two-cycles", False),
        ("two-cycles-and-a-bridge", False),
        ("one-vertex", True),
        ("full", True),
    ],
)
@pytest.mark.parametrize("form", ["list", "set", "generator", "bitmask"])
def test_is_2ec_matches_references_on_edge_cases(case, want, form):
    g, outer, inner = petersen_cycles()
    ids = {
        "empty": [],
        "two-cycles": outer + inner,  # each cycle is 2EC, their union is not connected
        "two-cycles-and-a-bridge": outer + inner + [g.edge_id(0, 5)],
        "one-vertex": [],
        "full": list(range(g.m)),
    }[case]
    if case == "one-vertex":
        g = Graph(1, ())
    assert checked_is_2ec(g, member_forms(ids, ids + ids)[form]) is want


# branch and bound -------------------------------------------------------------


def assert_exact_opt_matches_reference(g):
    """exact_opt, with degree-pruned exclusions and running counters, gives
    the (value, witness) of the search it replaced, and the brute-force
    minimum wherever every edge subset can be scanned."""
    value, witness = exact_opt(g)
    assert (value, witness) == reference_exact_opt(g)
    assert value == len(witness.edges)
    if g.m <= 14:
        assert value == brute_force_min_2ec(g)


def test_exact_opt_matches_reference_on_fixed_graphs(corpus, cold_e4_n16):
    graphs = corpus + [generalized_petersen(8, 3), cold_e4_n16]
    for g in graphs + [C5, complete(5), TWO_K4_MINUS_EDGE]:
        assert_exact_opt_matches_reference(g)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_exact_opt_matches_reference_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus + [C5, complete(5), TWO_K4_MINUS_EDGE]))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    assert_exact_opt_matches_reference(relabel(g, perm, order))


# lane-parallel 2EC check ------------------------------------------------------


def member_answers(g, masks):
    """is_2ec's answer on each certifier-order mask, once the Tarjan search
    and the per-edge removal scan agree with it."""
    answers = []
    for x in masks:
        ids = combine._edges(x, g.m)
        got = connectivity.is_2ec(g, ids)
        assert got == reference_tarjan_is_2ec(g, ids) == reference_is_2ec(g, set(ids))
        answers.append(got)
    return answers


def first_false(answers):
    return next((k for k, ok in enumerate(answers) if not ok), None)


def recorded_member_lists(monkeypatch, graphs):
    """(graph, masks) of every first_non_2ec call while a fresh Certifier
    certifies graphs."""
    lists = []
    honest = connectivity.first_non_2ec

    def recorded(g, masks):
        lists.append((g, list(masks)))
        return honest(g, masks)

    monkeypatch.setattr(connectivity, "first_non_2ec", recorded)
    certifier = Certifier(max_n=16)
    for g in graphs:
        certifier.certify(g)
    monkeypatch.undo()
    return lists


def assert_kernel_matches_references(lists):
    """The kernel's answer on each recorded list, and on the same list with
    its middle member short of its last edge, is the first member is_2ec
    and both references reject."""
    for g, masks in lists:
        answers = member_answers(g, masks)
        assert connectivity.first_non_2ec(g, masks) == first_false(answers)
        k = len(masks) // 2
        thinner = list(masks)
        thinner[k] &= thinner[k] - 1
        answers[k] = member_answers(g, [thinner[k]])[0]
        assert connectivity.first_non_2ec(g, thinner) == first_false(answers)


def test_first_non_2ec_matches_references_on_node_lists(corpus, monkeypatch):
    lists = recorded_member_lists(monkeypatch, corpus + [generalized_petersen(8, 3)])
    assert sum(len(masks) for _, masks in lists) > 1000
    assert_kernel_matches_references(lists)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_first_non_2ec_matches_references_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        lists = recorded_member_lists(monkeypatch, [relabel(g, perm, order)])
    assert lists
    assert_kernel_matches_references(lists)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_non_2ec_matches_references_on_drawn_lists(corpus, data):
    """Members short of at most two edges, mostly 2EC, with any masks put
    in at random positions, so the first non-2EC member falls anywhere."""
    g = data.draw(st.sampled_from([builtin(name) for name in BUILTIN_NAMES] + corpus))
    full = (1 << g.m) - 1
    near_full = st.sets(st.integers(0, g.m - 1), max_size=2).map(
        lambda left_out: full ^ combine._bits(left_out, g.m)
    )
    masks = data.draw(st.lists(near_full, max_size=12))
    for x in data.draw(st.lists(st.integers(0, full), max_size=3)):
        masks.insert(data.draw(st.integers(0, len(masks))), x)
    assert connectivity.first_non_2ec(g, masks) == first_false(member_answers(g, masks))


def kernel_edge_cases():
    """Named edge cases as (graph, masks, first non-2EC index)."""
    g, outer, inner = petersen_cycles()
    full = (1 << g.m) - 1
    cycles = combine._bits(outer + inner, g.m)
    bridged = combine._bits(outer + inner + [g.edge_id(0, 5)], g.m)
    return {
        "no-members": (g, [], None),
        "one-full": (g, [full], None),
        "one-empty": (g, [0], 0),
        "one-vertex": (Graph(1, ()), [0, 0], None),
        "no-vertex": (Graph(0, ()), [0], None),
        "two-vertices-no-edge": (Graph(2, ()), [0], 0),
        "empty-among-full": (g, [full, full, 0, full], 2),
        "two-cycles": (g, [full, cycles, bridged], 1),
        "bridged-cycles": (g, [full, bridged, cycles], 1),
        "all-full": (g, [full] * 9, None),
    }


@pytest.mark.parametrize("case", list(kernel_edge_cases()))
def test_first_non_2ec_matches_references_on_edge_cases(case):
    g, masks, want = kernel_edge_cases()[case]
    assert connectivity.first_non_2ec(g, masks) == want
    if g.n >= 1:  # reference_is_2ec reads vertex 0
        assert first_false(member_answers(g, masks)) == want


@pytest.mark.parametrize("mask", [-1, 1 << 15], ids=["negative", "wide"])
def test_first_non_2ec_rejects_masks_outside_m_bits(mask):
    g = builtin("petersen")
    with pytest.raises(ValueError, match="member 1 mask .* has bits outside 15 bits"):
        connectivity.first_non_2ec(g, [(1 << 15) - 1, mask])

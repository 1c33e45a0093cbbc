"""The Gray-code shore walk and the integer-numerator weight sums against
the per-shore edge scan and the Fraction loop they replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from support import (
    reference_edge_occurrences,
    reference_shore_scan,
)

from cubic2ec import (
    Cut,
    Graph,
    combination,
    edge_connectivity,
    edge_occurrences,
    enumerate_cuts,
    two_ec_spanning_subgraphs,
)
from cubic2ec.connectivity import _cuts_up_to_4, _iter_bits

F = Fraction


def assert_cuts_match_scan(g):
    scan = reference_shore_scan(g)
    sizes = [cross.bit_count() for _, cross in scan]
    assert edge_connectivity(g) == min(sizes)
    assert _cuts_up_to_4(g) == tuple(
        (shore, cross, size)
        for (shore, cross), size in zip(scan, sizes)
        if size <= 4
    )
    assert enumerate_cuts(g, g.m) == [
        Cut(tuple(_iter_bits(shore)), tuple(_iter_bits(cross)))
        for shore, cross in scan
    ]


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


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_shore_walk_matches_scan_on_relabelings(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    perm = data.draw(st.permutations(range(g.n)))
    order = data.draw(st.permutations(range(g.m)))
    assert_cuts_match_scan(relabel(g, perm, order))


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
    members = list(two_ec_spanning_subgraphs(k4))
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
    members = list(two_ec_spanning_subgraphs(prism))
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

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from support import reference_graph6

from cubic2ec import (
    Graph,
    combination,
    edge_occurrences,
    is_2ec,
    parse_graph6,
    to_graph6,
)
from cubic2ec.graphs import GRAPH6_MAX_N

F = Fraction


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=GRAPH6_MAX_N))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        # any density up to n = 12, sparse above
        edges = draw(st.sets(st.sampled_from(pairs), max_size=None if n <= 12 else 2 * n))
    else:
        edges = set()
    return Graph(n, tuple(sorted(edges)))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_graph6_roundtrip(g):
    assert to_graph6(g) == reference_graph6(g)
    back = parse_graph6(to_graph6(g))
    assert back.n == g.n
    assert set(back.edges) == set(g.edges)


def _delta(g, mask):
    out = 0
    for u, v in g.edges:
        if ((mask >> u) ^ (mask >> v)) & 1:
            out += 1
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_function_is_symmetric_submodular(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    y = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    z = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    dy, dz = _delta(g, y), _delta(g, z)
    assert dy + dz >= _delta(g, y | z) + _delta(g, y & z)
    assert dy + dz >= _delta(g, y & ~z) + _delta(g, z & ~y)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cubic_cut_parity(corpus, data):
    g = data.draw(st.sampled_from(corpus))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    assert _delta(g, mask) % 2 == mask.bit_count() % 2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_adding_edges_preserves_2ec(small_corpus, data):
    g = data.draw(st.sampled_from(small_corpus))
    # start from the full edge set minus a few removable edges
    keep = set(range(g.m))
    removals = data.draw(
        st.lists(st.integers(min_value=0, max_value=g.m - 1), max_size=4)
    )
    for e in removals:
        trial = keep - {e}
        if is_2ec(g, trial):
            keep = trial
    extra = data.draw(st.integers(min_value=0, max_value=g.m - 1))
    assert is_2ec(g, keep)
    assert is_2ec(g, keep | {extra})


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(4)), rep=st.integers(min_value=1, max_value=6))
def test_occurrences_stable_under_entry_shuffle(k4, order, rep):
    cycles = [
        (0, 1, 4, 5),
        (0, 2, 3, 5),
        (1, 2, 3, 4),
        tuple(range(6)),
    ]
    weights = [F(2, 9), F(2, 9), F(2, 9), F(1, 3)]
    shuffled = [(weights[i], cycles[i]) for i in order]
    # split one entry into `rep` pieces: occurrences must not move
    w, es = shuffled[0]
    pieces = [(w / rep, es)] * rep
    comb_a = combination(k4, shuffled)
    comb_b = combination(k4, pieces + shuffled[1:])
    assert comb_a == comb_b
    assert edge_occurrences(comb_a) == edge_occurrences(comb_b)

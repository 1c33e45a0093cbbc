import pytest
from support import maxflow_edge_connectivity
from test_oracle import TWO_K4_MINUS_EDGE

from cubic2ec import (
    Graph,
    builtin,
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
from cubic2ec.connectivity import is_essential_cut


def cube() -> Graph:
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    edges += [(i, i + 4) for i in range(4)]
    return Graph(8, tuple(edges))


# is_2ec ---------------------------------------------------------------------


def test_is_2ec_full_petersen(petersen):
    assert is_2ec(petersen, range(petersen.m))


def test_is_2ec_hamiltonian_cycle_of_k4(k4):
    cycle = [k4.edge_id(0, 1), k4.edge_id(1, 2), k4.edge_id(2, 3), k4.edge_id(0, 3)]
    assert is_2ec(k4, cycle)


def test_is_2ec_rejects_spanning_tree(k4):
    tree = [k4.edge_id(0, 1), k4.edge_id(0, 2), k4.edge_id(0, 3)]
    assert not is_2ec(k4, tree)


def test_is_2ec_rejects_disconnected(prism):
    triangles = [prism.edge_id(a, b) for a, b in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))]
    assert not is_2ec(prism, triangles)


def test_is_2ec_accepts_bitmask_form(k4):
    cycle = {k4.edge_id(0, 1), k4.edge_id(1, 2), k4.edge_id(2, 3), k4.edge_id(0, 3)}
    mask = sum(1 << e for e in cycle)
    assert is_2ec(k4, mask)


@pytest.mark.parametrize(
    "g, sub, message",
    [
        (builtin("k4"), [0, 1, 2, 3, 4, -1], r"edge id -1 must lie in \[0, 6\)"),
        (builtin("petersen"), [0, 1, 99], r"edge id 99 must lie in \[0, 15\)"),
        (builtin("petersen"), -1, r"edge mask -0x1 has bits outside \[0, 15\)"),
        (builtin("petersen"), 1 << 15, r"edge mask 0x8000 has bits outside \[0, 15\)"),
        (Graph(1, ()), [0], r"edge id 0 must lie in \[0, 0\)"),
        (builtin("k4"), [True, 1, 2, 3, 4, 5], r"edge id True must lie in \[0, 6\)"),
        (builtin("k4"), [0, 1.0, 2, 3, 4, 5], r"edge id 1\.0 must lie in \[0, 6\)"),
        (builtin("k4"), True, r"edge mask True is a bool, not an int"),
    ],
    ids=[
        "k4-id-minus-1",
        "petersen-id-99",
        "negative-mask",
        "mask-bit-m",
        "one-vertex",
        "k4-id-bool",
        "k4-id-float",
        "k4-mask-bool",
    ],
)
def test_is_2ec_rejects_edge_ids_out_of_range(g, sub, message):
    with pytest.raises(ValueError, match=message):
        is_2ec(g, sub)


# edge connectivity ----------------------------------------------------------


def test_edge_connectivity_known_values(k4, prism, petersen):
    assert edge_connectivity(k4) == 3
    assert edge_connectivity(prism) == 3
    assert edge_connectivity(petersen) == 3


def test_edge_connectivity_disconnected_is_zero():
    g = Graph(4, ((0, 1), (2, 3)))
    assert edge_connectivity(g) == 0


def test_edge_connectivity_matches_maxflow_oracle(small_corpus):
    for g in small_corpus:
        assert edge_connectivity(g) == maxflow_edge_connectivity(g)


# cut enumeration ------------------------------------------------------------


def test_enumerate_cuts_k4_counts(k4):
    upto3 = enumerate_cuts(k4, 3)
    assert len(upto3) == 4
    assert all(len(c.crossing) == 3 for c in upto3)
    assert len(enumerate_cuts(k4, 4)) == 7  # every {S, complement} class


def test_enumerate_cuts_petersen_3cuts_are_vertex_cuts(petersen):
    cuts = enumerate_cuts(petersen, 3)
    assert len(cuts) == 10
    for c in cuts:
        assert len(c.shore) in (1, 9)


def test_enumerate_cuts_guards_size():
    with pytest.raises(ValueError):
        enumerate_cuts(Graph(21, tuple((i, i + 1) for i in range(20))), 3)


# essential cuts -------------------------------------------------------------


def test_find_essential_3cut_prism(prism):
    cut = find_essential_3cut(prism)
    assert cut is not None
    assert cut.shore == (3, 4, 5)
    assert sorted(cut.crossing) == [prism.edge_id(0, 3), prism.edge_id(1, 4), prism.edge_id(2, 5)]


def test_find_essential_3cut_none_for_petersen_k33(petersen, k33):
    assert find_essential_3cut(petersen) is None
    assert find_essential_3cut(k33) is None


def test_is_essentially_4ec(k4, prism, petersen):
    assert is_essentially_4ec(k4)
    assert not is_essentially_4ec(prism)
    assert is_essentially_4ec(petersen)


# essential 4-cut with pair --------------------------------------------------


def test_4cut_with_pair_rejects_equal_edges(petersen):
    with pytest.raises(ValueError):
        essential_4cut_with_pair(petersen, 3, 3)


@pytest.mark.parametrize("e1, e2", [(0, 99), (0, -1), (True, 2), (1.0, 2)])
def test_4cut_with_pair_rejects_edge_ids_out_of_range(petersen, e1, e2):
    with pytest.raises(ValueError, match=r"must lie in \[0, 15\)"):
        essential_4cut_with_pair(petersen, e1, e2)


def test_4cut_with_pair_none_on_petersen_beyond_endpoint_cut(petersen):
    # only essential 4-cuts of the Petersen graph are endpoint pairs of edges
    for uv, (u, v) in enumerate(petersen.edges):
        a = [w for w in petersen.neighbors(u) if w != v][0]
        c = [w for w in petersen.neighbors(v) if w != u][0]
        au = petersen.edge_id(a, u)
        vc = petersen.edge_id(v, c)
        assert essential_4cut_with_pair(petersen, au, vc, (u, v)) is None


def test_petersen_essential_4cuts_are_exactly_adjacent_pairs(petersen):
    ess = [
        c
        for c in enumerate_cuts(petersen, 4)
        if len(c.crossing) == 4 and is_essential_cut(petersen, c)
    ]
    assert len(ess) == 15
    for c in ess:
        small = c.shore if len(c.shore) == 2 else tuple(
            sorted(set(range(10)) - set(c.shore))
        )
        assert petersen.has_edge(*small)


def test_4cut_with_pair_finds_cube_gadget_cut():
    g = cube()
    cut = essential_4cut_with_pair(g, g.edge_id(0, 4), g.edge_id(1, 5))
    assert cut is not None
    assert len(cut.crossing) == 4
    # smallest canonical shore containing both rungs in its cut
    assert cut.shore == (4, 5)


def test_4cut_with_pair_respects_excluded_shore():
    g = cube()
    e1, e2 = g.edge_id(0, 4), g.edge_id(4, 5)  # adjacent pair around vertex 4
    found = essential_4cut_with_pair(g, e1, e2)
    if found is not None:
        again = essential_4cut_with_pair(g, e1, e2, excluded_shore=found.shore)
        assert again != found


@pytest.mark.parametrize("shore, bad", [((1, 6, 99), 99), ([-1], -1)])
def test_4cut_with_pair_rejects_excluded_shore_out_of_range(petersen, shore, bad):
    # (1, 6, 99) would otherwise miss the shore (1, 6) it means to exclude
    with pytest.raises(ValueError, match=rf"shore vertex {bad} must lie in \[0, 10\)"):
        essential_4cut_with_pair(petersen, 0, 1, shore)


@pytest.mark.parametrize("shore", [[], range(10)], ids=["empty", "full"])
def test_4cut_with_pair_rejects_empty_or_full_excluded_shore(petersen, shore):
    # both would be shore mask 0, which excludes no cut
    with pytest.raises(ValueError, match="shore must be a proper nonempty vertex subset"):
        essential_4cut_with_pair(petersen, 0, 1, shore)


# safe pairs -----------------------------------------------------------------


def test_find_safe_pair_petersen_accepts_first_orientation(petersen):
    for uv in range(petersen.m):
        decision = find_safe_pair(petersen, uv)
        assert decision.orientation == 1
        assert decision.witness_cut is None


def test_find_safe_pair_cube_flips_with_witness():
    g = cube()
    flips = 0
    for uv in range(g.m):
        decision = find_safe_pair(g, uv)
        # both chosen pairs must genuinely avoid common essential 4-cuts
        u, v = g.endpoints(uv)
        for e1, e2 in (decision.pair_a, decision.pair_b):
            assert essential_4cut_with_pair(g, e1, e2, (u, v)) is None
        if decision.orientation == 2:
            flips += 1
            assert decision.witness_cut is not None
    assert flips > 0  # the 4-cycles of the cube force flips somewhere


@pytest.mark.parametrize("uv", [-1, 15, True, 1.0])
def test_find_safe_pair_rejects_pivot_out_of_range(petersen, uv):
    with pytest.raises(ValueError, match=r"must lie in \[0, 15\)"):
        find_safe_pair(petersen, uv)


def test_find_safe_pair_rejects_small_or_cut_graphs(k33, prism):
    with pytest.raises(ValueError):
        find_safe_pair(k33, 0)  # n = 6
    with pytest.raises(ValueError):
        find_safe_pair(prism, 0)  # essential 3-cut
    with pytest.raises(ValueError):
        find_safe_pair(TWO_K4_MINUS_EDGE, 0)  # λ = 2


# safe-pair verification ------------------------------------------------------


def test_verify_lemma3_petersen(petersen):
    report = verify_lemma3(petersen)
    assert report.ok
    assert report.configurations == 60  # 4 per edge
    assert report.violations == ()
    assert report.orientation_flips == 0


def test_verify_lemma3_cube_has_flips_but_no_violations():
    report = verify_lemma3(cube())
    assert report.ok
    assert report.orientation_flips > 0


def test_verify_lemma3_rejects_prism(prism):
    with pytest.raises(ValueError):
        verify_lemma3(prism)


# cut invariants -------------------------------------------------------------


def test_make_cut_canonicalizes_away_vertex_zero(petersen):
    cut = make_cut(petersen, [0, 1])
    assert 0 not in cut.shore
    assert len(cut.shore) == 8


def test_edge_connectivity_equals_min_enumerated_cut(small_corpus):
    for g in small_corpus:
        cuts = enumerate_cuts(g, g.m)
        assert edge_connectivity(g) == min(len(c.crossing) for c in cuts)


def test_full_edge_set_2ec_iff_connectivity_at_least_two(small_corpus):
    for g in small_corpus:
        assert is_2ec(g, range(g.m)) == (edge_connectivity(g) >= 2)
    bridged = Graph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    assert edge_connectivity(bridged) == 1
    assert not is_2ec(bridged, range(bridged.m))

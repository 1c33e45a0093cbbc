from dataclasses import replace

import pytest
from support import girth, reference_graph6

from cubic2ec import (
    Graph,
    GraphFormatError,
    StructuralViolation,
    builtin,
    canonical_form,
    certificate_from_json,
    certificate_to_json,
    certify,
    contract_shore,
    enumerate_cuts,
    find_essential_3cut,
    format_edge_list,
    make_cut,
    parse_edge_list,
    parse_graph6,
    remove_edges_and_smooth,
    to_graph6,
)
from cubic2ec import graphs
from cubic2ec.connectivity import is_essential_cut


def test_graph_rejects_loops_parallels_and_range():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


@pytest.mark.parametrize(
    "n, edges",
    [(True, ()), (4.0, ()), (4, ((0, True),)), (4, ((0.0, 1),)), (4, ((0, "1"),))],
    ids=["bool_n", "float_n", "bool_vertex", "float_vertex", "str_vertex"],
)
def test_graph_rejects_a_count_or_vertex_that_is_not_an_int(n, edges):
    with pytest.raises(ValueError, match="is not an? (nonnegative )?int"):
        Graph(n, edges)


def test_text_forms_round_trip_because_a_bool_vertex_is_refused(k4):
    """With True taken for vertex 1, K4 wrote ``[0, true]`` to certificate
    JSON and ``0 True`` to an edge list, and neither reader took it back."""
    with pytest.raises(ValueError, match="not an int"):
        Graph(4, tuple((u, True) if v == 1 else (u, v) for u, v in k4.edges))
    assert parse_edge_list(format_edge_list(k4)) == k4
    text = certificate_to_json(certify(k4))
    back = certificate_from_json(text)
    assert back.graph == k4
    assert certificate_to_json(back) == text


def test_graph_normalizes_pairs_and_indexes_edges():
    g = Graph(4, ((3, 0), (1, 2)))
    assert g.edges == ((0, 3), (1, 2))
    assert g.edge_id(2, 1) == 1
    assert g.degree(0) == 1
    assert g.neighbors(0) == (3,)


# graph6 --------------------------------------------------------------------


def test_graph6_k4_roundtrips_to_known_string(k4):
    assert to_graph6(k4) == "C~"
    decoded = parse_graph6("C~")
    assert decoded.n == 4 and set(decoded.edges) == set(k4.edges)


def test_graph6_single_edge_and_trivial():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)
    assert to_graph6(Graph(1, ())) == "@"


@pytest.mark.parametrize("line, n", [("?", 0), ("@", 1)])
def test_graph6_round_trips_at_n_0_and_1(line, n):
    g = parse_graph6(line)
    assert g == Graph(n, ())
    assert to_graph6(g) == line


def test_canonical_form_still_needs_a_vertex():
    with pytest.raises(ValueError, match="canonical_form requires n >= 1"):
        canonical_form(Graph(0, ()))


def test_graph6_bit_order_assigns_edge_ids_column_major():
    decoded = parse_graph6("C~")
    assert decoded.edges == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def test_graph6_roundtrip_petersen_against_reference(petersen):
    line = to_graph6(petersen)
    assert line == reference_graph6(petersen)
    back = parse_graph6(line)
    assert back.n == 10 and set(back.edges) == set(petersen.edges)


def test_graph6_malformed_inputs_report_offsets():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6("C~~")  # extra payload byte
    assert exc.value.offset is not None
    with pytest.raises(GraphFormatError):
        parse_graph6("C\x01")  # character below the graph6 range
    with pytest.raises(GraphFormatError):
        parse_graph6("B~")  # nonzero padding for n=3
    with pytest.raises(GraphFormatError):
        parse_graph6("~??")  # multi-byte count marker


def test_graph6_optional_header_accepted(k4):
    assert set(parse_graph6(">>graph6<<C~").edges) == set(k4.edges)


# edge-list -----------------------------------------------------------------


def test_edge_list_roundtrip(petersen):
    text = format_edge_list(petersen)
    assert parse_edge_list(text).edges == petersen.edges
    assert text.splitlines()[0] == "10 15"


def test_edge_list_rejects_bad_header_and_counts():
    with pytest.raises(GraphFormatError):
        parse_edge_list("4\n0 1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("4 2\n0 1\n")


# builtins ------------------------------------------------------------------


def test_builtin_k4_is_cubic_3ec(k4):
    assert k4.n == 4 and k4.m == 6 and k4.is_cubic


def test_builtin_petersen_shape(petersen):
    assert petersen.n == 10 and petersen.m == 15
    assert petersen.is_cubic
    assert girth(petersen) == 5


def test_builtin_prism_is_two_triangles_plus_matching(prism):
    assert prism.is_cubic and prism.n == 6
    assert girth(prism) == 3
    for u, v in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)):
        assert prism.has_edge(u, v)


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin("dodecahedron")


# remove_edges_and_smooth ---------------------------------------------------


def test_smooth_petersen_drops_four_vertices_six_edges(petersen):
    # pivot edge (0,1): remove one edge at vertex 0 and one at vertex 1,
    # not sharing an endpoint
    e1 = petersen.edge_id(0, 4)
    e2 = petersen.edge_id(1, 6)
    red = remove_edges_and_smooth(petersen, e1, e2)
    assert red.child.n == 6 and red.child.m == 9
    assert red.child.is_cubic
    assert red.forced_exclude == {e1, e2}
    # forced edges are exactly those adjacent to the removed pair
    expected = set()
    for f in (e1, e2):
        for w in petersen.endpoints(f):
            expected.update(petersen.incident(w))
    assert red.forced_include == expected - {e1, e2}


def test_smooth_rejects_adjacent_pair(petersen):
    e1 = petersen.edge_id(0, 1)
    e2 = petersen.edge_id(0, 4)
    with pytest.raises(ValueError):
        remove_edges_and_smooth(petersen, e1, e2)
    with pytest.raises(ValueError):
        remove_edges_and_smooth(petersen, e1, e1)


@pytest.mark.parametrize("bad", [-1, 99, True, 1.0])
def test_smooth_rejects_edge_ids_out_of_range(petersen, bad):
    with pytest.raises(ValueError, match=rf"edge id {bad} must lie in \[0, 15\)"):
        remove_edges_and_smooth(petersen, 0, bad)


@pytest.mark.parametrize(
    "name, e1, e2, message",
    [
        # all four vertices of K4 are suppressed: they form a cycle
        ("k4", 0, 5, r"contract a cycle of degree-2 vertices"),
        # removing (0,3) and (1,4): the path 2, 3, 1, 5 parallels (2,5)
        ("k33", 0, 4, r"parallel to existing \(2, 5\)"),
        # removing (0,1) and (3,5): 2, 0, 3, 4 and 2, 1, 4 both join 2 and 4
        ("prism", 0, 4, r"two smoothed paths both produce edge \(2, 4\)"),
        # removing (0,3) and (1,4): the path 2, 0, 1, 2 is closed
        ("prism", 6, 7, r"loop at vertex 2"),
    ],
    ids=["k4-cycle", "k33-parallel", "prism-two-paths", "prism-loop"],
)
def test_smooth_parallel_edge_raises_structural_violation(name, e1, e2, message):
    with pytest.raises(StructuralViolation, match=message):
        remove_edges_and_smooth(builtin(name), e1, e2)


def test_smooth_provenance_partitions_parent_edges(petersen):
    red = remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )
    seen = []
    for path in red.edge_provenance:
        seen.extend(path)
    assert len(seen) == len(set(seen))
    assert set(seen) | red.forced_exclude == set(range(petersen.m))
    # multi-edge paths are exactly the forced selections
    multi = {pe for path in red.edge_provenance if len(path) > 1 for pe in path}
    assert multi == red.forced_include


def test_reduction_rejects_provenance_edge_in_forced_exclude(petersen):
    """lift maps provenance only, so an excluded edge must never be in it."""
    red = remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )
    (pe,) = next(path for path in red.edge_provenance if len(path) == 1)
    with pytest.raises(ValueError, match=rf"provenance edges \[{pe}\] are also"):
        replace(red, forced_exclude=red.forced_exclude | {pe})


def _petersen_removal(petersen):
    return remove_edges_and_smooth(
        petersen, petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    )


def test_reduction_rejects_overlapping_forced_sets(petersen):
    red = _petersen_removal(petersen)
    with pytest.raises(ValueError, match="^forced_include and forced_exclude overlap$"):
        replace(red, forced_include=red.forced_include | red.forced_exclude)


def test_reduction_rejects_a_parent_edge_in_two_provenance_lists(petersen):
    red = _petersen_removal(petersen)
    first, _, *rest = red.edge_provenance
    pe = first[0]
    with pytest.raises(ValueError, match=f"^parent edge {pe} in two provenance lists$"):
        replace(red, edge_provenance=(first, first, *rest))


def test_reduction_rejects_provenance_that_misses_a_parent_edge(petersen):
    red = _petersen_removal(petersen)
    with pytest.raises(
        ValueError, match="^provenance does not cover the parent edge set$"
    ):
        replace(red, edge_provenance=red.edge_provenance[1:])


@pytest.mark.parametrize("bad", [-1, "m", "a"], ids=["negative", "m", "str"])
def test_reduction_rejects_provenance_ids_outside_the_parent(petersen, bad):
    """An id that names no parent edge leaves the one it replaced uncovered."""
    red = _petersen_removal(petersen)
    bad = petersen.m if bad == "m" else bad
    i = next(i for i, path in enumerate(red.edge_provenance) if len(path) == 1)
    provenance = list(red.edge_provenance)
    provenance[i] = (bad,)
    with pytest.raises(
        ValueError, match="^provenance does not cover the parent edge set$"
    ):
        replace(red, edge_provenance=tuple(provenance))


def test_remove_edges_and_smooth_checks_provenance_once(petersen, monkeypatch):
    """The public removal makes the provenance checks once, in its
    Reduction; the certifier's kernel makes them once too."""
    calls = []
    honest = graphs._check_provenance

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(graphs, "_check_provenance", counted)
    pair = petersen.edge_id(0, 4), petersen.edge_id(1, 6)
    red = remove_edges_and_smooth(petersen, *pair)
    assert len(calls) == 1
    calls.clear()
    assert graphs._smooth(petersen, *pair) == (
        red.child,
        red.edge_provenance,
        red.forced_include,
    )
    assert len(calls) == 1


# contract_shore ------------------------------------------------------------


def test_contract_prism_yields_k4_on_both_sides(prism, k4):
    cut = find_essential_3cut(prism)
    inner = contract_shore(prism, cut, "inside")
    outer = contract_shore(prism, cut, "outside")
    for red in (inner, outer):
        child = red.child
        assert child.n == 4 and child.is_cubic
        # the only cubic simple graph on 4 vertices is complete
        assert set(child.edges) == set(k4.edges)
        corr = dict(red.cut_correspondence)
        assert sorted(corr.values()) == sorted(cut.crossing)
        for ce, pe in corr.items():
            assert 3 in child.endpoints(ce)  # the pseudo-vertex is the last
    assert inner.child.n + outer.child.n == prism.n + 2


def test_contract_shore_accepts_exactly_the_essential_3cuts(corpus):
    outcomes = set()
    for g in corpus:
        for cut in enumerate_cuts(g, 3):
            essential = is_essential_cut(g, cut)
            outcomes.add(essential)
            for side in ("inside", "outside"):
                if essential:
                    contract_shore(g, cut, side)
                else:
                    with pytest.raises(ValueError, match="cut is not essential"):
                        contract_shore(g, cut, side)
    assert outcomes == {False, True}


def test_contract_rejects_vertex_cut_and_wrong_sizes(prism, petersen):
    with pytest.raises(ValueError):
        contract_shore(prism, make_cut(prism, [3]), "inside")
    fourcut = make_cut(petersen, [0, 1])
    with pytest.raises(ValueError):
        contract_shore(petersen, fourcut, "inside")
    cut = find_essential_3cut(prism)
    with pytest.raises(ValueError):
        contract_shore(prism, cut, "sideways")

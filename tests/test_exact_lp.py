"""The integer simplex behind ``feasible_basic_solution`` and
``solve_cut_lp`` against the two Fraction solvers it replaced (the dense
phase-1 tableau and the revised dual simplex on a Fraction inverse): the
base-case systems, the least-support systems of the small corpus graphs
and of two n = 12 graphs, the cut LPs inside and outside the cubic class
over every cut the reference walk lists, and drawn systems; plus the
shape checks both entry points make, and the per-shore re-check that
tests/test_oracle.py applies to cut-LP optima outside the cubic class."""

from fractions import Fraction

import pytest
from conftest import CORPUS_PATH
from hypothesis import given, settings, strategies as st
from support import (
    reference_feasible_basic_solution,
    recheck_cut_lp_point,
    reference_solve_cut_lp,
    reference_walk_cuts,
    two_ec_system,
    valid_matching_system,
)
from test_oracle import C5, TWO_K4_MINUS_EDGE, complete

from cubic2ec import builtin, parse_graph6
from cubic2ec.exact_lp import feasible_basic_solution, solve_cut_lp

F = Fraction

CORPUS_LINES = [ln.strip() for ln in CORPUS_PATH.read_text().splitlines() if ln.strip()]
SMALL_LINES = [ln for ln in CORPUS_LINES if parse_graph6(ln).n <= 10]
# the two n = 12 corpus graphs with the fewest valid matchings (756 and
# 688): the reference takes about 25 s on each, and 60-76 s on the others
N12_LINES = ["K?CaGp``dOY?", "K?CaHXQgE?r?"]


def outcome(solve, *args):
    """The answer, or the type of the error raised."""
    try:
        return solve(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def assert_phase1_matches(rows, rhs):
    got = outcome(feasible_basic_solution, rows, rhs)
    assert got == outcome(reference_feasible_basic_solution, rows, rhs)
    return got


def assert_cut_lp_matches(m, masks):
    got = outcome(solve_cut_lp, m, masks)
    assert got == outcome(reference_solve_cut_lp, m, masks)
    return got


def cut_masks(g):
    return [cmask for _, cmask in reference_walk_cuts(g, g.m)[1]]


@pytest.mark.parametrize("name", ["k4", "k33", "prism", "petersen"])
def test_phase1_matches_reference_on_base_case_systems(name):
    subgraphs, rows, rhs = two_ec_system(builtin(name), F(7, 9))
    x = assert_phase1_matches(rows, rhs)
    assert x is not None and sum(x) == 1


def test_phase1_matches_reference_on_an_infeasible_target():
    _, rows, rhs = two_ec_system(builtin("k4"), F(1, 2))
    assert assert_phase1_matches(rows, rhs) is None


@pytest.mark.parametrize(
    "line", SMALL_LINES + [pytest.param(ln, marks=pytest.mark.slow) for ln in N12_LINES]
)
def test_phase1_matches_reference_on_least_support_systems(line):
    rows, rhs = valid_matching_system(parse_graph6(line))
    x = assert_phase1_matches(rows, rhs)
    assert x is not None and min(x) >= 0
    assert all(sum(a * b for a, b in zip(row, x)) == c for row, c in zip(rows, rhs))


@pytest.mark.parametrize(
    "g, value",
    [(C5, 5), (complete(5), 5), (complete(6), 6), (TWO_K4_MINUS_EDGE, 8)],
    ids=["c5", "k5", "k6", "two_k4_minus_edge"],
)
def test_cut_lp_matches_reference_off_the_cubic_class(g, value):
    got, x = assert_cut_lp_matches(g.m, cut_masks(g))
    assert got == value == sum(x)


def test_cut_lp_recheck_rejects_an_infeasible_point():
    """support.recheck_cut_lp_point catches a point that leaves a cut of C5
    short, and a value that is not the sum of its point."""
    recheck_cut_lp_point(C5, F(5), (F(1),) * 5)
    with pytest.raises(AssertionError, match="violates a cut constraint"):
        recheck_cut_lp_point(C5, F(9, 2), (F(1, 2),) + (F(1),) * 4)
    with pytest.raises(AssertionError, match="differs from the sum"):
        recheck_cut_lp_point(C5, F(4), (F(1),) * 5)


def test_cut_lp_matches_reference_on_small_corpus():
    for line in SMALL_LINES:
        g = parse_graph6(line)
        value, x = assert_cut_lp_matches(g.m, cut_masks(g))
        assert value == sum(x) == g.n


signed = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def systems(draw):
    r = draw(st.integers(0, 4))
    k = draw(st.integers(0, 6))
    rows = [[draw(signed) for _ in range(k)] for _ in range(r)]
    return rows, [abs(draw(signed)) for _ in range(r)]


@settings(max_examples=300, deadline=None)
@given(systems())
def test_phase1_matches_reference_on_drawn_systems(system):
    assert_phase1_matches(*system)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, (1 << m) - 1), max_size=12)
    )
))
def test_cut_lp_matches_reference_on_drawn_masks(case):
    assert_cut_lp_matches(*case)


def test_edge_cases_match_reference():
    assert assert_phase1_matches([], []) == []
    assert assert_phase1_matches([[], []], [F(0), F(1)]) is None
    assert assert_phase1_matches([[]], [F(0)]) == []
    assert assert_phase1_matches([[1, 2]], [-1]) is ValueError
    for m in (0, -1):
        assert assert_cut_lp_matches(m, []) is ValueError
    assert assert_cut_lp_matches(2, []) == (0, (0, 0))
    assert assert_cut_lp_matches(2, [0]) is RuntimeError  # an empty cut


@pytest.mark.parametrize(
    "rows, rhs",
    [([[1, 0]], [1, 5]), ([[1], [1, 1]], [1, 1]), ([[1, 1]], [])],
    ids=["extra-rhs", "ragged-rows", "missing-rhs"],
)
def test_phase1_rejects_mismatched_shapes(rows, rhs):
    with pytest.raises(ValueError):
        feasible_basic_solution(rows, rhs)


@pytest.mark.parametrize("mask", [0b101, -1], ids=["wide", "negative"])
def test_cut_lp_rejects_masks_outside_m_bits(mask):
    with pytest.raises(ValueError, match="outside the m edges"):
        solve_cut_lp(2, [mask])

from fractions import Fraction

import pytest
from support import (
    brute_force_min_2ec,
    recheck_cut_lp_point,
    reference_is_2ec,
    reference_walk_cuts,
)

from cubic2ec import (
    Graph,
    edge_connectivity,
    exact_opt,
    integrality_gap,
    lp_bound,
    certify,
    min_support_subgraph,
    support_bound,
)
from cubic2ec.exact_lp import solve_cut_lp

F = Fraction


def test_exact_opt_k4(k4):
    value, witness = exact_opt(k4)
    assert value == 4
    assert reference_is_2ec(k4, witness.edges)
    # lexicographically least optimum among the three Hamiltonian cycles
    assert witness.edges == (0, 1, 4, 5)


def test_exact_opt_k33_matches_brute_force(k33):
    value, witness = exact_opt(k33)
    assert value == brute_force_min_2ec(k33) == 6
    assert reference_is_2ec(k33, witness.edges)


def test_exact_opt_prism_matches_brute_force(prism):
    value, _ = exact_opt(prism)
    assert value == brute_force_min_2ec(prism) == 6


def test_exact_opt_petersen_is_eleven(petersen):
    value, witness = exact_opt(petersen)
    assert value == 11
    assert len(witness.edges) == 11
    assert reference_is_2ec(petersen, witness.edges)


def test_exact_opt_rejects_bridged_input():
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError):
        exact_opt(path)


def test_exact_opt_rejects_disconnected_input():
    triangles = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    with pytest.raises(ValueError, match="requires a 2-edge-connected graph"):
        exact_opt(triangles)


def test_exact_opt_witness_is_deterministic(petersen):
    a = exact_opt(petersen)
    b = exact_opt(petersen)
    assert a == b


# LP --------------------------------------------------------------------------


def test_lp_bound_k4(k4):
    sol = lp_bound(k4)
    assert sol.value == 4
    assert all(0 <= x <= 1 for x in sol.x)


def test_lp_bound_petersen_is_ten(petersen):
    sol = lp_bound(petersen)
    assert sol.value == 10
    assert sum(sol.x, F(0)) == 10
    # every singleton cut is tight at the optimum (value n)
    singles = [c for c in sol.tight_cuts if len(c.shore) in (1, 9)]
    assert len(singles) == 10


def test_lp_value_at_least_n_on_cubic(small_corpus):
    for g in small_corpus:
        assert lp_bound(g).value >= g.n


def test_lp_rejects_non_2ec():
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match="cut LP is infeasible"):
        lp_bound(path)


def complete(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def k4_minus_edge(o):
    return [
        (o + a, o + b) for a in range(4) for b in range(a + 1, 4) if (a, b) != (0, 1)
    ]


C5 = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
# cubic, n = 8: two copies of K4 minus an edge joined by a 2-edge cut
TWO_K4_MINUS_EDGE = Graph(
    8, tuple(k4_minus_edge(0) + k4_minus_edge(4) + [(0, 4), (1, 5)])
)


def test_closed_form_checks_its_own_preconditions():
    """lp_bound answers only on cubic 3-edge-connected graphs; the cut LPs
    of C5, K5 and two K4 minus an edge are left to the simplex below."""
    for g, lam in ((C5, 2), (complete(5), 4), (TWO_K4_MINUS_EDGE, 2)):
        assert edge_connectivity(g) == lam
        with pytest.raises(
            ValueError, match="^lp_bound requires a cubic 3-edge-connected graph$"
        ):
            lp_bound(g)


@pytest.mark.parametrize(
    "g, lam, value",
    [(C5, 2, 5), (complete(5), 4, 5), (complete(6), 5, 6), (TWO_K4_MINUS_EDGE, 2, 8)],
    ids=["c5", "k5", "k6", "two_k4_minus_edge"],
)
def test_lp_fallback_outside_cubic_3ec(g, lam, value):
    """Where lp_bound declines, solve_cut_lp over every cut the reference
    walk lists gives the optimum, and its point meets every cut constraint
    by a Fraction sum per shore."""
    assert edge_connectivity(g) == lam
    got, x = solve_cut_lp(g.m, [cmask for _, cmask in reference_walk_cuts(g, g.m)[1]])
    assert got == value
    recheck_cut_lp_point(g, got, x)


# gap --------------------------------------------------------------------------


def test_gap_petersen(petersen):
    report = integrality_gap(petersen)
    assert report.opt == 11
    assert report.lp == 10
    assert report.gap == F(11, 10)


def test_gap_k4_is_one(k4):
    assert integrality_gap(k4).gap == 1


def test_gap_envelope_and_sandwich(small_corpus, certifier):
    for g in small_corpus:
        report = integrality_gap(g)
        assert 1 <= report.gap <= F(4, 3)
        assert report.gap <= F(7, 6)
        support = len(min_support_subgraph(certifier.certify(g)).edges)
        assert report.lp <= report.opt <= support <= support_bound(g.n)


def test_uniform_7_9_is_lp_feasible(small_corpus):
    # min cut 3 on cubic 3EC graphs: 3 * 7/9 >= 2
    for g in small_corpus:
        for _, cross in reference_walk_cuts(g, g.m)[1]:
            assert cross.bit_count() * F(7, 9) >= 2

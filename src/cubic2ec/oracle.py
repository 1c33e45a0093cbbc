"""Independent ground truth: exact minimum 2EC, exact cut-LP, gap.

The branch-and-bound and LP paths are separate from the certificate
construction, so the two can cross-check each other: for every graph
``lp <= opt <= |min support member| <= floor(7n/6)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import connectivity
from .combine import Subgraph, _numerators
from .connectivity import Cut, _iter_bits, _mask_cut, _walk_cuts
from .errors import InvariantViolation
from .exact_lp import solve_cut_lp
from .graphs import Graph

ORACLE_MAX_N = 16


@dataclass(frozen=True)
class LpSolution:
    """Exact optimum of the cut LP with its solution vector.

    ``x[e]`` is the exact value on edge e; ``tight_cuts`` lists every
    enumerated cut whose constraint holds with equality, in ascending
    shore order.  On a cubic 3-edge-connected graph ``x`` is the uniform
    optimum 2/3 and ``tight_cuts`` are the cuts with exactly 3 edges;
    on any other input ``x`` is the optimal vertex the simplex reaches.
    """

    value: Fraction
    x: tuple[Fraction, ...]
    tight_cuts: tuple[Cut, ...]


@dataclass(frozen=True)
class GapReport:
    opt: int
    lp: Fraction
    gap: Fraction


def _guard(g: Graph):
    if g.n < 2:
        raise ValueError("oracle requires n >= 2")
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N} (got n={g.n})")


def exact_opt(g: Graph) -> tuple[int, Subgraph]:
    """Minimum-cardinality spanning 2EC edge set by branch and bound.

    Deterministic: among all optima the lexicographically least edge set
    is returned.  Include-first search in ascending edge order guarantees
    equal-size solutions are reached in lexicographic order; a greedy
    minimal subgraph seeds the size bound only.
    """
    _guard(g)
    if connectivity.edge_connectivity(g) < 2:
        raise ValueError("exact_opt requires a 2-edge-connected graph")
    n, m = g.n, g.m
    inc = [0] * n
    for e, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << e
        inc[v] |= 1 << e
    full = (1 << m) - 1

    # greedy minimal 2EC subgraph: upper bound for pruning, not the witness
    cur = full
    for e in range(m - 1, -1, -1):
        trial = cur & ~(1 << e)
        if connectivity.is_2ec(g, trial):
            cur = trial
    best_size = cur.bit_count()
    best_set: int | None = None

    def rec(pos: int, in_mask: int, avail_mask: int):
        nonlocal best_size, best_set
        in_count = in_mask.bit_count()
        deficiency = 0
        for v in range(n):
            d = (in_mask & inc[v]).bit_count()
            if d < 2:
                deficiency += 2 - d
        lb = in_count + (deficiency + 1) // 2
        if lb < n:
            lb = n
        if best_set is None:
            if lb > best_size:
                return
        elif lb >= best_size:
            return
        if pos == m:
            if connectivity.is_2ec(g, in_mask):
                size = in_mask.bit_count()
                if size < best_size or best_set is None:
                    best_size = size
                    best_set = in_mask
            return
        bit = 1 << pos
        rec(pos + 1, in_mask | bit, avail_mask)
        reduced = avail_mask & ~bit
        if connectivity.is_2ec(g, reduced):
            rec(pos + 1, in_mask, reduced)

    rec(0, 0, full)
    if best_set is None:
        raise InvariantViolation("2EC input must admit a solution")
    witness = tuple(_iter_bits(best_set))
    return best_size, Subgraph(g, witness)


def lp_bound(g: Graph) -> LpSolution:
    """Exact optimum of the cut LP ``min sum x : x(delta(S)) >= 2, 0 <= x <= 1``.

    Two paths, chosen by the input alone:

    * cubic and 3-edge-connected: the value is n, proved by a checked
      primal-dual pair (:func:`_cubic_3ec_lp`) without solving anything;
    * any other 2-edge-connected graph: every cut (one shore per
      complement pair) is a constraint from the start, optimality is
      certified by the exact optimal basis Bland's rule reaches, and the
      returned point is re-checked against every cut.
    """
    _guard(g)
    lam = connectivity.edge_connectivity(g)
    if lam < 2:
        raise ValueError("cut LP is infeasible: graph is not 2-edge-connected")
    if g.is_cubic and lam >= 3:
        return _cubic_3ec_lp(g)
    _, cuts = _walk_cuts(g, g.m)
    value, x = solve_cut_lp(g.m, [cmask for _, cmask in cuts])
    # independent feasibility re-check of the returned point
    if not all(0 <= xe <= 1 for xe in x):
        raise InvariantViolation("returned LP point leaves the unit box")
    nums, den = _numerators(x)
    two_den = 2 * den
    tight = []
    for shore, cmask in cuts:
        s = sum(nums[e] for e in _iter_bits(cmask))
        if s < two_den:
            raise InvariantViolation(
                "returned LP point violates a cut constraint"
            )
        if s == two_den:
            tight.append(_mask_cut(shore, cmask))
    if sum(x, Fraction(0)) != value:
        raise InvariantViolation("LP value differs from the sum of its point")
    return LpSolution(value=value, x=tuple(x), tight_cuts=tuple(tight))


def _cubic_3ec_lp(g: Graph) -> LpSolution:
    """The cut LP of a cubic 3-edge-connected graph in closed form.

    Primal: x = 2/3 on every edge meets every cut constraint, since every
    cut has at least 3 edges, and has value 2m/3 = n.  Dual: 1/2 on the
    constraint of every vertex star covers each edge exactly once, since
    each edge lies in the stars of its two endpoints, and has value
    2 * n/2 = n.  Equal values prove both optimal.  Every step is checked
    here, so the result does not rest on the caller's path choice.  λ and
    the tight cuts (exactly 3 edges) come from ``edge_connectivity`` and
    ``enumerate_cuts(g, 3)``.
    """
    n, m = g.n, g.m
    if not g.is_cubic:
        raise InvariantViolation("closed-form cut LP needs a cubic graph")
    if connectivity.edge_connectivity(g) < 3:
        raise InvariantViolation("closed-form cut LP needs every cut >= 3 edges")
    if 2 * m != 3 * n:
        raise InvariantViolation("cubic graph with 2m != 3n")
    cover = [0] * m
    for v in range(n):
        for e in g.incident(v):
            cover[e] += 1
    if any(c != 2 for c in cover):
        raise InvariantViolation("an edge is not in exactly two vertex stars")
    x = (Fraction(2, 3),) * m
    y = Fraction(1, 2)
    value = sum(x, Fraction(0))
    if value != 2 * y * n:
        raise InvariantViolation("primal value differs from the dual value")
    tight = tuple(connectivity.enumerate_cuts(g, 3))
    return LpSolution(value=value, x=x, tight_cuts=tight)


def integrality_gap(g: Graph) -> GapReport:
    """Exact OPT / OPT_LP ratio."""
    opt, _ = exact_opt(g)
    lp = lp_bound(g)
    return GapReport(opt=opt, lp=lp.value, gap=Fraction(opt) / lp.value)

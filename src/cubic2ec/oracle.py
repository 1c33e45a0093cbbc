"""Independent ground truth: exact minimum 2EC, exact cut LP, gap.

The branch-and-bound and LP paths are separate from the certificate
construction, so the two can cross-check each other: for every graph
``lp <= opt <= |min support member| <= floor(7n/6)``.

``exact_opt`` searches a tree exponential in m, so it is capped at
``ORACLE_MAX_N``.  ``lp_bound`` answers only on the paper's class, cubic
3-edge-connected graphs, where the cut LP has the closed form n; it reads
λ and the tight cuts from the cycle-space cut index, so it has no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import connectivity
from .certificate import Subgraph
from .connectivity import Cut, _iter_bits
from .errors import InvariantViolation
from .graphs import Graph

ORACLE_MAX_N = 16


@dataclass(frozen=True)
class LpSolution:
    """Exact optimum of the cut LP with its solution vector.

    ``x[e]`` is the exact value on edge e; ``tight_cuts`` lists every cut
    whose constraint holds with equality, in ascending shore order.  On a
    cubic 3-edge-connected graph, the only input ``lp_bound`` accepts,
    ``x`` is the uniform optimum 2/3 and ``tight_cuts`` are the cuts with
    exactly 3 edges.
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

    Each vertex's available degree (edges not excluded) and included
    degree are running counters, undone on return.  A spanning 2EC
    subgraph on n >= 3 vertices leaves every vertex at least two edges,
    so an edge is excluded, or dropped from the greedy seed, only if both
    ends keep two: the ``is_2ec`` calls this skips would all answer False.
    A node's lower bound is its included count plus half its deficiency
    (the edges each vertex still lacks to reach degree 2), at least n,
    read off the counters.  An exclusion is not tried either when a best
    found in the including subtree already prunes the excluding child,
    whose bound is the node's.  Every skipped ``is_2ec`` call would have
    answered False or led to a pruned node, so the search reaches the
    same leaves in the same order and returns the same witness.
    """
    _guard(g)
    if not connectivity.is_2ec(g, (1 << g.m) - 1):  # connected, bridgeless
        raise ValueError("exact_opt requires a 2-edge-connected graph")
    n, m, edges = g.n, g.m, g.edges  # n >= 3: a 2EC simple graph has a cycle

    # greedy minimal 2EC subgraph: upper bound for pruning, not the witness
    deg = [g.degree(v) for v in range(n)]
    cur = (1 << m) - 1
    for e in range(m - 1, -1, -1):
        u, v = edges[e]
        if deg[u] > 2 and deg[v] > 2 and connectivity.is_2ec(g, cur & ~(1 << e)):
            cur &= ~(1 << e)
            deg[u] -= 1
            deg[v] -= 1
    # a node is searched only if its lower bound is at most limit: the
    # greedy size until a solution is found, then one less than the best
    limit = cur.bit_count()
    best_set: int | None = None

    avail = [g.degree(v) for v in range(n)]
    have = [0] * n
    in_count = 0
    deficiency = 2 * n

    def rec(pos: int, in_mask: int, avail_mask: int):
        nonlocal limit, best_set, in_count, deficiency
        lb = in_count + (deficiency + 1) // 2
        if lb < n:
            lb = n
        if lb > limit:
            return
        if pos == m:  # in_count <= lb <= limit: a new best, if 2EC
            if connectivity.is_2ec(g, in_mask):
                best_set = in_mask
                limit = in_count - 1
            return
        bit = 1 << pos
        u, v = edges[pos]
        lacking = (have[u] < 2) + (have[v] < 2)
        have[u] += 1
        have[v] += 1
        in_count += 1
        deficiency -= lacking
        rec(pos + 1, in_mask | bit, avail_mask)
        have[u] -= 1
        have[v] -= 1
        in_count -= 1
        deficiency += lacking
        # the excluding child has this node's bound, and limit may have
        # dropped since: test it before asking is_2ec
        if lb <= limit and avail[u] > 2 and avail[v] > 2:
            reduced = avail_mask & ~bit
            if connectivity.is_2ec(g, reduced):
                avail[u] -= 1
                avail[v] -= 1
                rec(pos + 1, in_mask, reduced)
                avail[u] += 1
                avail[v] += 1

    rec(0, 0, (1 << m) - 1)
    if best_set is None:
        raise InvariantViolation("2EC input must admit a solution")
    witness = tuple(_iter_bits(best_set))
    return len(witness), Subgraph(g, witness)


def lp_bound(g: Graph) -> LpSolution:
    """Exact optimum of the cut LP ``min sum x : x(delta(S)) >= 2, 0 <= x <= 1``
    of a cubic 3-edge-connected graph, in closed form.

    Primal: x = 2/3 on every edge meets every cut constraint, since every
    cut has at least 3 edges, and has value 2m/3 = n.  Dual: 1/2 on the
    constraint of every vertex star covers each edge exactly once, since
    each edge lies in the stars of its two endpoints, and has value
    2 * n/2 = n.  Equal values prove both optimal, and every step is
    checked here.  λ and the tight cuts (exactly 3 edges) come from
    ``edge_connectivity`` and ``enumerate_cuts(g, 3)``, so the work is
    polynomial in n.  A graph with λ < 2, whose cut LP is infeasible, and
    any other input outside the class raise ValueError.
    """
    n, m = g.n, g.m
    if n < 2:
        raise ValueError("oracle requires n >= 2")
    lam = connectivity.edge_connectivity(g)
    if lam < 2:
        raise ValueError("cut LP is infeasible: graph is not 2-edge-connected")
    if not g.is_cubic or lam < 3:
        raise ValueError("lp_bound requires a cubic 3-edge-connected graph")
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

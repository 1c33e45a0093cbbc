"""Exact linear programming: one integer revised simplex, two entry points.

:func:`_simplex` minimizes ``c·z`` over ``A z = b, z >= 0`` for integer
data from a unit basis.  It keeps ``d = det B``, ``adj = d·B^-1`` and
``d·z_B`` as integers under Bareiss' exact division, and uses Bland's
rule both ways (the first column with a negative reduced cost enters; the
least ratio leaves, ties to the lower basic variable), so runs are exact,
deterministic and cycle-free.  :func:`_solve` checks each answer before it
is returned: the basic point solves the system and is nonnegative, no
column that may enter prices out, and ``c_B·z_B`` equals the prices' bound
``p·b``.  That proves the answer optimal, also under ``python -O``.

* :func:`feasible_basic_solution` — phase 1 for ``Ax = b, x >= 0`` with
  artificial unit columns at cost 1 that never re-enter; a None answer
  carries the final prices as a Farkas certificate.  The certifier reads
  its base cases from a constant table; this rebuilds it in the tests.
* :func:`solve_cut_lp` — the dual of the cut LP
  ``min sum x  s.t.  x(delta(S)) >= 2 for all S, 0 <= x <= 1``, one row
  per edge and every cut the caller lists a column from the start.
  Nothing in the package calls it: :func:`cubic2ec.oracle.lp_bound`
  answers only on cubic 3-edge-connected graphs, in closed form.  The
  tests solve it over every cut of small graphs to check that closed
  form, and the benchmark's tracer names it as a span.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InvariantViolation

_MAX_PIVOTS = 100_000


def _simplex(cols, costs, rhs, entering):
    """Minimize ``costs·z`` over ``sum_j z_j·cols[j] = rhs, z >= 0``.

    The last ``len(rhs)`` columns are the unit starting basis; only the
    first ``entering`` columns may enter.  Returns ``(basis, xd, d, p)``
    with ``d = det B``, ``xd = d·z_B`` and prices ``p = d·c_B·B^-1``.
    """
    r = len(rhs)
    basis = list(range(len(cols) - r, len(cols)))
    adj = [[int(i == j) for j in range(r)] for i in range(r)]
    xd, d = list(rhs), 1
    for _ in range(_MAX_PIVOTS):
        cb = [costs[b] for b in basis]
        p = [sum(map(mul, cb, col)) for col in zip(*adj)]
        enter = next(
            (j for j in range(entering) if sum(map(mul, p, cols[j])) > costs[j] * d),
            None,
        )
        if enter is None:
            return basis, xd, d, p
        y = [sum(map(mul, row, cols[enter])) for row in adj]
        k = None
        for i, yi in enumerate(y):
            if yi > 0 and (
                k is None or (xd[i] * y[k], basis[i]) < (xd[k] * yi, basis[k])
            ):
                k = i
        if k is None:
            raise RuntimeError("LP is unbounded (a cut LP: not 2-edge-connected?)")
        yk = y[k]
        adj = [
            row if i == k else [(yk * a - y[i] * b) // d for a, b in zip(row, adj[k])]
            for i, row in enumerate(adj)
        ]
        xd = [x if i == k else (yk * x - y[i] * xd[k]) // d for i, x in enumerate(xd)]
        d = yk
        basis[k] = enter
    raise RuntimeError("simplex exceeded the pivot limit")  # pragma: no cover


def _solve(cols, costs, rhs, entering):
    """:func:`_simplex`, with its answer checked before it is returned."""
    basis, xd, d, p = _simplex(cols, costs, rhs, entering)
    point = [sum(map(mul, row, xd)) for row in zip(*(cols[b] for b in basis))]
    if d <= 0 or min(xd, default=0) < 0 or point != [d * b for b in rhs]:
        raise InvariantViolation("the simplex's basic point does not solve its system")
    if any(sum(map(mul, p, cols[j])) > costs[j] * d for j in range(entering)):
        raise InvariantViolation("a column still prices out at the simplex's answer")
    if sum(map(mul, [costs[b] for b in basis], xd)) != sum(map(mul, p, rhs)):
        raise InvariantViolation("the simplex objective differs from its prices' bound")
    return basis, xd, d, p


def feasible_basic_solution(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with ``rows @ x == rhs`` (rhs >= 0), or None.

    Phase 1 from the artificial unit basis; returns the basic feasible
    solution Bland's rule reaches, deterministic in the column order.
    Rows and rhs are scaled by one common lcm, which keeps the pricing.
    """
    r = len(rows)
    if len(rhs) != r:
        raise ValueError("need one rhs entry per row")
    if r == 0:
        return []
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        raise ValueError("rows differ in length")
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative")
    data = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    scale = lcm(*(f.denominator for row in data for f in row))
    *cols, b = zip(*([int(f * scale) for f in row] for row in data))
    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    basis, xd, d, _ = _solve(cols + units, [0] * k + [1] * r, b, k)
    if any(j >= k and x for j, x in zip(basis, xd)):
        return None
    x = [Fraction(0)] * k
    for j, v in zip(basis, xd):
        if j < k:
            x[j] = Fraction(v, d)
    return x


def solve_cut_lp(m: int, cut_masks: list[int]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum of ``min sum x : x(delta(S)) >= 2, 0 <= x <= 1``.

    ``cut_masks[j]`` is the edge bitmask of the j-th cut.  The dual has
    columns y_j (the cuts, cost -2), w_e (-unit, cost 1) and the unit
    slacks t_e (cost 0) that start as the basis.  Returns ``(value, x)``
    where ``x = -p/d`` are the optimal dual basis's prices, i.e. the exact
    primal solution.
    """
    if m <= 0:
        raise ValueError("need at least one edge")
    if any(mask < 0 or mask >> m for mask in cut_masks):
        raise ValueError("a cut mask has bits outside the m edges")
    units = [tuple(int(i == e) for i in range(m)) for e in range(m)]
    cols = [tuple((mask >> e) & 1 for e in range(m)) for mask in cut_masks]
    cols += [tuple(-a for a in u) for u in units] + units
    costs = [-2] * len(cut_masks) + [1] * m + [0] * m
    _, _, d, p = _solve(cols, costs, [1] * m, len(cols))
    return Fraction(-sum(p), d), tuple(Fraction(-v, d) for v in p)

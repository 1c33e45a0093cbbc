"""Exact rational simplex routines (no floating point).

Two small solvers:

* :func:`feasible_basic_solution` — dense phase-1 simplex for equality
  systems ``Ax = b, x >= 0`` with a handful of rows (base-case search).
* :func:`solve_cut_lp` — revised simplex on the dual of the cut LP
  ``min sum x  s.t.  x(delta(S)) >= 2 for all S, 0 <= x <= 1``.  The dual
  has one row per edge, so the basis stays tiny while every cut
  constraint is present as a column from the start.  Bland's rule
  throughout, so runs are deterministic and cycle-free.  It serves only
  inputs outside the cubic 3-edge-connected class: there
  :func:`cubic2ec.oracle.lp_bound` proves the value n in closed form, and
  the tests keep this solver as the reference for that closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_MAX_PIVOTS = 100_000

ZERO = Fraction(0)
ONE = Fraction(1)


def feasible_basic_solution(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Find x >= 0 with ``rows @ x == rhs`` (rhs >= 0), or None.

    Phase-1 simplex with artificial variables and Bland's rule; returns the
    basic feasible solution reached, deterministic in the column order.
    """
    r = len(rows)
    if r == 0:
        return []
    k = len(rows[0])
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be nonnegative")
    tab = [list(map(Fraction, rows[i])) + [rhs[i]] for i in range(r)]
    basis = [k + i for i in range(r)]  # artificial ids k..k+r-1

    def artificial_rows():
        return [i for i in range(r) if basis[i] >= k]

    for _ in range(_MAX_PIVOTS):
        arts = artificial_rows()
        if not arts:
            break
        # price original columns against the artificial objective
        enter = -1
        for j in range(k):
            price = sum(tab[i][j] for i in arts)
            if price > 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test (Bland tie-break on basis variable index)
        leave = -1
        best = None
        for i in range(r):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            break
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(r):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter
    else:  # pragma: no cover
        raise RuntimeError("phase-1 simplex exceeded the pivot limit")

    if any(tab[i][-1] != 0 for i in artificial_rows()):
        return None
    x = [ZERO] * k
    for i in range(r):
        if basis[i] < k:
            x[basis[i]] = tab[i][-1]
    return x


def solve_cut_lp(m: int, cut_masks: list[int]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact optimum of ``min sum x : x(delta(S)) >= 2, 0 <= x <= 1``.

    ``cut_masks[j]`` is the edge bitmask of the j-th cut; every cut is a
    column of the dual from the start (no separation).  Returns
    ``(value, x)`` where ``x`` are the simplex multipliers of the optimal
    dual basis, i.e. the exact primal solution.
    """
    if m <= 0:
        raise ValueError("need at least one edge")
    K = len(cut_masks)
    # dual variables: y_j (j < K, cost 2), w_e (K..K+m-1, cost -1),
    # slack t_e (K+m.., cost 0); rows are edges, rhs 1.
    basis = list(range(K + m, K + m + m))
    binv = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    xb = [ONE] * m

    def cost(var: int) -> Fraction:
        if var < K:
            return Fraction(2)
        if var < K + m:
            return Fraction(-1)
        return ZERO

    def column(var: int) -> list[tuple[int, int]]:
        if var < K:
            out = []
            mask = cut_masks[var]
            while mask:
                low = mask & -mask
                out.append((low.bit_length() - 1, 1))
                mask ^= low
            return out
        if var < K + m:
            return [(var - K, -1)]
        return [(var - K - m, 1)]

    pi = [ZERO] * m
    for _ in range(_MAX_PIVOTS):
        cb = [cost(b) for b in basis]
        pi = [
            sum(cb[r] * binv[r][col] for r in range(m) if cb[r] != 0)
            for col in range(m)
        ]
        den = lcm(*(f.denominator for f in pi)) if m else 1
        p = [int(f * den) for f in pi]
        two_den = 2 * den
        # Bland: scan y columns, then w, then t, for positive reduced cost
        enter = -1
        for j, mask in enumerate(cut_masks):
            s = 0
            mm = mask
            while mm:
                low = mm & -mm
                s += p[low.bit_length() - 1]
                mm ^= low
            if s < two_den:  # rc = 2 - pi . a_j > 0
                enter = j
                break
        if enter < 0:
            for e in range(m):
                if p[e] > den:  # rc(w_e) = -1 + pi_e > 0
                    enter = K + e
                    break
        if enter < 0:
            for e in range(m):
                if p[e] < 0:  # rc(t_e) = -pi_e > 0
                    enter = K + m + e
                    break
        if enter < 0:
            value = sum(cb[r] * xb[r] for r in range(m))
            return value, tuple(pi)
        d = [ZERO] * m
        for row, coeff in column(enter):
            for i in range(m):
                if binv[i][row] != 0:
                    d[i] += coeff * binv[i][row]
        leave = -1
        best = None
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError(
                "cut LP dual is unbounded (primal infeasible: not 2-edge-connected?)"
            )
        piv = d[leave]
        binv[leave] = [x / piv for x in binv[leave]]
        xb[leave] /= piv
        for i in range(m):
            if i != leave and d[i] != 0:
                f = d[i]
                binv[i] = [x - f * y for x, y in zip(binv[i], binv[leave])]
                xb[i] -= f * xb[leave]
        basis[leave] = enter
    raise RuntimeError("cut LP simplex exceeded the pivot limit")  # pragma: no cover

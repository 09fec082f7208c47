"""Small exact LP solver (two-phase simplex, Bland's rule) on integer rows.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  for
rational (``int`` or ``Fraction``) data. Each tableau row, the objective
included, is held as a list of Python ints that is a positive multiple of the
row the textbook rational tableau would hold: input rows are scaled by the
lcm of their denominators, a pivot updates ``row*piv - coef*prow`` and
divides by the row's gcd. Signs and ratios are those of the rational
tableau, so every pivot is the one it makes, and the vertex is the same.
Rows are dense lists, for clarity: the flow LPs of this package range from
a few rows to about 2000 rows over 1000 columns (family scopes at k=9).
Bland's rule guarantees termination.

:func:`optimize` minimises several objectives over the same constraints with
one phase 1; :func:`solve` is its one-objective call. With no equality rows,
no negative ``b_ub`` and no negative cost, the answer is the origin, which
both return without building a tableau.

Callers whose rows are already integers over one common denominator pass it
as ``scale``: every constraint value is then an ``int`` whose rational value
is itself over ``scale``. Such a row is divided by its gcd with ``scale``,
which gives exactly the integer row its rational values would give, so the
tableau, the pivots and the result are those of the rational call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Row = Sequence[Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]] = None
    value: Optional[Fraction] = None
    # phase 1, drive-out and phase 2 together; phase 2 alone in a later
    # result of optimize
    pivots: int = 0


def _integer_row(values: Sequence[Fraction], scale: Optional[int] = None) -> tuple[list[int], int]:
    """``values`` times the lcm ``d`` of their denominators, and ``d``; with
    ``scale``, of the rational values ``values / scale``."""
    if scale is not None:
        g = math.gcd(scale, *values)
        return [v // g for v in values], scale // g
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _eliminate(row: list[int], prow: list[int], col: int) -> list[int]:
    """``row`` with column ``col`` cleared by the pivot row ``prow``, whose
    entry there is positive; a positive multiple of the rational result."""
    piv, coef = prow[col], row[col]
    out = [v * piv - coef * w for v, w in zip(row, prow)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def solve(
    c: Row,
    a_ub: list[Row],
    b_ub: Row,
    a_eq: list[Row],
    b_eq: Row,
    n: int,
    scale: Optional[int] = None,
) -> LPResult:
    return optimize([c], a_ub, b_ub, a_eq, b_eq, n, scale=scale)[0]


def optimize(
    objectives: Sequence[Row],
    a_ub: list[Row],
    b_ub: Row,
    a_eq: list[Row],
    b_eq: Row,
    n: int,
    scale: Optional[int] = None,
) -> list[LPResult]:
    """One result per cost row of ``objectives``, over the same constraints.

    Phase 1 and the drive-out run once; phase 2 then runs for each objective
    in turn, from the optimal basis of the one before. The first result is
    that of a cold :func:`solve`. A later one may end at another optimal
    vertex, with the same optimal value, and counts only its own pivots.
    """
    if n == 0:
        ok = all(b >= 0 for b in b_ub) and all(b == 0 for b in b_eq)
        return [LPResult(OPTIMAL, [], Fraction(0)) if ok else LPResult(INFEASIBLE) for _ in objectives]
    if not a_eq and all(b >= 0 for b in b_ub) and all(v >= 0 for c in objectives for v in c):
        # the slack basis is feasible and no cost can enter: Bland's rule
        # stops there after 0 pivots
        return [LPResult(OPTIMAL, [Fraction(0)] * n, Fraction(0)) for _ in objectives]

    # Rows [coeffs | slacks | artificials | rhs], flipped where the rhs is
    # negative. A slack or artificial gets the row's scale d as coefficient,
    # so that it is the rational tableau's variable. A <= row's slack is its
    # initial basic variable unless the row was flipped; other rows get an
    # artificial.
    scaled = [_integer_row([*row, b], scale) for row, b in [*zip(a_ub, b_ub), *zip(a_eq, b_eq)]]
    m, m_ub = len(scaled), len(a_ub)
    total = n + m_ub  # structural + slack columns
    art_rows = [i for i, (row, _) in enumerate(scaled) if i >= m_ub or row[-1] < 0]
    width = total + len(art_rows)
    basis = [n + i for i in range(m)]
    for j, i in enumerate(art_rows):
        basis[i] = total + j
    rows: list[list[int]] = []
    for i, (row, d) in enumerate(scaled):
        sign = -1 if row[-1] < 0 else 1
        rows.append([sign * v for v in row[:-1]] + [0] * (width - n) + [sign * row[-1]])
        if i < m_ub:
            rows[i][n + i] = sign * d
        rows[i][basis[i]] = d

    # objective rows hold positive multiples of the reduced costs; price out
    # the initial basis
    def priced(cost: list[Fraction]) -> list[int]:
        obj, _ = _integer_row([*cost, 0])
        for i, bi in enumerate(basis):
            if obj[bi] != 0:
                obj = _eliminate(obj, rows[i], bi)
        return obj

    pivots = 0

    def pivot(r: int, col: int) -> None:
        nonlocal pivots
        pivots += 1
        if rows[r][col] < 0:
            rows[r] = [-v for v in rows[r]]
        prow = rows[r]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                rows[i] = _eliminate(rows[i], prow, col)
        basis[r] = col

    def run(obj: list[int], allowed: int) -> tuple[str, list[int]]:
        while True:
            enter = next((j for j in range(allowed) if obj[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, obj
            leave = -1  # min ratio rhs/row[enter], compared by cross-multiplying
            for i, row in enumerate(rows):
                if row[enter] > 0:
                    best = rows[leave]
                    diff = -1 if leave < 0 else row[-1] * best[enter] - best[-1] * row[enter]
                    if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return UNBOUNDED, obj
            pivot(leave, enter)
            obj = _eliminate(obj, rows[leave], enter)

    # Phase 1: minimize the artificial total.
    if art_rows:
        status, phase1 = run(priced([0] * total + [1] * len(art_rows)), width)
        if status != OPTIMAL or phase1[-1] < 0:
            return [LPResult(INFEASIBLE, pivots=pivots)] + [LPResult(INFEASIBLE) for _ in objectives[1:]]
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= total:
                for j in range(total):
                    if rows[i][j] != 0:
                        pivot(i, j)
                        break

    # Phase 2 on each real objective, artificial columns barred; the first
    # result counts the pivots of phase 1 and the drive-out as well.
    results = []
    for c in objectives:
        status, _ = run(priced(list(c) + [0] * (width - n)), total)
        if status != OPTIMAL:
            results.append(LPResult(UNBOUNDED, pivots=pivots))
        else:
            x = [Fraction(0)] * n
            for i, bi in enumerate(basis):
                if bi < n:
                    x[bi] = Fraction(rows[i][-1], rows[i][bi])
            value = sum((cj * xj for cj, xj in zip(c, x) if cj), Fraction(0))
            results.append(LPResult(OPTIMAL, x, value, pivots))
        pivots = 0
    return results


def feasible_point(
    a_ub: list[Row], b_ub: Row, n: int, scale: Optional[int] = None
) -> Optional[list[Fraction]]:
    res = solve([0] * n, a_ub, b_ub, [], [], n, scale=scale)
    return res.x if res.status == OPTIMAL else None

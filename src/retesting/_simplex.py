"""Small exact-rational LP solver (two-phase simplex, Bland's rule).

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  over
Fractions. Problem sizes in this package are tiny (tens of rows/columns), so
clarity beats sparsity. Bland's rule guarantees termination.
"""

from __future__ import annotations

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


def solve(
    c: Row,
    a_ub: list[Row],
    b_ub: Row,
    a_eq: list[Row],
    b_eq: Row,
    n: int,
) -> LPResult:
    if n == 0:
        ok = all(b >= 0 for b in b_ub) and all(b == 0 for b in b_eq)
        return LPResult(OPTIMAL, [], Fraction(0)) if ok else LPResult(INFEASIBLE)

    zero = Fraction(0)
    one = Fraction(1)

    # Assemble rows as [coeffs | rhs]; slacks for <= rows, then flip rows with
    # negative rhs and add artificials so the initial basis is explicit.
    rows: list[list[Fraction]] = []
    slack_cols = len(a_ub)
    total = n + slack_cols  # structural + slack columns, artificials appended later
    for i, (arow, b) in enumerate(zip(a_ub, b_ub)):
        row = [Fraction(v) for v in arow] + [zero] * slack_cols + [Fraction(b)]
        row[n + i] = one
        rows.append(row)
    for arow, b in zip(a_eq, b_eq):
        row = [Fraction(v) for v in arow] + [zero] * slack_cols + [Fraction(b)]
        rows.append(row)

    basis: list[int] = []
    art_cols: list[int] = []
    m = len(rows)
    for i, row in enumerate(rows):
        if row[-1] < 0:
            for j in range(len(row)):
                row[j] = -row[j]
        # slack usable as the basic variable only if its coefficient stayed +1
        slack_j = n + i if i < slack_cols else None
        if slack_j is not None and row[slack_j] == one:
            basis.append(slack_j)
        else:
            art = total + len(art_cols)
            art_cols.append(art)
            basis.append(art)
    width = total + len(art_cols)
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend([zero] * (width - len(row)))
        row.append(rhs)
        if basis[i] >= total:
            row[basis[i]] = one

    # objective rows hold reduced costs; price out the initial basis
    def priced(cost: list[Fraction]) -> list[Fraction]:
        obj = cost + [zero]
        for i, bi in enumerate(basis):
            if obj[bi] != 0:
                coef = obj[bi]
                for j in range(width + 1):
                    obj[j] -= coef * rows[i][j]
        return obj

    def pivot(r: int, col: int) -> None:
        piv = rows[r][col]
        if piv != 1:
            rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                coef = rows[i][col]
                rows[i] = [v if w == 0 else v - coef * w for v, w in zip(rows[i], rows[r])]
        basis[r] = col

    def run(obj: list[Fraction], allowed: set[int]) -> tuple[str, list[Fraction]]:
        while True:
            enter = -1
            for j in sorted(allowed):
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, obj
            leave = -1
            best: Optional[Fraction] = None
            for i in range(m):
                if rows[i][enter] > 0:
                    ratio = rows[i][-1] / rows[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return UNBOUNDED, obj
            coef = obj[enter]
            pivot(leave, enter)
            obj[:] = [v if w == 0 else v - coef * w for v, w in zip(obj, rows[leave])]

    # Phase 1: minimize the artificial total.
    if art_cols:
        phase1 = priced([zero] * total + [one] * len(art_cols))
        status, phase1 = run(phase1, set(range(width)))
        if status != OPTIMAL or -phase1[-1] > 0:
            return LPResult(INFEASIBLE)
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= total:
                for j in range(total):
                    if rows[i][j] != 0:
                        pivot(i, j)
                        break

    # Phase 2 on the real objective, artificial columns barred.
    obj = priced(list(c) + [zero] * (width - n))
    status, obj = run(obj, set(range(total)))
    if status != OPTIMAL:
        return LPResult(UNBOUNDED)
    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return LPResult(OPTIMAL, x, -obj[-1])


def feasible_point(
    a_ub: list[Row], b_ub: Row, a_eq: list[Row], b_eq: Row, n: int
) -> Optional[list[Fraction]]:
    res = solve([Fraction(0)] * n, a_ub, b_ub, a_eq, b_eq, n)
    return res.x if res.status == OPTIMAL else None

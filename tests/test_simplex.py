"""The integer-row simplex against a rational-tableau reference.

``reference_solve`` is the textbook two-phase simplex over Fractions with
Bland's rule, kept here only as the oracle. The kernel must make the same
pivots, so status, point, value and pivot count all have to agree.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
import pytest

from retesting import AdmissionPolicy, ModelParams, Reporting, all_sequences, best_response
from retesting import _simplex, search
from retesting.search import _subtree_induction, enumerate_outcomes, free_stop_intervals
from dense_reference import DenseFlowSystem


def reference_solve(c, a_ub, b_ub, a_eq, b_eq, n) -> _simplex.LPResult:
    if n == 0:
        ok = all(b >= 0 for b in b_ub) and all(b == 0 for b in b_eq)
        return _simplex.LPResult("optimal" if ok else "infeasible", [] if ok else None,
                                 Fraction(0) if ok else None)
    zero, one = Fraction(0), Fraction(1)
    rows = []
    slack_cols = len(a_ub)
    total = n + slack_cols
    for i, (arow, b) in enumerate(zip(a_ub, b_ub)):
        row = [Fraction(v) for v in arow] + [zero] * slack_cols + [Fraction(b)]
        row[n + i] = one
        rows.append(row)
    for arow, b in zip(a_eq, b_eq):
        rows.append([Fraction(v) for v in arow] + [zero] * slack_cols + [Fraction(b)])
    basis, art_cols = [], []
    m = len(rows)
    for i, row in enumerate(rows):
        if row[-1] < 0:
            row[:] = [-v for v in row]
        if i < slack_cols and row[n + i] == one:
            basis.append(n + i)
        else:
            art_cols.append(total + len(art_cols))
            basis.append(art_cols[-1])
    width = total + len(art_cols)
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend([zero] * (width - len(row)))
        row.append(rhs)
        if basis[i] >= total:
            row[basis[i]] = one
    pivots = 0

    def priced(cost):
        obj = cost + [zero]
        for i, bi in enumerate(basis):
            if obj[bi] != 0:
                coef = obj[bi]
                obj = [v - coef * w for v, w in zip(obj, rows[i])]
        return obj

    def pivot(r, col):
        nonlocal pivots
        pivots += 1
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                coef = rows[i][col]
                rows[i] = [v - coef * w for v, w in zip(rows[i], rows[r])]
        basis[r] = col

    def run(obj, allowed):
        while True:
            enter = next((j for j in range(allowed) if obj[j] < 0), -1)
            if enter < 0:
                return "optimal", obj
            leave, best = -1, None
            for i in range(m):
                if rows[i][enter] > 0:
                    ratio = rows[i][-1] / rows[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return "unbounded", obj
            coef = obj[enter]
            pivot(leave, enter)
            obj = [v - coef * w for v, w in zip(obj, rows[leave])]

    if art_cols:
        status, phase1 = run(priced([zero] * total + [one] * len(art_cols)), width)
        if status != "optimal" or -phase1[-1] > 0:
            return _simplex.LPResult("infeasible", pivots=pivots)
        for i in range(m):
            if basis[i] >= total:
                for j in range(total):
                    if rows[i][j] != 0:
                        pivot(i, j)
                        break
    status, obj = run(priced(list(c) + [zero] * (width - n)), total)
    if status != "optimal":
        return _simplex.LPResult("unbounded", pivots=pivots)
    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return _simplex.LPResult("optimal", x, -obj[-1], pivots)


def outcome(res: _simplex.LPResult) -> tuple:
    return res.status, res.x, res.value, res.pivots


def assert_same(args, scale=None) -> _simplex.LPResult:
    """The kernel on ``args`` against the reference on the rational LP, which
    is ``args`` divided by ``scale`` when that is given."""
    got = _simplex.solve(*args, scale=scale)
    assert outcome(got) == outcome(reference_solve(*unscaled(args, scale)))
    return got


def assert_optimized(objectives, args, scale, results) -> None:
    """``optimize`` results against cold reference solves of each objective:
    the first exactly, the later ones in status and value, since a warm
    start may end at another optimal vertex after other pivots. Such a
    vertex must still be a feasible x >= 0 at which c.x is the value."""
    assert len(results) == len(objectives)
    for i, (c, got) in enumerate(zip(objectives, results)):
        want = reference_solve(*unscaled((c, *args), scale))
        if i == 0:
            assert outcome(got) == outcome(want)
            continue
        assert (got.status, got.value) == (want.status, want.value)
        if got.status == "optimal":
            _, a_ub, b_ub, a_eq, b_eq, _ = unscaled((c, *args), scale)
            x = got.x
            assert all(v >= 0 for v in x)
            assert all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(a_ub, b_ub))
            assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(a_eq, b_eq))
            assert sum(cj * v for cj, v in zip(c, x)) == got.value


def unscaled(lp: tuple, scale=None) -> tuple:
    """The rational LP of integer rows over ``scale`` (the cost stays)."""
    if scale is None:
        return lp
    c, a_ub, b_ub, a_eq, b_eq, n = lp

    def div(values):
        return [Fraction(v, scale) for v in values]

    return c, [div(row) for row in a_ub], div(b_ub), [div(row) for row in a_eq], div(b_eq), n


def _value(rng: random.Random, zero_share: float) -> Fraction:
    if rng.random() < zero_share:
        return 0 if rng.random() < 0.5 else Fraction(0)
    v = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 5, 7, 12)))
    return v if rng.random() < 0.5 or v.denominator > 1 else int(v)


def random_lp_cost(rng: random.Random, n: int) -> list:
    return [_value(rng, 0.3) for _ in range(n)]


def random_lp(rng: random.Random) -> tuple:
    n = rng.choice((0, 1, 2, 2, 3, 3, 4, 5))
    zero_share = rng.choice((0.0, 0.3, 0.6))
    m_ub, m_eq = rng.randint(0, 4), rng.randint(0, 3)
    a_ub = [[_value(rng, zero_share) for _ in range(n)] for _ in range(m_ub)]
    a_eq = [[_value(rng, zero_share) for _ in range(n)] for _ in range(m_eq)]
    # zero rhs makes degenerate ties; repeated rows, all-zero rows and
    # negative rhs force artificials of different scales
    b_ub = [_value(rng, 0.3) for _ in range(m_ub)]
    b_eq = [_value(rng, 0.3) for _ in range(m_eq)]
    if a_ub and rng.random() < 0.2:
        a_ub.append(list(a_ub[0]))
        b_ub.append(b_ub[0])
    if a_eq and rng.random() < 0.1:
        a_eq.append([0] * n)
        b_eq.append(rng.choice((0, Fraction(1, 3))))
    c = random_lp_cost(rng, n) if rng.random() < 0.8 else [0] * n
    return c, a_ub, b_ub, a_eq, b_eq, n


def test_random_lps_match_reference():
    rng = random.Random(20211)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    mixed = 0  # LPs whose artificial rows are scaled by different factors
    pivots = 0
    for _ in range(2000):
        c, a_ub, b_ub, a_eq, b_eq, n = lp = random_lp(rng)
        res = assert_same(lp)
        seen[res.status] += 1
        pivots += res.pivots
        art = [(row, b) for row, b in zip(a_ub, b_ub) if b < 0] + list(zip(a_eq, b_eq))
        mixed += len({_simplex._integer_row([*row, b])[1] for row, b in art}) > 1
    assert min(seen.values()) >= 200, seen
    assert mixed >= 1000 and pivots >= 2000


def test_scaled_integer_rows_solve_as_rational_rows():
    """``solve(D * lp, scale=D)`` is ``solve(lp)``: same status, point, value
    and pivots, for the least common D and for a multiple of it."""
    rng = random.Random(20212)
    for i in range(2000):
        c, a_ub, b_ub, a_eq, b_eq, n = lp = random_lp(rng)
        rows = [*a_ub, *a_eq, b_ub, b_eq]
        d = math.lcm(1, *(Fraction(v).denominator for row in rows for v in row))
        d *= rng.choice((1, 1, 2, 6, 35))

        def times(values):
            return [int(v * d) for v in values]

        scaled = (c, [times(r) for r in a_ub], times(b_ub), [times(r) for r in a_eq], times(b_eq), n)
        assert outcome(_simplex.solve(*scaled, scale=d)) == outcome(_simplex.solve(*lp)), i


def test_phase1_objective_uses_rational_rows():
    # -x + y = 1 and x + y/3 = 1/3, scales 1 and 3: the rational phase-1
    # costs (0, -4/3) enter y alone, where the scaled rows' sum (-2, -2)
    # would enter x first and take three pivots.
    lp = ([1, 1], [], [], [[-1, 1], [1, Fraction(1, 3)]], [1, Fraction(1, 3)], 2)
    res = assert_same(lp)
    assert (res.x, res.pivots) == ([0, 1], 2)


def test_optimize_matches_cold_solves():
    """Several objectives over one LP: each has the status and value of a
    cold solve, and the first is exactly :func:`_simplex.solve`'s result."""
    rng = random.Random(20213)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    warm = 0  # later objectives whose optimum is off the origin
    for i in range(2000):
        c, a_ub, b_ub, a_eq, b_eq, n = random_lp(rng)
        objectives = [c] + [random_lp_cost(rng, n) for _ in range(rng.randint(0, 3))]
        results = _simplex.optimize(objectives, a_ub, b_ub, a_eq, b_eq, n)
        assert_optimized(objectives, (a_ub, b_ub, a_eq, b_eq, n), None, results)
        assert outcome(results[0]) == outcome(_simplex.solve(c, a_ub, b_ub, a_eq, b_eq, n)), i
        for res in results:
            seen[res.status] += 1
        warm += sum(res.status == "optimal" and any(res.x) for res in results[1:])
    assert min(seen.values()) >= 200 and warm >= 200, (seen, warm)


def test_origin_needs_no_tableau(monkeypatch):
    # no equality row, no negative rhs and no negative cost: the slack basis
    # is optimal, as Bland's rule finds it after 0 pivots
    lp = ([0, Fraction(1, 2)], [[1, -1], [-3, 2]], [0, Fraction(5, 7)], [], [], 2)
    assert outcome(reference_solve(*lp)) == ("optimal", [0, 0], 0, 0)

    def no_tableau(*args):
        raise AssertionError("a tableau row was built")

    monkeypatch.setattr(_simplex, "_integer_row", no_tableau)
    assert outcome(_simplex.solve(*lp)) == ("optimal", [0, 0], 0, 0)
    assert [outcome(r) for r in _simplex.optimize([[0, 0], [1, 0]], *lp[1:])] == [("optimal", [0, 0], 0, 0)] * 2


@pytest.mark.parametrize("lp, status", [
    (([1], [[1]], [-1], [], [], 1), "infeasible"),
    (([-1], [[-1]], [0], [], [], 1), "unbounded"),
    (([], [[]], [1], [[]], [0], 0), "optimal"),
    (([], [[]], [-1], [], [], 0), "infeasible"),
])
def test_small_cases(lp, status):
    assert assert_same(lp).status == status


def _census_lps(monkeypatch, params: ModelParams) -> tuple[list[tuple], list[tuple]]:
    """Every LP that the census and its classes' intervals decide, as
    (a_ub, b_ub, n, scale, point or None). Neither census builds a flow
    system for its verdicts, so each LP is recorded on the dense rows of its
    policy's system, with the census's verdict. The report-all census
    decides each accept pattern of a first-score subtree by the origin's
    mask test, so each pattern that :func:`search._solve_subtrees` keeps
    gets the origin as its point and each one it drops None, on the rows of
    the pattern's rule code; an LP met again with the same verdict is
    recorded once. Each report-max policy that :func:`search._kept_policies`
    keeps gets the vertex of the dense reference's ``feasible``, and each one
    it drops None. Every kernel call is recorded as (objectives, other
    arguments, scale, results), where :func:`_simplex.solve` is an
    ``optimize`` call of one objective."""
    feasibility, lps, seen = [], [], set()
    optimize, kept_policies, solve_subtrees = _simplex.optimize, search._kept_policies, search._solve_subtrees

    def recording(objectives, *args, scale=None):
        results = optimize(objectives, *args, scale=scale)
        lps.append((objectives, args, scale, results))
        return results

    def deciding(params, plan):
        kept = list(kept_policies(params, plan))
        feasible = {entry.bits for entry, _ in kept}
        for entry in plan.entries:
            system = DenseFlowSystem(params, entry.code, all_sequences(params.k), Reporting.MAX)
            x = system.feasible(entry.bits) if entry.bits in feasible else None
            feasibility.append((*system.rows(entry.bits), system.n, system.scale, x))
        return iter(kept)

    def census(params, first):
        groups = solve_subtrees(params, first)
        kept = {bits for patterns, *_ in groups.values() for bits in patterns}
        for bits, _, _, code in sorted(search._induction(params.alpha, params.k, first)[0]):
            system = DenseFlowSystem(params, code, search._subtree(first, params.k), Reporting.ALL)
            a_ub, b_ub = system.rows(bits)
            x = [Fraction(0)] * system.n if bits in kept else None
            key = (tuple(map(tuple, a_ub)), tuple(b_ub), x is None)
            if key not in seen:
                seen.add(key)
                feasibility.append((a_ub, b_ub, system.n, system.scale, x))
        return groups

    monkeypatch.setattr(_simplex, "optimize", recording)
    monkeypatch.setattr(search, "_kept_policies", deciding)
    monkeypatch.setattr(search, "_solve_subtrees", census)
    for scope, reporting in (("report-all", Reporting.ALL), ("report-max", Reporting.MAX)):
        for cls in enumerate_outcomes(params, scope).classes:
            free_stop_intervals(params, cls.witness.policy, reporting)
    monkeypatch.undo()
    return feasibility, lps


@pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("alpha, p", [(Fraction(4, 5), Fraction(9, 20)), (Fraction(3, 5), Fraction(3, 4))])
def test_census_lps_match_reference(monkeypatch, alpha, p, phi):
    """Every census LP against the reference, in both directions: a refused
    one (by the forced-label screen or the origin's signs) must be
    infeasible, and a point (the origin, or one from the simplex) must be
    the reference's vertex; every kernel call matches too."""
    _subtree_induction.cache_clear()
    feasibility, lps = _census_lps(monkeypatch, ModelParams(p=p, alpha=alpha, phi=phi, k=3))
    assert len(feasibility) > 40
    assert any(any(c) for objectives, *_ in lps for c in objectives)  # the interval LPs optimise
    assert all(scale for *_, scale, _ in feasibility) and all(scale for _, _, scale, _ in lps)  # integer rows
    refused = 0
    for a_ub, b_ub, n, scale, x in feasibility:
        want = reference_solve(*unscaled(([0] * n, a_ub, b_ub, [], [], n), scale))
        if x is None:
            assert want.status == _simplex.INFEASIBLE
            refused += 1
        else:
            assert (want.status, want.x) == (_simplex.OPTIMAL, x)
    assert refused > 0
    for objectives, args, scale, results in lps:
        assert_optimized(objectives, args, scale, results)


def test_flow_rows_by_hand():
    """First-score policy at k=3, alpha 4/5, p 1/2, phi 1/2: every node is
    free (stopping and continuing tie), so x[i] is the continue mass of the
    i-th (type, history) in (length, string, High first) order."""
    params = ModelParams(p=Fraction(1, 2), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
    policy = AdmissionPolicy.first_score(3)
    system = DenseFlowSystem(params, best_response(params, policy).code, all_sequences(3), Reporting.ALL)
    assert system.n == 12
    a_ub, b_ub = system.rows(policy.bits)
    assert len(a_ub) == 12 + 14
    assert system.scale == 2 * 2 * 5**3  # den(p) den(phi) den(alpha)^k
    a_ub = [[Fraction(v, system.scale) for v in r] for r in a_ub]
    b_ub = [Fraction(b, system.scale) for b in b_ub]

    def row(**coeffs: Fraction) -> list:
        out = [0] * 12
        for name, v in coeffs.items():
            out[int(name[1:])] = v
        return out

    # x6 (High continues after AB) is at most High's reach of AB, x0 / 5
    assert (a_ub[6], b_ub[6]) == (row(x0=Fraction(-1, 5), x6=1), 0)
    # label A, accepted: High - Low >= 0, where High is 1/5 from Category 1
    # plus the 1/5 - x0 that stop in Category 2, and Low 1/20 + 1/20 - x1
    assert (a_ub[12], b_ub[12]) == (row(x0=1, x1=-1), Fraction(3, 10))
    # label AB, accepted: High stops x0/5 - x6, Low stops 4*x1/5 - x7
    assert (a_ub[15], b_ub[15]) == (row(x0=Fraction(-1, 5), x1=Fraction(4, 5), x6=1, x7=-1), 0)
    # label ABA, accepted: every High and Low that reaches it stops
    assert (a_ub[20], b_ub[20]) == (row(x6=Fraction(-4, 5), x7=Fraction(1, 5)), 0)

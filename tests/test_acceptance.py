"""Acceptance suite: one test per criterion, each printing a PASS line.

Grids follow the stated parameter ranges; points where the prior exactly
equals a regime threshold are flagged as boundaries and excluded from the
strict region assertions (closed/open endpoint subtleties live there).

The non-first-score region checks restrict phi to (0, 1): with one category
empty the multi-score structure degenerates (see
test_degenerate_phi_companion, which pins both directions of that failure).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import pytest

from retesting import (
    SEPARATING,
    AdmissionPolicy,
    Category,
    FIRST_SCORE,
    ModelParams,
    NON_FIRST_SCORE,
    REJECT_ALL,
    Score,
    SimConfig,
    StudentStrategy,
    StudentType,
    best_score_projection,
    college_payoff,
    construct_first_score_equilibrium,
    enumerate_outcomes,
    fairness_report,
    is_boundary,
    outcome_distribution,
    p_double_star,
    payoff_gap,
    posterior_from_distribution,
    predictive_values,
    reject_all_threshold,
    report_all_regions,
    report_max_reject_all,
    report_max_separating,
    report_max_thresholds,
    seq,
    simulate,
    verify_equilibrium,
)
from retesting.cli import main

ALPHAS_FINE = [Fraction(n, 20) for n in range(11, 20)]  # 0.55 .. 0.95
ALPHAS = [Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10)]
PHIS_FULL = [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5), Fraction(1)]
PHIS_INTERIOR = [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)]
P_GRID = [Fraction(n, 20) for n in range(1, 20)]  # 0.05 .. 0.95

def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@lru_cache(maxsize=None)
def enumerate_cached(params: ModelParams, scope: str):
    return enumerate_outcomes(params, scope)


def criterion3_grid() -> list[ModelParams]:
    points = []
    for alpha in (Fraction(3, 5), Fraction(4, 5)):
        for phi in (Fraction(3, 10), Fraction(7, 10)):
            lo, hi = 1 - alpha, alpha
            for j in range(1, 14):
                points.append(
                    ModelParams(p=lo + Fraction(j, 14) * (hi - lo), alpha=alpha, phi=phi, k=3)
                )
    return points


def posterior_max(params: ModelParams, best: Score) -> Fraction:
    """Pr(High | best score) when Category 2 retakes until an A (up to k)."""
    chained = outcome_distribution(params, StudentStrategy.stop_after_a(params.k))
    return posterior_from_distribution(best_score_projection(chained), (best,))


def test_criterion_1_threshold_fidelity():
    """Best-score posteriors cross one half exactly at the two thresholds."""
    checked = 0
    for alpha in ALPHAS_FINE:
        for phi in PHIS_FULL:
            for k in (2, 3):
                base = ModelParams(p=Fraction(1, 2), alpha=alpha, phi=phi, k=k)
                lower, upper = report_max_thresholds(base)
                for threshold, score in ((lower, Score.A), (upper, Score.B)):
                    at = ModelParams(p=threshold, alpha=alpha, phi=phi, k=k)
                    post = posterior_max(at, score)
                    assert post == Fraction(1, 2)
                    assert abs(float(post) - 0.5) <= 1e-9
                    eps = min(Fraction(1, 10000), (1 - threshold) / 2, threshold / 2)
                    above = ModelParams(p=threshold + eps, alpha=alpha, phi=phi, k=k)
                    below = ModelParams(p=threshold - eps, alpha=alpha, phi=phi, k=k)
                    assert posterior_max(above, score) > Fraction(1, 2)
                    assert posterior_max(below, score) < Fraction(1, 2)
                    checked += 1
    report("criterion 1", f"threshold crossings exact at {checked} (alpha, phi, k) cells")


def test_criterion_2_uniqueness_k2(capsys):
    """Exhaustive two-test enumeration finds exactly the first-score outcome
    for priors strictly between 1-alpha and one half."""
    points = 0
    for alpha in ALPHAS:
        for phi in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2),
                    Fraction(7, 10), Fraction(9, 10)):
            lo, hi = 1 - alpha, Fraction(1, 2)
            for j in range(1, 11):
                p = lo + Fraction(j, 11) * (hi - lo)
                code = main([
                    "enumerate", "--alpha", str(alpha), "--p", str(p),
                    "--phi", str(phi), "--k", "2", "--format", "json",
                ])
                out = capsys.readouterr().out
                assert code == 0
                payload = json.loads(out)
                assert payload["policies_considered"] == 64
                assert payload["boundary_flag"] == 0
                assert len(payload["classes"]) == 1
                cls = payload["classes"][0]
                assert cls["label"] == "first_score" and cls["verified"]
                assert cls["admit_prob"]["(1,H)"] == pytest.approx(float(alpha))
                assert cls["admit_prob"]["(2,L)"] == pytest.approx(float(1 - alpha))
                points += 1
    assert points == 200
    report("criterion 2", f"unique first-score outcome at all {points} interior points")


def test_criterion_3_all_equilibria_structure():
    """Every verified three-test profile admits a single A and rejects every
    all-B sequence, for priors strictly inside (1-alpha, alpha)."""
    points = criterion3_grid()
    assert len(points) >= 50
    policies_checked = 0
    for params in points:
        enumeration = enumerate_cached(params, "report-all")
        assert enumeration.policies_considered == 16384
        all_b = [seq("B"), seq("BB"), seq("BBB")]
        for cls in enumeration.classes:
            assert cls.verified
            for policy in cls.policies:
                assert policy.accepts(seq("A"))
                assert not any(policy.accepts(s) for s in all_b)
                policies_checked += 1
    report(
        "criterion 3",
        f"{policies_checked} verified policies across {len(points)} points all "
        "accept single-A and reject all-B sequences",
    )


def test_criterion_4_existence_regions():
    """Enumerator-found class existence matches the closed-form regions."""
    sep_pts = fs_pts = nfs_pts = 0
    for k in (2, 3):
        for alpha in ALPHAS:
            for phi in PHIS_FULL:
                for p in P_GRID:
                    params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                    if is_boundary(params):
                        continue
                    lower, upper = report_max_thresholds(params)
                    found_sep = any(
                        AdmissionPolicy.best_score_a(k) in cls.policies
                        for cls in enumerate_cached(params, "report-max").classes
                    )
                    assert found_sep == (lower <= p <= upper), params
                    sep_pts += 1

                    classes = enumerate_cached(params, "report-all").classes
                    labels = [c.label for c in classes]
                    first_expected, nfs_region = report_all_regions(params)
                    assert (FIRST_SCORE in labels) == first_expected, params
                    fs_pts += 1
                    if phi in PHIS_INTERIOR:
                        assert (NON_FIRST_SCORE in labels) == nfs_region.contains(p), params
                        nfs_pts += 1
    report(
        "criterion 4",
        f"separating region matched at {sep_pts} points, first-score at {fs_pts}, "
        f"non-first-score at {nfs_pts} (interior phi)",
    )


def test_degenerate_phi_companion():
    """With one category empty the multi-score region claims degrade; pin the
    exact failure modes that justify restricting criterion 4 to interior phi."""
    # phi = 0: nobody is confined to a single test, so rejecting a lone A is
    # off-path-supportable and an accept-only-AA equilibrium appears at p=0.3,
    # outside [p_star(4), 1-alpha] U [1/2, alpha]
    params = ModelParams(p=Fraction(3, 10), alpha=Fraction(4, 5), phi=0, k=2)
    _, region = report_all_regions(params)
    assert not region.contains(params.p)
    labels = [c.label for c in enumerate_cached(params, "report-all").classes]
    assert NON_FIRST_SCORE in labels
    # phi = 1: no one can retest, so no outcome ever conditions on a second
    # score even where the region is nonempty
    params = ModelParams(p=Fraction(11, 20), alpha=Fraction(4, 5), phi=1, k=2)
    _, region = report_all_regions(params)
    assert region.contains(params.p)
    labels = [c.label for c in enumerate_cached(params, "report-all").classes]
    assert NON_FIRST_SCORE not in labels
    report(
        "companion",
        "degenerate phi in {0,1} breaks the multi-score region in both "
        "directions, as excluded from criterion 4",
    )


def test_criterion_5_metric_identities():
    """Closed-form payoff gap identities and strict predictive-value ordering."""
    for alpha in ALPHAS_FINE:
        for phi in PHIS_FULL:
            for p in (Fraction(1, 10), Fraction(3, 10), Fraction(9, 20)):
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=2)
                assert payoff_gap(params) == (1 - phi) * alpha * (1 - alpha) * (1 - 2 * p)
            for k in (2, 3, 4):
                params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=phi, k=k)
                a, ab = alpha, 1 - alpha
                expected = (1 - phi) * ((a - a**k) * params.p_bar - (ab - ab**k) * params.p)
                assert payoff_gap(params) == expected

    ordered = 0
    for alpha in [a for a in ALPHAS_FINE if a < Fraction(19, 20)]:
        for phi in [Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)]:
            for k in (2, 3):
                base = ModelParams(p=Fraction(1, 2), alpha=alpha, phi=phi, k=k)
                lower, _ = report_max_thresholds(base)
                p = (lower + Fraction(1, 2)) / 2
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                max_profile = report_max_separating(params)
                all_profile = construct_first_score_equilibrium(params)
                assert max_profile is not None
                max_ppv, max_npv = predictive_values(params, max_profile)
                all_ppv, all_npv = predictive_values(params, all_profile)
                assert all_ppv > max_ppv
                assert all_npv < max_npv
                assert payoff_gap(params) == college_payoff(params, all_profile) - college_payoff(
                    params, max_profile
                )
                ordered += 1

    # perfect accuracy: every comparison collapses to equality, exactly
    params = ModelParams(p=Fraction(3, 10), alpha=1, phi=Fraction(1, 2), k=2)
    max_profile = report_max_separating(params)
    all_profile = construct_first_score_equilibrium(params)
    assert payoff_gap(params) == 0
    assert predictive_values(params, max_profile) == predictive_values(params, all_profile) == (1, 1)
    assert college_payoff(params, max_profile) == college_payoff(params, all_profile)
    r = fairness_report(params, max_profile)
    assert r.fnr_gap == 0 and r.fpr_gap == 0
    report("criterion 5", f"gap identities exact; PPV/NPV strictly ordered at {ordered} cells")


def test_criterion_6_parity_and_gap_formulas():
    """First-score parity is exact; separating gaps match the table entries."""
    parity = gaps = 0
    for alpha in ALPHAS_FINE:
        for phi in PHIS_FULL:
            for k in (2, 3):
                lo, hi = 1 - alpha, alpha
                for j in (1, 5, 9):
                    p = lo + Fraction(j, 10) * (hi - lo)
                    params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                    r = fairness_report(params, construct_first_score_equilibrium(params))
                    assert r.fnr_gap == 0 and r.fpr_gap == 0
                    parity += 1
                base = ModelParams(p=Fraction(1, 2), alpha=alpha, phi=phi, k=k)
                lower, _ = report_max_thresholds(base)
                p = (lower + Fraction(1, 2)) / 2
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                r = fairness_report(params, report_max_separating(params))
                ab = 1 - alpha
                assert r.fnr_gap == ab - ab**k
                assert r.fpr_gap == ab - (1 - alpha**k)
                gaps += 1
    report("criterion 6", f"parity exact at {parity} points; separating gaps match at {gaps}")


def test_criterion_7_payoff_dominance():
    """Every three-test class beats the separating benchmark below the
    payoff-gap threshold, and trailing-run classes beat first-score."""
    strict = weak = 0
    for params in criterion3_grid():
        pp = p_double_star(3, params.alpha)
        lower, upper = report_max_thresholds(params)
        classes = enumerate_cached(params, "report-all").classes
        first = [c for c in classes if c.label == FIRST_SCORE]
        assert first, params

        def payoff(cls) -> Fraction:
            return sum(
                (
                    prob * params.cohort_mass[c] * (1 if c.type_ is StudentType.HIGH else -1)
                    for c, prob in cls.admit_prob.items()
                ),
                Fraction(0),
            )

        first_payoff = payoff(first[0])
        for cls in classes:
            if cls.label == NON_FIRST_SCORE:
                assert payoff(cls) >= first_payoff
                weak += 1
        if params.p < pp and lower <= params.p <= upper:
            sep = report_max_separating(params)
            sep_payoff = college_payoff(params, sep)
            for cls in classes:
                assert payoff(cls) > sep_payoff, (params, cls.label)
                strict += 1
    assert strict > 0 and weak > 0
    report(
        "criterion 7",
        f"{strict} strict dominances over separating, {weak} run-vs-first orderings",
    )


def test_criterion_8_monte_carlo():
    """Ten seeds at n=1e6: every empirical rate within 0.005 of closed form,
    byte-identical reports per seed."""
    params = ModelParams(p=Fraction(3, 10), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2)
    profiles = {
        "max_separating": report_max_separating(params),
        "all_first_score": construct_first_score_equilibrium(params),
    }
    checks = 0
    for name, profile in profiles.items():
        analytic = fairness_report(params, profile)
        closed = {
            ("fnr", "cat1"): float(analytic.fnr[Category.CAT1]),
            ("fnr", "cat2"): float(analytic.fnr[Category.CAT2]),
            ("fpr", "cat1"): float(analytic.fpr[Category.CAT1]),
            ("fpr", "cat2"): float(analytic.fpr[Category.CAT2]),
        }
        for seed in range(10):
            config = SimConfig(n=1_000_000, seed=seed, params=params, profile=profile)
            first = simulate(config)
            again = simulate(config)
            assert first.to_json() == again.to_json()
            empirical = {
                ("fnr", "cat1"): first.fnr["cat1"],
                ("fnr", "cat2"): first.fnr["cat2"],
                ("fpr", "cat1"): first.fpr["cat1"],
                ("fpr", "cat2"): first.fpr["cat2"],
            }
            for key, want in closed.items():
                assert abs(empirical[key] - want) < 0.005, (name, seed, key)
                checks += 1
            assert abs(first.ppv - float(analytic.ppv)) < 0.005
            assert abs(first.npv - float(analytic.npv)) < 0.005
    report("criterion 8", f"{checks} rate checks within 0.005 over 10 seeds x 2 profiles")


def test_criterion_9_reject_all_coexistence():
    """At p=0.25 both best-score classes verify; at p=0.30 only separating."""
    inside = ModelParams(p=Fraction(1, 4), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2)
    assert reject_all_threshold(inside) == Fraction(7, 27)
    family = report_max_reject_all(inside)
    assert family is not None
    assert verify_equilibrium(inside, family.witness()).ok
    sep = report_max_separating(inside)
    assert sep is not None and verify_equilibrium(inside, sep).ok
    labels = sorted(c.label for c in enumerate_outcomes(inside, "report-max").classes)
    assert labels == sorted([REJECT_ALL, SEPARATING])

    outside = ModelParams(p=Fraction(3, 10), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2)
    assert outside.p > reject_all_threshold(outside)
    assert report_max_reject_all(outside) is None
    sep = report_max_separating(outside)
    assert sep is not None and verify_equilibrium(outside, sep).ok
    labels = [c.label for c in enumerate_outcomes(outside, "report-max").classes]
    assert labels == [SEPARATING]
    report("criterion 9", "coexistence at p=0.25, separating unique at p=0.30")

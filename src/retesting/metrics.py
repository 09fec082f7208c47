"""Fairness and accuracy statistics of equilibrium profiles, plus the
closed-form cross-policy comparisons.

Gap sign convention throughout: Category 1 minus Category 2. Under best-score
reporting the separating equilibrium gives Category 2 a lower false-negative
and a higher false-positive rate, so fnr_gap > 0 and fpr_gap < 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .equilibria import (
    NON_FIRST_SCORE,
    SEPARATING,
    EquilibriumProfile,
    Reporting,
    closed_form_profiles,
)
from .model import (
    COHORTS,
    Category,
    Cohort,
    ModelParams,
    StudentStrategy,
    admission_key,
    cohort_rows,
)
from .search import EXHAUSTIVE_MAX_K, SCOPE_REPORT_ALL, enumerate_outcomes


@dataclass(frozen=True)
class FairnessReport:
    """Error rates, predictive values, and College payoff of one profile.

    ppv/npv are None when no student is admitted/rejected (they would be
    0/0); reject-all equilibria are the standard case. ``admit_prob`` is the
    per-cohort admission probability of every cohort, the map the rates are
    read from. ``fnr``, ``fpr`` and ``admit_prob`` are read-only: reports of
    one profile at other priors share them.
    """

    policy: str  # "report_max" | "report_all"
    equilibrium_class: str
    fnr: Mapping[Category, Fraction]
    fpr: Mapping[Category, Fraction]
    fnr_gap: Fraction
    fpr_gap: Fraction
    ppv: Optional[Fraction]
    npv: Optional[Fraction]
    college_payoff: Fraction
    admit_prob: Mapping[Cohort, Fraction]


@dataclass(frozen=True)
class _ErrorRates:
    """What a profile's report holds that does not depend on p or phi."""

    admit: Mapping[Cohort, Fraction]
    fnr: Mapping[Category, Fraction]
    fpr: Mapping[Category, Fraction]
    fnr_gap: Fraction
    fpr_gap: Fraction


@lru_cache(maxsize=256)
def _error_rates(alpha: Fraction, k: int, bits: int, strategy: StudentStrategy) -> _ErrorRates:
    """Admission map and error rates of the profile (accept ``bits``,
    ``strategy``) at (alpha, k), computed once and shared, read-only.

    A cohort's admission probability is the sum of its within-cohort masses
    over the accepted sequences, read from the strategy's
    :func:`retesting.model.cohort_rows`, the integer rows that the verifier
    reads too; neither depends on p or phi, and the key holds neither. A
    strategy hashes by its stop values, so a profile rebuilt with equal stops
    hits.
    """
    rows = cohort_rows(alpha, k, strategy)
    accepted = [masses for i, masses in enumerate(rows.labels) if bits >> i & 1]
    admit = {cohort: Fraction(sum(m[j] for m in accepted), rows.den) for j, cohort in enumerate(COHORTS)}
    high1, low1, high2, low2 = COHORTS
    fnr = {Category.CAT1: 1 - admit[high1], Category.CAT2: 1 - admit[high2]}
    fpr = {Category.CAT1: admit[low1], Category.CAT2: admit[low2]}
    return _ErrorRates(
        admit=MappingProxyType(admit),
        fnr=MappingProxyType(fnr),
        fpr=MappingProxyType(fpr),
        fnr_gap=fnr[Category.CAT1] - fnr[Category.CAT2],
        fpr_gap=fpr[Category.CAT1] - fpr[Category.CAT2],
    )


def fairness_report(params: ModelParams, profile: EquilibriumProfile) -> FairnessReport:
    """Every statistic of one profile.

    FNR is the share of High types rejected and FPR the share of Low types
    admitted, per category. PPV is the share of High among the admitted, NPV
    the share of Low among the rejected; either is None when its conditioning
    event has zero mass. The College payoff is admitted High mass minus
    admitted Low mass.

    The admission map, FNR, FPR and both gaps do not depend on p or phi. They
    come from one bounded cache per (alpha, k, accept bits, stop values),
    filled from the strategy's cached integer within-cohort rows on first
    use; only PPV, NPV and the payoff are computed here, from the cohort
    masses.
    """
    rates = _error_rates(params.alpha, params.k, profile.policy.bits, profile.strategy)
    admit = rates.admit
    high1, low1, high2, low2 = COHORTS
    mass = params.cohort_mass
    admitted_high = admit[high1] * mass[high1] + admit[high2] * mass[high2]
    admitted_low = admit[low1] * mass[low1] + admit[low2] * mass[low2]
    admitted = admitted_high + admitted_low
    rejected = 1 - admitted
    label = profile.label
    if profile.label == NON_FIRST_SCORE and profile.n is not None:
        label = f"{NON_FIRST_SCORE}_{profile.n}"
    return FairnessReport(
        policy="report_max" if profile.reporting is Reporting.MAX else "report_all",
        equilibrium_class=label,
        fnr=rates.fnr,
        fpr=rates.fpr,
        fnr_gap=rates.fnr_gap,
        fpr_gap=rates.fpr_gap,
        ppv=None if admitted == 0 else admitted_high / admitted,
        npv=None if rejected == 0 else (params.p_bar - admitted_low) / rejected,
        college_payoff=admitted_high - admitted_low,
        admit_prob=admit,
    )


def predictive_values(
    params: ModelParams, profile: EquilibriumProfile
) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """(PPV, NPV), as in :func:`fairness_report`."""
    report = fairness_report(params, profile)
    return report.ppv, report.npv


def college_payoff(params: ModelParams, profile: EquilibriumProfile) -> Fraction:
    """Expected payoff per student, as in :func:`fairness_report`."""
    return fairness_report(params, profile).college_payoff


def payoff_gap(params: ModelParams) -> Fraction:
    """Closed form for (first-score payoff) - (best-score separating payoff):
    phi_bar * [(a - a^k) p_bar - ((1-a) - (1-a)^k) p].

    Positive exactly when p < p_double_star(k, alpha); identically zero when
    phi = 1 or alpha = 1.
    """
    a, ab, k = params.alpha, params.alpha_bar, params.k
    return params.phi_bar * ((a - a**k) * params.p_bar - (ab - ab**k) * params.p)


@dataclass(frozen=True)
class PolicyComparison:
    """Side-by-side reports, with deltas taken against the separating
    benchmark when it exists (report-all value minus report-max value)."""

    params: ModelParams
    max_separating: Optional[FairnessReport]
    max_reject_all: Optional[FairnessReport]
    all_classes: tuple[FairnessReport, ...]
    payoff_gap_closed_form: Fraction

    def payoff_delta(self, report: FairnessReport) -> Optional[Fraction]:
        if self.max_separating is None:
            return None
        return report.college_payoff - self.max_separating.college_payoff


def compare_policies(params: ModelParams) -> PolicyComparison:
    """Reports for the closed-form equilibria and every full-reporting class.

    :func:`retesting.equilibria.closed_form_profiles` supplies the
    best-score separating and reject-all benchmarks and the canonical
    full-reporting classes; when k is at most :data:`EXHAUSTIVE_MAX_K`,
    exhaustive enumeration contributes any class the constructors do not
    cover. Full-reporting classes are deduplicated by admission outcome: each
    report's admission map over the cohorts with mass. A constructed profile
    with the same outcome as an earlier one is left out.
    """
    max_sep_report = reject_report = None
    all_reports: list[FairnessReport] = []
    seen: set[tuple] = set()

    def add(profile: EquilibriumProfile) -> None:
        report = fairness_report(params, profile)
        key = admission_key({c: v for c, v in report.admit_prob.items() if params.cohort_mass[c] > 0})
        if key not in seen:
            seen.add(key)
            all_reports.append(report)

    for profile in closed_form_profiles(params):
        if profile.reporting is Reporting.ALL:
            add(profile)
        elif profile.label == SEPARATING:
            max_sep_report = fairness_report(params, profile)
        else:
            reject_report = fairness_report(params, profile)
    if params.k <= EXHAUSTIVE_MAX_K:
        for cls in enumerate_outcomes(params, SCOPE_REPORT_ALL).classes:
            if cls.verified:
                add(cls.witness)

    return PolicyComparison(
        params=params,
        max_separating=max_sep_report,
        max_reject_all=reject_report,
        all_classes=tuple(all_reports),
        payoff_gap_closed_form=payoff_gap(params),
    )

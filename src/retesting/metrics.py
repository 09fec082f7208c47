"""Fairness and accuracy statistics of equilibrium profiles, plus the
closed-form cross-policy comparisons.

Gap sign convention throughout: Category 1 minus Category 2. Under best-score
reporting the separating equilibrium gives Category 2 a lower false-negative
and a higher false-positive rate, so fnr_gap > 0 and fpr_gap < 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    StudentType,
    admission_key,
    outcome_distribution,
)


@dataclass(frozen=True)
class FairnessReport:
    """Error rates, predictive values, and College payoff of one profile.

    ppv/npv are None when no student is admitted/rejected (they would be
    0/0); reject-all equilibria are the standard case.
    """

    policy: str  # "report_max" | "report_all"
    equilibrium_class: str
    fnr: dict[Category, Fraction]
    fpr: dict[Category, Fraction]
    fnr_gap: Fraction
    fpr_gap: Fraction
    ppv: Optional[Fraction]
    npv: Optional[Fraction]
    college_payoff: Fraction


def admission_probabilities(
    params: ModelParams, profile: EquilibriumProfile
) -> dict[Cohort, Fraction]:
    """Per-cohort probability of admission under the profile."""
    dist = outcome_distribution(params, profile.strategy)
    out: dict[Cohort, Fraction] = {}
    for cohort in COHORTS:
        out[cohort] = sum(
            (m for s, m in dist.conditional[cohort].items() if profile.policy.accepts(s)),
            Fraction(0),
        )
    return out


def fairness_report(params: ModelParams, profile: EquilibriumProfile) -> FairnessReport:
    """Every statistic of one profile, from one pass over its outcome
    distribution.

    FNR is the share of High types rejected and FPR the share of Low types
    admitted, per category. PPV is the share of High among the admitted, NPV
    the share of Low among the rejected; either is None when its conditioning
    event has zero mass. The College payoff is admitted High mass minus
    admitted Low mass.
    """
    admit = admission_probabilities(params, profile)
    fnr = {cat: 1 - admit[Cohort(cat, StudentType.HIGH)] for cat in Category}
    fpr = {cat: admit[Cohort(cat, StudentType.LOW)] for cat in Category}
    admitted_high, admitted_low = (
        sum((admit[c] * c.mass(params) for c in COHORTS if c.type_ is t), Fraction(0))
        for t in (StudentType.HIGH, StudentType.LOW)
    )
    admitted = admitted_high + admitted_low
    rejected = 1 - admitted
    label = profile.label
    if profile.label == NON_FIRST_SCORE and profile.n is not None:
        label = f"{NON_FIRST_SCORE}_{profile.n}"
    return FairnessReport(
        policy="report_max" if profile.reporting is Reporting.MAX else "report_all",
        equilibrium_class=label,
        fnr=fnr,
        fpr=fpr,
        fnr_gap=fnr[Category.CAT1] - fnr[Category.CAT2],
        fpr_gap=fpr[Category.CAT1] - fpr[Category.CAT2],
        ppv=None if admitted == 0 else admitted_high / admitted,
        npv=None if rejected == 0 else (params.p_bar - admitted_low) / rejected,
        college_payoff=admitted_high - admitted_low,
    )


def confusion_rates(
    params: ModelParams, profile: EquilibriumProfile
) -> tuple[dict[Category, Fraction], dict[Category, Fraction]]:
    """(FNR, FPR) per category, as in :func:`fairness_report`."""
    report = fairness_report(params, profile)
    return report.fnr, report.fpr


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


def compare_policies(params: ModelParams, search: bool = True) -> PolicyComparison:
    """Reports for the closed-form equilibria and every full-reporting class.

    :func:`retesting.equilibria.closed_form_profiles` supplies the
    best-score separating and reject-all benchmarks and the canonical
    full-reporting classes; when ``search`` is true and k <= 3, exhaustive
    enumeration contributes any class the constructors do not cover.
    Full-reporting classes are deduplicated by admission outcome, so a
    constructed profile with the same outcome as an earlier one is left out.
    """
    max_sep_report = reject_report = None
    all_reports: list[FairnessReport] = []
    seen: set[tuple] = set()

    def add(profile: EquilibriumProfile) -> None:
        admit = admission_probabilities(params, profile)
        key = admission_key({c: v for c, v in admit.items() if c.mass(params) > 0})
        if key in seen:
            return
        seen.add(key)
        all_reports.append(fairness_report(params, profile))

    for profile in closed_form_profiles(params):
        if profile.reporting is Reporting.ALL:
            add(profile)
        elif profile.label == SEPARATING:
            max_sep_report = fairness_report(params, profile)
        else:
            reject_report = fairness_report(params, profile)
    if search and params.k <= 3:
        from .search import SCOPE_REPORT_ALL, enumerate_outcomes

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

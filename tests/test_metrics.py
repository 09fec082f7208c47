"""Fairness reports, predictive values, payoffs, and policy comparisons."""

from __future__ import annotations

from fractions import Fraction

import pytest

import retesting.metrics
from retesting import (
    Category,
    ModelParams,
    college_payoff,
    compare_policies,
    confusion_rates,
    construct_first_score_equilibrium,
    construct_non_first_score_equilibrium,
    fairness_report,
    payoff_gap,
    p_double_star,
    predictive_values,
    report_max_reject_all,
    report_max_separating,
)

PARAMS = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)


class TestFairnessReport:
    def test_one_outcome_distribution_per_report(self, monkeypatch):
        calls = []
        original = retesting.metrics.outcome_distribution

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(retesting.metrics, "outcome_distribution", counted)
        report = fairness_report(PARAMS, report_max_separating(PARAMS))
        assert len(calls) == 1
        assert report.fnr[Category.CAT2] == Fraction(1, 25)

    def test_views_agree_with_report(self):
        profile = construct_first_score_equilibrium(PARAMS)
        report = fairness_report(PARAMS, profile)
        assert confusion_rates(PARAMS, profile) == (report.fnr, report.fpr)
        assert predictive_values(PARAMS, profile) == (report.ppv, report.npv)
        assert college_payoff(PARAMS, profile) == report.college_payoff


class TestConfusionRates:
    def test_separating_rates(self):
        profile = report_max_separating(PARAMS)
        fnr, fpr = confusion_rates(PARAMS, profile)
        assert fnr == {Category.CAT1: Fraction(1, 5), Category.CAT2: Fraction(1, 25)}
        assert fpr == {Category.CAT1: Fraction(1, 5), Category.CAT2: Fraction(9, 25)}

    def test_first_score_parity(self):
        profile = construct_first_score_equilibrium(PARAMS)
        report = fairness_report(PARAMS, profile)
        assert report.fnr_gap == 0
        assert report.fpr_gap == 0
        assert report.fnr[Category.CAT1] == Fraction(1, 5)

    def test_noiseless_perfect_screening(self):
        params = ModelParams(p=0.3, alpha=1, phi=0.5, k=2)
        profile = report_max_separating(params)
        fnr, fpr = confusion_rates(params, profile)
        assert set(fnr.values()) == {0}
        assert set(fpr.values()) == {0}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_separating_gaps_match_closed_forms(self, k):
        # p above p_hat_k for every k tested (the lower threshold rises in k)
        params = ModelParams(p=0.35, alpha=0.8, phi=0.5, k=k)
        report = fairness_report(params, report_max_separating(params))
        a, ab = params.alpha, params.alpha_bar
        assert report.fnr_gap == ab - ab**k
        assert report.fpr_gap == ab - (1 - a**k)


class TestPredictiveValues:
    def test_first_score_ppv(self):
        ppv, npv = predictive_values(PARAMS, construct_first_score_equilibrium(PARAMS))
        assert ppv == Fraction(12, 19)
        assert npv == Fraction(28, 31)

    def test_separating_ppv_frozen(self):
        ppv, npv = predictive_values(PARAMS, report_max_separating(PARAMS))
        assert ppv == Fraction(66, 115)
        assert npv == Fraction(14, 15)
        assert abs(float(ppv) - 0.573913) < 1e-6

    def test_orderings(self):
        all_ppv, all_npv = predictive_values(PARAMS, construct_first_score_equilibrium(PARAMS))
        max_ppv, max_npv = predictive_values(PARAMS, report_max_separating(PARAMS))
        assert all_ppv > max_ppv
        assert all_npv < max_npv

    def test_reject_all_has_undefined_ppv(self):
        params = ModelParams(p=0.25, alpha=0.8, phi=0.5, k=2)
        witness = report_max_reject_all(params).witness()
        ppv, npv = predictive_values(params, witness)
        assert ppv is None
        assert npv == params.p_bar


class TestPayoffs:
    def test_frozen_values(self):
        first = construct_first_score_equilibrium(PARAMS)
        sep = report_max_separating(PARAMS)
        assert college_payoff(PARAMS, first) == Fraction(1, 10)
        assert college_payoff(PARAMS, sep) == Fraction(17, 250)
        assert payoff_gap(PARAMS) == Fraction(4, 125)

    def test_reject_all_payoff_zero(self):
        params = ModelParams(p=0.25, alpha=0.8, phi=0.5, k=2)
        assert college_payoff(params, report_max_reject_all(params).witness()) == 0

    @pytest.mark.parametrize("alpha", [Fraction(11, 20), Fraction(7, 10), Fraction(9, 10)])
    @pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(3, 10), Fraction(9, 20)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_k2_gap_identity(self, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=2)
        assert payoff_gap(params) == (1 - phi) * alpha * (1 - alpha) * (1 - 2 * p)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_gap_equals_payoff_difference(self, k):
        params = ModelParams(p=0.35, alpha=0.8, phi=0.5, k=k)
        first = construct_first_score_equilibrium(params)
        sep = report_max_separating(params)
        assert payoff_gap(params) == college_payoff(params, first) - college_payoff(params, sep)

    def test_gap_sign_change_at_double_star(self):
        alpha = Fraction(4, 5)
        at = p_double_star(3, alpha)
        assert payoff_gap(ModelParams(p=at, alpha=alpha, phi=0.5, k=3)) == 0
        assert payoff_gap(ModelParams(p=at - Fraction(1, 100), alpha=alpha, phi=0.5, k=3)) > 0
        assert payoff_gap(ModelParams(p=at + Fraction(1, 100), alpha=alpha, phi=0.5, k=3)) < 0

    def test_no_cat2_no_gap(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=1, k=4)
        assert payoff_gap(params) == 0


class TestComparePolicies:
    def test_deltas_at_reference_point(self):
        comparison = compare_policies(PARAMS)
        assert comparison.max_separating is not None
        assert comparison.max_reject_all is None  # p=0.3 > 7/27
        first = [r for r in comparison.all_classes if r.equilibrium_class == "first_score"]
        assert first and comparison.payoff_delta(first[0]) == Fraction(4, 125)
        assert comparison.payoff_gap_closed_form == Fraction(4, 125)
        assert first[0].fnr_gap == 0
        assert comparison.max_separating.fnr_gap == Fraction(4, 25)

    def test_absent_sides_flagged(self):
        params = ModelParams(p=0.05, alpha=0.8, phi=0.5, k=2)
        comparison = compare_policies(params)
        assert comparison.max_separating is None
        assert comparison.max_reject_all is not None
        labels = [r.equilibrium_class for r in comparison.all_classes]
        assert "first_score" not in labels

    def test_search_contributes_run_classes(self):
        params = ModelParams(p=0.6, alpha=0.8, phi=0.5, k=3)
        with_search = compare_policies(params, search=True)
        without = compare_policies(params, search=False)
        assert len(with_search.all_classes) >= len(without.all_classes) >= 2

    def test_noiseless_all_deltas_zero(self):
        params = ModelParams(p=0.3, alpha=1, phi=0.5, k=2)
        comparison = compare_policies(params)
        assert comparison.payoff_gap_closed_form == 0
        first = [r for r in comparison.all_classes if r.equilibrium_class == "first_score"][0]
        assert comparison.payoff_delta(first) == 0
        assert first.ppv == comparison.max_separating.ppv == 1
        assert first.npv == comparison.max_separating.npv == 1
        assert comparison.max_separating.fnr_gap == 0
        assert comparison.max_separating.fpr_gap == 0

    def test_disparities_shrink_as_accuracy_rises(self):
        # separating error-rate gaps are p-free closed forms; evaluate them
        # together with the payoff gap at fixed p=0.3, phi=0.5, k=2
        gaps = []
        payoff_gaps = []
        for alpha in (Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10)):
            params = ModelParams(p=0.3, alpha=alpha, phi=0.5, k=2)
            ab = params.alpha_bar
            fnr_gap = ab - ab**2
            fpr_gap = ab - (1 - alpha**2)
            gaps.append((fnr_gap, -fpr_gap))
            payoff_gaps.append(payoff_gap(params))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(a > b for a, b in zip(payoff_gaps, payoff_gaps[1:]))

    def test_cat2_admission_never_exceeds_best_score_reporting(self):
        # every full-reporting equilibrium weakly reduces Category 2's
        # admission chances relative to best-score screening, strictly below
        # one half
        from retesting import Cohort, StudentType, enumerate_outcomes
        from retesting.model import Category as Cat

        c2h = Cohort(Cat.CAT2, StudentType.HIGH)
        c2l = Cohort(Cat.CAT2, StudentType.LOW)
        for k, p in ((2, Fraction(3, 10)), (2, Fraction(11, 20)),
                     (3, Fraction(2, 5)), (3, Fraction(3, 5))):
            params = ModelParams(p=p, alpha=0.8, phi=0.5, k=k)
            a, ab = params.alpha, params.alpha_bar
            max_high, max_low = 1 - ab**k, 1 - a**k
            for cls in enumerate_outcomes(params, "report-all").classes:
                assert cls.admit_prob[c2h] <= max_high
                assert cls.admit_prob[c2l] <= max_low
                if p < Fraction(1, 2) and cls.label != "reject_all":
                    assert cls.admit_prob[c2h] < max_high
                    assert cls.admit_prob[c2l] < max_low

    def test_trailing_run_class_payoff_ordering(self):
        # p strictly below p_double_star(3) = 0.6 keeps the Max comparison strict
        params = ModelParams(p=0.55, alpha=0.8, phi=0.5, k=3)
        first = construct_first_score_equilibrium(params)
        run = construct_non_first_score_equilibrium(params, 2)
        sep = report_max_separating(params)
        assert (
            college_payoff(params, run)
            >= college_payoff(params, first)
            > college_payoff(params, sep)
        )

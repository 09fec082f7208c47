"""Closed-form thresholds, regions, and equilibrium constructors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from retesting import (
    BadIndex,
    FIRST_SCORE,
    NON_FIRST_SCORE,
    NoEquilibrium,
    REJECT_ALL,
    Category,
    ModelParams,
    Score,
    SEPARATING,
    UnsupportedK,
    closed_form_profiles,
    college_payoff,
    confusion_rates,
    construct_first_score_equilibrium,
    construct_non_first_score_equilibrium,
    is_boundary,
    non_first_score_region,
    p_double_star,
    p_star,
    posterior_max,
    reject_all_threshold,
    report_all_regions,
    report_max_reject_all,
    report_max_separating,
    report_max_thresholds,
    seq,
    seq_str,
    verify_equilibrium,
)

ALPHAS = [Fraction(n, 20) for n in range(11, 20)]  # 0.55 .. 0.95
PHIS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def params_at(p, alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2) -> ModelParams:
    return ModelParams(p=p, alpha=alpha, phi=phi, k=k)


class TestThresholds:
    def test_frozen_values(self):
        lower, upper = report_max_thresholds(params_at(Fraction(3, 10)))
        assert lower == Fraction(7, 29)
        assert upper == Fraction(6, 7)
        assert abs(float(lower) - 0.241379) < 1e-6
        assert abs(float(upper) - 0.857143) < 1e-6

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("phi", PHIS)
    def test_k2_printed_form_agrees(self, alpha, phi):
        # the two-test closed form (1 + a*phibar) / (1/(1-a) + 2a*phibar)
        lower, _ = report_max_thresholds(ModelParams(p=0.3, alpha=alpha, phi=phi, k=2))
        alt = (1 + alpha * (1 - phi)) / (Fraction(1) / (1 - alpha) + 2 * alpha * (1 - phi))
        assert lower == alt

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_no_cat2_collapses_to_single_test(self, k):
        lower, upper = report_max_thresholds(ModelParams(p=0.3, alpha=0.8, phi=1, k=k))
        assert lower == Fraction(1, 5)
        assert upper == Fraction(4, 5)

    @pytest.mark.parametrize("alpha", [a for a in ALPHAS if a < 1])
    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ordering_invariant(self, alpha, phi, k):
        # 1-a <= p_hat < 1/2 < a <= p_hat', strict at both ends when phi < 1
        lower, upper = report_max_thresholds(ModelParams(p=0.3, alpha=alpha, phi=phi, k=k))
        assert 1 - alpha <= lower < Fraction(1, 2) < alpha <= upper
        if phi < 1:
            assert lower > 1 - alpha
            assert upper > alpha

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2)])
    def test_lower_threshold_increases_in_k(self, alpha, phi):
        values = [
            report_max_thresholds(ModelParams(p=0.3, alpha=alpha, phi=phi, k=k))[0]
            for k in range(2, 7)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_posterior_max_crosses_half_at_thresholds(self, alpha, phi, k):
        lower, upper = report_max_thresholds(ModelParams(p=0.3, alpha=alpha, phi=phi, k=k))
        at_lower = ModelParams(p=lower, alpha=alpha, phi=phi, k=k)
        at_upper = ModelParams(p=upper, alpha=alpha, phi=phi, k=k)
        assert posterior_max(at_lower, Score.A) == Fraction(1, 2)
        assert posterior_max(at_upper, Score.B) == Fraction(1, 2)


class TestSeparating:
    def test_inside_region(self):
        params = params_at(Fraction(3, 10))
        profile = report_max_separating(params)
        assert profile is not None and profile.label == SEPARATING
        assert verify_equilibrium(params, profile).ok

    def test_below_region(self):
        assert report_max_separating(params_at(Fraction(1, 10))) is None

    def test_boundary_included(self):
        lower, _ = report_max_thresholds(params_at(Fraction(3, 10)))
        params = params_at(lower)
        profile = report_max_separating(params)
        assert profile is not None
        assert verify_equilibrium(params, profile).ok
        assert is_boundary(params)

    def test_policy_and_strategy_shape(self):
        profile = report_max_separating(params_at(Fraction(3, 10)))
        assert profile.policy.accepts(seq("A"))
        assert profile.policy.accepts(seq("BA"))
        assert not profile.policy.accepts(seq("B"))
        assert not profile.policy.accepts(seq("BB"))
        # stop after an A, retake after an all-B history
        from retesting import StudentType

        assert profile.strategy.stop_prob(StudentType.LOW, seq("B"), 2) == 0
        assert profile.strategy.stop_prob(StudentType.LOW, seq("A"), 2) == 1


class TestRejectAll:
    def test_threshold_frozen(self):
        assert reject_all_threshold(params_at(Fraction(1, 4))) == Fraction(7, 27)
        assert abs(float(Fraction(7, 27)) - 0.259259) < 1e-6

    def test_coexistence_at_quarter(self):
        params = params_at(Fraction(1, 4))
        family = report_max_reject_all(params)
        assert family is not None
        witness = family.witness()
        assert verify_equilibrium(params, witness).ok
        sep = report_max_separating(params)
        assert sep is not None and verify_equilibrium(params, sep).ok

    def test_none_above_threshold(self):
        assert report_max_reject_all(params_at(Fraction(3, 10))) is None

    def test_bounds_frozen(self):
        family = report_max_reject_all(params_at(Fraction(1, 4)))
        assert family.fh_bar_max == Fraction(1, 2)
        assert family.fl_bar_bounds(0) == (Fraction(5, 6), Fraction(1))

    def test_requires_two_tests(self):
        with pytest.raises(UnsupportedK):
            report_max_reject_all(params_at(Fraction(1, 4), k=3))

    def test_no_cat2_degenerates(self):
        params = ModelParams(p=0.15, alpha=0.8, phi=1, k=2)
        assert reject_all_threshold(params) == Fraction(1, 5)
        family = report_max_reject_all(params)
        assert family is not None
        assert family.fl_bar_bounds(Fraction(1, 2)) == (Fraction(0), Fraction(1))
        assert verify_equilibrium(params, family.witness()).ok

    def test_noiseless_never_rejects_all(self):
        params = ModelParams(p=0.1, alpha=1, phi=0.5, k=2)
        assert reject_all_threshold(params) == 0
        assert report_max_reject_all(params) is None

    def test_family_interval_must_be_respected(self):
        # inside the band, the Low retake bound is genuinely interior
        params = ModelParams(p=Fraction(1, 4), alpha=0.8, phi=0.5, k=2)
        family = report_max_reject_all(params)
        lo, hi = family.fl_bar_bounds(0)
        assert 0 < lo <= hi <= 1


class TestStars:
    def test_p_star_values(self):
        assert p_star(2, Fraction(4, 5)) == Fraction(1, 2)
        assert p_star(2, Fraction(3, 5)) == Fraction(1, 2)
        assert p_star(3, Fraction(4, 5)) == Fraction(1, 5)
        assert p_star(4, Fraction(4, 5)) == Fraction(1, 17)

    def test_p_double_star_values(self):
        assert p_double_star(2, Fraction(4, 5)) == Fraction(1, 2)
        assert p_double_star(2, Fraction(7, 10)) == Fraction(1, 2)
        assert p_double_star(3, Fraction(4, 5)) == Fraction(3, 5)

    def test_low_k_rejected(self):
        with pytest.raises(UnsupportedK):
            p_star(1, Fraction(4, 5))
        with pytest.raises(UnsupportedK):
            p_double_star(1, Fraction(4, 5))

    def test_double_star_undefined_at_perfect_accuracy(self):
        with pytest.raises(ValueError):
            p_double_star(3, 1)

    @pytest.mark.parametrize("alpha", [a for a in ALPHAS if a < 1])
    def test_double_star_increases_to_alpha(self, alpha):
        values = [p_double_star(k, alpha) for k in range(2, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(Fraction(1, 2) <= v < alpha for v in values)


class TestReportAllRegions:
    def test_example_point(self):
        params = params_at(Fraction(3, 10))
        first, region = report_all_regions(params)
        assert first is True
        assert region.intervals == (
            (Fraction(1, 17), Fraction(1, 5)),
            (Fraction(1, 2), Fraction(4, 5)),
        )
        assert not region.contains(params.p)

    def test_noiseless_full_band(self):
        first, _ = report_all_regions(ModelParams(p=0.5, alpha=1, phi=0.5, k=2))
        assert first is True

    def test_k1_unsupported(self):
        with pytest.raises(UnsupportedK):
            report_all_regions(params_at(Fraction(3, 10), k=1))


class TestFirstScoreConstructor:
    def test_inside(self):
        params = params_at(Fraction(3, 10))
        profile = construct_first_score_equilibrium(params)
        assert profile.label == FIRST_SCORE
        assert verify_equilibrium(params, profile).ok
        fnr, fpr = confusion_rates(params, profile)
        assert fnr == {Category.CAT1: Fraction(1, 5), Category.CAT2: Fraction(1, 5)}
        assert fpr == {Category.CAT1: Fraction(1, 5), Category.CAT2: Fraction(1, 5)}

    def test_outside(self):
        with pytest.raises(NoEquilibrium):
            construct_first_score_equilibrium(params_at(Fraction(19, 100)))

    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(2, 5), Fraction(4, 5)])
    def test_verifies_across_band_including_boundaries(self, p):
        params = params_at(p)
        profile = construct_first_score_equilibrium(params)
        assert verify_equilibrium(params, profile).ok


class TestNonFirstScoreConstructor:
    def test_k3_run_of_two(self):
        params = params_at(Fraction(45, 100), k=3)
        profile = construct_non_first_score_equilibrium(params, 3)
        assert profile is not None and profile.label == NON_FIRST_SCORE and profile.n == 3
        accepted_b_first = sorted(
            seq_str(s) for s in profile.policy.accepted if s[0] is Score.B
        )
        assert accepted_b_first == ["BAA"]
        assert verify_equilibrium(params, profile).ok

    def test_k2_below_band(self):
        assert construct_non_first_score_equilibrium(params_at(Fraction(3, 10)), 2) is None

    def test_k2_inside_band(self):
        params = params_at(Fraction(3, 5))
        profile = construct_non_first_score_equilibrium(params, 2)
        assert profile is not None
        assert profile.policy.accepts(seq("BA"))
        assert not profile.policy.accepts(seq("BB"))
        assert verify_equilibrium(params, profile).ok

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            construct_non_first_score_equilibrium(params_at(Fraction(3, 10)), 1)
        with pytest.raises(BadIndex):
            construct_non_first_score_equilibrium(params_at(Fraction(3, 10)), 3)

    def test_band_clipped_by_single_a_admissibility(self):
        # the n=4 band sits below 1-alpha except at its right endpoint
        region = non_first_score_region(ModelParams(p=0.3, alpha=0.8, phi=0.5, k=4), 4)
        assert region.intervals == ((Fraction(1, 5), Fraction(1, 5)),)
        at = ModelParams(p=Fraction(1, 5), alpha=0.8, phi=0.5, k=4)
        profile = construct_non_first_score_equilibrium(at, 4)
        assert profile is not None
        assert verify_equilibrium(at, profile).ok

    def test_payoff_dominates_first_score(self):
        params = params_at(Fraction(3, 5))
        run = construct_non_first_score_equilibrium(params, 2)
        first = construct_first_score_equilibrium(params)
        assert college_payoff(params, run) >= college_payoff(params, first)


class TestClosedFormProfiles:
    """The one list of constructed equilibria, against the existence
    predicates of each result and the independent verifier."""

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5), Fraction(1)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_labels_match_predicates_and_verify(self, alpha, phi, k):
        for p in [Fraction(n, 100) for n in range(5, 100, 10)]:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            lower, upper = report_max_thresholds(params)
            expected = []
            if lower <= p <= upper:
                expected.append((SEPARATING, None))
            if k == 2 and p <= reject_all_threshold(params):
                expected.append((REJECT_ALL, None))
            if 1 - alpha <= p <= alpha:
                expected.append((FIRST_SCORE, None))
            expected += [
                (NON_FIRST_SCORE, n)
                for n in range(2, k + 1)
                if non_first_score_region(params, n).contains(p)
            ]
            profiles = closed_form_profiles(params)
            assert [(pr.label, pr.n) for pr in profiles] == expected, p
            for profile in profiles:
                assert verify_equilibrium(params, profile, mode="exact").ok, (p, profile.label)

"""Posterior beliefs and best-score posteriors, each read through
posterior_from_distribution on a chained outcome distribution."""

from __future__ import annotations

import random
from fractions import Fraction

from retesting import (
    ModelParams,
    Score,
    StudentStrategy,
    StudentType,
    best_score_projection,
    outcome_distribution,
    posterior_from_distribution,
    report_max_thresholds,
    seq,
)
from retesting.model import all_sequences

PARAMS = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)


def posterior(params: ModelParams, strategy: StudentStrategy, s):
    """Pr(High | reported sequence s), or None when s has zero mass."""
    return posterior_from_distribution(outcome_distribution(params, strategy), s)


def posterior_max(params: ModelParams, best: Score) -> Fraction:
    """Pr(High | best score) when Category 2 retakes until an A (up to k)."""
    chained = outcome_distribution(params, StudentStrategy.stop_after_a(params.k))
    return posterior_from_distribution(best_score_projection(chained), (best,))


def random_strategy(rng: random.Random, k: int) -> StudentStrategy:
    return StudentStrategy(
        {
            (t, h): Fraction(rng.randint(0, 8), 8)
            for t in StudentType
            for h in all_sequences(k - 1)
        }
    )


class TestPosterior:
    def test_single_a_when_everyone_stops(self):
        # p*alpha / (p*alpha + (1-p)(1-alpha)) = 12/19
        got = posterior(PARAMS, StudentStrategy.always_stop(2), seq("A"))
        assert got == Fraction(12, 19)
        assert abs(float(got) - 0.631579) < 1e-6

    def test_ab_is_prior_when_both_types_always_retake(self):
        strategy = StudentStrategy.from_first_score(2, 0, 0, 0, 0)
        assert posterior(PARAMS, strategy, seq("AB")) == PARAMS.p

    def test_length_two_off_path_when_everyone_stops(self):
        got = posterior(PARAMS, StudentStrategy.always_stop(2), seq("AA"))
        assert got is None

    def test_ordering_after_shared_first_score(self):
        # with partial retaking, a trailing B depresses the posterior
        rng = random.Random(99)
        for _ in range(12):
            f = {
                (t, h): Fraction(rng.randint(0, 7), 8)  # keep < 1 so both on path
                for t in StudentType
                for h in all_sequences(1)
            }
            strategy = StudentStrategy(f)
            for first in "AB":
                hi = posterior(PARAMS, strategy, seq(first + "A"))
                lo = posterior(PARAMS, strategy, seq(first + "B"))
                assert hi is not None and lo is not None
                assert lo <= hi

    def test_scale_invariance_of_posterior(self):
        # posterior is a mass ratio: scaling every cohort mass cancels
        strategy = StudentStrategy.from_first_score(2, 1, 0, 1, Fraction(1, 3))
        dist = outcome_distribution(PARAMS, strategy)
        for s in all_sequences(2):
            h = dist.type_mass(StudentType.HIGH, s)
            l = dist.type_mass(StudentType.LOW, s)
            if h + l == 0:
                continue
            scaled = (7 * h) / (7 * h + 7 * l)
            assert posterior(PARAMS, strategy, s) == scaled


class TestLawOfTotalProbability:
    def test_posterior_mass_average_is_prior(self):
        rng = random.Random(5)
        for _ in range(8):
            strategy = random_strategy(rng, 2)
            dist = outcome_distribution(PARAMS, strategy)
            acc = Fraction(0)
            for s in all_sequences(2):
                h = dist.type_mass(StudentType.HIGH, s)
                l = dist.type_mass(StudentType.LOW, s)
                if h + l > 0:
                    acc += (h + l) * (h / (h + l))
            assert acc == PARAMS.p


class TestPosteriorMax:
    def test_indifferent_exactly_at_lower_threshold(self):
        lower, upper = report_max_thresholds(PARAMS)
        at = ModelParams(p=lower, alpha=0.8, phi=0.5, k=2)
        assert posterior_max(at, Score.A) == Fraction(1, 2)
        above = ModelParams(p=lower + Fraction(1, 1000), alpha=0.8, phi=0.5, k=2)
        below = ModelParams(p=lower - Fraction(1, 1000), alpha=0.8, phi=0.5, k=2)
        assert posterior_max(above, Score.A) > Fraction(1, 2)
        assert posterior_max(below, Score.A) < Fraction(1, 2)

    def test_indifferent_exactly_at_upper_threshold(self):
        _, upper = report_max_thresholds(PARAMS)
        at = ModelParams(p=upper, alpha=0.8, phi=0.5, k=2)
        assert posterior_max(at, Score.B) == Fraction(1, 2)

    def test_no_cat2_reduces_to_single_test(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=1, k=2)
        assert posterior_max(params, Score.A) == Fraction(12, 19)

    def test_noiseless(self):
        params = ModelParams(p=0.3, alpha=1, phi=0.5, k=2)
        assert posterior_max(params, Score.A) == 1
        assert posterior_max(params, Score.B) == 0

    def test_interior_separating_band(self):
        lower, upper = report_max_thresholds(PARAMS)
        assert lower < PARAMS.p < upper
        assert posterior_max(PARAMS, Score.A) > Fraction(1, 2) > posterior_max(PARAMS, Score.B)

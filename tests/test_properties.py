"""Property tests over random rational parameters: the closed forms, the
exhaustive census and the exact free-stop intervals agree with each other.

Parameters have small denominators and k <= 3, so every census is the
exhaustive one. Each property runs once per k with its own example budget;
the examples are derandomized (see ``conftest.py``).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from retesting import (
    ModelParams,
    Reporting,
    closed_form_profiles,
    enumerate_outcomes,
    fairness_report,
    free_stop_intervals,
    verify_equilibrium,
)
from retesting.model import admission_key
from retesting.search import SCOPE_REPORT_ALL, SCOPE_REPORT_MAX

SCOPE_OF = {Reporting.ALL: SCOPE_REPORT_ALL, Reporting.MAX: SCOPE_REPORT_MAX}


# examples per k: k=3, where the census does most of its work, gets the most
EXAMPLES = {1: 6, 2: 8, 3: 12}


@st.composite
def points(draw, k: int) -> ModelParams:
    """alpha in (1/2, 1], p in (0, 1) and phi in [0, 1] at the given k, each
    a fraction with a small denominator."""
    d = draw(st.integers(2, 10))
    alpha = Fraction(draw(st.integers(d // 2 + 1, d)), d)
    d = draw(st.integers(2, 20))
    p = Fraction(draw(st.integers(1, d - 1)), d)
    d = draw(st.integers(1, 4))
    phi = Fraction(draw(st.integers(0, d)), d)
    return ModelParams(p=p, alpha=alpha, phi=phi, k=k)


def for_each_k(prop):
    """The property ``prop(params)`` as one test per k of ``EXAMPLES``, each
    over that many examples of ``points(k)``, so every k gets its share by
    construction."""

    @pytest.mark.parametrize("k", EXAMPLES)
    def test(k):
        settings(max_examples=EXAMPLES[k])(given(points(k))(prop))()

    test.__doc__ = prop.__doc__
    return test


@for_each_k
def test_closed_form_profiles_verify(params):
    for profile in closed_form_profiles(params):
        verdict = verify_equilibrium(params, profile)
        assert verdict.ok, (profile.label, verdict.violations)


@for_each_k
def test_census_contains_every_closed_form_outcome(params):
    for profile in closed_form_profiles(params):
        admit = fairness_report(params, profile).admit_prob
        key = admission_key({c: v for c, v in admit.items() if params.cohort_mass[c] > 0})
        census = enumerate_outcomes(params, SCOPE_OF[profile.reporting])
        assert key in {c.key() for c in census.classes}, profile.label


@for_each_k
def test_census_witness_stops_inside_free_intervals(params):
    for scope in SCOPE_OF.values():
        for cls in enumerate_outcomes(params, scope).classes:
            witness = cls.witness
            assert cls.verified, (scope, cls.label)
            intervals = free_stop_intervals(params, witness.policy, witness.reporting)
            for node, (lo, hi) in intervals.items():
                assert lo <= witness.strategy.stop[node] <= hi, (scope, cls.label, node)

"""Bayesian beliefs for the College: the posterior of a reported sequence.

Profiles carry no belief map: on-path posteriors are functions of the
parameters and the strategy, and beliefs at zero-mass reports are free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import OutcomeDistribution, ScoreSeq, StudentType


def posterior_from_distribution(dist: OutcomeDistribution, s: ScoreSeq) -> Optional[Fraction]:
    """Pr(High | reported sequence s), or None when s has zero mass, where
    the College's belief is unconstrained."""
    high = dist.type_mass(StudentType.HIGH, s)
    low = dist.type_mass(StudentType.LOW, s)
    total = high + low
    if total == 0:
        return None
    return high / total

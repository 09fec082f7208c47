"""Bayesian beliefs for the College: per-sequence posteriors and best-score
posteriors under retake-until-A behavior.

Profiles carry no belief map: on-path posteriors are functions of the
parameters and the strategy, and beliefs at zero-mass reports are free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .model import (
    ModelParams,
    OutcomeDistribution,
    Score,
    ScoreSeq,
    StudentStrategy,
    StudentType,
    max_score_distribution,
    outcome_distribution,
)


class OffPath:
    """Marker for a sequence with zero mass: the posterior is unconstrained."""

    _instance: Optional["OffPath"] = None

    def __new__(cls) -> "OffPath":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OffPath"


OFF_PATH = OffPath()

Belief = Union[Fraction, OffPath]


def posterior_from_distribution(dist: OutcomeDistribution, s: ScoreSeq) -> Belief:
    high = dist.type_mass(StudentType.HIGH, s)
    low = dist.type_mass(StudentType.LOW, s)
    total = high + low
    if total == 0:
        return OFF_PATH
    return high / total


def posterior(params: ModelParams, strategy: StudentStrategy, s: ScoreSeq) -> Belief:
    """Pr(High | reported sequence s), or OFF_PATH when s has zero mass."""
    return posterior_from_distribution(outcome_distribution(params, strategy), s)


def posterior_max(params: ModelParams, best: Score) -> Fraction:
    """Pr(High | best score) when Category 2 retakes until an A (up to k)."""
    # both best scores always carry mass, so this is never OFF_PATH
    return posterior_from_distribution(max_score_distribution(params), (best,))

"""Bayesian beliefs for the College: per-sequence posteriors, prefix
aggregates, and best-score posteriors under retake-until-A behavior.

Profiles carry no belief map: on-path posteriors are functions of the
parameters and the strategy, and beliefs at zero-mass reports are free.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class PrefixBelief:
    """Share of High types among students whose report starts with ``prefix``.

    ``value`` is 0 by convention when nothing starts with the prefix; the
    ``empty`` flag records that case explicitly.
    """

    prefix: ScoreSeq
    value: Fraction
    empty: bool = False


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


def prefix_belief(params: ModelParams, strategy: StudentStrategy, prefix: ScoreSeq) -> PrefixBelief:
    """Mass-weighted share of High among reports extending ``prefix``.

    The prefix itself counts as one of its extensions. Because every report
    starts with its first test score, a length-1 prefix always aggregates to
    pure first-emission odds regardless of stopping behavior.
    """
    dist = outcome_distribution(params, strategy)
    high = Fraction(0)
    low = Fraction(0)
    for s in dist.sequences():
        if len(s) >= len(prefix) and s[: len(prefix)] == prefix:
            high += dist.type_mass(StudentType.HIGH, s)
            low += dist.type_mass(StudentType.LOW, s)
    total = high + low
    if total == 0:
        return PrefixBelief(prefix=prefix, value=Fraction(0), empty=True)
    return PrefixBelief(prefix=prefix, value=high / total, empty=False)


def posterior_max(params: ModelParams, best: Score) -> Fraction:
    """Pr(High | best score) when Category 2 retakes until an A (up to k)."""
    # both best scores always carry mass, so this is never OFF_PATH
    return posterior_from_distribution(max_score_distribution(params), (best,))

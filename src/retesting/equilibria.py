"""Closed-form thresholds, existence regions, and equilibrium constructors.

Every constructor returns a fully specified profile (policy, strategy) that
the independent verifier in :mod:`retesting.search` accepts on the stated
parameter region. Regions use exact rational endpoints, and boundary
membership follows each result's closed/open endpoints as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import BadIndex, NoEquilibrium, UnsupportedK
from .model import (
    ModelParams,
    Numeric,
    Score,
    ScoreSeq,
    StudentStrategy,
    StudentType,
    all_sequences,
    as_fraction,
    best_score,
    seq_str,
)


class Reporting(Enum):
    """What the College observes: the full sequence, or only the best score."""

    ALL = "all"
    MAX = "max"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Accept/reject indicator for every reportable sequence of length <= k."""

    k: int
    accepted: frozenset[ScoreSeq]

    def accepts(self, s: ScoreSeq) -> bool:
        return s in self.accepted

    def is_max_measurable(self) -> bool:
        """True when acceptance depends only on the best score."""
        by_best = {}
        for s in all_sequences(self.k):
            b = best_score(s)
            if by_best.setdefault(b, self.accepts(s)) != self.accepts(s):
                return False
        return True

    @classmethod
    def from_accepted(cls, k: int, accepted: Iterable[ScoreSeq]) -> "AdmissionPolicy":
        acc = frozenset(accepted)
        for s in acc:
            if not (1 <= len(s) <= k):
                raise ValueError(f"sequence {seq_str(s)} has invalid length for k={k}")
        return cls(k=k, accepted=acc)

    @classmethod
    def from_predicate(cls, k: int, pred: Callable[[ScoreSeq], bool]) -> "AdmissionPolicy":
        return cls(k=k, accepted=frozenset(s for s in all_sequences(k) if pred(s)))

    @classmethod
    def first_score(cls, k: int) -> "AdmissionPolicy":
        return cls.from_predicate(k, lambda s: s[0] is Score.A)

    @classmethod
    def best_score_a(cls, k: int) -> "AdmissionPolicy":
        return cls.from_predicate(k, lambda s: best_score(s) is Score.A)

    @classmethod
    def accept_all(cls, k: int) -> "AdmissionPolicy":
        return cls.from_predicate(k, lambda s: True)

    @classmethod
    def reject_all(cls, k: int) -> "AdmissionPolicy":
        return cls.from_predicate(k, lambda s: False)

    @classmethod
    def b_then_a_run(cls, k: int, n: int) -> "AdmissionPolicy":
        """Accept first-score-A sequences plus the single sequence B A...A
        with n-1 trailing A's."""
        run = (Score.B,) + (Score.A,) * (n - 1)
        return cls.from_predicate(k, lambda s: s[0] is Score.A or s == run)


# Canonical equilibrium class labels.
SEPARATING = "separating"
REJECT_ALL = "reject_all"
ACCEPT_ALL = "accept_all"
FIRST_SCORE = "first_score"
NON_FIRST_SCORE = "non_first_score"


@dataclass(frozen=True)
class EquilibriumProfile:
    """A (policy, strategy) pair with its classification label.

    The College's beliefs are not stored: on reports that carry mass they are
    the posteriors the strategy induces, and off path any belief supporting
    the policy will do. ``n`` is the trailing-A run index for non-first-score
    profiles. The supporting ranges of free stop probabilities are computed
    on demand by :func:`retesting.search.free_stop_intervals`.
    """

    policy: AdmissionPolicy
    strategy: StudentStrategy
    label: str
    reporting: Reporting
    n: Optional[int] = None


@dataclass(frozen=True)
class Region:
    """A finite union of disjoint closed intervals of the prior p."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Iterable[tuple[Numeric, Numeric]]):
        cleaned = []
        for lo, hi in intervals:
            lo, hi = as_fraction(lo), as_fraction(hi)
            lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
            if lo <= hi:
                cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    def contains(self, p: Numeric) -> bool:
        p = as_fraction(p)
        return any(lo <= p <= hi for lo, hi in self.intervals)

    def on_boundary(self, p: Numeric) -> bool:
        p = as_fraction(p)
        return any(p == lo or p == hi for lo, hi in self.intervals)

    def __str__(self) -> str:
        return " U ".join(f"[{lo}, {hi}]" for lo, hi in self.intervals) or "{}"


# ---------------------------------------------------------------------------
# Report Max: separating equilibrium
# ---------------------------------------------------------------------------

def report_max_thresholds(params: ModelParams) -> tuple[Fraction, Fraction]:
    """Priors between which best-score screening separates: accept-A is
    College-optimal above the first threshold, reject-B below the second."""
    a, ab, phi, phib, k = (
        params.alpha,
        params.alpha_bar,
        params.phi,
        params.phi_bar,
        params.k,
    )
    lower = (phi * ab + phib * (1 - a**k)) / (phi + phib * (2 - a**k - ab**k))
    upper = (phi * a + phib * a**k) / (phi + phib * (a**k + ab**k))
    return lower, upper


def report_max_separating(params: ModelParams) -> Optional[EquilibriumProfile]:
    """The best-score screening equilibrium, when it exists.

    The College accepts a best score of A and rejects B; Category 2 students
    retake after every B (up to k tests) and stop at the first A. Exists iff
    the prior lies in the closed threshold interval.
    """
    lower, upper = report_max_thresholds(params)
    if not (lower <= params.p <= upper):
        return None
    policy = AdmissionPolicy.best_score_a(params.k)
    strategy = StudentStrategy.stop_after_a(params.k)
    return EquilibriumProfile(
        policy=policy,
        strategy=strategy,
        label=SEPARATING,
        reporting=Reporting.MAX,
    )


# ---------------------------------------------------------------------------
# Report Max: reject-all equilibrium (two tests)
# ---------------------------------------------------------------------------

def reject_all_threshold(params: ModelParams) -> Fraction:
    """Largest prior at which rejecting every student can be sustained."""
    c = params.alpha * params.alpha_bar * params.phi_bar
    return min(Fraction(1, 2), (c + params.alpha_bar) / (c + 1))


@dataclass(frozen=True)
class RejectAllFamily:
    """The continuum of stopping behaviors supporting all-reject screening.

    ``fh_bar_max`` bounds the retake probability of High types after a B;
    for each such value, Low-type retake probabilities must lie between
    ``fl_bar_bounds``. Bounds are exact and already clipped to [0, 1].
    """

    params: ModelParams
    threshold: Fraction
    fh_bar_max: Fraction

    def fl_bar_bounds(self, fh_bar: Numeric) -> tuple[Fraction, Fraction]:
        fh_bar = as_fraction(fh_bar)
        p, pb = self.params.p, self.params.p_bar
        c = self.params.alpha * self.params.alpha_bar * self.params.phi_bar
        if c == 0:
            return Fraction(0), Fraction(1)
        lo = (p - self.params.alpha_bar + c * p * fh_bar) / (c * pb)
        hi = (self.params.alpha - p + c * p * fh_bar) / (c * pb)
        return max(Fraction(0), lo), min(Fraction(1), hi)

    def witness(self) -> EquilibriumProfile:
        """A canonical member: High stops after B, Low retakes at the midpoint
        of its admissible interval."""
        lo, hi = self.fl_bar_bounds(0)
        fl_bar = (lo + hi) / 2
        strategy = StudentStrategy.from_first_score(
            self.params.k, f_h_a=1, f_h_b=1, f_l_a=1, f_l_b=1 - fl_bar
        )
        policy = AdmissionPolicy.reject_all(self.params.k)
        return EquilibriumProfile(
            policy=policy,
            strategy=strategy,
            label=REJECT_ALL,
            reporting=Reporting.MAX,
        )


def report_max_reject_all(params: ModelParams) -> Optional[RejectAllFamily]:
    """The family of reject-all equilibria under best-score reporting.

    Only analyzed for k = 2. Returns None when the prior exceeds the
    reject-all threshold, in which case best-score screening is the unique
    nontrivial outcome below one half.
    """
    if params.k != 2:
        raise UnsupportedK("the reject-all family is characterized for k = 2 only")
    threshold = reject_all_threshold(params)
    if params.p > threshold:
        return None
    c = params.alpha * params.alpha_bar * params.phi_bar
    if c == 0 or params.p == 0:
        fh_bar_max = Fraction(1)
    else:
        fh_bar_max = min(
            Fraction(1), (c * params.p_bar + params.alpha_bar - params.p) / (c * params.p)
        )
    return RejectAllFamily(params=params, threshold=threshold, fh_bar_max=fh_bar_max)


# ---------------------------------------------------------------------------
# Report All: thresholds and regions
# ---------------------------------------------------------------------------

def p_star(k: int, alpha: Numeric) -> Fraction:
    """Lowest prior at which a trailing-A run after a first B can be believed:
    (1-a)^(k-2) / (a^(k-2) + (1-a)^(k-2))."""
    if k < 2:
        raise UnsupportedK("p_star is defined for k >= 2")
    a = as_fraction(alpha)
    ab = 1 - a
    return ab ** (k - 2) / (a ** (k - 2) + ab ** (k - 2))


def p_double_star(k: int, alpha: Numeric) -> Fraction:
    """Prior below which the College strictly prefers full-sequence reporting:
    (a - a^k) / (1 - a^k - (1-a)^k)."""
    if k < 2:
        raise UnsupportedK("p_double_star is defined for k >= 2")
    a = as_fraction(alpha)
    if a == 1:
        raise ValueError("p_double_star is undefined at alpha = 1 (payoff gap is 0 everywhere)")
    ab = 1 - a
    return (a - a**k) / (1 - a**k - ab**k)


def report_all_regions(params: ModelParams) -> tuple[bool, Region]:
    """Existence regions under full-sequence reporting.

    Returns (first-score equilibrium exists, region of priors where some
    equilibrium conditions the outcome on more than the first score). The
    latter is the union of a low branch (single scores rejected, a long
    all-A run accepted) and a high branch (a B followed by a run of A's
    accepted).
    """
    if params.k < 2:
        raise UnsupportedK("regions are characterized for k >= 2")
    first = params.alpha_bar <= params.p <= params.alpha
    region = Region(
        [
            (p_star(params.k + 2, params.alpha), params.alpha_bar),
            (p_star(params.k, params.alpha), params.alpha),
        ]
    )
    return first, region


# ---------------------------------------------------------------------------
# Report All: constructors
# ---------------------------------------------------------------------------

def construct_first_score_equilibrium(params: ModelParams) -> EquilibriumProfile:
    """Admission by first (or only) score, everyone tests once.

    Among the continuum of supporting strategies the constructor picks
    stop-everywhere, the mass-minimal canonical choice. Raises NoEquilibrium
    outside [1-alpha, alpha].
    """
    if not (params.alpha_bar <= params.p <= params.alpha):
        raise NoEquilibrium(
            f"first-score screening needs p in [{params.alpha_bar}, {params.alpha}]"
        )
    policy = AdmissionPolicy.first_score(params.k)
    strategy = StudentStrategy.always_stop(params.k)
    return EquilibriumProfile(
        policy=policy,
        strategy=strategy,
        label=FIRST_SCORE,
        reporting=Reporting.ALL,
    )


def non_first_score_region(params: ModelParams, n: int) -> Region:
    """Priors supporting the B-then-(n-1)-A's acceptance policy.

    The raw band [p_star(n), p_star(n-1)] is intersected with [1-alpha, alpha]
    because a single A must itself be accepted, which pins the prior above
    1-alpha whenever single scores are on path.
    """
    if not (2 <= n <= params.k):
        raise BadIndex(f"run index n must lie in [2, k], got n={n}, k={params.k}")
    lo = p_star(n, params.alpha)
    hi = params.alpha if n == 2 else p_star(n - 1, params.alpha)
    return Region([(max(lo, params.alpha_bar), min(hi, params.alpha))])


def construct_non_first_score_equilibrium(
    params: ModelParams, n: int
) -> Optional[EquilibriumProfile]:
    """Accept first-score-A sequences plus the lone sequence B A...A (n-1 A's).

    Students with a first B keep testing along the B A...A track and stop the
    moment the accepted run is complete; everyone else tests once. Returns
    None when the prior is outside the supporting band.
    """
    region = non_first_score_region(params, n)
    if not region.contains(params.p):
        return None
    policy = AdmissionPolicy.b_then_a_run(params.k, n)
    run = (Score.B,) + (Score.A,) * (n - 1)
    stop: dict = {}
    for t in StudentType:
        for h in all_sequences(params.k - 1):
            if h[0] is Score.A:
                stop[(t, h)] = Fraction(1)
            elif h == run[: len(h)] and len(h) < n:
                stop[(t, h)] = Fraction(0)  # still chasing the accepted run
            else:
                stop[(t, h)] = Fraction(1)  # run complete or derailed
    strategy = StudentStrategy(stop)
    return EquilibriumProfile(
        policy=policy,
        strategy=strategy,
        label=NON_FIRST_SCORE,
        reporting=Reporting.ALL,
        n=n,
    )


def closed_form_profiles(params: ModelParams) -> list[EquilibriumProfile]:
    """Every constructed equilibrium that exists at these parameters, in the
    order: best-score separating, best-score reject-all (k = 2 only),
    first-score, trailing-run n = 2..k. Existence is left to the constructors.
    """
    candidates = [report_max_separating(params)]
    if params.k == 2:
        family = report_max_reject_all(params)
        candidates.append(family.witness() if family else None)
    try:
        candidates.append(construct_first_score_equilibrium(params))
    except NoEquilibrium:
        pass
    candidates += [construct_non_first_score_equilibrium(params, n) for n in range(2, params.k + 1)]
    return [profile for profile in candidates if profile is not None]


def boundary_thresholds(params: ModelParams) -> dict[str, Fraction]:
    """Every prior threshold relevant at these (alpha, phi, k)."""
    lower, upper = report_max_thresholds(params)
    out = {
        "alpha_bar": params.alpha_bar,
        "alpha": params.alpha,
        "p_hat": lower,
        "p_hat_prime": upper,
    }
    if params.k == 2:
        out["p_hat_hat"] = reject_all_threshold(params)
    if params.k >= 2:
        for n in range(1, params.k + 3):
            out[f"p_star_{n}"] = p_star(max(n, 2), params.alpha) if n >= 2 else params.alpha
        if params.alpha != 1:
            out["p_double_star"] = p_double_star(params.k, params.alpha)
    return out


def is_boundary(params: ModelParams) -> bool:
    """True when the prior exactly equals one of the regime thresholds."""
    return params.p in set(boundary_thresholds(params).values())

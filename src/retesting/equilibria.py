"""Closed-form thresholds, existence regions, and equilibrium constructors.

Every constructor returns a fully specified profile (policy, strategy) that
the independent verifier in :mod:`retesting.search` accepts on the stated
parameter region. Regions use exact rational endpoints, and boundary
membership follows each result's closed/open endpoints as stated.

Thresholds and regions do not depend on the prior p, and the policies and
strategies of the canonical profiles depend on k alone. Both are computed
once and shared: the thresholds in one bounded cache per (alpha, phi, k)
(:func:`_threshold_record`), whose part that no phi enters is cached per
(alpha, k) (:func:`_run_thresholds`), and the policies and strategies per k
(and run index n), so a sweep over p pays for them once per triple. The
thresholds are computed in integers over the numerators and denominators of
alpha and phi, with one ``Fraction`` per threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

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
    node,
    seq_str,
)


_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


class Reporting(Enum):
    """What the College observes: the full sequence, or only the best score."""

    ALL = "all"
    MAX = "max"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Accept/reject bit for every reportable sequence of length <= k: s is
    accepted iff bit ``node(s)`` of ``bits`` is set (:func:`retesting.model.node`)."""

    k: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << (2 ** (self.k + 1) - 2):
            raise ValueError(f"accept bits {self.bits:#x} are not a set of nodes of the k={self.k} tree")

    def accepts(self, s: ScoreSeq) -> bool:
        return 1 <= len(s) <= self.k and bool(self.bits >> node(s) & 1)

    def is_max_measurable(self) -> bool:
        """True when acceptance depends only on the best score: each of
        :func:`_best_score_masks` is accepted whole or not at all."""
        return all(self.bits & mask in (0, mask) for mask in _best_score_masks(self.k))

    @classmethod
    def from_accepted(cls, k: int, accepted: Iterable[ScoreSeq]) -> "AdmissionPolicy":
        bits = 0
        for s in accepted:
            if not (1 <= len(s) <= k):
                raise ValueError(f"sequence {seq_str(s)} has invalid length for k={k}")
            bits |= 1 << node(s)
        return cls(k, bits)

    @classmethod
    def from_predicate(cls, k: int, pred: Callable[[ScoreSeq], bool]) -> "AdmissionPolicy":
        return cls(k, sum(1 << i for i, s in enumerate(all_sequences(k)) if pred(s)))

    # The canonical policies below are built once per k (and n) and shared;
    # a policy is immutable, so sharing is safe.

    @classmethod
    @lru_cache(maxsize=16)
    def first_score(cls, k: int) -> "AdmissionPolicy":
        """Accept every sequence that starts with an A. Cached per k."""
        return cls.from_predicate(k, lambda s: s[0] is Score.A)

    @classmethod
    @lru_cache(maxsize=16)
    def best_score_a(cls, k: int) -> "AdmissionPolicy":
        """Accept every sequence that holds an A. Cached per k."""
        return cls.from_predicate(k, lambda s: best_score(s) is Score.A)

    @classmethod
    @lru_cache(maxsize=16)
    def accept_all(cls, k: int) -> "AdmissionPolicy":
        """Accept every sequence. Cached per k."""
        return cls.from_predicate(k, lambda s: True)

    @classmethod
    @lru_cache(maxsize=16)
    def reject_all(cls, k: int) -> "AdmissionPolicy":
        """Accept no sequence. Cached per k."""
        return cls.from_predicate(k, lambda s: False)

    @classmethod
    @lru_cache(maxsize=64)
    def b_then_a_run(cls, k: int, n: int) -> "AdmissionPolicy":
        """Accept first-score-A sequences plus the single sequence B A...A
        with n-1 trailing A's. Cached per (k, n)."""
        run = (Score.B,) + (Score.A,) * (n - 1)
        return cls.from_predicate(k, lambda s: s[0] is Score.A or s == run)


@lru_cache(maxsize=16)
def _best_score_masks(k: int) -> tuple[int, int]:
    """The node bits of the sequences of length 1..k whose best score is A,
    and of the rest, the all-B sequences."""
    a_mask = sum(1 << node(s) for s in all_sequences(k) if best_score(s) is Score.A)
    return a_mask, (1 << len(all_sequences(k))) - 1 - a_mask


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
            lo, hi = max(lo, _ZERO), min(hi, _ONE)
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

    def __str__(self) -> str:
        return " U ".join(f"[{lo}, {hi}]" for lo, hi in self.intervals) or "{}"


@dataclass(frozen=True)
class _Thresholds:
    """Every prior threshold and region at one (alpha, phi, k)."""

    p_hat: Fraction  # report-max separating band, lower end
    p_hat_prime: Fraction  # and upper end
    reject_c: Fraction  # alpha (1 - alpha) (1 - phi), of the reject-all family
    p_hat_hat: Fraction  # reject-all threshold
    bounds: Mapping[str, Fraction]  # boundary_thresholds, read-only
    values: frozenset[Fraction]  # the values of bounds
    runs: tuple[Region, ...]  # non_first_score_region for n = 2..k
    report_all: Optional[Region]  # the non-first-score region, k >= 2


class _RunThresholds(NamedTuple):
    """The thresholds and regions at one (alpha, k) that no phi enters."""

    powers: tuple[int, int]  # num(alpha)^k and (den(alpha) - num(alpha))^k, over den(alpha)^k
    alpha_bar: Fraction  # 1 - alpha
    stars: tuple[tuple[str, Fraction], ...]  # p_star_n for n = 1..k+2 and p_double_star, k >= 2
    runs: tuple[Region, ...]  # non_first_score_region for n = 2..k
    report_all: Optional[Region]  # the non-first-score region, k >= 2


@lru_cache(maxsize=64)  # a sweep or census visits a few alphas per k
def _run_thresholds(alpha: Fraction, k: int) -> _RunThresholds:
    """The part of :func:`_threshold_record` that depends on (alpha, k)
    alone, computed once per pair: in integers over alpha = n / d, with
    1 - alpha = m / d, and one ``Fraction`` per threshold. ``p_star_j``
    times d^(j-2) over itself is m^(j-2) / (n^(j-2) + m^(j-2)), and
    ``p_double_star`` times d^k over itself is
    (n d^(k-1) - n^k) / (d^k - n^k - m^k)."""
    n, d = alpha.numerator, alpha.denominator
    m = d - n
    ab = Fraction(m, d)
    stars: dict[str, Fraction] = {}
    runs: tuple[Region, ...] = ()
    report_all = None
    if k >= 2:
        p_stars = {j: Fraction(m ** (j - 2), n ** (j - 2) + m ** (j - 2)) if j >= 2 else alpha
                   for j in range(1, k + 3)}
        stars = {f"p_star_{j}": v for j, v in p_stars.items()}
        if m:
            stars["p_double_star"] = Fraction(n * d ** (k - 1) - n**k, d**k - n**k - m**k)
        # a single A must itself be accepted, which pins each run's band
        # inside [1-alpha, alpha]
        runs = tuple(
            Region([(max(p_stars[j], ab), min(alpha if j == 2 else p_stars[j - 1], alpha))])
            for j in range(2, k + 1)
        )
        report_all = Region([(p_stars[k + 2], ab), (p_stars[k], alpha)])
    return _RunThresholds((n**k, m**k), ab, tuple(stars.items()), runs, report_all)


@lru_cache(maxsize=256)
def _threshold_record(alpha: Fraction, phi: Fraction, k: int) -> _Thresholds:
    """The thresholds and regions of (alpha, phi, k), which do not depend on
    p: computed once per triple and shared, immutable. Only the report-max
    thresholds are computed here, in integers over alpha = n / d,
    1 - alpha = m / d and phi = f / g, 1 - phi = h / g, with one
    ``Fraction`` each (their closed forms times g d^k, or g d^2, over
    themselves); the rest come from :func:`_run_thresholds`."""
    n, d = alpha.numerator, alpha.denominator
    f, g = phi.numerator, phi.denominator
    m, h = d - n, g - f
    run = _run_thresholds(alpha, k)
    nk, mk = run.powers
    dk = d**k
    lower = Fraction(f * m * d ** (k - 1) + h * (dk - nk), f * dk + h * (2 * dk - nk - mk))
    upper = Fraction(f * n * d ** (k - 1) + h * nk, f * dk + h * (nk + mk))
    c = Fraction(n * m * h, d * d * g)
    # (c + 1 - alpha) / (c + 1), times g d^2 over itself
    hat_num, hat_den = n * m * h + m * d * g, n * m * h + d * d * g
    hat_hat = _HALF if 2 * hat_num >= hat_den else Fraction(hat_num, hat_den)
    bounds = {"alpha_bar": run.alpha_bar, "alpha": alpha, "p_hat": lower, "p_hat_prime": upper}
    if k == 2:
        bounds["p_hat_hat"] = hat_hat
    bounds.update(run.stars)
    return _Thresholds(
        p_hat=lower,
        p_hat_prime=upper,
        reject_c=c,
        p_hat_hat=hat_hat,
        bounds=MappingProxyType(bounds),
        values=frozenset(bounds.values()),
        runs=run.runs,
        report_all=run.report_all,
    )


def _thresholds(params: ModelParams) -> _Thresholds:
    return _threshold_record(params.alpha, params.phi, params.k)


# ---------------------------------------------------------------------------
# Report Max: separating equilibrium
# ---------------------------------------------------------------------------

def report_max_thresholds(params: ModelParams) -> tuple[Fraction, Fraction]:
    """Priors between which best-score screening separates: accept-A is
    College-optimal above the first threshold, reject-B below the second.

    With a = alpha, lower = (phi (1-a) + (1-phi) (1 - a^k)) /
    (phi + (1-phi) (2 - a^k - (1-a)^k)) and upper = (phi a + (1-phi) a^k) /
    (phi + (1-phi) (a^k + (1-a)^k)).
    """
    t = _thresholds(params)
    return t.p_hat, t.p_hat_prime


def report_max_separating(params: ModelParams) -> Optional[EquilibriumProfile]:
    """The best-score screening equilibrium, when it exists.

    The College accepts a best score of A and rejects B; Category 2 students
    retake after every B (up to k tests) and stop at the first A. Exists iff
    the prior lies in the closed threshold interval.
    """
    t = _thresholds(params)
    if not (t.p_hat <= params.p <= t.p_hat_prime):
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
    """Largest prior at which rejecting every student can be sustained:
    min(1/2, (c + 1 - alpha) / (c + 1)) with c = alpha (1-alpha) (1-phi)."""
    return _thresholds(params).p_hat_hat


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
        c = _thresholds(self.params).reject_c
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
    t = _thresholds(params)
    threshold = t.p_hat_hat
    if params.p > threshold:
        return None
    c = t.reject_c
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
    return first, _thresholds(params).report_all


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
    return _thresholds(params).runs[n - 2]


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
    return EquilibriumProfile(
        policy=AdmissionPolicy.b_then_a_run(params.k, n),
        strategy=_chase_run(params.k, n),
        label=NON_FIRST_SCORE,
        reporting=Reporting.ALL,
        n=n,
    )


@lru_cache(maxsize=64)
def _chase_run(k: int, n: int) -> StudentStrategy:
    """Students with a first B keep testing while their history is a proper
    prefix of B A...A (n-1 A's); everyone else stops. Built once per (k, n)
    and shared."""
    run = (Score.B,) + (Score.A,) * (n - 1)
    return StudentStrategy({
        (t, h): 0 if h[0] is Score.B and len(h) < n and h == run[: len(h)] else 1
        for t in StudentType
        for h in all_sequences(k - 1)
    })


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
    """Every prior threshold relevant at these (alpha, phi, k): 1-alpha and
    alpha, the report-max band ``p_hat``/``p_hat_prime``, ``p_hat_hat`` at
    k = 2, and at k >= 2 ``p_star_n`` for n = 1..k+2 (``p_star_1`` is alpha)
    and ``p_double_star`` (absent at alpha 1).

    The values come from the cache of :func:`_threshold_record`, computed once
    per (alpha, phi, k); the returned dict is a fresh copy, which the caller
    may change.
    """
    return dict(_thresholds(params).bounds)


def is_boundary(params: ModelParams) -> bool:
    """True when the prior exactly equals one of the regime thresholds."""
    return params.p in _thresholds(params).values

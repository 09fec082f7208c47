"""Domain primitives: game parameters, score sequences, cohorts, student
strategies, and the exact distribution over reported score histories.

All probabilities are kept as exact ``fractions.Fraction`` values so that
downstream equilibrium checks can detect posterior ties (probability exactly
one half) without tolerances. Floats passed to constructors are interpreted
through their decimal representation, so ``alpha=0.8`` means exactly 4/5.

:func:`all_sequences` numbers the game tree once for every module: node i is
the i-th history in (length, string) order, with children 2i+2 (A) and 2i+3
(B). ``ScoreSeq`` stays the type at every public edge.

:func:`outcome_distribution` makes its one within-cohort pass in integers,
over one denominator, and builds ``Fraction`` values only when they are read.
The within-cohort masses depend on alpha, k and the strategy alone, so
:func:`cohort_rows` keeps them, with the strategy's stops as bit masks, in
one bounded cache per (alpha, k, strategy): the verifier and the error rates
read it at every prior p and Category 1 share phi, which only weigh the
cohorts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .errors import MissingStrategyEntry

Numeric = Union[int, float, str, Fraction]


def as_fraction(x: Numeric) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats are converted via their shortest decimal repr, so a literal like
    0.8 becomes 4/5 rather than the nearest binary float.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a probability")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


class Score(Enum):
    A = "A"  # above the bar
    B = "B"  # below the bar

    # Members are singletons compared by identity; Enum hashes the name in Python.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.value


ScoreSeq = tuple[Score, ...]


def seq(text: str) -> ScoreSeq:
    """Parse a score sequence from a string like ``"BAA"``."""
    return tuple(Score(ch) for ch in text)


def seq_str(s: ScoreSeq) -> str:
    return "".join(x.value for x in s)


@lru_cache(maxsize=32)
def all_sequences(k: int) -> tuple[ScoreSeq, ...]:
    """Every reportable score sequence of length 1..k: the nodes of the game
    tree, numbered in (length, string) order.

    Node i's children are nodes 2i+2 (A) and 2i+3 (B), so the node of a
    length-L history with A = 0, B = 1 bits ``code`` is 2^L - 2 + code
    (:func:`node`).
    """
    frontier: list[ScoreSeq] = [()]
    nodes: list[ScoreSeq] = []
    for _ in range(k):
        frontier = [h + (s,) for h in frontier for s in Score]
        nodes += frontier
    return tuple(nodes)


def node(s: ScoreSeq) -> int:
    """The number of ``s`` in :func:`all_sequences`: 2^L - 2 + code."""
    code = 0
    for x in s:
        code = 2 * code + (x is Score.B)
    return (1 << len(s)) - 2 + code


@lru_cache(maxsize=32)
def node_index(k: int) -> Mapping[ScoreSeq, int]:
    """:func:`node` of every sequence in :func:`all_sequences`, as a read-only
    map built once per k."""
    return MappingProxyType({s: i for i, s in enumerate(all_sequences(k))})


def best_score(s: ScoreSeq) -> Score:
    return Score.A if Score.A in s else Score.B


class Category(Enum):
    CAT1 = 1  # may test once
    CAT2 = 2  # may test up to k times, adaptively

    __hash__ = object.__hash__  # as for Score


class StudentType(Enum):
    HIGH = "H"
    LOW = "L"

    __hash__ = object.__hash__  # as for Score


@dataclass(frozen=True, order=True)
class Cohort:
    """A (category, type) population cell."""

    category: Category
    type_: StudentType

    def __post_init__(self) -> None:
        # hashed once: cohorts key every per-cohort map, so each lookup would
        # otherwise run the generated hash of the field tuple
        object.__setattr__(self, "_hash", hash((self.category, self.type_)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"({self.category.value},{self.type_.value})"


COHORTS: tuple[Cohort, ...] = (
    Cohort(Category.CAT1, StudentType.HIGH),
    Cohort(Category.CAT1, StudentType.LOW),
    Cohort(Category.CAT2, StudentType.HIGH),
    Cohort(Category.CAT2, StudentType.LOW),
)


def admission_key(admit: Mapping[Cohort, Fraction]) -> tuple:
    """An admission outcome as a hashable, ordered key: (cohort, probability)
    per cohort in ``admit``, which holds only the cohorts that carry mass."""
    return tuple(sorted((str(c), v) for c, v in admit.items()))


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the testing game.

    p      share of High-type students, in (0, 1)
    alpha  per-test accuracy (High scores A, Low scores B, each w.p. alpha),
           in (1/2, 1]
    phi    share of Category 1 (single-test) students, in [0, 1]
    k      maximum number of tests for Category 2 students, >= 1
    """

    p: Fraction
    alpha: Fraction
    phi: Fraction
    k: int

    def __init__(self, p: Numeric, alpha: Numeric, phi: Numeric, k: int):
        object.__setattr__(self, "p", as_fraction(p))
        object.__setattr__(self, "alpha", as_fraction(alpha))
        object.__setattr__(self, "phi", as_fraction(phi))
        object.__setattr__(self, "k", int(k))
        if not (0 < self.p < 1):
            raise ValueError(f"p must lie in (0,1), got {self.p}")
        if not (Fraction(1, 2) < self.alpha <= 1):
            raise ValueError(f"alpha must lie in (1/2,1], got {self.alpha}")
        if not (0 <= self.phi <= 1):
            raise ValueError(f"phi must lie in [0,1], got {self.phi}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    # convenience complements, x_bar == 1 - x, each computed once
    @cached_property
    def p_bar(self) -> Fraction:
        return 1 - self.p

    @cached_property
    def alpha_bar(self) -> Fraction:
        return 1 - self.alpha

    @cached_property
    def phi_bar(self) -> Fraction:
        return 1 - self.phi

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: a census looks up the flow
        layout of its parameters once per flow system."""
        return hash((self.p, self.alpha, self.phi, self.k))

    @cached_property
    def cohort_mass(self) -> Mapping[Cohort, Fraction]:
        """Population share of every cohort, computed once per parameters."""
        return MappingProxyType({
            c: (self.phi if c.category is Category.CAT1 else self.phi_bar)
            * (self.p if c.type_ is StudentType.HIGH else self.p_bar)
            for c in COHORTS
        })

    def emit(self, type_: StudentType, score: Score) -> Fraction:
        """Probability a student of this type produces the given score."""
        if type_ is StudentType.HIGH:
            return self.alpha if score is Score.A else self.alpha_bar
        return self.alpha_bar if score is Score.A else self.alpha


StopKey = tuple[StudentType, ScoreSeq]


@dataclass(frozen=True)
class StudentStrategy:
    """History-dependent stop probabilities for Category 2 students.

    ``stop[(type_, history)]`` is the probability of stopping (and reporting
    the history) after observing it; histories of length k stop implicitly
    and carry no entry. Category 1 students have no choices. ``stop`` is a
    read-only mapping, so a strategy that several profiles share (see
    :meth:`always_stop`) cannot be changed through one of them. Strategies
    hash by their stop values, so equal strategies built apart share a
    cache entry.
    """

    stop: Mapping[StopKey, Fraction]

    def __init__(self, stop: Mapping[StopKey, Numeric]):
        frozen = {}
        for key, value in stop.items():
            f = as_fraction(value)
            if not (0 <= f <= 1):
                raise ValueError(f"stop probability {f} for {key} not in [0,1]")
            frozen[key] = f
        object.__setattr__(self, "stop", MappingProxyType(frozen))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the stop entries, computed once: equal maps hash
        equally, whatever order they were built in."""
        return hash(frozenset(self.stop.items()))

    def stop_prob(self, type_: StudentType, history: ScoreSeq, k: int) -> Fraction:
        if len(history) >= k:
            return Fraction(1)
        try:
            return self.stop[(type_, history)]
        except KeyError:
            raise MissingStrategyEntry(
                f"no stop probability for type {type_.value} after {seq_str(history)}"
            ) from None

    @classmethod
    @lru_cache(maxsize=16)
    def always_stop(cls, k: int) -> "StudentStrategy":
        """Everyone reports their first score. Built once per k and shared."""
        return cls({(t, h): 1 for t in StudentType for h in all_sequences(k - 1)})

    @classmethod
    @lru_cache(maxsize=16)
    def stop_after_a(cls, k: int) -> "StudentStrategy":
        """Retake until the first A (or the k-th test); stop once an A is seen.
        Built once per k and shared."""
        return cls(
            {(t, h): (1 if Score.A in h else 0) for t in StudentType for h in all_sequences(k - 1)}
        )

    @classmethod
    def from_first_score(
        cls,
        k: int,
        f_h_a: Numeric,
        f_h_b: Numeric,
        f_l_a: Numeric,
        f_l_b: Numeric,
    ) -> "StudentStrategy":
        """Stop probabilities that depend only on the type and the first score.

        Deeper histories (k > 2) reuse the entry of their first score, which
        reproduces first-score-indexed strategies exactly at k = 2.
        """
        table = {
            (StudentType.HIGH, Score.A): as_fraction(f_h_a),
            (StudentType.HIGH, Score.B): as_fraction(f_h_b),
            (StudentType.LOW, Score.A): as_fraction(f_l_a),
            (StudentType.LOW, Score.B): as_fraction(f_l_b),
        }
        return cls({(t, h): table[(t, h[0])] for t in StudentType for h in all_sequences(k - 1)})


_NO_MASS = Fraction(0)  # of a sequence a cohort never reports; one object, as Fractions are immutable


@dataclass(frozen=True)
class OutcomeDistribution:
    """Per-cohort probabilities of every reported score sequence.

    ``conditional[cohort][sequence]`` is the within-cohort probability that a
    student of that cohort ends up reporting the sequence. Category 1 mass
    sits on single scores only. Entries of each cohort sum to one exactly.

    The masses are kept in integers: ``rows`` holds, per cohort in
    ``COHORTS`` order, the numerator over ``den`` of each of ``sequences``,
    or None where the cohort has no entry. ``den`` is the least one, so equal
    distributions hold equal integers. ``conditional`` is built from them on
    first use.
    """

    params: ModelParams
    sequences: tuple[ScoreSeq, ...]
    den: int
    rows: tuple[tuple[Optional[int], ...], ...]

    @cached_property
    def conditional(self) -> Mapping[Cohort, Mapping[ScoreSeq, Fraction]]:
        """Per cohort, High before Low and Category 1 first, each entry as a
        ``Fraction``."""
        return {
            COHORTS[c]: {s: Fraction(m, self.den) for s, m in zip(self.sequences, self.rows[c]) if m is not None}
            for c in (0, 2, 1, 3)
        }

    @property
    def label_masses(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per sequence, the numerators of the cohorts in ``COHORTS`` order,
        0 where a cohort has no entry."""
        return tuple(zip(*([m or 0 for m in row] for row in self.rows)))

    def mass(self, cohort: Cohort, s: ScoreSeq) -> Fraction:
        return self.conditional[cohort].get(s, _NO_MASS)

    def type_mass(self, type_: StudentType, s: ScoreSeq) -> Fraction:
        """Unconditional mass of the given type reporting ``s`` (both categories)."""
        weights = self.params.cohort_mass
        masses = [row[s] * weights[c] for c, row in self.conditional.items() if c.type_ is type_ and s in row]
        return sum(masses[1:], masses[0]) if masses else _NO_MASS


def outcome_distribution(params: ModelParams, strategy: StudentStrategy) -> OutcomeDistribution:
    """Distribution over reported sequences induced by a stopping strategy.

    Category 1 students report their single test. Category 2 students chain
    per-test emissions with the strategy's stop probabilities; a sequence's
    mass is the product of emissions and continue factors along its prefixes
    times the stop probability at the sequence itself (length k stops).

    Every reached node has an entry, zero when its stop probability is 0;
    nodes that no Category 2 student of the type reaches have none, and their
    stop probabilities are never read, so only a missing entry at a reached
    node raises :class:`MissingStrategyEntry`.

    The pass runs in integers: each stop probability is a numerator over the
    least common denominator ``unit`` of the strategy's stops (1 when every
    stop is 0 or 1), and every mass a numerator over den(alpha)^k unit^(k-1),
    reduced at the end by the common divisor of all of them.
    """
    k, n, d = params.k, params.alpha.numerator, params.alpha.denominator
    unit = math.lcm(*(f.denominator for f in strategy.stop.values()))
    seqs = all_sequences(k)
    single = (d * unit) ** (k - 1)  # a single test's mass, scaled to the common denominator
    pad = (None,) * (len(seqs) - 2)
    rows = (
        (n * single, (d - n) * single, *pad),
        ((d - n) * single, n * single, *pad),
        _cat2_masses(strategy, StudentType.HIGH, k, n, d, unit),
        _cat2_masses(strategy, StudentType.LOW, k, d - n, d, unit),
    )
    den = d**k * unit ** (k - 1)
    common = math.gcd(den, *(m for row in rows for m in row if m))
    if common > 1:
        den //= common
        rows = tuple(tuple(None if m is None else m // common for m in row) for row in rows)
    return OutcomeDistribution(params, seqs, den, rows)


def _cat2_masses(
    strategy: StudentStrategy, type_: StudentType, k: int, emit_a: int, d: int, unit: int
) -> tuple[Optional[int], ...]:
    """One pass over the game tree's nodes, parents before children, for a
    type that scores A w.p. ``emit_a`` / ``d``. A reach at depth j is a
    numerator over d^j unit^(j-1), and a mass one over d^k unit^(k-1)."""
    nodes = all_sequences(k)
    emit_b = d - emit_a
    masses: list[Optional[int]] = [None] * len(nodes)
    # reach[i]: probability of arriving at node i without having stopped
    reach = [emit_a, emit_b] + [0] * (len(nodes) - 2)
    start = 0  # the first node of the depth, 2^depth - 2
    for depth in range(1, k):
        lift = d ** (k - depth) * unit ** (k - depth - 1)  # from a stop at this depth to the common denominator
        end = 2 * start + 2
        for i in range(start, end):
            r = reach[i]
            if not r:
                continue
            f = strategy.stop_prob(type_, nodes[i], k)
            stop = f.numerator * (unit // f.denominator)  # f = stop / unit
            masses[i] = r * stop * lift  # 0 marks the node as reached
            r *= unit - stop
            reach[2 * i + 2], reach[2 * i + 3] = r * emit_a, r * emit_b
        start = end
    for i in range(start, len(nodes)):  # depth k: every student stops
        if reach[i]:
            masses[i] = reach[i]
    return tuple(masses)


def best_score_projection(dist: OutcomeDistribution) -> OutcomeDistribution:
    """Collapse a sequence distribution onto best scores (A beats B)."""
    all_b = [(2 << length) - 3 for length in range(1, len(dist.sequences[-1]) + 1)]  # node of B^length
    rows = []
    for row in dist.rows:
        b = sum(row[i] or 0 for i in all_b)
        rows.append((sum(m for m in row if m) - b, b))
    return OutcomeDistribution(dist.params, all_sequences(1), dist.den, tuple(rows))


class CohortRows(NamedTuple):
    """What a profile's checks read of its strategy at every prior p and
    Category 1 share phi, in integers, for one (alpha, k).

    ``labels`` holds, per sequence of ``all_sequences(k)``, and ``best``, per
    best score (A, then B), the within-cohort masses of the cohorts in
    ``COHORTS`` order as numerators over ``den``: p and phi only weigh them.
    The stops sit on two bits per (type, history) shorter than k, the low one
    at ``4 node(h)`` for High and ``4 node(h) + 2`` for Low, as in a
    best-response rule code: ``slots`` holds every such low bit, ``ones`` those
    whose stop probability is 1 and ``zeros`` those whose is 0. ``exact`` says
    that the strategy has an entry at every slot and no other.
    """

    den: int
    labels: tuple[tuple[int, int, int, int], ...]
    best: tuple[tuple[int, int, int, int], ...]
    slots: int
    ones: int
    zeros: int
    exact: bool


@lru_cache(maxsize=256)  # a 2560-point census-k3 cycle over 4 alphas reads 309-322 keys and misses 311-325 times
def cohort_rows(alpha: Fraction, k: int, strategy: StudentStrategy) -> CohortRows:
    """The :class:`CohortRows` of ``strategy`` at (alpha, k), filled from one
    :func:`outcome_distribution`. That pass reads only alpha and k, so the
    prior and the Category 1 share given to it are placeholders. A strategy
    hashes by its stop values, so one rebuilt with equal stops hits. Raises
    :class:`MissingStrategyEntry` as the pass does."""
    dist = outcome_distribution(ModelParams(p=Fraction(1, 2), alpha=alpha, phi=Fraction(1, 2), k=k), strategy)
    inner, index = (1 << k) - 2, node_index(k)  # nodes 0..inner-1 are shorter than k
    slots = sum(5 << 4 * i for i in range(inner))  # the low bits of High's and Low's slots
    given = ones = zeros = 0
    for (type_, h), f in strategy.stop.items():
        i = index.get(h, inner)
        if i < inner and isinstance(type_, StudentType):
            bit = 1 << 4 * i + 2 * (type_ is StudentType.LOW)
            given |= bit
            ones |= bit if f == 1 else 0
            zeros |= bit if f == 0 else 0
    exact = given == slots and len(strategy.stop) == 2 * inner
    return CohortRows(dist.den, dist.label_masses, best_score_projection(dist).label_masses, slots, ones, zeros, exact)

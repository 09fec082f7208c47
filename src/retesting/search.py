"""Independent equilibrium oracle: best responses by backward induction,
profile verification, and exhaustive enumeration of equilibrium outcomes.

Enumeration reduces each candidate admission policy to an exact linear
feasibility problem over stop/continue mass flows: a stopping strategy is an
equilibrium iff the flows respect the best-response structure and, for every
report, the accepted side carries at least as much High mass as Low mass.
Free (indifferent) stop probabilities therefore form polytopes. Every mass is
a single term, a constant or a multiple of one free continue mass, so each
row is read off directly. Systems over one game tree share one cached layout
of their path masses, all integers over one denominator, so their rows are
integers that the integer-row simplex decides exactly. Which mass goes where
in the rows depends only on the tree, the reporting policy and the
best-response rules, so a cached template per rule code holds them as
signed indices into the layout. A system at a point reads only the sign of
each label row's constant, as two bit masks over its labels, and builds
dense rows only for its free-stop ranges: with no negative rhs the origin
is feasible, one mask test on a policy's accept bits.

Lemma. Take a report-all system whose rule code comes from
:func:`_induction`, with alpha in (1/2, 1]. If the origin violates a label
row, the system is infeasible.

Proof, from the flow rows and the induction's rules, with no closed form.
(i) At an accepted node a type's rule is STOP, or ANY iff its continuation
is worth the full scale; at a rejected node it is CONTINUE, or ANY iff its
continuation is worth 0. A continuation is worth the emission-weighted
values of the children, so every child that the mass enters is worth as
much, and the mass stops there only if stopping is too: mass of a type that
continues from one of its ANY nodes s stops only at labels in s's subtree
that share s's accept bit.
(ii) For alpha < 1 both emissions are positive, so "worth the full scale"
and "worth 0" hold for both types alike, and each node has one rule for both
types. At alpha = 1 each node is reached by one type only: High on all-A
sequences, Low on all-B ones. (iii) Let the origin violate the row of label
s: its origin value, the Category 1 mass plus the reach of each type that
stops there at the origin, is nonzero and of the wrong sign. A type that does
not reach s has no mass in s's subtree in any flow. A type that reaches s
has no ANY ancestor: by (ii) every type that reaches s would have one, each
origin reach there would be 0, and below depth one there is no Category 1
mass, so the origin value would be 0. The reaches at s are therefore
constants. If no type that reaches s is ANY there, the row of s reads its
origin value in every flow. Otherwise, by (i), all mass that reaches s stops
at labels in its subtree with its accept bit, which no other mass reaches,
so in every flow their rows sum to cat1 + reach_H - reach_L, the origin
value. That value has the wrong sign, so one of those rows is violated.

Corollary. Under report-all, where every sequence is its own label, a
system is feasible iff its origin is, so the origin's mask test decides it
and no report-all LP reaches the simplex. The origin is then the witness, and
no free node continues mass there, so its stops are 0 at a CONTINUE node and
1 at a STOP or ANY node whatever p, phi or the reach: a census class's
witness strategy is read off its rule codes (:func:`_origin_strategy`).

Second corollary. Two feasible report-all accept patterns of one
first-score subtree with one rule code have one polytope, so they share
their free-stop ranges (:func:`free_stop_intervals`). Let D be the labels
where their bits differ. (iv) A label s of D has b = 0, since the origin
holds for both, and if it is shorter than k each type's rule at s is ANY, as
STOP fixes the bit to 1 and CONTINUE to 0. So s is worth its own bit in
each pattern, and the two bits differ. (v) Take the shallowest label a of D
on the path to s. No type reaches a through an ANY ancestor c: c is not in
D, so its bit is the same in both, and by (i) every node that the type's
continuing mass reaches below c is worth c's bit in both patterns, which a
is not. So the reaches at a are constants, and their net with the Category 1
mass is a's b, 0. (vi) If a is accepted, its continuation is worth the full
scale, so by (i) and (ii) all mass stops in a's subtree at accepted labels
only, and every other label there gets no stop mass and has row 0. In every
flow the rows of a's subtree sum to a's b, 0, and none is negative, so all
are 0; if a is rejected, the same holds with the signs reversed. So every
label of D has row 0 on both polytopes, and each polytope lies in the other.

Table lemma. For alpha in (1/2, 1), the rule code of a first-score subtree
under an accept pattern depends on the pattern alone, and so does each value
numerator over den(alpha)^(k-1) at its root, as an integer homogeneous
polynomial of degree k - 1 in x = num(alpha) and y = den(alpha) - num(alpha).

Proof, from the induction alone, with no closed form. A node of length j
holds its values over den(alpha)^(k-j), where its full scale is
(x + y)^(k-j). Stopping is worth the full scale at an accepted node and 0 at
a rejected one; continuing is worth x a + y b for High and y a + x b for Low,
where a and b are the values of the A-child and the B-child. By induction
from depth k, where a node is worth 1 or 0 by its bit, every value is a
homogeneous polynomial whose coefficients lie between 0 and those of the
full scale. For alpha in (1/2, 1) both emissions are positive, x > 0 and
y > 0, so continuing is worth the full scale iff both children are, and 0
iff both children are worth 0, for both types alike. Hence a node is worth
the full scale iff it is accepted or both of its children are, and 0 iff it
is rejected and both of its children are worth 0: facts of the accept bits
alone. By (i) each rule reads only those facts, so the rule code is a
function of the bits, and each value, the full scale or the continuation,
is a polynomial fixed by the pattern. At alpha = 1, y = 0 and the codes
differ (by (ii) one type reaches each node), so alpha 1 has its own table.

Under report-max there are two labels, and a history that holds an A
reports into label A whatever follows it, so all mass that enters it stops
under label A: the free continue masses off the all-B spine B, BB, ... net
to 0 in both label rows. The spine LP is the best-response rows of the
spine's free columns and the two label rows, over the spine columns alone:
at most 2(k-1) columns and 2k rows.

Spine-vertex lemma. On a report-max system, the two-phase simplex of
:mod:`retesting._simplex`, with Bland's rule (Bland, Math. Oper. Res. 2,
1977), makes the pivots that it makes on the spine LP. So the system is
feasible iff its spine LP is, and its vertex is the spine LP's vertex lifted
by 0 off the spine.

Proof, on the tableau, by induction over the pivots. A best-response row's
rhs is a reach mass, never negative, so only label rows get artificials.
(vii) The spine's best-response rows and the two label rows are 0 at every
column off the spine and at the slack of every row off the spine, and so is
any combination of them. Let every pivot so far have been in such a row.
Then the objective rows of both phases, priced out by those rows, are 0
there too, and none of those columns enters. (viii) A best-response row off
the spine starts as ``scale x_c - r x_a <= b``, where x_a is its anchor's
column, or none with a constant reach b. While x_a is nonbasic, the row's
entry at a column that can enter is at most 0: -r at x_a, if x_a is on the
spine. While x_a is basic in row i, eliminating x_a has made the row its
own x_c + s_c plus r / scale times row i. At the entering column it then
has row i's ratio, and row i's basic x_a is structural, with a lower index
than the row's own slack s_c, so Bland's tie rule picks row i. So the next
pivot row is one of (vii) too. (ix) The drive-out of a leftover artificial
reads a label row, whose first nonzero entry is at a spine column or slack.
So the columns off the spine stay nonbasic at 0, and the rest of the
tableau is the spine LP's, in the same column order: at every pivot both
take the same entering column, the lowest index with a negative reduced
cost, and the same leaving row, up to positive row multiples.

The census decides a spine LP from its policy's plan
(:func:`_spine_refutes`). A policy whose origin fails and whose spine LP is
feasible takes as its witness the spine LP's vertex, lifted by 0 off the
spine by the lemma (:func:`_vertex_strategy`). Its spine nodes' stops are
read off that point, and every other stop is the origin's. No row of the
whole tree is built.

Every mass of a layout is linear in the four cohort weights W = (p phi,
(1 - p) phi, p (1 - phi), (1 - p) (1 - phi)) over den(p) den(phi), with
coefficients that are integers of alpha alone, its form (:func:`_masses`),
read off one layout at weights that are powers of a large base
(:func:`_digits`), and a free column's coefficient in a row is a multiple
of the unit, the sum of W. So a spine LP over the unit has a matrix A of alpha alone, fixed per
(alpha, k, rule code, accept bits), and only its rhs b, a form times W, moves
with the point. An infeasible spine LP has a Farkas certificate y >= 0 with
yA >= 0 and y b < 0, which refutes every LP with the same A whose rhs it
makes negative (the reuse of exact LP certificates in Applegate, Cook, Dash
and Espinoza, Oper. Res. Letters 35, 2007). The census tries the
certificates kept for the LP's (k, rule code, signed accept bits), shared by
every alpha (:func:`_certificate_list`), and solves the Farkas LP of one it
cannot refute (:func:`_farkas`): that LP has a point iff the spine LP has
none, so one solve decides the verdict and yields the certificate to keep.
A certificate is used only after an exact integer check against the LP's own
rows (:func:`_certifies`): y >= 0 and yA >= 0 on its matrix, which depends on
alpha, and y b < 0 at its rhs. So the kept certificates change which LPs the
simplex solves, never a verdict.

Free-stop intervals come from the same reduced LPs, one Charnes-Cooper
program per reach column (:func:`_stop_ranges`): over one first-score
subtree's rows at a time under report-all, which are block-diagonal by
first score (:func:`_subtree_ranges`), and over the plan's spine LP under
report-max, where every reached node off the spine can stop with any
probability (:func:`_spine_ranges`).

Best responses come from one bottom-up induction per first-score subtree:
each history combines the results of its two children with its own accept
bit, for every accept pattern of the subtree at once (the census) or for one
policy's pattern (:func:`best_response`). Tables and layouts are lists in the
node order of :func:`retesting.model.all_sequences`, and an accept pattern is
an int with bit ``node(s)`` for each accepted s, as in :class:`AdmissionPolicy`.
A best response is one int over node bits too, its rule code: the rule
(continue, stop or indifferent) of each history h sits at bit ``4 node(h)``
for High and ``4 node(h) + 2`` for Low, so the codes of the two first-score
subtrees never share a bit and a whole-tree code is their bitwise or.
The verifier reads the rule code and :func:`retesting.model.cohort_rows`,
the integer within-cohort masses of the strategy cached per (alpha, k,
strategy), never a census cache: it tests the stops against the rule code
by bit masks, orders each positive-mass report's posterior against 1/2 by
its High and Low masses, weighted in integers by the cohort shares, and
builds ``Fraction``s only to word a violation.

The report-all census reads what the table lemma makes alpha-free from one
cached table per (k, first score, alpha is 1) (:func:`_subtree_induction`):
each accept pattern's rule code and odds group, each group's root accept bit
and value polynomials, and each rule code's template with its label rows
under int ids, numbered per table. Subtree
policies with equal admission odds, (accepts the first score, High and Low
values after it), form a group. Two groups of one root bit would merge at an
alpha where their High polynomials meet and their Low ones too, but for
k <= ``EXHAUSTIVE_MAX_K`` no two do at a rational alpha in (1/2, 1), which a
test checks exactly, so the table's groups are the groups at every alpha;
only their values are computed per alpha, from their polynomials
(:func:`_group_odds`). Per point the census does only the
point's work, in integers and bit masks, with no flow system: one layout,
each table row's constant b once, folded into two bit sets over the row ids,
those with b > 0 and those with b < 0. The kept groups are a function of the
table and those two sets, so they are cached per (k, first score, alpha is
1, b > 0 rows, b < 0 rows) (:func:`_kept_groups`), whatever the alpha; a new
key runs, per rule code, the labels with b > 0 and with b < 0 and, per accept
pattern, the origin's mask test (:func:`_origin_holds`, which the
free-stop ranges share). One policy's best response is cached per
(alpha, k, first score, subtree accept pattern), for the report-max
families, the verifier and the intervals. A group carries the rule code of
its first kept policy; one class builder takes blocks of
one-outcome policies from every scope, keyed by integer admission numerators
that sum one term per group, each term cached per (alpha, k, positive
cohorts, first score, odds) (:func:`_admit_terms`), and reads a new class's
label and admission probabilities from a cache keyed by those numerators
(:func:`_class_label`). It builds a witness strategy only for a block that
opens a class, and where the point is the origin only from one cache keyed
by (k, whole-tree code) (:func:`_origin_strategy`), under report-all the or
of the two subtree codes by the corollary; a vertex of the simplex gives
its own stops. A class keeps its policies as those blocks, a
:class:`PolicySet`: a report-all block is the product of an A-group and a
B-group of accept bits, and no policy is built until one is iterated.

The policy lists, report-max and the named report-all families, read one
cached plan per (alpha, k, reporting, policies) (:func:`_policy_plan`): per
policy its subtree responses' whole-tree rule code and admission odds, the
labels that a variable enters, each nonzero label constant as its form with
the labels that share it, and under report-max the spine matrix over the
unit with each rhs as a form. Per point (:func:`_kept_policies`) it computes
W and each distinct form's constant once, then per policy the origin's mask
test and, under report-max, the forced-label screen and the spine decision,
a kept certificate first; it builds no layout, template or flow system, and
a report-all family is decided by the origin's test alone, by the lemma. A
policy whose origin fails but which the spine LP keeps gets, only if it
opens a class, the stops of its spine LP's vertex lifted by 0, solved
inside its strategy call (:func:`_vertex_strategy`). The free-stop ranges
of a report-max policy read the same plan entry. No closed form
from :mod:`retesting.equilibria` is used to prune: the forced-label screen
and the origin's mask test read only the signs of the label rows, and the
spine decision only the policy's own rows over the spine columns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate
from operator import add, mul, or_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import _simplex
from .beliefs import posterior_from_distribution
from .equilibria import (
    ACCEPT_ALL,
    FIRST_SCORE,
    NON_FIRST_SCORE,
    REJECT_ALL,
    SEPARATING,
    AdmissionPolicy,
    EquilibriumProfile,
    Reporting,
    is_boundary,
)
from .errors import MalformedProfile, MissingStrategyEntry, ScopeTooLarge
from .model import (
    COHORTS,
    Category,
    Cohort,
    ModelParams,
    Score,
    ScoreSeq,
    StudentStrategy,
    StudentType,
    admission_key,
    all_sequences,
    best_score,
    best_score_projection,
    cohort_rows,
    node,
    outcome_distribution,
    seq_str,
)

# Best-response rules: a forced retake, a forced stop, or indifference.
CONTINUE, STOP, ANY = 0, 1, 2
_ZERO, _ONE = Fraction(0), Fraction(1)
_ADMISSIBLE = ((_ZERO, _ZERO), (_ONE, _ONE), (_ZERO, _ONE))  # stop sets by rule
_TYPES = tuple(StudentType)  # High first, as in every rule code and row

# The largest k whose report-all census enumerates every accept pattern.
EXHAUSTIVE_MAX_K = 3


@dataclass(frozen=True)
class BestResponseSet:
    """Admissible stop sets per (type, history), from backward induction:
    ``code`` holds the rule of every history shorter than k, ``values`` the
    optimal admission probability after each first score."""

    code: int
    values: Mapping[tuple[StudentType, ScoreSeq], Fraction]

    def admissible(self, type_: StudentType, history: ScoreSeq) -> tuple[Fraction, Fraction]:
        return _ADMISSIBLE[_rule_of(self.code, type_, history)]


def best_response(params: ModelParams, policy: AdmissionPolicy) -> BestResponseSet:
    """Optimal stopping sets for Category 2 students facing a policy.

    Decisions after a first score never look at the other first score, so
    each first-score subtree runs :func:`_induction` for the policy's one
    accept pattern there, once per cached :func:`_subtree_response`; the
    two rule codes hold disjoint node bits, so the whole
    tree's is their bitwise or. A policy of another k is refused.
    """
    code, values = 0, {}
    for first, high, low, sub in _subtree_responses(params, policy):
        code |= sub
        values.update(_first_values(params, first, high, low))
    return BestResponseSet(code, values)


def _subtree_responses(params: ModelParams, policy: AdmissionPolicy) -> list[tuple[Score, int, int, int]]:
    """(first score, High and Low value numerators, rule code) of each
    first-score subtree under the policy's accept pattern, read from
    :func:`_subtree_response` by the subtree's own accept bits, so that
    policies which share a subtree pattern share its induction. A policy of
    another k is refused."""
    if policy.k != params.k:
        raise MalformedProfile(f"a policy of k={policy.k} does not fit k={params.k}")
    return [(first, *_subtree_response(params.alpha, params.k, first, policy.bits & _subtree_mask(first, params.k)))
            for first in Score]


@lru_cache(maxsize=256)  # a k=3 census point's verifier reads about 6; each policy-list plan reads its own once
def _subtree_response(alpha: Fraction, k: int, first: Score, bits: int) -> tuple[int, int, int]:
    """(High and Low value numerators, rule code) of the first-score subtree
    under its accept ``bits``, from the :func:`_induction` entry at its root."""
    ((_, high, low, code),) = _induction(alpha, k, first, bits)[0]
    return high, low, code


def _first_values(params: ModelParams, first: Score, high: int, low: int) -> dict:
    """The values after ``first``, from the numerators of an induction entry at ``(first,)``."""
    scale = params.alpha.denominator ** (params.k - 1)
    return {(t, (first,)): Fraction(v, scale) for t, v in zip(_TYPES, (high, low))}


@lru_cache(maxsize=32)
def _subtree(first: Score, k: int) -> tuple[ScoreSeq, ...]:
    """The sequences of length 1..k that start with ``first``, in node order:
    the j-th has children 2j+1 (A) and 2j+2 (B)."""
    return tuple(s for s in all_sequences(k) if s[0] is first)


@lru_cache(maxsize=32)
def _subtree_mask(first: Score, k: int) -> int:
    """The node bits of :func:`_subtree`: a policy's accept bits there are its subtree pattern."""
    return sum(1 << node(s) for s in _subtree(first, k))


def _rule_of(code: int, type_: StudentType, history: ScoreSeq) -> int:
    """The rule of one (type, history) in a rule code: High's two bits at
    ``4 node(history)``, Low's two above them."""
    return code >> (4 * node(history) + 2 * (type_ is StudentType.LOW)) & 3


def _rule(stop: int, cont: int) -> int:
    """Strict comparisons force the decision, ties leave it free."""
    return STOP if stop > cont else CONTINUE if stop < cont else ANY


# One entry of an induction table: the accept bits of a subtree (bit node(s)
# for its sequence s, as in ``AdmissionPolicy``), the High and Low optimal
# values at its root as numerators over alpha's denominator to the power of
# the root's distance from depth k, and the rule code of its histories.
_Entry = tuple[int, int, int, int]


def _induction(alpha: Fraction, k: int, first: Score, bits: Optional[int] = None) -> list[list[_Entry]]:
    """Bottom-up backward induction on one first-score subtree, for every
    accept pattern at once (``bits`` None) or for the one pattern that the
    accept ``bits`` of a policy hold; the table of the i-th history of
    :func:`_subtree` holds one entry per accept pattern of the subtree rooted
    there.

    Stopping yields the accept bit of the current history; continuing yields
    the emission-weighted values of the A-child and B-child entries, so every
    pair of child entries and own bit costs O(1) integer work. The result
    depends on the parameters only through alpha.
    """
    seqs = _subtree(first, k)
    n, d = alpha.numerator, alpha.denominator
    tables: list[list[_Entry]] = [[] for _ in seqs]
    for i in reversed(range(len(seqs))):  # children before parents
        h = seqs[i]
        at = node(h)
        own = (0, 1 << at) if bits is None else (bits & 1 << at,)
        if len(h) == k:
            tables[i] = [(bit, int(bit > 0), int(bit > 0), 0) for bit in own]
            continue
        scale = d ** (k - len(h))
        table = tables[i]
        for a_bits, a_high, a_low, a_code in tables[2 * i + 1]:
            for b_bits, b_high, b_low, b_code in tables[2 * i + 2]:
                high = n * a_high + (d - n) * b_high
                low = (d - n) * a_low + n * b_low
                for bit in own:
                    u = scale if bit else 0
                    code = a_code | b_code | (_rule(u, high) | _rule(u, low) << 2) << 4 * at
                    table.append((a_bits | b_bits | bit, max(u, high), max(u, low), code))
    return tables


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str  # "best_response" | "posterior_rule"
    where: str
    detail: str


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...]
    off_path: tuple[ScoreSeq, ...]  # zero-mass reports, beliefs there are free

    def __bool__(self) -> bool:
        return self.ok


def _require_measurable(policy: AdmissionPolicy, reporting: Reporting) -> None:
    if reporting is Reporting.MAX and not policy.is_max_measurable():
        raise MalformedProfile("best-score reporting requires a max-measurable policy")


def verify_equilibrium(params: ModelParams, profile: EquilibriumProfile) -> Verdict:
    """Check a profile against the best-response and posterior conditions.

    Passing requires (a) every stop probability to lie in the admissible
    best-response set, and (b) every positive-mass report to satisfy the
    acceptance rule, compared exactly: accepted reports carry posterior
    >= 1/2, rejected ones <= 1/2 (ties may go either way). Zero-mass reports
    are recorded, never failed: any supporting belief is allowed there.
    A profile of another k is refused, since its deeper nodes would go unread,
    and so is a strategy without a stop probability at some history shorter
    than k.

    The work at a point is in integers, on the strategy's
    :func:`retesting.model.cohort_rows`, cached per (alpha, k, strategy):
    (a) compares the rule code of :func:`best_response`, the or of its cached
    first-score subtree codes, with the stops that are 1 and 0, since a STOP
    rule admits only 1, a CONTINUE rule only 0 and an indifferent one
    anything; (b) weighs each label's within-cohort masses by the cohort
    shares p phi, (1 - p) phi, p (1 - phi) and (1 - p) (1 - phi) and compares
    High mass with Low mass, which orders the posterior against 1/2. The
    ``Fraction`` outcome distribution, posteriors and admissible bounds are
    built only to word a violation.
    """
    _require_measurable(profile.policy, profile.reporting)
    # best_response's rule code, without its values; refuses a policy of another k
    code = reduce(or_, (sub for *_, sub in _subtree_responses(params, profile.policy)))
    strategy = profile.strategy
    try:
        rows = cohort_rows(params.alpha, params.k, strategy)
    except MissingStrategyEntry:
        _stop_violations(params, profile)  # refuses the strategy
        raise
    violations: list[Violation] = []
    lo, hi = code & rows.slots, code >> 1 & rows.slots  # STOP and ANY rules
    if not rows.exact or lo & ~rows.ones or rows.slots & ~(lo | hi | rows.zeros):
        violations += _stop_violations(params, profile)

    high1, low1, high2, low2 = _cohort_weights(params)
    if profile.reporting is Reporting.MAX:  # best-score reports are the depth-one nodes
        labels, masses = all_sequences(1), rows.best
    else:
        labels, masses = all_sequences(params.k), rows.labels
    bits = profile.policy.bits
    off_path: list[ScoreSeq] = []
    wrong: list[ScoreSeq] = []
    for i, (h1, l1, h2, l2) in enumerate(masses):
        high, low = high1 * h1 + high2 * h2, low1 * l1 + low2 * l2
        if not high and not low:
            off_path.append(labels[i])
        # with positive mass, the posterior high / (high + low) is below 1/2 iff high < low
        elif (high < low) if bits >> i & 1 else (high > low):
            wrong.append(labels[i])
    if wrong:
        dist = outcome_distribution(params, strategy)
        if profile.reporting is Reporting.MAX:
            dist = best_score_projection(dist)
        for lab in wrong:
            post = posterior_from_distribution(dist, lab)
            want = ">= 1/2" if profile.policy.accepts(lab) else "<= 1/2"
            violations.append(
                Violation(
                    kind="posterior_rule",
                    where=seq_str(lab),
                    detail=f"posterior {post} ({float(post):.6f}) must be {want}",
                )
            )
    return Verdict(ok=not violations, violations=tuple(violations), off_path=tuple(off_path))


def _stop_violations(params: ModelParams, profile: EquilibriumProfile) -> list[Violation]:
    """Every stop probability outside its admissible :func:`best_response`
    set, worded. A strategy with a stop probability after k or more tests,
    or with none at some history shorter than k, is refused."""
    deep = [h for _, h in profile.strategy.stop if len(h) >= params.k]
    if deep:
        raise MalformedProfile(f"a stop probability after {seq_str(deep[0])} is beyond k={params.k}")
    br = best_response(params, profile.policy)
    violations = []
    try:
        for type_ in StudentType:
            for h in all_sequences(params.k - 1):
                f = profile.strategy.stop_prob(type_, h, params.k)
                lo, hi = br.admissible(type_, h)
                if not lo <= f <= hi:
                    violations.append(
                        Violation(
                            kind="best_response",
                            where=f"{type_.value} after {seq_str(h)}",
                            detail=f"stop={f} outside admissible [{lo}, {hi}]",
                        )
                    )
    except MissingStrategyEntry as exc:
        raise MalformedProfile(str(exc)) from exc
    return violations


# ---------------------------------------------------------------------------
# Flow feasibility
# ---------------------------------------------------------------------------

# A mass that is one term: the constant value (var None) or value * x[var],
# as an integer over the system's scale.
_Term = tuple[Optional[int], int]


class _Shape(NamedTuple):
    """The structure of one game tree under one reporting policy, and the
    index of each of its masses in the ``values`` of its layouts."""

    parents: tuple[int, ...]  # index of each sequence's parent, -1 at depth one
    # labels in node order, each as its tree node and member indices
    labels: tuple[tuple[int, tuple[int, ...]], ...]
    # reach[t][i] + d indexes the mass of type t reaching sequence i per unit
    # continuing at its depth-d ancestor; d = 0 is the constant mass of an
    # unbroken path
    reach: tuple[tuple[int, ...], ...]
    cat1: int  # cat1 + l indexes the Category 1 High - Low mass of label l


@lru_cache(maxsize=8)  # a census point uses up to four trees
def _shape(seqs: tuple[ScoreSeq, ...], reporting: Reporting) -> _Shape:
    """The shape of the tree ``seqs``, given in node order (all of
    :func:`all_sequences` or one :func:`_subtree`). Index 1 holds the scale."""
    index = {s: i for i, s in enumerate(seqs)}
    parents = tuple(index[s[:-1]] if len(s) > 1 else -1 for s in seqs)
    groups: dict[ScoreSeq, list[int]] = {}  # labels come first in node order: sorted
    for i, s in enumerate(seqs):
        groups.setdefault((best_score(s),) if reporting is Reporting.MAX else s, []).append(i)
    labels = tuple((node(lab), tuple(members)) for lab, members in groups.items())
    starts = list(accumulate((len(s) for s in seqs * 2), initial=2))
    return _Shape(parents, labels, (tuple(starts[: len(seqs)]), tuple(starts[len(seqs) : -1])), starts[-1])


def _cohort_weights(params: ModelParams) -> tuple[int, int, int, int]:
    """The cohort shares p phi, (1 - p) phi, p (1 - phi) and (1 - p) (1 - phi),
    in ``COHORTS`` order, as integers over den(p) den(phi), which they sum to."""
    (p, q), (f, g) = params.p.as_integer_ratio(), params.phi.as_integer_ratio()
    return f * p, f * (q - p), (g - f) * p, (g - f) * (q - p)


def _masses(alpha: Fraction, k: int, seqs: tuple[ScoreSeq, ...], reporting: Reporting,
            weights: tuple[int, int, int, int]) -> tuple[int, ...]:
    """The masses of the tree ``seqs`` at the cohort ``weights`` of
    :func:`_cohort_weights`, with their sum as the unit, as integers over
    the scale, the unit times den(alpha)^k, at the indices of the tree's
    :func:`_shape`: index 0 holds 0 and index -j the negation of index j, so
    a signed index reads a mass or its negation. Each mass is an integer of
    alpha alone times one weight (a Category 2 mass of an unbroken path),
    the unit (a mass per unit continuing) or, for a label's Category 1 mass,
    the Category 1 High and Low weights, so the values are linear in
    ``weights``."""
    shape = _shape(seqs, reporting)
    n, d = alpha.as_integer_ratio()
    den, unit = d**k, sum(weights)
    values = [unit * den]
    cat1 = [0] * len(seqs)
    for t, sign, cat1_weight, cat2_weight, hit in ((StudentType.HIGH, 1, weights[0], weights[2], n),
                                                  (StudentType.LOW, -1, weights[1], weights[3], d - n)):
        emit = {Score.A: hit * den // d, Score.B: (d - hit) * den // d}  # over den; hit is P(A) over d
        masses: list[tuple[int, ...]] = []
        for i, (s, j) in enumerate(zip(seqs, shape.parents)):
            e = emit[s[-1]]
            if j < 0:  # Category 2 and Category 1 mass over the unit, times the emission
                masses.append((cat2_weight * e,))
                cat1[i] += sign * cat1_weight * e
            else:  # one more emission on the path from every ancestor, and the parent's unit
                masses.append((*(m * e // den for m in masses[j]), unit * e))
            values += masses[-1]
    values += [sum(cat1[i] for i in members) for _, members in shape.labels]
    return (0, *values, *(-v for v in reversed(values)))


def _form_base(alpha: Fraction, k: int) -> int:
    """A base above twice the magnitude of any coefficient of a mass, a sum
    of masses or a label row's constant on the cohort weights: each is at
    most (k + 1) den(alpha)^k, as a type's path masses at one depth sum to
    at most its weight times den(alpha)^k."""
    return 4 << ((k + 2) * alpha.denominator**k).bit_length()


def _digits(value: int, base: int) -> tuple[int, int, int, int]:
    """The form of a value of :func:`_masses` at the weights (1, base,
    base^2, base^3): its four coefficients, each below base / 2 in
    magnitude, read as the balanced digits of ``value``, lowest first."""
    digits = []
    for _ in range(3):
        digit = (value + base // 2) % base - base // 2
        digits.append(digit)
        value = (value - digit) // base
    return (*digits, value)


# a census point reads the two subtrees, for the row signs of its kept
# groups, and the free-stop ranges of its report-all witnesses read them again
@lru_cache(maxsize=8)
def _layout(params: ModelParams, seqs: tuple[ScoreSeq, ...], reporting: Reporting) -> tuple[int, ...]:
    """The :func:`_masses` of the tree ``seqs`` at one point, which every
    flow system over the tree shares, whatever its best-response rules."""
    return _masses(params.alpha, params.k, seqs, reporting, _cohort_weights(params))


# A template's label row "High - Low <= 0" as signed indices into a layout's
# values: its constant's, then (column, indices) per variable that enters it.
_Row = tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]


class _Template(NamedTuple):
    """What a flow system takes from its tree, reporting policy, k and
    best-response rules, whatever the point: its free nodes, and the anchor
    of every reach and every label row as signed indices into a layout."""

    var_index: dict[tuple[StudentType, ScoreSeq], int]
    reach: dict[tuple[StudentType, ScoreSeq], _Term]  # (var, signed index)
    label_rows: tuple[tuple[int, _Row], ...]  # (mask of the label's accept bit, row)
    # report-max only (None under report-all): the free columns on the all-B
    # spine B, BB, ..., in column order, for the spine decision
    spine: Optional[tuple[int, ...]]


@lru_cache(maxsize=128)  # a k=3 census sweep over 4 alphas builds 55
def _template(seqs: tuple[ScoreSeq, ...], reporting: Reporting, k: int, code: int) -> _Template:
    """The template of the tree ``seqs`` under the rules that the rule
    ``code`` holds for its histories."""
    shape = _shape(seqs, reporting)
    var_index: dict[tuple[StudentType, ScoreSeq], int] = {}
    reach: dict[tuple[StudentType, ScoreSeq], _Term] = {}
    # per type and sequence: the (var, depth) its children's mass continues
    # from (None when none does), and its stop mass as terms
    below: tuple[list, list] = ([], [])
    stop: tuple[list, list] = ([], [])
    for i, (s, j) in enumerate(zip(seqs, shape.parents)):
        for ti, t in enumerate(_TYPES):
            anchor = (None, 0) if j < 0 else below[ti][j]
            r = (None, 0) if anchor is None else (anchor[0], shape.reach[ti][i] + anchor[1])
            reach[(t, s)] = r
            rule = _rule_of(code, t, s) if len(s) < k else STOP
            if rule == ANY:
                var = var_index[(t, s)] = len(var_index)
                anchor = (var, len(s))
            below[ti].append(None if rule == STOP else anchor)
            stop[ti].append(() if rule == CONTINUE else (r, (var, -1)) if rule == ANY else (r,))
    # High - Low mass per label: the stop mass of each member, plus Category 1
    # mass at depth one; the constant's terms under None
    label_rows = []
    for l, (lab, members) in enumerate(shape.labels):
        cols: dict[Optional[int], list[int]] = {None: [shape.cat1 + l]}
        for i in members:
            for ti, sign in ((0, 1), (1, -1)):
                for var, j in stop[ti][i]:
                    cols.setdefault(var, []).append(sign * j)
        const = tuple(cols.pop(None))
        label_rows.append((1 << lab, (const, tuple([(var, tuple(js)) for var, js in cols.items()]))))
    spine = None if reporting is Reporting.ALL else tuple(c for (_, s), c in var_index.items() if Score.A not in s)
    return _Template(var_index, reach, tuple(label_rows), spine)


def _row_const(values: tuple[int, ...], row: _Row) -> int:
    """A label row's constant b at a layout's ``values``: its constant's
    indices sum to -b."""
    return -sum(map(values.__getitem__, row[0]))


def _row_sign(values: tuple[int, ...], row: _Row) -> tuple[int, bool]:
    """A label row's :func:`_row_const` b, and whether a variable enters it."""
    return _row_const(values, row), any([sum(map(values.__getitem__, js)) for _, js in row[1]])


def _origin_holds(bits: int, pos: int, neg: int) -> bool:
    """Whether the origin is a point at the accept ``bits``, given the labels
    with b > 0 (``pos``) and b < 0 (``neg``): a rejected label's rhs is b, an
    accepted one's -b, and a best-response row's a reach mass."""
    return not (bits & pos or ~bits & neg)


def _screen_refuses(bits: int, forced: int, neg: int) -> bool:
    """Whether a label's forced accept bit differs from the policy's, so
    that its row reads ``0 <= b`` with b negative, given the ``forced``
    labels (b nonzero, no variable) and those with b < 0 (``neg``): a row
    with no variable holds for one accept bit only, 0 <= b when rejected and
    0 <= -b when accepted, so the forced labels with b < 0 must be accepted
    and the others rejected."""
    return bool((bits ^ (forced & neg)) & forced)


@lru_cache(maxsize=64)  # a census-k3 input cycle reads 2 keys, 41 k=3 alphas then report-max at k=10 read 4
def _certificate_list(key: tuple) -> list[tuple[int, ...]]:
    """The Farkas certificates kept for the spine LPs of one (k, whole-tree
    rule code, signed accept bits), which fixes the rows of a spine LP and
    which label rows are negated: at most ``_PER_KEY``, the last to refute
    first. Its matrix depends on alpha too, and its rhs on the point, so a
    certificate is only ever a candidate: each use checks it exactly
    (:func:`_certifies`)."""
    return []


_PER_KEY = 16


def _dual_holds(y: Sequence[int], a_ub: Sequence[Sequence[int]]) -> bool:
    """Whether y, one entry per row of ``a_ub``, has y >= 0 and y a_ub >= 0,
    so that y a_ub x >= 0 for every x >= 0. Exact, in integers."""
    return (len(y) == len(a_ub) and all(v >= 0 for v in y)
            and all(sum(map(mul, y, col)) >= 0 for col in zip(*a_ub)))


def _certifies(y: Sequence[int], a_ub: Sequence[Sequence[int]], b_ub: Sequence[int]) -> bool:
    """Whether ``y`` proves that ``a_ub x <= b_ub`` has no solution x >= 0
    (Farkas): :func:`_dual_holds`, while y b_ub < 0."""
    return _dual_holds(y, a_ub) and sum(map(mul, y, b_ub)) < 0


def _farkas(a_ub: Sequence[Sequence[int]], b_ub: Sequence[int], n: int) -> Optional[tuple[int, ...]]:
    """A Farkas certificate of an infeasible ``a_ub x <= b_ub`` over ``n``
    columns, in integers: the point y of the LP y >= 0, -a_ub^T y <= 0,
    b_ub y <= -1, which has one iff the system has no solution x >= 0."""
    rows = [[-row[j] for row in a_ub] for j in range(n)] + [list(b_ub)]
    y = _simplex.feasible_point(rows, [0] * n + [-1], len(b_ub), scale=1)
    if y is None:
        return None
    den = math.lcm(*(v.denominator for v in y))
    ints = [v.numerator * (den // v.denominator) for v in y]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _br_over(template: _Template, values: tuple[int, ...], cols: Sequence[int]) -> list[tuple[list[int], int]]:
    """``c - reach <= 0`` at each free node c of ``cols``, over those columns
    only, at a layout's ``values``: the reach of each is the constant or a
    multiple of one of them."""
    at = {c: i for i, c in enumerate(cols)}
    keys, rows, scale = tuple(template.var_index), [], values[1]
    for c in cols:
        var, j = template.reach[keys[c]]
        value = values[j]
        coeffs = [0] * len(cols)
        coeffs[at[c]] = scale
        if var is not None:
            coeffs[at[var]] = -value
        rows.append((coeffs, value if var is None else 0))
    return rows


def _labels_over(template: _Template, values: tuple[int, ...],
                 cols: Sequence[int]) -> list[tuple[int, tuple[list[int], int]]]:
    """Each label row over the columns ``cols`` only, at a layout's
    ``values``, as (mask of its label's accept bit, (coefficients, rhs))."""
    at = {c: i for i, c in enumerate(cols)}
    get, rows = values.__getitem__, []
    for mask, row in template.label_rows:
        coeffs = [0] * len(cols)
        for col, js in row[1]:
            if col in at:
                coeffs[at[col]] = sum(map(get, js))
        rows.append((mask, (coeffs, _row_const(values, row))))
    return rows


def _sign_rows(br_rows: list, label_rows: list, bits: int) -> tuple[list, list]:
    """Rows (A_ub, b_ub): accepted labels need High - Low >= 0, rejected ones <= 0."""
    rows = br_rows + [(([-v for v in row], -b) if bits & mask else (row, b)) for mask, (row, b) in label_rows]
    return [row for row, _ in rows], [b for _, b in rows]


def _stop_ranges(a_ub: list, b_ub: list, scale: int, cols: Sequence[int],
                 reach: Sequence[tuple[tuple[StudentType, ScoreSeq], Optional[int], int]],
                 ) -> dict[tuple[StudentType, ScoreSeq], tuple[Fraction, Fraction]]:
    """The stop-probability range of each free node that a supporting flow
    reaches, on a polytope ``a_ub x <= b_ub`` that is not empty, over the
    free columns ``cols``, with rows times ``scale``. ``reach`` holds each
    free node's (key, var, value) in column order: its template's reach
    term, with the value read at the point, over the same scale.

    At a free node c of ``cols`` with reach term (var, value), the stop
    probability is 1 - scale x[c] / (value x[col]), where col is var, or the
    constant column s = 1 when var is None. The rows, homogenised as
    ``a_ub y <= b_ub s``, are a cone, so fixing y[col] = 1 makes that ratio
    linear in y (Charnes-Cooper). The nodes that share a col share that LP:
    phase 1 runs once, and each node adds the objectives y[c] and -y[c],
    which its best-response row bounds.

    A free node outside ``cols`` (off the all-B spine under report-max) has
    zero coefficients in every label row and bounds only itself and its
    children, so it can stop with any probability: its range is exactly
    (0, 1) when a flow reaches it, that is, when every link of its chain of
    free ancestors carries a positive reach and the chain ends at the
    constant column or at a column of ``cols`` whose LP is feasible. Nodes
    that no supporting flow reaches are left out.
    """
    m = len(cols)  # the constant column is m
    at = {c: i for i, c in enumerate(cols)}
    groups: dict[int, list[tuple[int, tuple[StudentType, ScoreSeq], int]]] = {}  # col -> (i, key, value)
    chains: dict[int, int] = {}  # each reached free column outside cols -> the col its chain ends at
    for c, (key, var, value) in enumerate(reach):
        col = m if var is None else at[var] if var in at else chains.get(var)
        if not value or col is None:  # no flow reaches the node, whatever y
            continue
        if c in at:
            groups.setdefault(col, []).append((at[c], key, value))
        else:
            chains[c] = col
            if col < m:
                groups.setdefault(col, [])
    a_cc = [[*row, -b] for row, b in zip(a_ub, b_ub)]
    b_cc = [0] * len(a_cc)
    ends: dict[tuple[StudentType, ScoreSeq], tuple[Fraction, Fraction]] = {}
    feasible = {m}  # s = 1 gives the system itself
    for col, members in groups.items():
        norm = [0] * (m + 1)
        norm[col] = scale  # scale * y[col] = scale
        # every min y[c], then every max: at k=6 this order takes fewer
        # pivots than pairs per node or the maxima first
        objectives = [[int(j == i) for j in range(m + 1)] for i, _, _ in members]
        objectives += [[-v for v in obj] for obj in objectives]
        results = _simplex.optimize(objectives or [[0] * (m + 1)], a_cc, b_cc, [norm], [scale], m + 1, scale=scale)
        if results[0].status == _simplex.OPTIMAL:
            feasible.add(col)
        for (_, key, value), lo, hi in zip(members, results, results[len(members) :]):
            if lo.status == _simplex.OPTIMAL:
                ends[key] = (1 + scale * hi.value / value, 1 - scale * lo.value / value)
    for c, (key, _, _) in enumerate(reach):
        if chains.get(c) in feasible:
            ends[key] = (Fraction(0), Fraction(1))
    return ends


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

SCOPE_REPORT_MAX = "report-max"
SCOPE_REPORT_ALL = "report-all"
SCOPE_FIRST_SCORE = "report-all:first-score"
SCOPE_B_THEN_A = "report-all:b-then-a-run"
SCOPE_ALL_B_REJECT = "report-all:all-b-reject"
SCOPES = (
    SCOPE_REPORT_MAX,
    SCOPE_REPORT_ALL,
    SCOPE_FIRST_SCORE,
    SCOPE_B_THEN_A,
    SCOPE_ALL_B_REJECT,
)


class PolicySet:
    """The policies that support one outcome class, stored as the census
    blocks that found them, none built until iterated.

    A block (left, right) holds ``AdmissionPolicy(k, a | b)`` for every a in
    left and b in right, where a has node bits inside ``mask`` only and b
    outside it; a report-all block is the product of an A-subtree group and
    a B-subtree group. ``len`` is a sum of products, ``in`` splits a policy's
    bits at ``mask``, and iteration goes block by block, left-major.
    """

    def __init__(self, k: int, mask: int):
        self.k = k
        self.mask = mask
        self.blocks: list[tuple[Sequence[int], Sequence[int]]] = []

    def __len__(self) -> int:
        return sum(len(left) * len(right) for left, right in self.blocks)

    def __iter__(self) -> Iterator[AdmissionPolicy]:
        for left, right in self.blocks:
            for a in left:
                for b in right:
                    yield AdmissionPolicy(self.k, a | b)

    def __contains__(self, policy: object) -> bool:
        if not isinstance(policy, AdmissionPolicy) or policy.k != self.k:
            return False
        a, b = policy.bits & self.mask, policy.bits & ~self.mask
        return any(a in left and b in right for left, right in self.blocks)


@dataclass
class OutcomeClass:
    """An equilibrium outcome: per-cohort admission probabilities.

    Cohorts with zero mass are omitted (their conditional behavior is not an
    observable outcome). ``policies`` is the :class:`PolicySet` of every
    deterministic policy in scope that supports the class, each once, in
    census block order; it supports ``len``, ``in`` and iteration.
    ``witness`` is one fully specified profile, from the first block.
    """

    admit_prob: dict[Cohort, Fraction]
    label: str
    witness: EquilibriumProfile
    policies: PolicySet
    verified: bool

    def key(self) -> tuple:
        return admission_key(self.admit_prob)


@dataclass
class Enumeration:
    params: ModelParams
    scope: str
    boundary: bool
    policies_considered: int
    classes: list[OutcomeClass]


def _positive_cohorts(params: ModelParams) -> tuple[Cohort, ...]:
    """The cohorts of positive mass, in ``COHORTS`` order: p lies in (0, 1),
    so they are those of each category whose share, phi or 1 - phi, is
    positive."""
    return tuple(c for c in COHORTS if (params.phi if c.category is Category.CAT1 else params.phi_bar))


@lru_cache(maxsize=256)  # a census-k3 input cycle reads 191
def _admit_terms(alpha: Fraction, k: int, cohorts: tuple[Cohort, ...], first: Score,
                 accepted: int, high: int, low: int) -> tuple[int, ...]:
    """What first score ``first`` adds to the admission probability of each
    of the positive-mass ``cohorts``, as a numerator over den(alpha)^k:
    Category 1 is admitted on it when ``accepted``, Category 2 at the optimal
    values after it, High and Low numerators over den(alpha)^(k-1) as in an
    induction entry. A cohort's admission probability is the sum of its two
    first scores' terms."""
    n, d = alpha.numerator, alpha.denominator
    terms = []
    for cohort in cohorts:
        high_type = cohort.type_ is StudentType.HIGH
        emit = n if high_type is (first is Score.A) else d - n  # over d
        if cohort.category is Category.CAT1:
            terms.append(emit * d ** (k - 1) if accepted else 0)
        else:
            terms.append(emit * (high if high_type else low))
    return tuple(terms)


@lru_cache(maxsize=256)  # a census-k3 input cycle reads 135-137
def _class_label(alpha: Fraction, k: int, cohorts: tuple[Cohort, ...], terms: tuple[int, ...],
                 reporting: Reporting) -> tuple[str, tuple[Fraction, ...]]:
    """The label of the outcome whose admission probabilities are the
    numerators ``terms`` over den(alpha)^k, one per cohort of ``cohorts``,
    and those probabilities as ``Fraction``s. The label is decided on the
    integers: every cohort at 0, every cohort at 1, or each at its
    first-score outcome, alpha for High and 1 - alpha for Low."""
    n, d = alpha.numerator, alpha.denominator
    den = d**k
    if not any(terms):
        label = REJECT_ALL
    elif all(t == den for t in terms):
        label = ACCEPT_ALL
    elif terms == tuple((n if c.type_ is StudentType.HIGH else d - n) * d ** (k - 1) for c in cohorts):
        label = FIRST_SCORE
    else:
        label = SEPARATING if reporting is Reporting.MAX else NON_FIRST_SCORE
    return label, tuple(Fraction(t, den) for t in terms)


def _census(
    params: ModelParams,
    scope: str,
    considered: int,
    reporting: Reporting,
    mask: int,
    blocks: Iterable[tuple[Sequence[int], Sequence[int], tuple[int, ...], Callable[[], StudentStrategy]]],
) -> Enumeration:
    """The one place outcome classes are built. Each block (left, right,
    terms, strategy) holds feasible policies, split at ``mask`` as in
    :class:`PolicySet`, with one outcome: the sums of the
    :func:`_admit_terms` of its two first scores, which key its class. A new
    outcome gets the verified witness of its block's first policy, with the
    strategy of its ``strategy`` call, made for no other block.
    """
    cohorts = _positive_cohorts(params)
    classes: dict[tuple[int, ...], OutcomeClass] = {}
    for left, right, terms, strategy in blocks:
        cls = classes.get(terms)
        if cls is None:
            label, admit = _class_label(params.alpha, params.k, cohorts, terms, reporting)
            witness = EquilibriumProfile(AdmissionPolicy(params.k, left[0] | right[0]), strategy(), label, reporting)
            policies = PolicySet(params.k, mask)
            cls = classes[terms] = OutcomeClass(dict(zip(cohorts, admit)), label, witness, policies,
                                                verify_equilibrium(params, witness).ok)
        cls.policies.blocks.append((left, right))
    classes_in_order = sorted(classes.values(), key=OutcomeClass.key)
    return Enumeration(params, scope, is_boundary(params), considered, classes_in_order)


# A rule code's template, and per label (mask of the label's accept bit, id
# of the label's row in its :class:`_CensusTable`).
_Coded = tuple[_Template, tuple[tuple[int, int], ...]]


class _CensusTable(NamedTuple):
    """What the census of one first-score subtree reads at every alpha on one
    side of 1, by the table lemma of this module's docstring: each accept
    pattern's rule code and odds group, each group's value polynomials, each
    rule code's template and label row ids, and those rows."""

    entries: tuple[tuple[int, int, int], ...]  # per accept pattern, in ascending bits: (bits, rule code, group id)
    # per odds group, in order of first occurrence: (accepts the first score,
    # High and Low value polynomials), a polynomial as its coefficients on
    # num(alpha)^j (den(alpha) - num(alpha))^(k-1-j) for j = 0..k-1
    groups: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    codes: dict[int, _Coded]  # in order of first occurrence
    rows: tuple[tuple[int, _Row], ...]  # (id, row) of each label row the codes read


@lru_cache(maxsize=16)  # one per (k, first score, alpha is 1) up to EXHAUSTIVE_MAX_K: 12
def _subtree_induction(k: int, first: Score, at_one: bool) -> _CensusTable:
    """The :class:`_CensusTable` of one first-score subtree for alpha 1
    (``at_one``) or for every alpha in (1/2, 1), from one :func:`_induction`
    over every accept pattern, with each rule code's :func:`_template` and
    its label rows numbered in order of first occurrence.

    Below 1 the induction runs at alpha = B / (B + 1), B = 2^k, so that
    num(alpha) = B and den(alpha) - num(alpha) = 1: each value numerator is
    its polynomial at (B, 1), whose coefficients, at most binomials of k - 1
    by the lemma's proof, are its digits in base B. At alpha 1 each value is
    0 or 1, the coefficient of num(alpha)^(k-1). The table has 2^(2^k - 1)
    patterns, so k above ``EXHAUSTIVE_MAX_K`` is refused before any work.
    """
    if k > EXHAUSTIVE_MAX_K:
        raise ScopeTooLarge(f"every accept pattern at k={k} means 2^{2**k - 1} patterns per subtree")
    base = 2**k

    def polynomial(value: int) -> tuple[int, ...]:
        if at_one:
            return (0,) * (k - 1) + (value,)
        return tuple(value // base**j % base for j in range(k))

    seqs, root = _subtree(first, k), node((first,))
    ids: dict[_Row, int] = {}
    codes: dict[int, _Coded] = {}
    groups: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
    entries = []
    for bits, high, low, code in sorted(_induction(Fraction(1) if at_one else Fraction(base, base + 1), k, first)[0]):
        if code not in codes:
            template = _template(seqs, Reporting.ALL, k, code)
            codes[code] = (template, tuple((mask, ids.setdefault(row, len(ids))) for mask, row in template.label_rows))
        odds = (bits >> root & 1, polynomial(high), polynomial(low))
        entries.append((bits, code, groups.setdefault(odds, len(groups))))
    return _CensusTable(tuple(entries), tuple(groups), codes, tuple((row_id, row) for row, row_id in ids.items()))


@lru_cache(maxsize=64)  # two per (alpha, k): 32 alphas of one k
def _group_odds(alpha: Fraction, k: int, first: Score) -> tuple[tuple[int, int, int], ...]:
    """The odds of each group of the subtree's :func:`_subtree_induction`
    table at alpha, by group id: (accepts the first score, High and Low value
    numerators over den(alpha)^(k-1)), from the group's polynomials."""
    n, d = alpha.numerator, alpha.denominator
    powers = [n**j * (d - n) ** (k - 1 - j) for j in range(k)]
    return tuple((accepted, sum(map(mul, high, powers)), sum(map(mul, low, powers)))
                 for accepted, high, low in _subtree_induction(k, first, alpha == 1).groups)


@lru_cache(maxsize=256)  # a census-k3 input cycle reads 39
def _kept_groups(k: int, first: Score, at_one: bool, pos: int,
                 neg: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """The consistent accept patterns of one first-score subtree, by odds
    group in order of first occurrence, as (group id, accept patterns, rule
    code of the first pattern), given the ids of the
    :func:`_subtree_induction` table's rows with b > 0 (bit set ``pos``) and
    with b < 0 (``neg``).

    The verdict of a pattern is :func:`_origin_holds` on its rule code's
    label masks, exact by the lemma of this module's docstring, and those
    masks are read off the two bit sets: the groups are a function of the
    table and the signs of its rows, so points with equal signs share them,
    whatever their alpha on the same side of 1.
    """
    table = _subtree_induction(k, first, at_one)
    masks = {code: (sum(mask for mask, row_id in labels if pos >> row_id & 1),
                    sum(mask for mask, row_id in labels if neg >> row_id & 1))
             for code, (_, labels) in table.codes.items()}
    groups: dict[int, tuple[list[int], int]] = {}
    for bits, code, group in table.entries:
        if _origin_holds(bits, *masks[code]):
            groups.setdefault(group, ([], code))[0].append(bits)
    return tuple((group, tuple(patterns), code) for group, (patterns, code) in groups.items())


def _solve_subtrees(params: ModelParams, first: Score) -> dict[tuple, tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The :func:`_kept_groups` of one first-score subtree at a point, by
    odds: (accept patterns, :func:`_admit_terms`, rule code of the first
    pattern).

    Everything that depends on k alone comes from the subtree's cached
    :func:`_subtree_induction` table, and the groups' odds at alpha from
    :func:`_group_odds`. Per point: one layout, each table row's constant b,
    folded into the bit sets of the row ids with b > 0 and b < 0, and the
    groups of those signs; no flow system is built.
    """
    alpha, k = params.alpha, params.k
    at_one = alpha == 1
    table = _subtree_induction(k, first, at_one)
    values = _layout(params, _subtree(first, k), Reporting.ALL)
    pos = neg = 0
    for row_id, row in table.rows:
        b = _row_const(values, row)
        if b > 0:
            pos |= 1 << row_id
        elif b < 0:
            neg |= 1 << row_id
    odds, cohorts = _group_odds(alpha, k, first), _positive_cohorts(params)
    return {odds[group]: (patterns, _admit_terms(alpha, k, cohorts, first, *odds[group]), code)
            for group, patterns, code in _kept_groups(k, first, at_one, pos, neg)}


def _origin_stops(code: int, keys: Iterable[tuple[StudentType, ScoreSeq]]) -> dict:
    """The stops of the origin under the rule ``code`` at ``keys``, in their
    order: 0 where the rule is CONTINUE, else 1, since no free node
    continues mass there."""
    return {(t, h): _ZERO if _rule_of(code, t, h) == CONTINUE else _ONE for t, h in keys}


@lru_cache(maxsize=64)  # a census-k3 input cycle reads 14 keys
def _origin_strategy(k: int, code: int) -> StudentStrategy:
    """The origin's stops under a whole-tree rule ``code``, type-major over
    the histories: the witness of a report-all class, whose code is the or
    of its two subtree codes, by the corollary of this module's docstring,
    and of a policy-list class whose policy has the origin as its point."""
    return StudentStrategy(_origin_stops(code, ((t, h) for t in _TYPES for h in all_sequences(k - 1))))


def _enumerate_report_all(params: ModelParams) -> Enumeration:
    """One block per (A-group, B-group) pair: the products of their patterns,
    whose accept bits never share a node, the sums of their terms, and the
    witness strategy of their rule codes."""
    a_groups, b_groups = (_solve_subtrees(params, first).values() for first in Score)
    blocks = (
        (a_bits, b_bits, tuple(map(add, a_terms, b_terms)), partial(_origin_strategy, params.k, a_code | b_code))
        for a_bits, a_terms, a_code in a_groups
        for b_bits, b_terms, b_code in b_groups
    )
    considered = (1 << (2**params.k - 1)) ** 2
    mask = _subtree_mask(Score.A, params.k)
    return _census(params, SCOPE_REPORT_ALL, considered, Reporting.ALL, mask, blocks)


class _Spine(NamedTuple):
    """A report-max policy's spine LP at one alpha, signed by its accept
    bits: ``a_ub`` divided by the unit, which leaves integers of alpha
    alone, and each rhs as its form over the cohort weights; with the reach
    of every free node of the whole tree, whose forms are of alpha alone
    too."""

    a_ub: tuple[tuple[int, ...], ...]
    b_ub: tuple[tuple[int, int, int, int], ...]
    cols: tuple[int, ...]  # the spine's free columns, in column order
    # per free column of the whole tree, in column order: (its key, the
    # column of its anchor or None, the form of its reach term's value)
    reach: tuple[tuple[tuple[StudentType, ScoreSeq], Optional[int], tuple[int, int, int, int]], ...]
    # per certificate tried: its y b_ub as a form, or None where y >= 0 and
    # y a_ub >= 0 fail, so each is checked against the matrix once; this
    # saves about a tenth of a report-max census point at k=3
    checked: dict[tuple[int, ...], Optional[tuple[int, ...]]]


class _PlanEntry(NamedTuple):
    """What one policy of a policy list holds at one (alpha, k), whatever the point."""

    bits: int
    code: int  # the whole-tree rule code
    odds: tuple[tuple[int, int, int], ...]  # per first score: (accepts it, High and Low values after it)
    # (form id, mask of the labels whose constant b has that form) per
    # nonzero form; labels whose b is 0 at every point are left out
    labels: tuple[tuple[int, int], ...]
    varies: int  # the labels that a variable enters
    spine: Optional[_Spine]  # report-max only


class _PolicyPlan(NamedTuple):
    """What the census of a policy list reads at every point of one (alpha, k)."""

    forms: tuple[tuple[int, int, int, int], ...]  # the distinct nonzero label constant forms
    entries: tuple[_PlanEntry, ...]


# four policy lists per (alpha, k), whose report-max plan the free-stop
# ranges of its witnesses read again: 8 alphas of one k
@lru_cache(maxsize=32)
def _policy_plan(alpha: Fraction, k: int, reporting: Reporting, policies: tuple[int, ...]) -> _PolicyPlan:
    """The :class:`_PolicyPlan` of the accept ``policies`` of a policy list.

    Each label constant b, spine rhs and reach is read as its form, its
    coefficients on the four cohort weights, from one :func:`_masses` of the
    whole tree at the weights (1, B, B^2, B^3) for the :func:`_form_base` B:
    masses are linear in the weights, so the form of a sum of them is the
    :func:`_digits` of its value there. A free column's coefficient is a
    multiple of the unit, 1 + B + B^2 + B^3, so the spine matrix is read
    divided by it. A policy that is not max-measurable under report-max is
    refused."""
    seqs, base = all_sequences(k), _form_base(alpha, k)
    weights = (1, base, base**2, base**3)
    values, unit = _masses(alpha, k, seqs, reporting, weights), sum(weights)
    forms: dict[tuple[int, ...], int] = {}
    entries = []
    for bits in policies:
        _require_measurable(AdmissionPolicy(k, bits), reporting)
        responses = [_subtree_response(alpha, k, first, bits & _subtree_mask(first, k)) for first in Score]
        code = reduce(or_, (sub for *_, sub in responses))
        template = _template(seqs, reporting, k, code)
        labels: dict[int, int] = {}
        varies = 0
        for mask, row in template.label_rows:
            b, row_varies = _row_sign(values, row)
            if b:
                form_id = forms.setdefault(_digits(b, base), len(forms))
                labels[form_id] = labels.get(form_id, 0) | mask
            if row_varies:
                varies |= mask
        spine = None
        if template.spine is not None:
            a_ub, b_ub = _sign_rows(_br_over(template, values, template.spine),
                                    _labels_over(template, values, template.spine), bits)
            reach = tuple((key, var, _digits(values[j], base))
                          for key, (var, j) in ((key, template.reach[key]) for key in template.var_index))
            spine = _Spine(tuple(tuple(v // unit for v in row) for row in a_ub),
                           tuple(_digits(b, base) for b in b_ub), template.spine, reach, {})
        odds = tuple((bits >> node((first,)) & 1, high, low) for first, (high, low, _) in zip(Score, responses))
        entries.append(_PlanEntry(bits, code, odds, tuple(labels.items()), varies, spine))
    return _PolicyPlan(tuple(forms), tuple(entries))


# the checked certificates an entry's spine remembers, before it forgets them all
_CHECKED_MAX = 4 * _PER_KEY


def _at(form: Sequence[int], weights: Sequence[int]) -> int:
    """A form's value at the cohort ``weights``."""
    return sum(map(mul, form, weights))


def _spine_refutes(k: int, entry: _PlanEntry, weights: tuple[int, int, int, int], signed: int) -> bool:
    """Whether the entry's spine LP is infeasible at the cohort ``weights``,
    given its signed accept bits: refuted by a kept certificate y whose
    y b_ub is negative, once y >= 0 and y a_ub >= 0 have been checked on the
    entry's matrix, or else decided by its Farkas LP (:func:`_farkas`),
    which has a point iff the spine LP has none, and whose point is kept
    once :func:`_certifies` holds. A point that failed that check would
    leave the verdict to the simplex on the spine LP itself. The one place
    where a spine LP is decided."""
    spine, certificates = entry.spine, _certificate_list((k, entry.code, signed))
    w0, w1, w2, w3 = weights
    for i, y in enumerate(certificates):
        if y not in spine.checked:
            if len(spine.checked) >= _CHECKED_MAX:
                spine.checked.clear()
            spine.checked[y] = (tuple(sum(map(mul, y, col)) for col in zip(*spine.b_ub))
                                if _dual_holds(y, spine.a_ub) else None)
        yb = spine.checked[y]
        if yb is not None and yb[0] * w0 + yb[1] * w1 + yb[2] * w2 + yb[3] * w3 < 0:
            certificates.insert(0, certificates.pop(i))
            return True
    b_ub = [a * w0 + b * w1 + c * w2 + d * w3 for a, b, c, d in spine.b_ub]
    n = len(spine.cols)
    y = _farkas(spine.a_ub, b_ub, n)
    if y is None:
        return False
    if not _certifies(y, spine.a_ub, b_ub):
        return _simplex.feasible_point(spine.a_ub, b_ub, n, scale=1) is None
    certificates.insert(0, y)
    del certificates[_PER_KEY:]
    return True


def _verdict(k: int, entry: _PlanEntry, consts: Sequence[int], weights: tuple[int, int, int, int]) -> Optional[bool]:
    """Whether the entry's policy has an equilibrium at the point whose
    cohort ``weights`` give the plan's forms the constants ``consts``: None
    if not, else whether the origin is its point. The origin's mask test and
    the forced-label screen read the signs of the entry's label constants; a
    report-all entry whose origin fails is refuted by the lemma, and a
    report-max one by the screen or :func:`_spine_refutes`."""
    pos = neg = 0
    for form_id, mask in entry.labels:
        b = consts[form_id]
        if b > 0:
            pos |= mask
        elif b < 0:
            neg |= mask
    bits = entry.bits
    if _origin_holds(bits, pos, neg):
        return True
    if entry.spine is None or _screen_refuses(bits, (pos | neg) & ~entry.varies, neg):
        return None
    return None if _spine_refutes(k, entry, weights, bits & (entry.varies | pos | neg)) else False


def _kept_policies(params: ModelParams, plan: _PolicyPlan) -> Iterator[tuple[_PlanEntry, bool]]:
    """Each entry of the plan whose policy has an equilibrium at the point,
    with whether the origin is its point, in plan order (:func:`_verdict`),
    from each distinct form's constant at the point's cohort weights."""
    weights = w0, w1, w2, w3 = _cohort_weights(params)
    consts = [a * w0 + b * w1 + c * w2 + d * w3 for a, b, c, d in plan.forms]
    for entry in plan.entries:
        origin = _verdict(params.k, entry, consts, weights)
        if origin is not None:
            yield entry, origin


def _spine_point(spine: _Spine, weights: tuple[int, int, int, int]) -> list[Fraction]:
    """The whole-tree vertex of a report-max policy whose origin fails and
    whose spine LP is feasible at the cohort ``weights``, by the spine-vertex
    lemma: the vertex of the spine LP with its rhs at ``weights``, divided by
    the unit, since the plan's matrix is divided by it, and lifted by 0 off
    the spine; indexed by the whole tree's free columns."""
    b_ub = [_at(form, weights) for form in spine.b_ub]
    point = _simplex.feasible_point(spine.a_ub, b_ub, len(spine.cols), scale=1)
    unit = sum(weights)
    x = [_ZERO] * len(spine.reach)
    for c, v in zip(spine.cols, point):
        x[c] = v / unit
    return x


def _vertex_strategy(params: ModelParams, entry: _PlanEntry) -> StudentStrategy:
    """The witness of a report-max class whose policy's origin is not a
    point: the stops at the :func:`_spine_point` of its plan entry, solved
    with no second decision. A spine node's stop is 1 - scale x[c] / r for
    its reach r, when a flow reaches it; every other stop is the origin's,
    as x is 0 off the spine (:func:`_origin_stops`)."""
    spine, weights = entry.spine, _cohort_weights(params)
    x = _spine_point(spine, weights)
    scale = sum(weights) * params.alpha.denominator**params.k
    stops = _origin_stops(entry.code, ((t, h) for t in _TYPES for h in all_sequences(params.k - 1)))
    for c in spine.cols:
        key, var, form = spine.reach[c]
        r = _at(form, weights) * (1 if var is None else x[var])
        if r > 0:
            stops[key] = 1 - Fraction(scale * x[c]) / r
    return StudentStrategy(stops)


def _spine_ranges(params: ModelParams, entry: _PlanEntry) -> dict[tuple[StudentType, ScoreSeq], tuple[Fraction, Fraction]]:
    """The free-stop ranges of a feasible report-max policy: :func:`_stop_ranges`
    over its spine LP at the point, whose rows are the unit times the plan's,
    with every other free node chained off the spine."""
    spine, weights = entry.spine, _cohort_weights(params)
    unit = sum(weights)
    a_ub = [[v * unit for v in row] for row in spine.a_ub]
    b_ub = [_at(form, weights) for form in spine.b_ub]
    reach = [(key, var, _at(form, weights)) for key, var, form in spine.reach]
    return _stop_ranges(a_ub, b_ub, unit * params.alpha.denominator**params.k, spine.cols, reach)


def _subtree_ranges(template: _Template, values: tuple[int, ...],
                    bits: int) -> dict[tuple[StudentType, ScoreSeq], tuple[Fraction, Fraction]]:
    """The free-stop ranges of a feasible report-all first-score subtree at
    its accept ``bits``: :func:`_stop_ranges` over every free column of its
    ``template``, with the rows and reaches at a layout's ``values``."""
    cols = range(len(template.var_index))
    a_ub, b_ub = _sign_rows(_br_over(template, values, cols), _labels_over(template, values, cols), bits)
    reach = [(key, template.reach[key][0], values[template.reach[key][1]]) for key in template.var_index]
    return _stop_ranges(a_ub, b_ub, values[1], cols, reach)


def _enumerate_policy_list(
    params: ModelParams, policies: Sequence[AdmissionPolicy], reporting: Reporting, scope: str
) -> Enumeration:
    """One block per policy that :func:`_kept_policies` keeps at the point,
    from the cached :func:`_policy_plan` of the list, whose label constants
    and spine rhs are forms over the cohort weights and whose spine LPs try
    the kept certificates, each checked exactly, before the simplex. The
    witness strategy is built only for a policy that opens a class, off the
    rule code when the origin is its point and from its spine LP's vertex
    otherwise (:func:`_vertex_strategy`)."""
    k = params.k
    plan = _policy_plan(params.alpha, k, reporting, tuple(policy.bits for policy in policies))
    cohorts = _positive_cohorts(params)

    def blocks():
        for entry, origin in _kept_policies(params, plan):
            terms = [_admit_terms(params.alpha, k, cohorts, first, *odds) for first, odds in zip(Score, entry.odds)]
            strategy = (partial(_origin_strategy, k, entry.code) if origin
                        else partial(_vertex_strategy, params, entry))
            yield (entry.bits,), (0,), tuple(map(add, *terms)), strategy

    mask = (1 << len(all_sequences(k))) - 1  # every node: a block holds one policy
    return _census(params, scope, len(policies), reporting, mask, blocks())


@lru_cache(maxsize=64)  # four scopes at k 1-10
def _family_policies(k: int, scope: str) -> tuple[AdmissionPolicy, ...]:
    """The policies of a named family scope at k, built once per (k, scope)."""
    if scope in (SCOPE_REPORT_MAX, SCOPE_FIRST_SCORE):
        # accept on a first score (best score under report-max) of A, of B; all; none
        score = best_score if scope == SCOPE_REPORT_MAX else (lambda s: s[0])
        return (
            *(AdmissionPolicy.from_predicate(k, lambda s, a=a: score(s) is a) for a in Score),
            AdmissionPolicy.accept_all(k),
            AdmissionPolicy.reject_all(k),
        )
    if scope == SCOPE_B_THEN_A:
        return tuple(AdmissionPolicy.b_then_a_run(k, n) for n in range(2, k + 1))
    if scope == SCOPE_ALL_B_REJECT:
        return (AdmissionPolicy.from_predicate(k, lambda s: Score.A in s),)
    raise ValueError(f"unknown scope {scope!r}")


def enumerate_outcomes(params: ModelParams, scope: str = SCOPE_REPORT_ALL) -> Enumeration:
    """Search a policy scope for equilibria, quotiented by admission outcome.

    "report-all" is exhaustive over all deterministic sequence policies
    (64 at k=2, 16384 at k=3) and refuses k above ``EXHAUSTIVE_MAX_K``;
    named families remain available there. "report-max" covers the four best-score policies.

    The report-all census decides each accept pattern of a first-score
    subtree by the origin's mask test on its rule code's label signs, exact
    by the lemma of this module's docstring, so it finds what one solve per
    policy finds. The other scopes decide each policy from the forms of
    their cached plan, under report-max with the spine LP where the origin
    and the forced-label screen leave it open, a checked Farkas certificate
    before the simplex. A report-max witness whose origin fails is its
    spine LP's vertex lifted by 0, by the spine-vertex lemma, so no scope
    builds a row of the whole tree. It never prunes with the closed forms
    it is tested against.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    if scope == SCOPE_REPORT_ALL:
        if params.k > EXHAUSTIVE_MAX_K:
            raise ScopeTooLarge(
                f"exhaustive enumeration at k={params.k} means 2^{2**(params.k+1)-2} "
                f"policies; restrict to a named family scope: "
                f"{SCOPE_FIRST_SCORE}, {SCOPE_B_THEN_A}, {SCOPE_ALL_B_REJECT}"
            )
        return _enumerate_report_all(params)
    reporting = Reporting.MAX if scope == SCOPE_REPORT_MAX else Reporting.ALL
    return _enumerate_policy_list(params, _family_policies(params.k, scope), reporting, scope)


def free_stop_intervals(
    params: ModelParams, policy: AdmissionPolicy, reporting: Reporting = Reporting.ALL
) -> dict[tuple[StudentType, ScoreSeq], tuple[Fraction, Fraction]]:
    """Per free node, the exact stop-probability range supporting the policy.

    Each range comes from the smallest exact LP that decides it, through
    :func:`_stop_ranges`. Under report-all the rows are block-diagonal by
    first score: the depth-one roots share no variable and every label is
    one sequence. So each first-score subtree is decided by the origin's
    mask test on its label constants, by the lemma of this module's
    docstring, and gets its :func:`_subtree_ranges` on the census's cached
    layout and its rule code's template, up to ``EXHAUSTIVE_MAX_K`` from its
    census table, which holds every subtree rule code by the table lemma.
    Any point of one subtree's polytope goes with any point of the other's.
    Inside :func:`_reused_intervals` a subtree's ranges are solved once per
    (first score, rule code): feasible patterns with one rule code have one
    polytope, by the second corollary of this module's docstring. Under
    report-max the policy's entry in the report-max census's plan, which the
    census leaves cached for its witnesses (a plan of the policy alone for
    a policy outside that family), decides it as the census does
    (:func:`_verdict`), and the ranges of the all-B spine come from its
    spine LP alone, while every other reached free node can stop with any
    probability. A policy with no equilibrium (under report-all, by the
    origin's signs alone) gives an empty result. Keys are in the order of
    the whole tree's ``var_index``: node order, High first.
    """
    k = params.k
    _require_measurable(policy, reporting)
    responses = _subtree_responses(params, policy)  # refuses a policy of another k
    if reporting is Reporting.MAX:
        family = tuple(p.bits for p in _family_policies(k, SCOPE_REPORT_MAX))
        listed = family if policy.bits in family else (policy.bits,)
        plan = _policy_plan(params.alpha, k, reporting, listed)
        entry, weights = plan.entries[listed.index(policy.bits)], _cohort_weights(params)
        if _verdict(k, entry, [_at(form, weights) for form in plan.forms], weights) is None:
            return {}
        ranges = {(params, reporting, entry.code, policy.bits): partial(_spine_ranges, params, entry)}
    else:
        ranges = {}
        for first, _, _, code in responses:
            seqs = _subtree(first, k)
            template = (_subtree_induction(k, first, params.alpha == 1).codes[code][0] if k <= EXHAUSTIVE_MAX_K
                        else _template(seqs, reporting, k, code))
            values = _layout(params, seqs, reporting)
            consts = [(mask, _row_const(values, row)) for mask, row in template.label_rows]
            pos = sum(mask for mask, b in consts if b > 0)  # one bit per label: a sum is an or
            neg = sum(mask for mask, b in consts if b < 0)
            if not _origin_holds(policy.bits, pos, neg):
                return {}
            ranges[(params, first, code)] = partial(_subtree_ranges, template, values, policy.bits)
    solved = {} if _solved is None else _solved
    ends = {}
    for key, solve in ranges.items():
        if key not in solved:
            solved[key] = solve()
        ends.update(solved[key])
    keys = ((t, h) for h in all_sequences(k - 1) for t in _TYPES)
    return {key: ends[key] for key in keys if key in ends}


# The ranges solved inside :func:`_reused_intervals`, by (params, first
# score, rule code) under report-all and (params, reporting, rule code,
# accept bits) under report-max; None outside it.
_solved: Optional[dict[tuple, dict]] = None


@contextmanager
def _reused_intervals() -> Iterator[None]:
    """Within the block, :func:`free_stop_intervals` solves the ranges of
    each first-score subtree's rule code, or report-max policy, once: the
    witnesses of one enumeration often share a first-score subtree's
    pattern. The reuse ends with the block, so the LPs that a call
    makes never depend on the calls before it."""
    global _solved
    _solved = {}
    try:
        yield
    finally:
        _solved = None

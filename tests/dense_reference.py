"""The dense reference for the flow systems of :mod:`retesting.search`.

The package decides every LP on reduced rows: report-all systems by the
origin's signs, report-max ones on the all-B spine, and it builds dense rows
only for the free-stop ranges of a report-all subtree. The classes here
build every row of a whole tree or a subtree, under either reporting
policy, and decide it with the simplex, so that the reduced decisions,
points and rows can be checked against them. Test modules and CI steps
import this module with ``tests`` on ``sys.path``; pytest does not collect
it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from retesting import ModelParams, Reporting, Score, StudentType, _simplex, all_sequences, best_response, best_score, node
from retesting import search
from retesting.search import ANY, CONTINUE, _FlowSystem, _origin_holds, _rule_of, _screen_refuses, _sign_rows


def label_masks(label_rows):
    """The label masks of dense label rows (mask, (coefficients, b)): b > 0,
    b < 0, a row other than 0 <= 0, and b nonzero with no variable."""
    return (sum(mask for mask, (_, b) in label_rows if b > 0),
            sum(mask for mask, (_, b) in label_rows if b < 0),
            sum(mask for mask, (row, b) in label_rows if b or any(row)),
            sum(mask for mask, (row, b) in label_rows if b and not any(row)))


class DenseFlowSystem(_FlowSystem):
    """A :class:`retesting.search._FlowSystem` of any tree under either
    reporting policy, with its dense rows over every column: a report-max
    system is decided by the simplex on those rows, a report-all one by the
    package's origin test, which the lemma of the :mod:`retesting.search`
    docstring makes exact and the tests check against the simplex."""

    def __init__(self, params, code, sequences, reporting, template=None):
        seqs = tuple(sequences)
        super().__init__(params, code, seqs, reporting, template)
        self.code, self.reporting = code, reporting
        self.histories = tuple(s for s in seqs if len(s) < params.k)

    @cached_property
    def _signed(self):
        """The labels whose row is other than 0 <= 0: their accept bits change the rows."""
        return label_masks(self._label_rows)[2]

    @cached_property
    def _forced(self):
        """The labels whose row has a nonzero constant and no variable."""
        return label_masks(self._label_rows)[3]

    def _at_origin(self, bits):
        """Whether no rhs is negative, so that the origin is a point
        (:func:`retesting.search._origin_holds` on the system's label masks)."""
        return _origin_holds(bits, self._pos, self._neg)

    def signs(self, bits):
        """The accept bits that change :meth:`rows`: equal signs, equal rows."""
        return bits & self._signed

    def refuses(self, bits):
        """The forced-label screen (:func:`retesting.search._screen_refuses`) on this system's labels."""
        return _screen_refuses(bits, self._forced, self._neg)

    def rows(self, bits):
        """Dense rows (A_ub, b_ub) of one policy's equilibrium polytope over
        every column, times ``scale``."""
        return _sign_rows(self._br_rows, self._label_rows, bits)

    def refutes(self, bits):
        """Whether the policy's polytope is empty: by the origin's signs under
        report-all, by the simplex on :meth:`rows` under report-max."""
        if self.reporting is Reporting.ALL:
            return super().refutes(bits)
        return self.vertex(bits) is None

    def feasible(self, bits):
        """A point of the policy's polytope, or None: :meth:`vertex` unless
        :meth:`refutes` holds."""
        return None if self.refutes(bits) else self.vertex(bits)

    def vertex(self, bits):
        """The simplex's vertex on :meth:`rows`, or None: with no negative
        rhs the origin, with no row built."""
        if self._at_origin(bits):
            return [Fraction(0)] * self.n
        a_ub, b_ub = self.rows(bits)
        return _simplex.feasible_point(a_ub, b_ub, self.n, scale=self.scale)

    def stops_from_point(self, x):
        """Stop probabilities at reachable nodes; canonical values elsewhere."""
        stops = {}
        for t in StudentType:
            for h in self.histories:
                var, value = self.reach[(t, h)]
                r = value if var is None else value * x[var]
                rule = _rule_of(self.code, t, h)
                if rule == ANY and r > 0:
                    stops[(t, h)] = 1 - Fraction(self.scale * x[self.var_index[(t, h)]]) / r
                else:
                    stops[(t, h)] = Fraction(rule != CONTINUE)
        return stops

    def spine(self):
        """The free columns on the all-B spine B, BB, ..., in column order."""
        return [c for (_, s), c in self.var_index.items() if Score.A not in s]

    def spine_rows(self, bits):
        """The spine LP of a report-max system, cut from :meth:`rows`: the
        best-response rows of the spine columns and the label rows, over the
        spine columns only."""
        a_ub, b_ub = self.rows(bits)
        spine = self.spine()
        kept = spine + list(range(self.n, len(a_ub)))  # row c is column c's best-response row
        return [[a_ub[i][c] for c in spine] for i in kept], [b_ub[i] for i in kept]


def policy_system(params, policy, reporting):
    """The dense system of the whole tree under the policy's best response."""
    return DenseFlowSystem(params, best_response(params, policy).code, all_sequences(params.k), reporting)


def spine_vertex_grid(k):
    """The points at which the spine-vertex lemma is checked at k: alpha in
    {51/100, 3/5, 4/5, 99/100, 1} x p in {1/5, 1/2, 9/10} x phi in {0, 1/2, 1}."""
    return [ModelParams(p=p, alpha=alpha, phi=phi, k=k) for alpha in ("51/100", "3/5", "4/5", "99/100", "1")
            for p in ("1/5", "1/2", "9/10") for phi in ("0", "1/2", "1")]


def spine_vertex_counts(params):
    """The spine-vertex lemma of the :mod:`retesting.search` docstring on
    each report-max family policy at a point, against the dense reference
    of its whole tree: each column off the spine is 0 in both label rows,
    the census keeps the policy iff the dense LP is feasible, and where the
    origin fails on a feasible LP the dense simplex's vertex is the plan's
    spine vertex lifted by 0 (:func:`retesting.search._spine_point`), whose
    stops are the witness's (:func:`retesting.search._vertex_strategy`).
    Counts the policies at the origin, the infeasible ones and the vertices
    compared."""
    k = params.k
    family = tuple(policy.bits for policy in search._family_policies(k, search.SCOPE_REPORT_MAX))
    plan = search._policy_plan(params.alpha, k, Reporting.MAX, family)
    kept = {entry.bits for entry, _ in search._kept_policies(params, plan)}
    weights = search._cohort_weights(params)
    counts = {"origin": 0, "infeasible": 0, "vertex": 0}
    for entry in plan.entries:
        system = DenseFlowSystem(params, entry.code, all_sequences(k), Reporting.MAX)
        spine = set(system.spine())
        assert all(not v for _, (row, _) in system._label_rows for c, v in enumerate(row) if c not in spine), \
            (params, entry.bits)
        # a label row with no variable and a negative rhs needs no solve
        x = None if system.refuses(entry.bits) else system.vertex(entry.bits)
        assert (entry.bits in kept) == (x is not None), (params, entry.bits)
        if system._at_origin(entry.bits) or x is None:
            counts["origin" if x is not None else "infeasible"] += 1
            continue
        assert search._spine_point(entry.spine, weights) == x, (params, entry.bits)
        strategy = search._vertex_strategy(params, entry)
        assert list(strategy.stop.items()) == list(system.stops_from_point(x).items()), (params, entry.bits)
        counts["vertex"] += 1
    return counts


def reference_layout(params, seqs, reporting):
    """Path masses of the tree ``seqs`` as integers over den(p) den(phi)
    den(alpha)^k: (scale, parents, reach[t][i][d], labels as (node,
    members, Category 1 High - Low mass))."""
    index = {s: i for i, s in enumerate(seqs)}
    parents = tuple(index[s[:-1]] if len(s) > 1 else -1 for s in seqs)
    den, den_pphi = params.alpha.denominator ** params.k, params.p.denominator * params.phi.denominator
    reach = ([], [])
    cat1 = [0] * len(seqs)
    for masses, t, sign in zip(reach, StudentType, (1, -1)):
        share = params.p if t is StudentType.HIGH else params.p_bar
        emit = {a: int(params.emit(t, a) * den) for a in Score}
        for i, (s, j) in enumerate(zip(seqs, parents)):
            e = emit[s[-1]]
            if j < 0:
                masses.append((int(params.phi_bar * share * den_pphi) * e,))
                cat1[i] += sign * int(params.phi * share * den_pphi) * e
            else:
                masses.append((*(m * e // den for m in masses[j]), den_pphi * e))
    groups = {}
    for i, s in enumerate(seqs):
        groups.setdefault((best_score(s),) if reporting is Reporting.MAX else s, []).append(i)
    labels = [(node(lab), members, sum(cat1[i] for i in members)) for lab, members in groups.items()]
    return den_pphi * den, parents, reach, labels


class ReferenceFlowSystem(DenseFlowSystem):
    """A flow system built directly from the layout, one term at a time,
    with no template: the rows every templated system must reproduce."""

    def __init__(self, params, rules, sequences, reporting):
        seqs = tuple(sequences)
        self.scale, parents, layout_reach, labels = reference_layout(params, seqs, reporting)
        scale = self.scale
        self.rules = rules
        self.histories = [s for s in seqs if len(s) < params.k]
        self.var_index = {}
        self.reach = {}
        br = []  # c - reach <= 0 at every free node
        below, stop = ([], []), ([], [])
        for i, (s, j) in enumerate(zip(seqs, parents)):
            for ti, t in enumerate(StudentType):
                anchor = (None, 0) if j < 0 else below[ti][j]
                r = (None, 0) if anchor is None else (anchor[0], layout_reach[ti][i][anchor[1]])
                self.reach[(t, s)] = r
                rule = rules[(t, s)] if len(s) < params.k else "stop"
                if rule == "any":
                    var = self.var_index[(t, s)] = len(self.var_index)
                    br.append(((var, scale), (r[0], -r[1])))
                    anchor = (var, len(s))
                below[ti].append(None if rule == "stop" else anchor)
                stop[ti].append(() if rule == "continue" else (r, (var, -scale)) if rule == "any" else (r,))
        self.n = n = len(self.var_index)

        def as_row(terms):
            coeffs = [0] * (n + 1)  # the constant last
            for var, value in terms:
                coeffs[n if var is None else var] += value
            return coeffs[:n], -coeffs[n]

        self._br_rows = [as_row(terms) for terms in br]
        self._label_rows = []
        for lab, members, cat1 in labels:
            terms = [(None, cat1)]
            for i in members:
                for ti, sign in ((0, 1), (1, -1)):
                    terms += [(var, sign * value) for var, value in stop[ti][i]]
            self._label_rows.append((1 << lab, as_row(terms)))
        # what the templated system reads from its layout, here from the dense rows
        self._pos, self._neg, self._signed, self._forced = label_masks(self._label_rows)

    def refutes(self, bits):
        """The forced-label screen alone: the simplex decides every other LP
        with a negative rhs, under either reporting policy."""
        return self.refuses(bits)

    def stops_from_point(self, x):
        stops = {}
        for t in StudentType:
            for h in self.histories:
                var, value = self.reach[(t, h)]
                r = value if var is None else value * x[var]
                if self.rules[(t, h)] == "any" and r > 0:
                    stops[(t, h)] = 1 - Fraction(self.scale * x[self.var_index[(t, h)]]) / r
                else:
                    stops[(t, h)] = Fraction(self.rules[(t, h)] != "continue")
        return stops

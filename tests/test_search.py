"""Best responses, verification, and equilibrium enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from retesting import (
    ACCEPT_ALL,
    AdmissionPolicy,
    Category,
    Cohort,
    FIRST_SCORE,
    MalformedProfile,
    ModelParams,
    NON_FIRST_SCORE,
    REJECT_ALL,
    Reporting,
    SEPARATING,
    Score,
    ScopeTooLarge,
    StudentStrategy,
    StudentType,
    all_sequences,
    best_response,
    construct_first_score_equilibrium,
    enumerate_outcomes,
    free_stop_intervals,
    node,
    report_all_regions,
    report_max_thresholds,
    seq,
    verify_equilibrium,
)
from retesting import _simplex
from retesting.cli import MAX_K
from retesting.equilibria import EquilibriumProfile
from retesting import search
from retesting.search import (
    EXHAUSTIVE_MAX_K,
    SCOPES,
    _FlowSystem,
    _enumerate_policy_list,
    _family_policies,
    _subtree,
    _subtree_induction,
)

PARAMS = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)

C1H = Cohort(Category.CAT1, StudentType.HIGH)
C1L = Cohort(Category.CAT1, StudentType.LOW)
C2H = Cohort(Category.CAT2, StudentType.HIGH)
C2L = Cohort(Category.CAT2, StudentType.LOW)


def profile_from(policy, stops, reporting=Reporting.ALL, label="test") -> EquilibriumProfile:
    return EquilibriumProfile(
        policy=policy,
        strategy=StudentStrategy(stops),
        label=label,
        reporting=reporting,
    )


def induction_values(params, policy):
    """The value of every (type, history) in the tables of
    ``search._induction`` for the policy's one accept pattern."""
    values = {}
    for first in Score:
        tables = search._induction(params.alpha, params.k, first, policy.bits)
        for h, ((_, high, low, _),) in zip(_subtree(first, params.k), tables):
            scale = params.alpha.denominator ** (params.k - len(h))
            values[(StudentType.HIGH, h)] = Fraction(high, scale)
            values[(StudentType.LOW, h)] = Fraction(low, scale)
    return values


def reference_induction(params, policy):
    """Backward induction written from scratch, by recursion over histories."""
    rules, values = {}, {}

    def value(t, h):
        stop = Fraction(int(policy.accepts(h)))
        if len(h) == params.k:
            values[(t, h)] = stop
            return stop
        cont = sum(params.emit(t, s) * value(t, h + (s,)) for s in Score)
        values[(t, h)] = max(stop, cont)
        rules[(t, h)] = "stop" if stop > cont else "continue" if stop < cont else "any"
        return values[(t, h)]

    for t in StudentType:
        for s in Score:
            value(t, (s,))
    return rules, values


class TestBestResponse:
    def test_first_score_policy_makes_second_test_irrelevant(self):
        br = best_response(PARAMS, AdmissionPolicy.first_score(2))
        for t in StudentType:
            assert br.admissible(t, seq("A")) == (0, 1)
            assert br.admissible(t, seq("B")) == (0, 1)

    def test_accept_only_double_a_forces_continuation(self):
        policy = AdmissionPolicy.from_accepted(2, [seq("AA")])
        br = best_response(PARAMS, policy)
        for t in StudentType:
            assert br.admissible(t, seq("A")) == (0, 0)
        assert br.values[(StudentType.HIGH, seq("A"))] == Fraction(4, 5)
        assert br.values[(StudentType.LOW, seq("A"))] == Fraction(1, 5)

    def test_accept_single_a_only_forces_stop(self):
        policy = AdmissionPolicy.from_accepted(2, [seq("A")])
        br = best_response(PARAMS, policy)
        for t in StudentType:
            assert br.admissible(t, seq("A")) == (1, 1)

    def test_values_are_admission_probabilities(self):
        br = best_response(PARAMS, AdmissionPolicy.first_score(2))
        assert br.values[(StudentType.HIGH, seq("A"))] == 1
        assert br.values[(StudentType.HIGH, seq("B"))] == 0


class TestReferenceInduction:
    """best_response against an induction that shares no code with it:
    its rules and depth-one values, and the value of every history in the
    integer tables of the one-pattern induction it runs."""

    @staticmethod
    def check(params, policies):
        for policy in policies:
            br = best_response(params, policy)
            rules, values = reference_induction(params, policy)
            assert dict(br.rules) == rules, policy
            assert dict(br.values) == {key: v for key, v in values.items() if len(key[1]) == 1}, policy
            assert induction_values(params, policy) == values, policy

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5), Fraction(1)])
    def test_all_k2_policies(self, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=2)
        self.check(params, [AdmissionPolicy(2, bits) for bits in range(1 << 6)])

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(7, 10), Fraction(9, 10)])
    def test_k3_family_policies(self, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=3)
        families = [s for s in SCOPES if s.startswith("report-all:")]
        policies = [p for scope in families for p in _family_policies(params, scope)]
        policies.append(AdmissionPolicy.best_score_a(3))
        self.check(params, policies)

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    def test_k3_seeded_sample(self, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=3)
        sample = random.Random(20210216).sample(range(1 << 14), 200)
        self.check(params, [AdmissionPolicy(3, bits) for bits in sample])


class TestEveryPatternInduction:
    """The census table of every accept pattern of a first-score subtree."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5), Fraction(1)])
    def test_every_pattern_against_reference(self, k, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=k)
        for first in Score:
            seqs = _subtree(first, k)
            table = _subtree_induction(alpha, k, first)
            # the j-th pattern accepts the i-th subtree sequence iff bit i of
            # j is set; node is increasing on the subtree, so bits ascend
            nodes = [node(s) for s in seqs]
            every = [sum(1 << n for i, n in enumerate(nodes) if j >> i & 1) for j in range(1 << len(seqs))]
            assert [p.bits for p in table] == every == sorted(every)
            rules_by_key = {}
            for pattern in table:
                policy = AdmissionPolicy(k, pattern.bits)
                rules, values = reference_induction(params, policy)
                own = {key: rule for key, rule in rules.items() if key[1][0] is first}
                assert dict(pattern.rules) == own, policy
                assert dict(pattern.values) == {
                    (t, (first,)): values[(t, (first,))] for t in StudentType
                }
                assert rules_by_key.setdefault(pattern.key, own) == own

    def test_cold_census_builds_one_table_per_first_score(self):
        params = ModelParams(p=Fraction(9, 20), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        _subtree_induction.cache_clear()
        enumerate_outcomes(params, "report-all")
        info = _subtree_induction.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        enumerate_outcomes(params, "report-all")
        assert _subtree_induction.cache_info().misses == 2

    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_subtree_node_order(self, k):
        for first in Score:
            seqs = _subtree(first, k)
            assert seqs[0] == (first,) and len(seqs) == 2**k - 1
            for j, h in enumerate(seqs):
                if len(h) < k:
                    assert (seqs[2 * j + 1], seqs[2 * j + 2]) == (h + (Score.A,), h + (Score.B,))
                else:
                    assert 2 * j + 1 >= len(seqs)

    def test_table_above_limit_refused_before_any_work(self, monkeypatch):
        def no_induction(*args, **kwargs):
            raise AssertionError("induction ran")

        monkeypatch.setattr(search, "_induction", no_induction)
        with pytest.raises(ScopeTooLarge):
            _subtree_induction(Fraction(4, 5), EXHAUSTIVE_MAX_K + 1, Score.A)

    def test_family_best_response_at_k10(self):
        params = ModelParams(p=Fraction(2, 5), alpha=Fraction(7, 10), phi=Fraction(1, 2), k=10)
        policy = AdmissionPolicy.b_then_a_run(10, 2)
        br = best_response(params, policy)
        rules, values = reference_induction(params, policy)
        assert len(br.rules) == 2 * (2**10 - 2)
        assert dict(br.rules) == rules
        assert dict(br.values) == {key: v for key, v in values.items() if len(key[1]) == 1}
        assert induction_values(params, policy) == values


class TestVerify:
    def test_constructor_output_passes(self):
        profile = construct_first_score_equilibrium(PARAMS)
        verdict = verify_equilibrium(PARAMS, profile)
        assert verdict.ok and not verdict.violations

    def test_doctored_on_path_rule_violation(self):
        # accept {A, AB} while both types always retake after an A: AB gets
        # posterior p < 1/2 on path, and stopping after A was mandatory
        policy = AdmissionPolicy.from_accepted(2, [seq("A"), seq("AB")])
        stops = {
            (StudentType.HIGH, seq("A")): 0,
            (StudentType.LOW, seq("A")): 0,
            (StudentType.HIGH, seq("B")): 1,
            (StudentType.LOW, seq("B")): 1,
        }
        verdict = verify_equilibrium(PARAMS, profile_from(policy, stops))
        assert not verdict.ok
        kinds = {v.kind for v in verdict.violations}
        wheres = {v.where for v in verdict.violations}
        assert "posterior_rule" in kinds and "best_response" in kinds
        assert "AB" in wheres

    def test_first_score_policy_fails_at_low_prior(self):
        params = ModelParams(p=0.1, alpha=0.8, phi=0.5, k=2)
        stops = {(t, h): 1 for t in StudentType for h in (seq("A"), seq("B"))}
        verdict = verify_equilibrium(
            params, profile_from(AdmissionPolicy.first_score(2), stops)
        )
        assert not verdict.ok
        assert any(v.where == "A" and v.kind == "posterior_rule" for v in verdict.violations)

    def test_off_path_recorded_not_failed(self):
        profile = construct_first_score_equilibrium(PARAMS)
        verdict = verify_equilibrium(PARAMS, profile)
        assert set(verdict.off_path) == {seq("AA"), seq("AB"), seq("BA"), seq("BB")}

    def test_incomplete_strategy_is_malformed(self):
        policy = AdmissionPolicy.first_score(2)
        with pytest.raises(MalformedProfile):
            verify_equilibrium(PARAMS, profile_from(policy, {(StudentType.HIGH, seq("A")): 1}))

    def test_max_profile_requires_measurable_policy(self):
        stops = {(t, h): 1 for t in StudentType for h in (seq("A"), seq("B"))}
        with pytest.raises(MalformedProfile):
            verify_equilibrium(
                PARAMS,
                profile_from(AdmissionPolicy.first_score(2), stops, reporting=Reporting.MAX),
            )


class TestEnumerateReportAll:
    def test_unique_first_score_class_at_low_interior_prior(self):
        enumeration = enumerate_outcomes(PARAMS, "report-all")
        assert enumeration.policies_considered == 64
        assert len(enumeration.classes) == 1
        cls = enumeration.classes[0]
        assert cls.label == FIRST_SCORE and cls.verified
        assert cls.admit_prob == {
            C1H: Fraction(4, 5),
            C1L: Fraction(1, 5),
            C2H: Fraction(4, 5),
            C2L: Fraction(1, 5),
        }

    def test_k3_coexistence_above_half(self):
        params = ModelParams(p=0.6, alpha=0.8, phi=0.5, k=3)
        enumeration = enumerate_outcomes(params, "report-all")
        assert enumeration.policies_considered == 16384
        labels = [c.label for c in enumeration.classes]
        assert FIRST_SCORE in labels
        assert labels.count(NON_FIRST_SCORE) >= 1
        # the trailing-run class accepting BA: High admitted at a + (1-a)a
        run_class = [
            c
            for c in enumeration.classes
            if c.admit_prob.get(C2H) == Fraction(4, 5) + Fraction(1, 5) * Fraction(4, 5)
        ]
        assert run_class and run_class[0].verified
        assert all(c.verified for c in enumeration.classes)

    def test_exhaustive_scope_guard(self):
        with pytest.raises(ScopeTooLarge):
            enumerate_outcomes(ModelParams(p=0.3, alpha=0.8, phi=0.5, k=4), "report-all")

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            enumerate_outcomes(PARAMS, "everything")

    def test_reject_all_class_below_both_bands(self):
        # p below p_star(k+2) leaves rejection as the only outcome
        params = ModelParams(p=0.05, alpha=0.8, phi=0.5, k=2)
        enumeration = enumerate_outcomes(params, "report-all")
        assert [c.label for c in enumeration.classes] == [REJECT_ALL]

    def test_low_branch_accepts_only_the_long_a_run(self):
        # inside [p_star(4), 1-alpha] single scores are rejected but a double
        # A is accepted; admission probabilities are the squared emissions
        params = ModelParams(p=0.1, alpha=0.8, phi=0.5, k=2)
        enumeration = enumerate_outcomes(params, "report-all")
        labels = sorted(c.label for c in enumeration.classes)
        assert labels == [NON_FIRST_SCORE, REJECT_ALL]
        run = [c for c in enumeration.classes if c.label == NON_FIRST_SCORE][0]
        assert run.admit_prob[C2H] == Fraction(16, 25)
        assert run.admit_prob[C2L] == Fraction(1, 25)
        assert run.admit_prob[C1H] == 0

    def test_accept_all_class_above_band(self):
        params = ModelParams(p=0.9, alpha=0.8, phi=0.5, k=2)
        enumeration = enumerate_outcomes(params, "report-all")
        assert ACCEPT_ALL in [c.label for c in enumeration.classes]

    def test_boundary_flagged(self):
        params = ModelParams(p=0.5, alpha=0.8, phi=0.5, k=2)
        assert enumerate_outcomes(params, "report-all").boundary
        assert not enumerate_outcomes(PARAMS, "report-all").boundary


class TestEnumerateReportMax:
    def test_two_classes_in_coexistence_band(self):
        params = ModelParams(p=0.25, alpha=0.8, phi=0.5, k=2)
        enumeration = enumerate_outcomes(params, "report-max")
        assert sorted(c.label for c in enumeration.classes) == [REJECT_ALL, SEPARATING]
        assert all(c.verified for c in enumeration.classes)

    def test_separating_unique_above_reject_all_threshold(self):
        enumeration = enumerate_outcomes(PARAMS, "report-max")
        assert [c.label for c in enumeration.classes] == [SEPARATING]
        cls = enumeration.classes[0]
        assert cls.admit_prob == {
            C1H: Fraction(4, 5),
            C1L: Fraction(1, 5),
            C2H: Fraction(24, 25),
            C2L: Fraction(9, 25),
        }

    def test_matches_thresholds_on_small_grid(self):
        for alpha in (Fraction(3, 5), Fraction(4, 5)):
            for p_num in range(1, 20):
                p = Fraction(p_num, 20)
                params = ModelParams(p=p, alpha=alpha, phi=Fraction(1, 2), k=2)
                if params.p in report_max_thresholds(params):
                    continue
                lower, upper = report_max_thresholds(params)
                found = any(
                    AdmissionPolicy.best_score_a(2) in c.policies
                    for c in enumerate_outcomes(params, "report-max").classes
                )
                assert found == (lower <= p <= upper)


class TestFamilies:
    def test_b_then_a_run_family_k4(self):
        params = ModelParams(p=0.45, alpha=0.8, phi=0.5, k=4)
        enumeration = enumerate_outcomes(params, "report-all:b-then-a-run")
        # both the BAA and BAAA policies support equilibria at p=0.45
        assert [c.label for c in enumeration.classes] == [NON_FIRST_SCORE] * 2
        a, ab = Fraction(4, 5), Fraction(1, 5)
        highs = sorted(c.admit_prob[C2H] for c in enumeration.classes)
        assert highs == [a + ab * a**3, a + ab * a**2]
        assert all(c.verified for c in enumeration.classes)

    def test_first_score_family_k5(self):
        params = ModelParams(p=0.45, alpha=0.8, phi=0.5, k=5)
        enumeration = enumerate_outcomes(params, "report-all:first-score")
        assert [c.label for c in enumeration.classes] == [FIRST_SCORE]

    def test_all_b_reject_family_matches_max_behavior_at_k2(self):
        params = ModelParams(p=0.6, alpha=0.8, phi=0.5, k=2)
        enumeration = enumerate_outcomes(params, "report-all:all-b-reject")
        assert len(enumeration.classes) == 1
        assert enumeration.classes[0].admit_prob[C2H] == Fraction(24, 25)


class TestOracleAgainstFormulas:
    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    @pytest.mark.parametrize("phi", [Fraction(3, 10), Fraction(7, 10)])
    def test_region_agreement_k2_smoke(self, alpha, phi):
        """Condensed version of the acceptance-grid agreement check."""
        for p_num in range(1, 10):
            p = Fraction(p_num, 10)
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=2)
            from retesting import is_boundary

            if is_boundary(params):
                continue
            first_expected, non_first_region = report_all_regions(params)
            classes = enumerate_outcomes(params, "report-all").classes
            labels = [c.label for c in classes]
            assert (FIRST_SCORE in labels) == (
                params.alpha_bar <= p <= params.alpha
            )
            assert (NON_FIRST_SCORE in labels) == non_first_region.contains(p)


class TestFreeIntervals:
    def test_reject_all_bounds_exact(self):
        params = ModelParams(p=0.25, alpha=0.8, phi=0.5, k=2)
        intervals = free_stop_intervals(
            params, AdmissionPolicy.reject_all(2), Reporting.MAX
        )
        # High must retake after B with probability at most 1/2, so the stop
        # probability is at least 1/2; Low stops after B w.p. at most 1/6
        assert intervals[(StudentType.HIGH, seq("B"))] == (Fraction(1, 2), Fraction(1))
        assert intervals[(StudentType.LOW, seq("B"))] == (Fraction(0), Fraction(1, 6))
        assert intervals[(StudentType.HIGH, seq("A"))] == (Fraction(0), Fraction(1))

    def test_deep_interval_exact(self):
        # the witness vertex stops at 1781/4851 after BB, so the supremum is
        # at least that; a 1/200 bisection reported 73/200 here
        params = ModelParams(p="0.45", alpha="0.7", phi="0.1", k=3)
        intervals = free_stop_intervals(params, AdmissionPolicy.reject_all(3), Reporting.MAX)
        assert intervals[(StudentType.LOW, seq("BB"))] == (Fraction(0), Fraction(1781, 4851))

    @pytest.mark.parametrize(
        "alpha, p, phi",
        [("0.7", "0.45", "0.1"), ("0.7", "0.65", "0.5"), ("0.8", "0.35", "0.1"),
         ("0.8", "0.75", "0.1"), ("0.9", "0.15", "0.5")],
    )
    def test_witness_stops_inside_intervals_k3(self, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=3)
        for scope in ("report-all", "report-max"):
            for cls in enumerate_outcomes(params, scope).classes:
                witness = cls.witness
                intervals = free_stop_intervals(params, witness.policy, witness.reporting)
                assert intervals
                for node, (lo, hi) in intervals.items():
                    assert lo <= witness.strategy.stop[node] <= hi, (scope, cls.label, node)

    def test_infeasible_policy_has_no_intervals(self):
        params = ModelParams(p=0.1, alpha=0.8, phi=0.5, k=2)
        assert free_stop_intervals(params, AdmissionPolicy.first_score(2)) == {}

    def test_report_max_requires_measurable_policy(self):
        # the verifier refuses this profile, so its intervals are refused too
        params = ModelParams(p=0.5, alpha=0.8, phi=0.5, k=2)
        with pytest.raises(MalformedProfile):
            free_stop_intervals(params, AdmissionPolicy.first_score(2), Reporting.MAX)


class TestGroupedCensus:
    """The report-all census shares flow systems and solves between subtree
    policies; it must give what one solve per whole policy gives."""

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 2), Fraction(17, 20)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_matches_one_solve_per_policy_k2(self, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=2)
        policies = [AdmissionPolicy(2, bits) for bits in range(1 << 6)]
        grouped = enumerate_outcomes(params, "report-all")
        single = _enumerate_policy_list(params, policies, Reporting.ALL, "report-all")
        assert grouped.policies_considered == single.policies_considered == 64

        def summary(enumeration):
            return {
                c.key(): (c.label, c.verified, len(c.policies), frozenset(c.policies))
                for c in enumeration.classes
            }

        assert summary(grouped) == summary(single)
        assert [c.key() for c in grouped.classes] == [c.key() for c in single.classes]

    @pytest.mark.parametrize(
        "alpha, p", [(Fraction(4, 5), Fraction(9, 20)), (Fraction(3, 5), Fraction(3, 4))]
    )
    def test_witness_stops_from_its_own_rows_k3(self, alpha, p):
        params = ModelParams(p=p, alpha=alpha, phi=Fraction(1, 2), k=3)
        for cls in enumerate_outcomes(params, "report-all").classes:
            witness = cls.witness
            rules = best_response(params, witness.policy).rules
            for first in Score:
                system = _FlowSystem(params, rules, _subtree(first, 3), Reporting.ALL)
                x = system.feasible(witness.policy.bits)
                assert x is not None
                for node, stop in system.stops_from_point(x).items():
                    assert witness.strategy.stop[node] == stop

    def test_k3_census_solves_each_distinct_lp_once(self, monkeypatch):
        calls = []
        solve = _simplex.solve

        def counting(c, a_ub, b_ub, a_eq, b_eq, n, scale=None):
            calls.append(n)
            return solve(c, a_ub, b_ub, a_eq, b_eq, n, scale=scale)

        monkeypatch.setattr(_simplex, "solve", counting)
        params = ModelParams(p=Fraction(9, 20), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        enumeration = enumerate_outcomes(params, "report-all")
        assert enumeration.classes
        # 36 distinct LPs per first score, 40 of the 72 refused by the
        # forced-label screen; one solve per policy would be 144
        assert 0 < len(calls) <= 32

    def test_k3_census_computes_stops_once_per_subtree_group(self, monkeypatch):
        calls = []
        stops_from_point = _FlowSystem.stops_from_point

        def counting(system, x):
            calls.append(x)
            return stops_from_point(system, x)

        monkeypatch.setattr(_FlowSystem, "stops_from_point", counting)
        params = ModelParams(p=Fraction(9, 20), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        groups = sum(len(search._solve_subtrees(params, first)) for first in Score)
        assert len(calls) == groups == 3
        calls.clear()
        assert enumerate_outcomes(params, "report-all").classes
        assert len(calls) == groups


class TestForcedLabelScreen:
    """A label row with no variable and a nonzero constant holds for one
    accept bit only, so :meth:`_FlowSystem.refuses` rules out a pattern with
    the other bit before any solve. The screen reads only the LP rows; every
    pattern it refuses must be one the simplex finds infeasible."""

    @staticmethod
    def check(system, bits, counts):
        a_ub, b_ub = system.rows(bits)
        solved = _simplex.solve([0] * system.n, a_ub, b_ub, [], [], system.n, scale=system.scale)
        if system.refuses(bits):
            assert solved.status == _simplex.INFEASIBLE
            counts["refused"] += 1
        assert (system.feasible(bits) is None) == (solved.status == _simplex.INFEASIBLE)
        counts["patterns"] += 1

    def census(self, params, counts):
        """Every accept pattern of both first-score subtrees, as the census
        builds them."""
        for first in Score:
            for pattern in _subtree_induction(params.alpha, params.k, first):
                system = _FlowSystem(params, pattern.rules, _subtree(first, params.k), Reporting.ALL)
                self.check(system, pattern.bits, counts)

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 2), Fraction(17, 20)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_every_k2_pattern(self, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=2)
        counts = {"refused": 0, "patterns": 0}
        self.census(params, counts)
        for bits in range(1 << 6):
            policy = AdmissionPolicy(2, bits)
            rules = best_response(params, policy).rules
            for reporting in Reporting:
                system = _FlowSystem(params, rules, all_sequences(2), reporting)
                self.check(system, policy.bits, counts)
        assert counts["patterns"] == 2 * 8 + 2 * 64
        assert counts["refused"] > 0

    @pytest.mark.parametrize(
        "alpha, p", [(Fraction(4, 5), Fraction(9, 20)), (Fraction(3, 5), Fraction(3, 4))]
    )
    def test_every_k3_subtree_pattern(self, alpha, p):
        params = ModelParams(p=p, alpha=alpha, phi=Fraction(1, 2), k=3)
        counts = {"refused": 0, "patterns": 0}
        self.census(params, counts)
        assert counts["patterns"] == 2 * 128
        assert counts["refused"] > 0

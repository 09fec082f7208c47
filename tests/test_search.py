"""Best responses, verification, and equilibrium enumeration."""

from __future__ import annotations

import contextlib
import math
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
    MissingStrategyEntry,
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
    best_score,
    best_score_projection,
    construct_first_score_equilibrium,
    enumerate_outcomes,
    free_stop_intervals,
    node,
    outcome_distribution,
    posterior_from_distribution,
    report_all_regions,
    report_max_thresholds,
    seq,
    seq_str,
    verify_equilibrium,
)
from retesting import _simplex, cli, model
from retesting.cli import MAX_K
from retesting.model import admission_key
from retesting.equilibria import EquilibriumProfile, _best_score_masks
from retesting import search
from retesting.search import (
    EXHAUSTIVE_MAX_K,
    SCOPES,
    _FlowSystem,
    _enumerate_policy_list,
    _family_policies,
    _group_odds,
    _subtree,
    _subtree_induction,
)
from dense_reference import (DenseFlowSystem, ReferenceFlowSystem, label_masks, policy_system, spine_vertex_counts,
                             spine_vertex_grid)

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


def induction_entries(alpha, k, first):
    """Every accept pattern of one first-score subtree with its entry of an
    uncached ``search._induction`` at alpha, (bits, High and Low value
    numerators over den(alpha)^(k-1), rule code), in ascending bits."""
    return sorted(search._induction(alpha, k, first)[0])


def decoded_rules(code, seqs, k):
    """The rules a rule code holds for the histories among ``seqs``, read
    from the bits that the code's layout gives them: two per type at
    4 node(h), High first, as 0 continue, 1 stop and 2 any."""
    return {
        (t, s): ("continue", "stop", "any")[code >> (4 * node(s) + 2 * j) & 3]
        for j, t in enumerate((StudentType.HIGH, StudentType.LOW))
        for s in seqs
        if len(s) < k
    }


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

    def test_policy_of_another_k_is_malformed(self):
        # its depth-3 accept bits would go unread at k=2
        with pytest.raises(MalformedProfile, match="a policy of k=3 does not fit k=2"):
            best_response(PARAMS, AdmissionPolicy.b_then_a_run(3, 3))


class TestReferenceInduction:
    """best_response against an induction that shares no code with it:
    its rules and depth-one values, and the value of every history in the
    integer tables of the one-pattern induction it runs."""

    @staticmethod
    def check(params, policies):
        for policy in policies:
            br = best_response(params, policy)
            rules, values = reference_induction(params, policy)
            assert decoded_rules(br.code, all_sequences(params.k), params.k) == rules, policy
            for (t, h), rule in rules.items():
                assert br.admissible(t, h) == {"continue": (0, 0), "stop": (1, 1), "any": (0, 1)}[rule]
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
        policies = [p for scope in families for p in _family_policies(params.k, scope)]
        policies.append(AdmissionPolicy.best_score_a(3))
        self.check(params, policies)

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    def test_k3_seeded_sample(self, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=3)
        sample = random.Random(20210216).sample(range(1 << 14), 200)
        self.check(params, [AdmissionPolicy(3, bits) for bits in sample])


class TestOneRuleCode:
    """The census tables and the verifier's best response hold one rule code
    per policy: the whole tree's is the bitwise or of the codes of the two
    subtree entries whose bits are the policy's A-half and B-half, and no
    entry's code has a bit outside its own subtree's nodes."""

    @staticmethod
    def check(params, policies):
        k = params.k
        tables = {
            first: {bits: code for bits, code, _ in _subtree_induction(k, first, params.alpha == 1).entries}
            for first in Score
        }
        for first, table in tables.items():
            own = sum(15 << 4 * node(s) for s in _subtree(first, k) if len(s) < k)
            assert all(code & ~own == 0 for code in table.values())
        a_half = sum(1 << node(s) for s in _subtree(Score.A, k))
        for policy in policies:
            codes = tables[Score.A][policy.bits & a_half], tables[Score.B][policy.bits & ~a_half]
            assert best_response(params, policy).code == codes[0] | codes[1], policy

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    def test_every_k2_policy(self, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=2)
        self.check(params, [AdmissionPolicy(2, bits) for bits in range(1 << 6)])

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    def test_k3_seeded_sample(self, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=3)
        sample = random.Random(20210217).sample(range(1 << 14), 200)
        self.check(params, [AdmissionPolicy(3, bits) for bits in sample])


class TestEveryPatternInduction:
    """The census table of every accept pattern of a first-score subtree."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5), Fraction(1)])
    def test_every_pattern_against_reference(self, k, alpha):
        params = ModelParams(p=Fraction(2, 5), alpha=alpha, phi=Fraction(1, 2), k=k)
        for first in Score:
            seqs = _subtree(first, k)
            table, odds = _subtree_induction(k, first, alpha == 1).entries, _group_odds(alpha, k, first)
            # the j-th pattern accepts the i-th subtree sequence iff bit i of
            # j is set; node is increasing on the subtree, so bits ascend
            nodes = [node(s) for s in seqs]
            every = [sum(1 << n for i, n in enumerate(nodes) if j >> i & 1) for j in range(1 << len(seqs))]
            assert [bits for bits, *_ in table] == every == sorted(every)
            scale = alpha.denominator ** (k - 1)
            for bits, code, group in table:
                accepted, high, low = odds[group]
                assert accepted == bits >> node((first,)) & 1
                policy = AdmissionPolicy(k, bits)
                rules, values = reference_induction(params, policy)
                own = {key: rule for key, rule in rules.items() if key[1][0] is first}
                assert decoded_rules(code, seqs, k) == own, policy
                assert (Fraction(high, scale), Fraction(low, scale)) == tuple(
                    values[(t, (first,))] for t in StudentType
                )

    def test_cold_census_builds_one_table_per_first_score(self):
        params = ModelParams(p=Fraction(9, 20), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        _subtree_induction.cache_clear()
        _group_odds.cache_clear()
        enumerate_outcomes(params, "report-all")
        info = _subtree_induction.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        odds = _group_odds.cache_info()
        assert odds.misses == 2
        enumerate_outcomes(params, "report-all")
        # the repeat reads the two cached tables and the groups' odds at alpha
        assert _subtree_induction.cache_info().misses == 2
        assert _group_odds.cache_info()[:2] == (odds.hits + 2, 2)  # (hits, misses)
        # another alpha below 1 builds no table, only the groups' odds there
        enumerate_outcomes(ModelParams(p=Fraction(9, 20), alpha=Fraction(3, 5), phi=Fraction(1, 2), k=3), "report-all")
        assert _subtree_induction.cache_info().misses == 2
        assert _group_odds.cache_info().misses == 4

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
            _subtree_induction(EXHAUSTIVE_MAX_K + 1, Score.A, False)

    def test_family_best_response_at_k10(self):
        params = ModelParams(p=Fraction(2, 5), alpha=Fraction(7, 10), phi=Fraction(1, 2), k=10)
        policy = AdmissionPolicy.b_then_a_run(10, 2)
        br = best_response(params, policy)
        rules, values = reference_induction(params, policy)
        assert len(rules) == 2 * (2**10 - 2)
        assert decoded_rules(br.code, all_sequences(10), 10) == rules
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

    # one test, so no strategy entry: Pr(High | A) = 3p / (1 + 2p)
    K1 = {"alpha": Fraction(3, 4), "phi": Fraction(1, 2), "k": 1}

    @pytest.mark.parametrize("reporting", list(Reporting))
    def test_violation_details_pinned(self, reporting):
        accept_a, reject = AdmissionPolicy.first_score(1), AdmissionPolicy.reject_all(1)
        low = verify_equilibrium(ModelParams(p=Fraction(1, 7), **self.K1), profile_from(accept_a, {}, reporting))
        high = verify_equilibrium(ModelParams(p=Fraction(1, 3), **self.K1), profile_from(reject, {}, reporting))
        assert low.violations == (search.Violation("posterior_rule", "A", "posterior 1/3 (0.333333) must be >= 1/2"),)
        assert high.violations == (search.Violation("posterior_rule", "A", "posterior 3/5 (0.600000) must be <= 1/2"),)
        # past the violation the other side passes: B is rejected at a posterior below 1/2
        assert verify_equilibrium(ModelParams(p=Fraction(1, 3), **self.K1), profile_from(accept_a, {}, reporting))

    @pytest.mark.parametrize("reporting", list(Reporting))
    def test_posterior_of_exactly_half_passes_either_way(self, reporting):
        params = ModelParams(p=Fraction(1, 4), **self.K1)  # the posterior of A is 1/2
        for policy in (AdmissionPolicy.first_score(1), AdmissionPolicy.reject_all(1)):
            verdict = verify_equilibrium(params, profile_from(policy, {}, reporting))
            assert verdict.ok and not verdict.violations and not verdict.off_path

    def test_zero_mass_labels_are_off_path_under_either_reporting(self):
        """Everyone stops after an A, so AA and AB carry no mass; under
        best-score reporting every label has mass, since a Low student
        reports all B's with positive probability whatever the strategy."""
        profile = {
            reporting: profile_from(AdmissionPolicy.best_score_a(2), StudentStrategy.stop_after_a(2).stop, reporting)
            for reporting in Reporting
        }
        for p, ok in ((Fraction(1, 10), False), (Fraction(1, 2), True), (Fraction(9, 10), False)):
            params = ModelParams(p=p, alpha=Fraction(3, 4), phi=Fraction(1, 2), k=2)
            every = verify_equilibrium(params, profile[Reporting.ALL])
            best = verify_equilibrium(params, profile[Reporting.MAX])
            assert every.off_path == (seq("AA"), seq("AB"))
            assert best.off_path == ()
            assert every.ok == best.ok == ok
            assert not {v.where for v in every.violations} & {"AA", "AB"}

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

    def test_profile_of_another_k_is_malformed(self):
        # a k=3 first-score profile: at k=2 its depth-3 accept bits and its
        # stop entries after two tests would go unread
        deeper = construct_first_score_equilibrium(ModelParams(p=0.3, alpha=0.8, phi=0.5, k=3))
        with pytest.raises(MalformedProfile, match="policy of k=3"):
            verify_equilibrium(PARAMS, deeper)

    def test_stop_entry_beyond_k_is_malformed(self):
        strategy = construct_first_score_equilibrium(ModelParams(p=0.3, alpha=0.8, phi=0.5, k=3)).strategy
        with pytest.raises(MalformedProfile, match="beyond k=2"):
            verify_equilibrium(PARAMS, profile_from(AdmissionPolicy.first_score(2), strategy.stop))


def reference_verify(params, profile) -> search.Verdict:
    """The verifier on ``Fraction``s: every stop against the bounds of
    ``best_response(...).admissible``, then High against Low mass per label
    by ``type_mass`` on the outcome distribution, projected to best scores
    under report-max."""
    if profile.reporting is Reporting.MAX and not profile.policy.is_max_measurable():
        raise MalformedProfile("best-score reporting requires a max-measurable policy")
    br = best_response(params, profile.policy)
    deep = [h for _, h in profile.strategy.stop if len(h) >= params.k]
    if deep:
        raise MalformedProfile(f"a stop probability after {seq_str(deep[0])} is beyond k={params.k}")
    violations = []
    try:
        for type_ in StudentType:
            for h in all_sequences(params.k - 1):
                f = profile.strategy.stop_prob(type_, h, params.k)
                lo, hi = br.admissible(type_, h)
                if not lo <= f <= hi:
                    detail = f"stop={f} outside admissible [{lo}, {hi}]"
                    violations.append(search.Violation("best_response", f"{type_.value} after {seq_str(h)}", detail))
        dist = outcome_distribution(params, profile.strategy)
    except MissingStrategyEntry as exc:
        raise MalformedProfile(str(exc)) from exc
    labels = all_sequences(params.k)
    if profile.reporting is Reporting.MAX:
        dist, labels = best_score_projection(dist), all_sequences(1)
    off_path = []
    for lab in labels:
        high, low = dist.type_mass(StudentType.HIGH, lab), dist.type_mass(StudentType.LOW, lab)
        if not high and not low:
            off_path.append(lab)
            continue
        accepts = profile.policy.accepts(lab)
        if (high < low) if accepts else (high > low):
            post = posterior_from_distribution(dist, lab)
            want = ">= 1/2" if accepts else "<= 1/2"
            detail = f"posterior {post} ({float(post):.6f}) must be {want}"
            violations.append(search.Violation("posterior_rule", seq_str(lab), detail))
    return search.Verdict(not violations, tuple(violations), tuple(off_path))


VERIFY_GRID = [
    ModelParams(p=p, alpha=alpha, phi=phi, k=k)
    for k in (1, 2, 3)
    for alpha in (Fraction(3, 5), Fraction(4, 5), Fraction(1))
    for p in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10))
    for phi in (Fraction(0), Fraction(1, 2), Fraction(1))
]


def census_witnesses(params):
    """The witness of every class of the report-all and report-max censuses."""
    return [
        cls.witness
        for scope in (search.SCOPE_REPORT_ALL, search.SCOPE_REPORT_MAX)
        for cls in enumerate_outcomes(params, scope).classes
    ]


def off_rule_stop(params, profile, rng):
    """The profile with one stop that its best-response rule forces moved
    off it, or None when every rule is free."""
    code = best_response(params, profile.policy).code
    forced = [
        (t, h)
        for t in StudentType
        for h in all_sequences(params.k - 1)
        if search._rule_of(code, t, h) != search.ANY
    ]
    if not forced:
        return None
    key = rng.choice(forced)
    stops = dict(profile.strategy.stop)
    stops[key] = rng.choice([Fraction(1, 2), 1 - stops[key]])
    return EquilibriumProfile(profile.policy, StudentStrategy(stops), profile.label, profile.reporting)


def flipped_accept_bit(params, profile, rng):
    """The profile with one accept bit flipped, under report-max a whole
    best-score class, so that the policy stays measurable."""
    if profile.reporting is Reporting.MAX:
        mask = rng.choice(_best_score_masks(params.k))
    else:
        mask = 1 << rng.randrange(len(all_sequences(params.k)))
    policy = AdmissionPolicy(params.k, profile.policy.bits ^ mask)
    return EquilibriumProfile(policy, profile.strategy, profile.label, profile.reporting)


def assert_same_verdict(params, profile):
    """The verifier and the reference agree on ok, violations and off_path,
    or both refuse the profile with the same message."""
    try:
        want = reference_verify(params, profile)
    except MalformedProfile as exc:
        with pytest.raises(MalformedProfile) as got:
            verify_equilibrium(params, profile)
        assert str(got.value) == str(exc)
        return None
    got = verify_equilibrium(params, profile)
    assert (got.ok, got.violations, got.off_path) == (want.ok, want.violations, want.off_path)
    return got


class TestVerifyAgainstReference:
    """The integer verifier on cached cohort rows gives the ``Fraction``
    verifier's verdict, word for word."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_census_witnesses(self, k):
        verdicts = {True: 0, False: 0}
        for params in (params for params in VERIFY_GRID if params.k == k):
            for witness in census_witnesses(params):
                verdicts[assert_same_verdict(params, witness).ok] += 1
        assert verdicts[True] > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corrupted_census_witnesses(self, k):
        rng = random.Random(f"corrupt:{k}")
        seen = {"stop": 0, "bit": 0}
        for params in (params for params in VERIFY_GRID if params.k == k):
            for witness in census_witnesses(params):
                moved = off_rule_stop(params, witness, rng)
                if moved is not None:
                    seen["stop"] += 1
                    verdict = assert_same_verdict(params, moved)
                    assert not verdict.ok
                    assert any(v.kind == "best_response" for v in verdict.violations)
                flipped = flipped_accept_bit(params, witness, rng)
                seen["bit"] += assert_same_verdict(params, flipped) is not None
        assert seen["bit"] > 0 and (seen["stop"] > 0 or k == 1)  # no stop at k = 1

    @pytest.mark.parametrize("reporting", list(Reporting))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_strategies_with_fractional_stops(self, k, reporting):
        rng = random.Random(f"verify:{k}:{reporting.value}")
        values = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4), Fraction(2, 7))
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            params = ModelParams(
                p=Fraction(rng.randint(1, 19), 20),
                alpha=rng.choice((Fraction(51, 100), Fraction(2, 3), Fraction(4, 5), Fraction(1))),
                phi=rng.choice((Fraction(0), Fraction(1, 3), Fraction(1))),
                k=k,
            )
            stops = {(t, h): rng.choice(values) for t in StudentType for h in all_sequences(k - 1)}
            if reporting is Reporting.MAX:
                accepted = {score for score in Score if rng.random() < 0.5}
                policy = AdmissionPolicy.from_predicate(k, lambda s: best_score(s) in accepted)
            else:
                policy = AdmissionPolicy(k, rng.getrandbits(len(all_sequences(k))))
            verdict = assert_same_verdict(params, profile_from(policy, stops, reporting))
            outcomes[verdict.ok] += 1
            # the same stops, each forced to its best-response rule where forced
            code, fitted = best_response(params, policy).code, {}
            for (t, h), f in stops.items():
                rule = search._rule_of(code, t, h)
                fitted[(t, h)] = f if rule == search.ANY else search._ADMISSIBLE[rule][0]
            outcomes[assert_same_verdict(params, profile_from(policy, fitted, reporting)).ok] += 1
        assert outcomes[False] > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_malformed_strategies_are_refused_alike(self, k):
        rng = random.Random(f"malformed:{k}")
        params = ModelParams(p=Fraction(1, 2), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=k)
        witness = enumerate_outcomes(params, search.SCOPE_REPORT_ALL).classes[0].witness
        full = dict(witness.strategy.stop)
        for key in rng.sample(sorted(full, key=str), 4):
            partial = {kv: f for kv, f in full.items() if kv != key}
            assert assert_same_verdict(params, profile_from(witness.policy, partial)) is None
        deep = {**full, (StudentType.LOW, (Score.B,) * k): Fraction(1)}
        assert assert_same_verdict(params, profile_from(witness.policy, deep)) is None
        # an entry at no history is read by neither
        extra = {**full, (StudentType.HIGH, ()): Fraction(1, 2)}
        verdict = assert_same_verdict(params, profile_from(witness.policy, extra))
        assert verdict.ok == verify_equilibrium(params, witness).ok

    def test_corrupted_census_caches_change_no_verdict(self, monkeypatch):
        """The verifier reads the model and the best-response induction,
        never the census's caches: with ``_layout``, ``_subtree_induction``,
        ``_group_odds``, ``_code_book``, ``_kept_groups``, ``_admit_terms``, ``_class_label``
        and both origin witness caches handing out wrong values, and the
        verifier's own cache cold, every witness keeps its verdict, while a
        census that reads them finds witnesses that fail."""
        params_list = [params for params in VERIFY_GRID if params.k == 3 and params.phi == Fraction(1, 2)]
        cases = [(params, witness) for params in params_list for witness in census_witnesses(params)]
        want = [verify_equilibrium(params, witness) for params, witness in cases]
        layout, table, kept, terms = search._layout, search._subtree_induction, search._kept_groups, search._admit_terms
        label, origin, tree_origin = search._class_label, search._origin_strategy, search._tree_origin_strategy
        group_odds = search._group_odds
        monkeypatch.setattr(search, "_layout", lambda *args: tuple(-v for v in layout(*args)))
        other = {Score.A: Score.B, Score.B: Score.A}
        monkeypatch.setattr(search, "_subtree_induction", lambda k, first, at_one: table(k, other[first], at_one))
        monkeypatch.setattr(search, "_group_odds", lambda *args: group_odds(*args)[::-1])
        monkeypatch.setattr(search, "_code_book", lambda k, first: search._CodeBook({}, {}))
        monkeypatch.setattr(search, "_kept_groups", lambda k, first, at_one, pos, neg: kept(k, first, at_one, 0, 0))
        monkeypatch.setattr(search, "_admit_terms", lambda *args: terms(*args)[::-1])
        monkeypatch.setattr(search, "_class_label", lambda *args: ("made up", label(*args)[1]))
        monkeypatch.setattr(search, "_origin_strategy", lambda k, a_code, b_code: origin(k, b_code, a_code))
        monkeypatch.setattr(search, "_tree_origin_strategy", lambda k, code: tree_origin(k, 0))
        model.cohort_rows.cache_clear()
        assert [verify_equilibrium(params, witness) for params, witness in cases] == want
        params = ModelParams(p=Fraction(1, 2), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        assert not all(cls.verified for cls in enumerate_outcomes(params, search.SCOPE_REPORT_ALL).classes)


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


def reference_free_stop_intervals(params, policy, reporting=Reporting.ALL, keys=None) -> dict:
    """Two cold solves per free node: y[c] at both ends over the policy's
    homogenised rows of the whole tree, with y normalised so that the
    node's reach is 1; only at the free nodes in ``keys``, when given."""
    system = policy_system(params, policy, reporting)
    a_ub, b_ub = system.rows(policy.bits)
    n, scale = system.n, system.scale
    a_cc = [[*row, -b] for row, b in zip(a_ub, b_ub)]
    b_cc = [0] * len(a_cc)
    out = {}
    for key, c in system.var_index.items():
        if keys is not None and key not in keys:
            continue
        var, value = system.reach[key]
        reach = [0] * (n + 1)
        reach[n if var is None else var] = value
        obj = [0] * (n + 1)
        obj[c] = 1
        eq = ([reach], [scale])  # scale * reach = scale
        lo = _simplex.solve(obj, a_cc, b_cc, *eq, n + 1, scale=scale)
        if lo.status == _simplex.OPTIMAL:
            hi = _simplex.solve([-v for v in obj], a_cc, b_cc, *eq, n + 1, scale=scale)
            out[key] = (1 + hi.value, 1 - lo.value)
    return out


class TestFreeIntervals:
    @staticmethod
    def assert_reference(params, scope, policies=()) -> int:
        """The intervals of every class witness of ``scope``, and of
        ``policies``, equal the reference, in order; the number of intervals
        compared."""
        reporting = Reporting.MAX if scope == "report-max" else Reporting.ALL
        witnesses = [cls.witness.policy for cls in enumerate_outcomes(params, scope).classes]
        compared = 0
        for policy in [*witnesses, *policies]:
            got = free_stop_intervals(params, policy, reporting)
            assert list(got.items()) == list(reference_free_stop_intervals(params, policy, reporting).items())
            compared += len(got)
        return compared

    def test_grouped_lps_match_reference(self):
        # every scope at k 1-3, with the named scopes' policies that have no
        # equilibrium as well, whose intervals are empty
        compared = 0
        for k in (1, 2, 3):
            for alpha, p, phi in [("0.8", "0.5", "0"), ("0.8", "0.3", "0.5"), ("0.6", "0.75", "1"),
                                  ("0.7", "0.45", "0.25")]:
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                for scope in SCOPES:
                    policies = _family_policies(params.k, scope) if scope != "report-all" else ()
                    compared += self.assert_reference(params, scope, policies)
        assert compared > 200

    @pytest.mark.parametrize("k, alpha, p, phi, scopes", [
        (4, "0.75", "0.6", "0.75", SCOPES[2:]),
        (4, "0.9", "0.7", "0.25", SCOPES[2:]),
        (4, "0.8", "0.5", "0.5", SCOPES[2:]),
        # one family at k=5, where one check takes about a second
        (5, "0.8", "0.5", "0.5", ("report-all:first-score",)),
    ])
    def test_grouped_lps_match_reference_deep(self, k, alpha, p, phi, scopes):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        assert sum(self.assert_reference(params, scope) for scope in scopes) > 0

    def test_no_equilibrium_needs_no_column_lp(self, monkeypatch):
        # first-score at (0.8, 0.5, 0.5) has one family policy in equilibrium
        # and three that are not, which one solve rejects; all-b-reject's
        # policy refuses a forced label, with no solve at all
        params = ModelParams(p="0.5", alpha="0.8", phi="0.5", k=3)
        policies = [*_family_policies(params.k, "report-all:first-score"),
                    *_family_policies(params.k, "report-all:all-b-reject")]
        optimize, sizes = _simplex.optimize, []

        def counted(objectives, *args, **kwargs):
            sizes.append(len(objectives))
            return optimize(objectives, *args, **kwargs)

        monkeypatch.setattr(_simplex, "optimize", counted)
        empty = 0
        for policy in policies:
            want = reference_free_stop_intervals(params, policy)
            sizes.clear()
            got = free_stop_intervals(params, policy)
            assert got == want
            if not got:
                empty += 1
                assert sizes in ([], [1])  # the feasibility solve, if any
            else:
                assert len(sizes) > 1
        assert empty == 4

    @pytest.mark.parametrize("k, scope", [(3, "report-all"), (4, "report-all:b-then-a-run")])
    def test_one_enumerate_solves_each_subtree_once(self, monkeypatch, capsys, k, scope):
        """Class witnesses that share a first-score subtree's pattern share
        its ranges within one enumerate command, which prints what one
        solve per witness prints; the reuse ends with the command."""
        argv = ["enumerate", "--alpha", "0.8", "--p", "0.5", "--phi", "0.5", "--k", str(k),
                "--scope", scope, "--intervals", "--format", "json"]
        stop_ranges, calls = _FlowSystem.stop_ranges, []
        monkeypatch.setattr(_FlowSystem, "stop_ranges", lambda system, bits: calls.append(bits) or stop_ranges(system, bits))
        assert cli.main(argv) == 0
        shared, solved = capsys.readouterr().out, len(calls)
        assert search._solved is None
        monkeypatch.setattr(cli, "_reused_intervals", contextlib.nullcontext)
        calls.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == shared
        assert (solved, len(calls)) == (4, 6)  # 3 witnesses, 2 subtrees each, 4 distinct

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_feasible_patterns_of_one_rule_code_share_their_ranges(self, k):
        """The second corollary of the :mod:`retesting.search` docstring,
        which lets :func:`search._reused_intervals` key a subtree's ranges
        without its accept bits: also where the patterns' label rows differ,
        every feasible pattern of a rule code has the same ranges."""
        differ = 0
        for alpha in ("0.6", "0.8", "1"):
            for p in ("0.2", "0.5", "0.9"):
                for phi in ("0", "0.5", "1"):
                    params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                    for first in Score:
                        by_code = {}
                        for bits, *_, code in induction_entries(params.alpha, k, first):
                            by_code.setdefault(code, []).append(bits)
                        for code, patterns in by_code.items():
                            system = DenseFlowSystem(params, code, _subtree(first, k), Reporting.ALL)
                            kept = [bits for bits in patterns if not system.refutes(bits)]
                            want = system.stop_ranges(kept[0]) if kept else None
                            for bits in kept[1:]:
                                assert system.stop_ranges(bits) == want, (params, first, code, bits)
                            differ += len({system.signs(bits) for bits in kept}) > 1
        assert differ > 0 or k < 3  # rows that differ, with equal ranges

    def test_reused_ranges_are_keyed_by_rule_code(self, monkeypatch):
        """Two census witnesses whose A-subtree patterns differ but share a
        rule code solve that subtree's ranges once inside
        :func:`search._reused_intervals`, and get what a cold call gets."""
        params = ModelParams(p="0.2", alpha="0.8", phi="1", k=3)
        table = induction_entries(params.alpha, 3, Score.A)
        system_of = {code: DenseFlowSystem(params, code, _subtree(Score.A, 3), Reporting.ALL) for *_, code in table}
        pairs = {}
        for bits, *_, code in table:
            system = system_of[code]
            if not system.refutes(bits):
                pairs.setdefault(code, {}).setdefault(system.signs(bits), bits)
        a_bits = next(list(signs.values())[:2] for signs in pairs.values() if len(signs) > 1)
        b_bits = next(bits for bits, *_, code in induction_entries(params.alpha, 3, Score.B)
                      if not _FlowSystem(params, code, _subtree(Score.B, 3), Reporting.ALL).refutes(bits))
        policies = [AdmissionPolicy(3, bits | b_bits) for bits in a_bits]
        want = [free_stop_intervals(params, policy) for policy in policies]
        stop_ranges, calls = _FlowSystem.stop_ranges, []
        monkeypatch.setattr(_FlowSystem, "stop_ranges", lambda system, bits: calls.append(bits) or stop_ranges(system, bits))
        with search._reused_intervals():
            assert [free_stop_intervals(params, policy) for policy in policies] == want
        assert len(calls) == 2  # the A subtree once, the B subtree once

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

    def test_policy_of_another_k_is_malformed(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=3)
        with pytest.raises(MalformedProfile, match="a policy of k=2 does not fit k=3"):
            free_stop_intervals(params, AdmissionPolicy.first_score(2))


class TestSmallerLPs:
    """Each report-max LP is decided, and its spine's intervals optimised,
    over the free columns of the all-B spine alone; each report-all policy's
    intervals come from one first-score subtree at a time. Verdicts, points
    and intervals must be those of the whole-tree LP, also at phi 0 and 1
    and at alpha 1, where masses vanish."""

    GRID = [(alpha, p, phi) for alpha in ("0.6", "0.8", "1") for p in ("0.2", "0.5", "0.7")
            for phi in ("0", "0.5", "1")]
    # where a whole-tree reference costs seconds: phi 0 and 1, alpha 1, and
    # points whose report-max LPs reach the spine LP
    DEEP = [("0.8", "0.5", "0.5"), ("1", "0.3", "0"), ("0.6", "0.7", "1"), ("0.7", "0.45", "0.1"),
            ("0.9", "0.15", "0.5")]

    @staticmethod
    def full_lp(system, bits):
        a_ub, b_ub = system.rows(bits)
        return _simplex.solve([0] * system.n, a_ub, b_ub, [], [], system.n, scale=system.scale)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_report_max_verdicts_match_the_full_lp(self, k):
        """The census's verdict on each report-max policy, and its point: the
        origin, or the spine LP's vertex lifted by 0 where the origin fails,
        must be the simplex's on the whole tree's dense rows."""
        counts = {"spine refuted": 0, "spine feasible": 0}
        for alpha, p, phi in self.GRID:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            plan, _ = plan_of(params, "report-max")
            kept = {entry.bits: origin for entry, origin in search._kept_policies(params, plan)}
            for entry in plan.entries:
                assert entry.code == best_response(params, AdmissionPolicy(k, entry.bits)).code
                system = DenseFlowSystem(params, entry.code, all_sequences(k), Reporting.MAX)
                spine = system.spine()
                assert entry.spine.cols == tuple(spine)
                # the columns off the spine net to 0 in both label rows
                assert all(not v for _, (row, _) in system._label_rows
                           for c, v in enumerate(row) if c not in spine)
                want = self.full_lp(system, entry.bits)
                if entry.bits not in kept:
                    x = None
                elif kept[entry.bits]:
                    x = [Fraction(0)] * system.n
                else:
                    x = search._spine_point(entry.spine, search._cohort_weights(params))
                assert x == (want.x if want.status == _simplex.OPTIMAL else None)
                if not (system.refuses(entry.bits) or system._at_origin(entry.bits)):
                    counts["spine refuted" if x is None else "spine feasible"] += 1
        if k >= 3:
            assert min(counts.values()) > 0, counts

    @pytest.mark.parametrize("k", range(1, 8))
    def test_report_max_intervals_match_the_reference(self, k):
        """Every node's interval, over the grid at k <= 3 and at the deep
        points from k = 4 on; from k = 5 on, where one whole-tree reference
        takes up to seconds, only every spine node and every twentieth free
        node (every sixtieth at k = 7)."""
        compared = off_spine = 0
        for alpha, p, phi in self.GRID if k <= 3 else self.DEEP:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            for policy in _family_policies(params.k, "report-max"):
                got = free_stop_intervals(params, policy, Reporting.MAX)
                system = policy_system(params, policy, Reporting.MAX)
                if k > 4 and self.full_lp(system, policy.bits).status == _simplex.INFEASIBLE:
                    assert got == {}
                    continue
                keys = None
                if k > 4:
                    keys = {key for i, (key, c) in enumerate(system.var_index.items())
                            if c in system.spine() or i % (20 if k < 7 else 60) == 0}
                want = reference_free_stop_intervals(params, policy, Reporting.MAX, keys)
                if keys is not None:
                    got = {key: v for key, v in got.items() if key in keys}
                assert list(got.items()) == list(want.items()), (k, alpha, p, phi, policy.bits)
                compared += len(got)
                off_spine += sum(Score.A in s for _, s in got)
        assert (compared > 0 and off_spine > 0) or k == 1  # no history is free at k=1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_report_all_intervals_match_the_reference(self, monkeypatch, k):
        """Every report-all census witness (k <= 3) and every report-all
        family policy, solved one first-score subtree at a time on the
        templates of the census, which its plans hold: the witnesses'
        intervals read no template from the template cache."""
        template, keys = search._template, []
        monkeypatch.setattr(search, "_template", lambda *key: keys.append(key) or template(*key))
        compared = 0
        for alpha, p, phi in self.GRID if k <= 3 else self.DEEP[:3]:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            policies = [policy for scope in SCOPES[2:] for policy in _family_policies(params.k, scope)]
            if k <= EXHAUSTIVE_MAX_K:
                census = enumerate_outcomes(params, "report-all").classes
                keys.clear()
                for cls in census:
                    free_stop_intervals(params, cls.witness.policy)
                assert keys == []
                policies += [cls.witness.policy for cls in census]
            for policy in policies:
                got = free_stop_intervals(params, policy)
                assert list(got.items()) == list(reference_free_stop_intervals(params, policy).items())
                compared += len(got)
        assert compared > 0 or k == 1

    @staticmethod
    def refuse_whole_tree(monkeypatch, k):
        """Fail the test on a flow system, a layout of the whole tree, or a
        best-response or label row over more columns than the spine's;
        return the list of the spine points solved for witnesses."""
        def refused(*args, **kwargs):
            raise AssertionError("a flow system was built")

        monkeypatch.setattr(_FlowSystem, "__init__", refused)
        layout = search._layout

        def subtree_layout(params, seqs, reporting):
            assert seqs != all_sequences(k), "a layout of the whole tree was built"
            return layout(params, seqs, reporting)

        monkeypatch.setattr(search, "_layout", subtree_layout)
        for name in ("_br_over", "_labels_over"):
            def spine_only(template, values, cols, over=getattr(search, name)):
                assert tuple(cols) == template.spine, "a row over the whole tree was built"
                return over(template, values, cols)

            monkeypatch.setattr(search, name, spine_only)
        points, spine_point = [], search._spine_point
        monkeypatch.setattr(search, "_spine_point", lambda *args: points.append(spine_point(*args)) or points[-1])
        return points

    def test_k8_report_max_builds_dense_rows_for_feasible_lps_only(self, monkeypatch):
        """The spine decides every report-max LP with a negative rhs at k=8,
        and a feasible one's vertex is its spine LP's lifted by 0, so no
        dense row of the whole tree is built, for a verdict, a witness or
        intervals: none at all. The census's spine decision
        (:func:`search._spine_refutes`) refutes some LPs, and some
        witnesses come from a spine vertex."""
        refuted, spine_refutes = [], search._spine_refutes

        def recording(k, entry, weights, signed):
            verdict = spine_refutes(k, entry, weights, signed)
            if verdict:
                refuted.append(entry.bits)
            return verdict

        monkeypatch.setattr(search, "_spine_refutes", recording)
        points = self.refuse_whole_tree(monkeypatch, 8)
        for alpha, p, phi in [("0.8", "0.5", "0.5"), ("0.7", "0.45", "0.1"), ("1", "0.4", "0.5")]:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=8)
            classes = enumerate_outcomes(params, "report-max").classes
            assert classes and all(c.verified for c in classes)
            for cls in classes:
                assert free_stop_intervals(params, cls.witness.policy, Reporting.MAX)
        assert refuted  # LPs with a negative rhs that the spine refuted
        assert points  # witnesses at a spine vertex

    def test_k10_report_max_census_and_intervals_build_no_whole_tree_row(self, monkeypatch):
        """A k=10 report-max census, with the free-stop ranges of each class
        witness, builds no flow system, no layout of the whole tree and no
        row over its columns, also where a witness is a spine vertex."""
        points = self.refuse_whole_tree(monkeypatch, 10)
        intervals = 0
        for alpha, p, phi in [("0.8", "0.5", "0.5"), ("0.7", "0.45", "0.1")]:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=10)
            classes = enumerate_outcomes(params, "report-max").classes
            assert classes and all(c.verified for c in classes)
            for cls in classes:
                intervals += len(free_stop_intervals(params, cls.witness.policy, Reporting.MAX))
        assert points and intervals > 0


class TestSpineVertexLemma:
    """The spine-vertex lemma of the :mod:`retesting.search` docstring on
    every report-max family LP of a grid that takes in alpha 1 and phi 0
    and 1 (:func:`dense_reference.spine_vertex_counts`): each column off the
    spine is 0 in both label rows of the dense reference, and where the
    origin fails and the LP is feasible, the reference's whole-tree vertex
    is the witness's lifted point, with the witness's stops. CI runs the
    same check at k 8-10."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_whole_tree_vertex_is_the_lifted_spine_vertex(self, k):
        counts = {"vertex": 0, "infeasible": 0, "origin": 0}
        for params in spine_vertex_grid(k):
            for name, count in spine_vertex_counts(params).items():
                counts[name] += count
        assert counts["origin"] > 0
        assert min(counts.values()) > 0 or k == 1, counts


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
            code = best_response(params, witness.policy).code
            for first in Score:
                system = DenseFlowSystem(params, code, _subtree(first, 3), Reporting.ALL)
                x = system.feasible(witness.policy.bits)
                assert x is not None
                for node, stop in system.stops_from_point(x).items():
                    assert witness.strategy.stop[node] == stop

    def test_k3_census_decides_every_pattern_by_one_mask_test_with_no_kernel_call(self, monkeypatch):
        """One :func:`search._origin_holds` per accept pattern, on the label
        masks of its rule code, when the point's row-sign key is new, none
        when it is cached, and no flow system and no kernel call at all,
        also at alpha 1: each verdict is the one :meth:`_FlowSystem.refutes`
        gives."""
        kernel, verdicts, built = [], [], []
        optimize, origin_holds, init = _simplex.optimize, search._origin_holds, _FlowSystem.__init__

        def counting(objectives, *args, **kwargs):
            kernel.append(len(objectives))
            return optimize(objectives, *args, **kwargs)

        def deciding(bits, pos, neg):
            verdicts.append((bits, origin_holds(bits, pos, neg)))
            return verdicts[-1][1]

        monkeypatch.setattr(_simplex, "optimize", counting)
        monkeypatch.setattr(search, "_origin_holds", deciding)
        monkeypatch.setattr(_FlowSystem, "__init__", lambda system, *args: built.append(args) or init(system, *args))
        refuted = 0
        for alpha in (Fraction(4, 5), Fraction(1)):
            params = ModelParams(p=Fraction(9, 20), alpha=alpha, phi=Fraction(1, 2), k=3)
            for first in Score:
                verdicts.clear()
                groups = search._solve_subtrees(params, first)
                assert groups and built == []
                patterns = induction_entries(params.alpha, 3, first)
                assert [bits for bits, _ in verdicts] == [bits for bits, *_ in patterns]
                kept = {bits for group, *_ in groups.values() for bits in group}
                assert kept == {bits for bits, holds in verdicts if holds}
                for (bits, holds), (_, _, _, code) in zip(verdicts, patterns):
                    system = DenseFlowSystem(params, code, _subtree(first, 3), Reporting.ALL)
                    assert holds == (not system.refutes(bits))
                    # a negative rhs that the forced-label screen passes, refuted with no kernel call
                    refuted += not holds and not system.refuses(bits)
                built.clear()
                # the same point again reads its row-sign key's groups: no mask test
                verdicts.clear()
                assert search._solve_subtrees(params, first) == groups and verdicts == []
        assert kernel == []
        assert refuted > 0

    def test_k3_census_reads_witness_stops_off_the_rule_codes(self, monkeypatch):
        """Groups carry rule codes, not stops: the census reads no stops off
        a point (:func:`search._vertex_strategy`), builds one witness
        strategy per code pair it has not seen and, at a point whose pairs
        it has seen, builds no flow system and no strategy."""
        calls, built, strategies = [], [], []
        init, strategy_init = _FlowSystem.__init__, StudentStrategy.__init__
        monkeypatch.setattr(search, "_vertex_strategy", lambda *args: calls.append(args))
        monkeypatch.setattr(_FlowSystem, "__init__", lambda system, *args: built.append(args) or init(system, *args))
        monkeypatch.setattr(StudentStrategy, "__init__",
                            lambda strategy, stop: strategies.append(stop) or strategy_init(strategy, stop))
        params = ModelParams(p=Fraction(9, 20), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        groups = [search._solve_subtrees(params, first) for first in Score]
        assert sum(map(len, groups)) == 3
        classes = enumerate_outcomes(params, "report-all").classes
        pairs = [tuple(sub for *_, sub in search._subtree_responses(params, cls.witness.policy)) for cls in classes]
        assert len(strategies) == search._origin_strategy.cache_info().misses == len(set(pairs)) > 0
        for cls, pair in zip(classes, pairs):
            assert cls.witness.strategy is search._origin_strategy(3, *pair)
        assert calls == built == []
        strategies.clear()
        other = ModelParams(p=Fraction(3, 10), alpha=params.alpha, phi=params.phi, k=3)
        again = enumerate_outcomes(other, "report-all").classes
        assert {tuple(sub for *_, sub in search._subtree_responses(other, c.witness.policy)) for c in again} <= set(pairs)
        assert calls == built == strategies == []


class TestPolicyListWitnesses:
    """Report-max and family scopes decide every policy from their plan, but
    build a witness strategy only for a policy that opens a class: off the
    rule code when the origin is its point, and otherwise from the stops at
    its spine LP's vertex lifted by 0 (:func:`search._spine_point`), solved
    inside the strategy call, for that policy alone. That point must be the
    vertex of the simplex on the whole tree's dense rows, and the stops
    those of the dense reference there."""

    def test_stops_are_read_once_per_new_class(self, monkeypatch):
        calls, strategies, points, kept = [], [], [], []
        vertex_strategy, spine_point = search._vertex_strategy, search._spine_point
        strategy_init, kept_policies = StudentStrategy.__init__, search._kept_policies
        monkeypatch.setattr(search, "_vertex_strategy",
                            lambda params, entry: calls.append(entry) or vertex_strategy(params, entry))
        monkeypatch.setattr(search, "_spine_point",
                            lambda spine, weights: points.append(spine_point(spine, weights)) or points[-1])
        monkeypatch.setattr(StudentStrategy, "__init__",
                            lambda strategy, stop: strategies.append(stop) or strategy_init(strategy, stop))
        monkeypatch.setattr(search, "_kept_policies",
                            lambda params, plan: kept.extend(kept_policies(params, plan)) or iter(list(kept)))
        shared, seen = 0, {True: 0, False: 0}
        # the last point has report-max witnesses at a spine vertex
        grid = [("0.8", "0.5", "0.5"), ("0.6", "0.3", "0"), ("1", "0.4", "0.5"), ("0.7", "0.9", "1"),
                ("0.6", "0.5", "0")]
        for alpha, p, phi in grid:
            for k in (2, 3, 5):
                for scope in SCOPES[:1] + SCOPES[2:]:
                    for log in (calls, strategies, points, kept):
                        log.clear()
                    params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                    origins = search._tree_origin_strategy.cache_info().misses
                    classes = enumerate_outcomes(params, scope).classes
                    where = (alpha, p, phi, k, scope)
                    at_origin = {entry.bits: origin for entry, origin in kept}
                    witnesses = [cls.witness.policy.bits for cls in classes]
                    # the point is solved for the witnesses off the origin alone, once each,
                    # in the order their classes open; the classes are then sorted
                    assert sorted(entry.bits for entry in calls) == sorted(b for b in witnesses if not at_origin[b]), where
                    assert len(points) == len(calls) and all(any(x) for x in points), where
                    stops = {}
                    for entry, x in zip(calls, points):
                        system = DenseFlowSystem(params, entry.code, all_sequences(k), system_reporting(scope))
                        assert system.feasible(entry.bits) == x, where
                        stops[entry.bits] = system.stops_from_point(x)
                    origins = search._tree_origin_strategy.cache_info().misses - origins
                    assert len(strategies) == len(points) + origins, where
                    for cls, bits in zip(classes, witnesses):
                        seen[at_origin[bits]] += 1
                        if at_origin[bits]:
                            code = best_response(params, cls.witness.policy).code
                            assert cls.witness.strategy is search._tree_origin_strategy(k, code), where
                        else:
                            assert list(cls.witness.strategy.stop.items()) == list(stops[bits].items()), where
                    shared += len(kept) > len(classes)
        assert shared > 0  # some class is supported by more than one feasible policy
        assert seen[True] > 0 and seen[False] > 0  # vertex and origin witnesses


def system_reporting(scope):
    return Reporting.MAX if scope == "report-max" else Reporting.ALL


def plan_of(params, scope):
    """The :func:`search._policy_plan` of a policy-list scope at a point, with its reporting."""
    reporting = system_reporting(scope)
    bits = tuple(policy.bits for policy in _family_policies(params.k, scope))
    return search._policy_plan(params.alpha, params.k, reporting, bits), reporting


def certifies(y, a_ub, b_ub):
    """Farkas's proof that ``a_ub x <= b_ub`` has no x >= 0, checked with no
    code of the package: y >= 0, every column of y a_ub >= 0, y b_ub < 0."""
    if len(y) != len(a_ub) or any(v < 0 for v in y):
        return False
    columns = len(a_ub[0]) if a_ub else 0
    if any(sum(y[i] * a_ub[i][j] for i in range(len(y))) < 0 for j in range(columns)):
        return False
    return sum(v * b for v, b in zip(y, b_ub)) < 0


class TestPolicyListPlan:
    """The policy lists are decided from one plan per (alpha, k, reporting,
    policies): label constants and spine rhs as forms over the cohort
    weights, the spine matrix of alpha alone, and Farkas certificates reused
    across points and alphas once each is checked exactly. Verdicts must be
    those of the dense reference, which reads no certificate: the origin's
    signs under report-all and the simplex on the whole tree's rows under
    report-max; and the forms those of the layout."""

    GRID = [(k, alpha, p, phi) for k in range(1, 6) for alpha in ("0.6", "0.8", "1")
            for p in ("0.2", "0.5", "0.9") for phi in ("0", "0.5", "1")]
    SCOPES = SCOPES[:1] + SCOPES[2:]
    # k=10, and points whose alpha, p and phi have large denominators
    DEEP = [(10, "0.8", "0.5", "0.5", scope) for scope in ("report-max", "report-all:b-then-a-run")]
    DEEP += [(4, "0.613", "0.123456789", "0.3", scope) for scope in SCOPES]
    DEEP += [(3, "0.999999", "0.000001", "0.999", "report-max"), (6, "0.5000001", "0.7", "0.0001", "report-max")]

    def points(self):
        yield from ((k, alpha, p, phi, scope) for k, alpha, p, phi in self.GRID for scope in self.SCOPES)
        yield from self.DEEP

    def test_verdicts_match_the_flow_system_with_no_certificate(self, monkeypatch):
        """Every verdict, and whether the origin is the point, over the grid;
        certificates kept at one point refute LPs at later ones, and every
        certificate is re-checked from scratch on the system's own spine rows
        at each point that it refutes."""
        counts = {"origin": 0, "refuted": 0, "spine feasible": 0, "spine refuted": 0}
        refuting, at = [], {}  # (y, params, bits) of each spine LP refuted; the current point
        farkas, spine_refutes, solved = search._farkas, search._spine_refutes, []

        def recording(k, entry, weights, signed):
            verdict = spine_refutes(k, entry, weights, signed)
            if verdict:  # the certificate that refuted it, kept or read, is tried first from now on
                refuting.append((search._certificate_list((k, entry.code, signed))[0], at["params"], entry.bits))
            return verdict

        monkeypatch.setattr(search, "_spine_refutes", recording)
        monkeypatch.setattr(search, "_farkas", lambda *args: solved.append(args) or farkas(*args))
        for k, alpha, p, phi, scope in self.points():
            params = at["params"] = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            plan, reporting = plan_of(params, scope)
            kept = dict((entry.bits, origin) for entry, origin in search._kept_policies(params, plan))
            for entry in plan.entries:
                assert entry.code == best_response(params, AdmissionPolicy(k, entry.bits)).code
                system = DenseFlowSystem(params, entry.code, all_sequences(k), reporting)
                refutes = system.refutes(entry.bits)
                assert (entry.bits not in kept) == refutes, (k, alpha, p, phi, scope, entry.bits)
                if not refutes:
                    assert kept[entry.bits] == system._at_origin(entry.bits)
                    counts["origin" if kept[entry.bits] else "spine feasible"] += 1
                else:
                    screened = reporting is Reporting.ALL or system.refuses(entry.bits)
                    counts["refuted" if screened else "spine refuted"] += 1
        assert min(counts.values()) > 0, counts
        # one Farkas LP per spine LP that no kept certificate refutes, found
        # for an infeasible one only; most are refuted by a kept certificate
        assert len(refuting) == counts["spine refuted"]
        kept = len(refuting) - (len(solved) - counts["spine feasible"])
        assert kept > len(refuting) - kept > 0
        for y, params, bits in refuting:
            a_ub, b_ub = policy_system(params, AdmissionPolicy(params.k, bits), Reporting.MAX).spine_rows(bits)
            assert certifies(y, a_ub, b_ub), (params, bits, y)

    def test_forms_match_the_layout(self):
        """Each label constant's form, times the point's cohort weights, is
        the ``_row_const`` of its row on the layout, and a label left out of
        the plan has b = 0; a variable enters the labels of ``varies``; the
        spine's rows are those of the dense reference on its columns, its
        matrix the unit times the plan's and its rhs the forms times the
        weights; and the reach of every free node is the reference's, its
        anchor column and its form times the weights."""
        compared = {"labels": 0, "spine rows": 0, "reach": 0}
        for k, alpha, p, phi, scope in self.points():
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            plan, reporting = plan_of(params, scope)
            seqs = all_sequences(k)
            values = search._layout(params, seqs, reporting)
            weights = search._cohort_weights(params)
            unit = sum(weights)
            assert values[1] == unit * params.alpha.denominator**k  # the scale

            def at_point(form):
                return sum(c * w for c, w in zip(form, weights))

            for entry in plan.entries:
                template = search._template(seqs, reporting, k, entry.code)
                forms = {}
                for form_id, mask in entry.labels:
                    for label_mask, _ in template.label_rows:
                        if mask & label_mask:
                            forms[label_mask] = plan.forms[form_id]
                for mask, row in template.label_rows:
                    b, varies = search._row_sign(values, row)
                    assert b == (at_point(forms[mask]) if mask in forms else 0)
                    assert bool(entry.varies & mask) == varies
                    compared["labels"] += 1
                system = DenseFlowSystem(params, entry.code, seqs, reporting)
                if entry.spine is None:
                    assert reporting is Reporting.ALL
                    continue
                assert entry.spine.cols == tuple(system.spine())
                a_ub, b_ub = system.spine_rows(entry.bits)
                assert a_ub == [[unit * v for v in row] for row in entry.spine.a_ub]
                assert b_ub == [at_point(form) for form in entry.spine.b_ub]
                compared["spine rows"] += len(b_ub)
                assert [(key, var, at_point(form)) for key, var, form in entry.spine.reach] == \
                    [(key, *system.reach[key]) for key in system.var_index]
                compared["reach"] += len(entry.spine.reach)
        assert min(compared.values()) > 0

    @pytest.mark.parametrize("alpha, k", [("0.6", 1), ("0.613", 4), ("0.5000001", 10), ("1", 10)])
    def test_digits_read_back_every_coefficient_in_bounds(self, alpha, k):
        """A form evaluated at (1, B, B^2, B^3) reads back as its four
        coefficients for every coefficient up to (k + 1) den(alpha)^k in
        magnitude, the bound of :func:`search._form_base`."""
        alpha = Fraction(alpha)
        base, bound = search._form_base(alpha, k), (k + 1) * alpha.denominator**k
        rng = random.Random(k)
        corners = [(bound, -bound, bound, -bound), (-bound, bound, -bound, bound), (0, 0, 0, -bound), (0, 0, 0, 0)]
        for form in corners + [tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(200)]:
            assert search._digits(sum(c * base**i for i, c in enumerate(form)), base) == form

    def test_a_certificate_that_fails_its_check_changes_no_verdict(self):
        """A y with y >= 0 and y b < 0 whose y a_ub has a negative entry
        proves nothing. Seeded into the pool at each spine-feasible policy,
        under its key, it must leave the policy kept by the census and
        unrefuted by the dense reference."""
        seeded = 0
        for alpha, p, phi in [("0.6", "0.5", "0"), ("0.8", "0.5", "0.5"), ("0.7", "0.45", "0.1"),
                              ("0.9", "0.15", "0.5")]:
            for k in (2, 3, 5, 8):
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                plan, _ = plan_of(params, "report-max")
                for entry, origin in list(search._kept_policies(params, plan)):
                    if origin:
                        continue
                    system = DenseFlowSystem(params, entry.code, all_sequences(k), Reporting.MAX)
                    a_ub, b_ub = system.spine_rows(entry.bits)
                    i = min(range(len(b_ub)), key=b_ub.__getitem__)  # a row with b < 0: the origin fails
                    y = tuple(int(j == i) for j in range(len(b_ub)))
                    assert b_ub[i] < 0 and min(a_ub[i]) < 0  # y b < 0, but y a_ub >= 0 fails
                    search._certificate_list.cache_clear()
                    search._certificate_list((k, system.code, system.signs(entry.bits))).append(y)
                    kept = [e.bits for e, _ in search._kept_policies(params, plan)]
                    assert entry.bits in kept, (alpha, p, phi, k, entry.bits)
                    assert not system.refutes(entry.bits)
                    assert system.feasible(entry.bits) is not None
                    seeded += 1
        assert seeded > 0

    def test_a_farkas_point_that_fails_its_check_is_not_kept(self, monkeypatch):
        """Were the Farkas LP to return a point that fails its check, here
        y = 0 with y b = 0, the simplex on the spine LP itself would decide
        the verdict, and the point would not be kept."""
        monkeypatch.setattr(search, "_farkas", lambda a_ub, b_ub, n: (0,) * len(b_ub))
        certificate_list, read = search._certificate_list, []
        monkeypatch.setattr(search, "_certificate_list", lambda key: read.append(certificate_list(key)) or read[-1])
        refuted = 0
        for k, alpha, p, phi in [(3, "0.8", "0.5", "0.5"), (5, "0.7", "0.45", "0.1"), (8, "0.6", "0.5", "0")]:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            plan, _ = plan_of(params, "report-max")
            kept = {entry.bits for entry, _ in search._kept_policies(params, plan)}
            for entry in plan.entries:
                system = DenseFlowSystem(params, entry.code, all_sequences(k), Reporting.MAX)
                assert (entry.bits not in kept) == system.refutes(entry.bits), (k, entry.bits)
                refuted += entry.bits not in kept and not system.refuses(entry.bits) and not system._at_origin(entry.bits)
        assert refuted > 0 and read and not any(read)


class TestOriginWitness:
    """The corollary of the lemma in the :mod:`retesting.search` docstring:
    a feasible report-all system has the origin as a point, where the stops
    are 0 at CONTINUE and 1 at STOP and ANY, so the census decides each
    accept pattern by two label masks and reads its witness off the rule
    code. Both must be what a flow system of the pattern gives."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", ["0.6", "0.8", "1"])
    def test_mask_verdicts_and_stops_from_the_code(self, k, alpha):
        feasible = 0
        for p in ("0.2", "0.5", "0.9"):
            for phi in ("0", "0.5", "1"):
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                for first in Score:
                    groups = search._solve_subtrees(params, first)
                    kept = {bits for group, *_ in groups.values() for bits in group}
                    systems = {}
                    for bits, _, _, code in induction_entries(params.alpha, k, first):
                        if code not in systems:
                            systems[code] = DenseFlowSystem(params, code, _subtree(first, k), Reporting.ALL)
                        system = systems[code]
                        assert (bits in kept) == (not system.refutes(bits)), (p, phi, first, bits)
                        if bits in kept:
                            codes = (code, 0) if first is Score.A else (0, code)
                            stops = [(key, f) for key, f in search._origin_strategy(k, *codes).stop.items()
                                     if key[1][0] is first]
                            assert stops == list(system.stops_from_point([Fraction(0)] * system.n).items())
                            feasible += 1
        assert feasible > 0


def per_pattern_groups(params, first):
    """The groups of :func:`search._solve_subtrees` with no plan: one flow
    system from the cached template and one solve per accept pattern, in
    ascending bits."""
    seqs, root = _subtree(first, params.k), node((first,))
    groups = {}
    for bits, high, low, code in induction_entries(params.alpha, params.k, first):
        system = DenseFlowSystem(params, code, seqs, Reporting.ALL)
        x = system.feasible(bits)
        if x is not None:
            odds = (bits >> root & 1, high, low)
            if odds not in groups:
                groups[odds] = ([], search._admit_terms(params.alpha, params.k, positive_cohorts(params), first, *odds),
                                system.stops_from_point(x))
            groups[odds][0].append(bits)
    return groups


def positive_cohorts(params):
    """The cohorts of positive mass, read off the ``Fraction`` cohort masses."""
    return tuple(c for c in model.COHORTS if params.cohort_mass[c] > 0)


class TestCensusPlan:
    """The census reads what depends on k alone from one cached table per
    (k, first score, alpha is 1), the odds of its groups from a cache per
    alpha, and best responses from a cache per subtree accept pattern; it
    must find what a census with one flow system and one solve per pattern
    finds, also at phi 0 and 1 and at alpha 1."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", ["0.6", "0.8", "1"])
    @pytest.mark.parametrize("phi", ["0", "0.5", "1"])
    def test_matches_a_per_pattern_census(self, k, alpha, phi):
        for p in ("0.2", "0.5", "0.7"):
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            groups = [per_pattern_groups(params, first) for first in Score]
            for first, want in zip(Score, groups):
                got = search._solve_subtrees(params, first)
                # the census's groups carry rule codes where these carry stops,
                # and their patterns as the tuples of a shared cache entry
                assert [(odds, bits, terms) for odds, (bits, terms, _) in got.items()] == \
                    [(odds, tuple(bits), terms) for odds, (bits, terms, _) in want.items()], (first, p)
            blocks = ((a_bits, b_bits, tuple(map(sum, zip(a_terms, b_terms))),
                       lambda a_stops=a_stops, b_stops=b_stops: StudentStrategy({**a_stops, **b_stops}))
                      for a_bits, a_terms, a_stops in groups[0].values()
                      for b_bits, b_terms, b_stops in groups[1].values())
            want = search._census(params, "report-all", 4 ** (2**k - 1), Reporting.ALL,
                                  search._subtree_mask(Score.A, k), blocks).classes
            got = enumerate_outcomes(params, "report-all").classes
            assert [(c.key(), c.label, c.verified) for c in got] == [(c.key(), c.label, c.verified) for c in want]
            for mine, theirs in zip(got, want):
                assert mine.witness == theirs.witness
                assert list(mine.policies) == list(theirs.policies)

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5), Fraction(1)])
    def test_plan_holds_the_templates_and_rows_of_its_rule_codes(self, alpha):
        for k in (1, 2, 3):
            for first in Score:
                seqs, plan = _subtree(first, k), _subtree_induction(k, first, alpha == 1)
                table = induction_entries(alpha, k, first)
                assert [(bits, code) for bits, code, _ in plan.entries] == [(bits, code) for bits, *_, code in table]
                assert list(plan.codes) == list(dict.fromkeys(code for *_, code in table))
                rows = dict(plan.rows)
                assert len(set(rows.values())) == len(rows) == len(plan.rows)
                assert set(rows) == {row for _, labels in plan.codes.values() for _, row in labels}
                for code, (template, labels) in plan.codes.items():
                    assert template == search._template.__wrapped__(seqs, Reporting.ALL, k, code)
                    assert [(mask, rows[row]) for mask, row in labels] == list(template.label_rows)
                    # one template per rule code, whatever the alpha
                    assert search._coded(k, first, code)[0] is template

    def test_code_book_is_shared_by_every_alpha(self):
        """Templates depend on no alpha, so the census at every alpha below
        1 reads the one table that filled the code book, and the rule codes
        of the induction at each of them are in it."""
        search._code_book.cache_clear()
        _subtree_induction.cache_clear()
        info = search._template.cache_info()
        table = _subtree_induction(3, Score.A, False)
        first_codes = search._template.cache_info().hits + search._template.cache_info().misses
        first_codes -= info.hits + info.misses
        book = search._code_book(3, Score.A)
        assert first_codes == len(book.codes) == len(table.codes) > 0
        assert sorted(book.ids.values()) == list(range(len(book.ids)))
        before = search._template.cache_info()
        for alpha in (Fraction(13, 20), Fraction(7, 10), Fraction(4, 5)):
            search._solve_subtrees(ModelParams(p=Fraction(1, 2), alpha=alpha, phi=Fraction(1, 2), k=3), Score.A)
            assert {code for *_, code in induction_entries(alpha, 3, Score.A)} <= set(book.codes)
        assert search._template.cache_info() == before
        assert _subtree_induction.cache_info().misses == 1

    def test_responses_match_an_uncached_induction(self):
        """Every family policy at k 1-10, and every subtree pattern of the
        census at k <= 3, against :func:`search._induction` on the policy's
        whole accept bits."""
        search._subtree_response.cache_clear()
        scopes = [scope for scope in SCOPES if scope != "report-all"]
        compared = 0
        for k in range(1, MAX_K + 1):
            for alpha in (Fraction(3, 5), Fraction(4, 5), Fraction(1)):
                params = ModelParams(p=Fraction(1, 2), alpha=alpha, phi=Fraction(1, 2), k=k)
                policies = [policy for scope in scopes for policy in _family_policies(params.k, scope)]
                for policy in policies:
                    want = [(first, *search._induction(alpha, k, first, policy.bits)[0][0][1:]) for first in Score]
                    assert search._subtree_responses(params, policy) == want
                    assert search._subtree_responses(params, policy) == want  # read back from the cache
                    compared += 1
                if k <= EXHAUSTIVE_MAX_K:
                    for first in Score:
                        odds = _group_odds(alpha, k, first)
                        for bits, code, group in _subtree_induction(k, first, alpha == 1).entries:
                            assert search._subtree_response(alpha, k, first, bits) == (*odds[group][1:], code)
        assert compared > 100
        info = search._subtree_response.cache_info()
        assert info.hits > 0 and info.currsize <= info.maxsize

    def test_repeat_census_at_alpha_one_reads_no_template(self):
        """At alpha 1 a k=3 subtree has 127 rule codes, which the template
        cache cannot hold beside the other subtree's; the tables hold them,
        so a repeated census and its witnesses' intervals read none from it."""
        params = ModelParams(p="0.4", alpha="1", phi="0.5", k=3)
        assert sum(len(_subtree_induction(3, first, True).codes) for first in Score) == 254
        assert search._template.cache_info().maxsize < 254
        enumerate_outcomes(params, "report-all")
        before = search._template.cache_info()
        classes = enumerate_outcomes(params, "report-all").classes
        intervals = [free_stop_intervals(params, cls.witness.policy) for cls in classes]
        assert search._template.cache_info() == before
        assert any(intervals)

    def test_plan_cache_holds_sixteen_alphas(self):
        """17 alphas below 1 build one table per first score, at most 4 with
        alpha 1, and a new alpha whose row signs were seen before reads
        every kept group from the cache."""
        _subtree_induction.cache_clear()
        alphas = [Fraction(60 + j, 100) for j in range(17)]
        seen = set()
        for alpha in alphas:
            params = ModelParams(p="0.5", alpha=alpha, phi="0.5", k=3)
            enumerate_outcomes(params, "report-all")
            seen.update((first, row_signs(params, first)) for first in Score)
        info = _subtree_induction.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        new = ModelParams(p="0.5", alpha="0.77", phi="0.5", k=3)
        assert new.alpha not in alphas and all((first, row_signs(new, first)) in seen for first in Score)
        kept = search._kept_groups.cache_info()
        enumerate_outcomes(new, "report-all")
        assert search._kept_groups.cache_info().misses == kept.misses
        # new row signs miss once per subtree, and still build no table
        enumerate_outcomes(ModelParams(p="0.3", alpha=alphas[-1], phi="0", k=3), "report-all")
        assert search._kept_groups.cache_info().misses == kept.misses + 2
        assert _subtree_induction.cache_info().misses == 2


TABLE_ALPHAS = [Fraction(51 + 2 * j, 100) for j in range(25)] + [Fraction(2, 3), Fraction(3, 4), Fraction(5, 9),
                                                                  Fraction(7, 9), Fraction(999, 1000)]


def polynomial_in_alpha(coefficients, k):
    """A value polynomial, its coefficients on num(alpha)^j
    (den(alpha) - num(alpha))^(k-1-j), as integer coefficients of alpha^i
    over den(alpha)^(k-1), lowest first."""
    out = [0] * k
    for j, c in enumerate(coefficients):
        for i in range(k - j):  # (1 - alpha)^(k-1-j) by the binomial theorem
            out[j + i] += c * math.comb(k - 1 - j, i) * (-1) ** i
    return out


def rational_roots(poly):
    """The rational roots in (1/2, 1) of an integer polynomial, lowest
    coefficient first, not identically 0: by the rational root theorem,
    each is u / v with u dividing the lowest nonzero coefficient and v the
    highest."""
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    low = next(c for c in poly if c)
    divisors = lambda n: [j for j in range(1, abs(n) + 1) if n % j == 0]
    return {Fraction(u, v) for u in divisors(low) for v in divisors(poly[-1])
            if Fraction(1, 2) < Fraction(u, v) < 1 and not sum(c * Fraction(u, v) ** i for i, c in enumerate(poly))}


class TestCensusTable:
    """The table lemma of the :mod:`retesting.search` docstring: one table
    per (k, first score, alpha is 1) holds what the induction gives at every
    alpha on that side of 1, and its groups never merge at a point."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_table_matches_the_induction_at_every_alpha(self, k):
        """Rule codes, group ids, group order and group values against an
        uncached :func:`search._induction` at 30 alphas in (1/2, 1) and at 1."""
        for alpha in TABLE_ALPHAS + [Fraction(1)]:
            for first in Score:
                table, root = _subtree_induction(k, first, alpha == 1), node((first,))
                entries = induction_entries(alpha, k, first)
                assert [(bits, code) for bits, code, _ in table.entries] == [(bits, code) for bits, *_, code in entries]
                groups = {}
                ids = [groups.setdefault((bits >> root & 1, high, low), len(groups)) for bits, high, low, _ in entries]
                assert [group for *_, group in table.entries] == ids, (alpha, first)
                assert _group_odds(alpha, k, first) == tuple(groups), (alpha, first)
        assert [len(_subtree_induction(k, Score.A, False).groups) for k in (1, 2, 3)] == [2, 5, 13]

    @pytest.mark.parametrize("k", range(1, EXHAUSTIVE_MAX_K + 1))
    def test_no_two_groups_meet_at_a_rational_alpha(self, k):
        """Two groups of one root bit whose High and Low polynomials both
        meet at an alpha would share their odds there and merge; checked
        exactly over every rational alpha in (1/2, 1)."""
        pairs = 0
        for first in Score:
            groups = _subtree_induction(k, first, False).groups
            for i, (accepted, high, low) in enumerate(groups):
                for other_accepted, other_high, other_low in groups[i + 1:]:
                    if accepted != other_accepted:
                        continue
                    pairs += 1
                    diffs = [polynomial_in_alpha([a - b for a, b in zip(mine, theirs)], k)
                             for mine, theirs in ((high, other_high), (low, other_low))]
                    roots = rational_roots(next(diff for diff in diffs if any(diff)))
                    assert not any(all(not sum(c * t**i for i, c in enumerate(diff)) for diff in diffs)
                                   for t in roots), (first, high, low, other_high, other_low)
        assert pairs > 0 or k == 1


def reference_kept_groups(params, first):
    """The kept groups of one subtree at a point by a per-pattern loop with
    no census cache: each pattern's odds and rule code from an uncached
    induction at the point's alpha, its rule code's label masks from the
    signs of its template rows' constants, then one mask test per accept
    pattern, as (odds, patterns, rule code)."""
    k, root = params.k, node((first,))
    values = search._layout(params, _subtree(first, k), Reporting.ALL)
    groups, masks = {}, {}
    for bits, high, low, code in induction_entries(params.alpha, k, first):
        if code not in masks:
            rows = search._template.__wrapped__(_subtree(first, k), Reporting.ALL, k, code).label_rows
            consts = [(mask, search._row_const(values, row)) for mask, row in rows]
            masks[code] = (sum(mask for mask, b in consts if b > 0), sum(mask for mask, b in consts if b < 0))
        if search._origin_holds(bits, *masks[code]):
            groups.setdefault((bits >> root & 1, high, low), ([], code))[0].append(bits)
    return [(odds, tuple(bits), code) for odds, (bits, code) in groups.items()]


def reference_terms(params, first, accepted, high, low):
    """What ``first`` adds to each positive-mass cohort's admission
    probability, in ``Fraction``s from the emissions, times den(alpha)^k:
    Category 1 admitted on it when ``accepted``, Category 2 at the values
    ``high`` and ``low`` over den(alpha)^(k-1)."""
    den, scale = params.alpha.denominator ** params.k, params.alpha.denominator ** (params.k - 1)
    terms = []
    for c in positive_cohorts(params):
        after = Fraction(accepted) if c.category is Category.CAT1 else \
            Fraction(high if c.type_ is StudentType.HIGH else low, scale)
        term = params.emit(c.type_, first) * after * den
        assert term.denominator == 1
        terms.append(term.numerator)
    return tuple(terms)


def row_signs(params, first):
    """The row-sign key of a subtree at a point: the ids of the table rows
    with b > 0 and with b < 0, as bit sets."""
    plan = _subtree_induction(params.k, first, params.alpha == 1)
    values = search._layout(params, _subtree(first, params.k), Reporting.ALL)
    consts = [(row_id, search._row_const(values, row)) for row_id, row in plan.rows]
    return (sum(1 << row_id for row_id, b in consts if b > 0), sum(1 << row_id for row_id, b in consts if b < 0))


def reference_classify(params, admit, reporting):
    """The class label from the ``Fraction`` admission map, as the census
    decided it before it read labels off the integer terms."""
    probs = set(admit.values())
    if probs == {Fraction(0)}:
        return REJECT_ALL
    if probs == {Fraction(1)}:
        return ACCEPT_ALL
    first = {c: (params.alpha if c.type_ is StudentType.HIGH else params.alpha_bar) for c in admit}
    if admit == first:
        return FIRST_SCORE
    return SEPARATING if reporting is Reporting.MAX else NON_FIRST_SCORE


SIGN_GRID = [ModelParams(p=p, alpha=alpha, phi=phi, k=k)
             for k in (1, 2, 3) for alpha in ("0.6", "0.8", "1") for phi in ("0", "0.5", "1") for p in ("0.2", "0.5", "0.9")]


class TestSignKeyedCensus:
    """Per point the census reads each subtree's kept groups from a cache
    keyed by the signs of its table rows, labels and admission maps from a
    cache keyed by integer terms, and report-max and family witnesses at the
    origin from a cache keyed by the whole-tree rule code: each must give
    what the per-point computation gives."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_groups_match_the_per_pattern_loop(self, k):
        for params in (params for params in SIGN_GRID if params.k == k):
            for first in Score:
                want = reference_kept_groups(params, first)
                got = search._solve_subtrees(params, first)
                assert [(odds, bits, code) for odds, (bits, _, code) in got.items()] == want, (params, first)
                assert [terms for _, terms, _ in got.values()] == [reference_terms(params, first, *odds) for odds, *_ in want]

    def test_points_with_equal_signs_share_one_entry(self):
        alpha, phi = Fraction(4, 5), Fraction(1, 2)
        points = [ModelParams(p=Fraction(j, 100), alpha=alpha, phi=phi, k=3) for j in range(5, 96, 5)]
        keys = [row_signs(params, Score.B) for params in points]
        pairs = [(a, b) for i, a in enumerate(points) for b, key in zip(points[i + 1:], keys[i + 1:])
                 if key == keys[i]]
        assert pairs and len(set(keys)) > 1
        first, second = pairs[0]
        search._kept_groups.cache_clear()
        groups = search._solve_subtrees(first, Score.B)
        again = search._solve_subtrees(second, Score.B)
        info = search._kept_groups.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert list(again) == list(groups)
        for (bits, terms, code), (bits2, terms2, code2) in zip(groups.values(), again.values()):
            assert bits2 is bits and (terms2, code2) == (terms, code)
        other = next(params for params, key in zip(points, keys) if key != row_signs(first, Score.B))
        search._solve_subtrees(other, Score.B)
        assert search._kept_groups.cache_info().misses == 2

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_origin_witnesses_are_the_origin_stops(self, k):
        compared = 0
        for alpha in ("0.6", "0.8", "1"):
            for p, phi in (("0.2", "0"), ("0.5", "0.5"), ("0.9", "1"), ("0.5", "0")):
                params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
                for scope in SCOPES[:1] + SCOPES[2:]:
                    reporting = Reporting.MAX if scope == "report-max" else Reporting.ALL
                    for policy in _family_policies(k, scope):
                        system = policy_system(params, policy, reporting)
                        if system.feasible(policy.bits) is None or not system._at_origin(policy.bits):
                            continue
                        want = system.stops_from_point([Fraction(0)] * system.n)
                        got = search._tree_origin_strategy(k, system.code)
                        assert list(got.stop.items()) == list(want.items()), (params, scope, policy)
                        assert got == StudentStrategy(want)
                        compared += 1
        assert compared > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_labels_match_the_fraction_labels(self, k):
        labels = set()
        for params in (params for params in SIGN_GRID if params.k == k):
            cohorts = positive_cohorts(params)
            for scope in SCOPES:
                reporting = Reporting.MAX if scope == "report-max" else Reporting.ALL
                for cls in enumerate_outcomes(params, scope).classes:
                    assert list(cls.admit_prob) == list(cohorts)
                    assert cls.label == reference_classify(params, cls.admit_prob, reporting), (params, scope)
                    labels.add(cls.label)
        assert len(labels) >= 3

    def test_admission_maps_are_fresh_per_class(self):
        params = ModelParams(p="0.5", alpha="0.8", phi="0.5", k=3)
        first = enumerate_outcomes(params, "report-all").classes
        first[0].admit_prob.clear()
        again = enumerate_outcomes(params, "report-all").classes
        assert all(cls.admit_prob for cls in again)


class TestForcedLabelScreen:
    """A label row with no variable and a nonzero constant holds for one
    accept bit only, so the forced-label screen
    (:func:`search._screen_refuses`) rules out a pattern with the other bit
    before any solve. The screen reads only the LP rows; every pattern it
    refuses must be one the simplex finds infeasible."""

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
            for bits, _, _, code in induction_entries(params.alpha, params.k, first):
                system = DenseFlowSystem(params, code, _subtree(first, params.k), Reporting.ALL)
                self.check(system, bits, counts)

    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 2), Fraction(17, 20)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_every_k2_pattern(self, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=2)
        counts = {"refused": 0, "patterns": 0}
        self.census(params, counts)
        for bits in range(1 << 6):
            policy = AdmissionPolicy(2, bits)
            code = best_response(params, policy).code
            for reporting in Reporting:
                system = DenseFlowSystem(params, code, all_sequences(2), reporting)
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


class TestTreeDecision:
    """A report-all flow system whose rule code comes from the best-response
    induction is feasible iff its origin is, by the lemma in the
    :mod:`retesting.search` docstring, so :meth:`_FlowSystem.refutes`
    decides it by the origin's signs alone. That verdict must be the dense
    simplex's on every such LP, whatever the rhs signs."""

    POINTS = [(alpha, p, phi) for alpha, p in ((Fraction(4, 5), Fraction(9, 20)), (Fraction(3, 5), Fraction(3, 4)),
                                               (Fraction(9, 10), Fraction(1, 10)))
              for phi in (Fraction(0), Fraction(1, 2), Fraction(1))]

    @staticmethod
    def check(system, bits, counts):
        a_ub, b_ub = system.rows(bits)
        solved = _simplex.solve([0] * system.n, a_ub, b_ub, [], [], system.n, scale=system.scale)
        refuted = system.refutes(bits)
        assert refuted == (not system._at_origin(bits)) == (solved.status == _simplex.INFEASIBLE), (system.code, bits)
        counts[refuted, min(b_ub, default=0) < 0] += 1

    @staticmethod
    def new_counts():
        return {(r, neg): 0 for r in (False, True) for neg in (False, True)}

    @pytest.mark.parametrize("alpha, p, phi", POINTS)
    def test_every_census_lp(self, alpha, p, phi):
        counts = self.new_counts()
        for k in (1, 2, 3):
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            for first in Score:
                for bits, _, _, code in induction_entries(alpha, k, first):
                    self.check(DenseFlowSystem(params, code, _subtree(first, k), Reporting.ALL), bits, counts)
        assert counts[False, False] > 0  # b >= 0: the origin
        assert counts[True, True] > 0
        assert counts[True, False] == 0  # an infeasible LP has a negative rhs

    FAMILY_POINTS = [(Fraction(4, 5), Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(3, 5), Fraction(3, 10), Fraction(1, 2)),
                     (Fraction(9, 10), Fraction(7, 10), Fraction(0))]

    # k=6 at one point only: the simplex it is checked against takes 1-3 s there
    @pytest.mark.parametrize("k, alpha, p, phi", [(k, *point) for point in FAMILY_POINTS for k in (2, 3, 4, 5)]
                             + [(6, *FAMILY_POINTS[0])])
    def test_every_family_lp(self, k, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        counts = self.new_counts()
        for scope in SCOPES[2:]:
            for policy in _family_policies(params.k, scope):
                code = best_response(params, policy).code
                self.check(DenseFlowSystem(params, code, all_sequences(k), Reporting.ALL), policy.bits, counts)
        assert sum(counts.values()) == 2 + 2 + k - 1 + 1

    @pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_every_census_lp_at_alpha_one(self, p, phi):
        """With a noiseless test every B reach and emission is 0, and with
        phi 0 or 1 one category's masses are too."""
        counts = self.new_counts()
        for k in (1, 2, 3):
            params = ModelParams(p=p, alpha=Fraction(1), phi=phi, k=k)
            for first in Score:
                for bits, _, _, code in induction_entries(params.alpha, k, first):
                    self.check(DenseFlowSystem(params, code, _subtree(first, k), Reporting.ALL), bits, counts)
        assert counts[False, False] > 0 and counts[True, True] > 0
        assert counts[True, False] == 0

    @pytest.mark.parametrize("k, draws", [(4, 40), (5, 20), (6, 10)])
    def test_random_induction_patterns(self, k, draws):
        """Seeded random accept patterns of deeper subtrees, each with the
        rule code of its :func:`search._subtree_response`, at every family
        point; each pattern's accept density is drawn first, so that both
        verdicts occur."""
        rng = random.Random(20260 + k)
        counts = self.new_counts()
        for alpha, p, phi in self.FAMILY_POINTS:
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            for first in Score:
                seqs = _subtree(first, k)
                for _ in range(draws):
                    density = rng.random()
                    bits = sum(1 << node(s) for s in seqs if rng.random() < density)
                    code = search._subtree_response(alpha, k, first, bits)[2]
                    self.check(DenseFlowSystem(params, code, seqs, Reporting.ALL), bits, counts)
        assert counts[False, False] > 0 and counts[True, True] > 0
        assert counts[True, False] == 0

    @pytest.mark.parametrize("k, codes", [(2, None), (3, 24)])
    def test_arbitrary_rule_codes(self, k, codes):
        """Rule codes that no induction makes, chains of forced retakes
        among them, each with every accept pattern of its subtree. They
        break the lemma's precondition: the simplex finds LPs with a
        negative rhs feasible there, which the origin's signs refute. The
        reference system, which sends every LP with a negative rhs to the
        simplex, finds the simplex's point on each."""
        rng = random.Random(20217 + k)
        params = ModelParams(p=Fraction(2, 5), alpha=Fraction(7, 10), phi=Fraction(1, 2), k=k)
        counts = self.new_counts()  # by (feasible, negative rhs)
        chains = 0  # codes where a forced retake follows a forced retake
        for first in Score:
            seqs = _subtree(first, k)
            every = [0]
            for h in (s for s in seqs if len(s) < k):
                every = [c | (high | low << 2) << 4 * node(h) for c in every for high in range(3) for low in range(3)]
            for code in every if codes is None else rng.sample(every, codes):
                rules = decoded_rules(code, seqs, k)
                chains += any(rules[t, h] == rules[t, h[:-1]] == "continue" for t, h in rules if len(h) > 1)
                system = DenseFlowSystem(params, code, seqs, Reporting.ALL)
                ref = ReferenceFlowSystem(params, rules, seqs, Reporting.ALL)
                for pattern in range(1 << len(seqs)):
                    bits = sum(1 << node(s) for i, s in enumerate(seqs) if pattern >> i & 1)
                    a_ub, b_ub = system.rows(bits)
                    solved = _simplex.solve([0] * system.n, a_ub, b_ub, [], [], system.n, scale=system.scale)
                    ok = solved.status == _simplex.OPTIMAL
                    assert ref.feasible(bits) == (solved.x if ok else None)
                    assert system.refutes(bits) == (not system._at_origin(bits))
                    counts[ok, min(b_ub, default=0) < 0] += 1
        assert counts.pop((False, False)) == 0  # an infeasible LP has a negative rhs
        assert min(counts.values()) > 0  # (True, True): feasible, with a negative rhs
        if k == 3:
            assert chains > 0


class TestFlowTemplates:
    """Flow systems read from cached templates equal the reference builder's:
    the same rows in the same order, label masks, signs, forced-label
    screen, reach masses and witness stops."""

    POINTS = [
        *((2, alpha, p, phi) for alpha in (Fraction(3, 5), Fraction(4, 5))
          for p in (Fraction(1, 5), Fraction(1, 2), Fraction(17, 20))
          for phi in (Fraction(0), Fraction(1, 2), Fraction(1))),
        *((3, alpha, p, phi) for alpha, p in ((Fraction(4, 5), Fraction(9, 20)), (Fraction(3, 5), Fraction(3, 4)))
          for phi in (Fraction(0), Fraction(1, 2), Fraction(1))),
    ]

    @staticmethod
    def check(params, code, seqs, reporting, patterns):
        system = DenseFlowSystem(params, code, seqs, reporting)
        ref = ReferenceFlowSystem(params, decoded_rules(code, seqs, params.k), seqs, reporting)
        assert (system.n, system.scale, list(system.histories), system.var_index, system.reach) == (
            ref.n, ref.scale, ref.histories, ref.var_index, ref.reach
        )
        masks = ("_pos", "_neg", "_signed", "_forced")
        assert [getattr(system, m) for m in masks] == [getattr(ref, m) for m in masks]
        for bits in patterns:
            assert system.rows(bits) == ref.rows(bits)
            assert (system.signs(bits), system.refuses(bits)) == (ref.signs(bits), ref.refuses(bits))
            x = ref.feasible(bits)
            assert system.feasible(bits) == x
            if x is not None:
                assert system.stops_from_point(x) == ref.stops_from_point(x)

    @pytest.mark.parametrize("k, alpha, p, phi", POINTS)
    def test_every_subtree_pattern(self, k, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        for first in Score:
            by_code = {}
            for bits, _, _, code in induction_entries(alpha, k, first):
                by_code.setdefault(code, []).append(bits)
            for code, patterns in by_code.items():
                self.check(params, code, _subtree(first, k), Reporting.ALL, patterns)

    @pytest.mark.parametrize("k, alpha, p, phi", POINTS)
    def test_every_whole_tree_family_system(self, k, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        for scope in SCOPES[:1] + SCOPES[2:]:  # report-max and every named family
            reporting = Reporting.MAX if scope == "report-max" else Reporting.ALL
            for policy in _family_policies(params.k, scope):
                code = best_response(params, policy).code
                self.check(params, code, all_sequences(k), reporting, [policy.bits])

    def test_template_cache_bounded_over_k3_sweep(self):
        search._template.cache_clear()
        for alpha in ("0.6", "0.7", "0.8", "0.9"):
            for p in ("0.1", "0.3", "0.5", "0.7", "0.9"):
                for phi in ("0", "0.5", "1"):
                    params = ModelParams(p=p, alpha=alpha, phi=phi, k=3)
                    for scope in ("report-all", "report-max"):
                        enumerate_outcomes(params, scope)
        info = search._template.cache_info()
        assert info.hits > 0
        assert info.misses == info.currsize < info.maxsize  # nothing was evicted


class TestLazyRows:
    """A system reads each label row's constant without building a row, and
    keeps its sign as two label masks; the plans read each constant, and
    whether a variable enters the row, with :func:`search._row_sign`. What
    they read must be what the dense rows say, also at phi 0 and 1 and at
    alpha 1, where masses vanish."""

    POINTS = [(alpha, p, phi) for alpha, p in (("0.8", "0.45"), ("0.6", "0.75"), ("1", "0.3"))
              for phi in ("0", "0.5", "1")]

    @staticmethod
    def check(params, code, seqs, reporting, counts):
        system = _FlowSystem(params, code, seqs, reporting)
        assert not {"_br_rows", "_label_rows"} & set(vars(system))  # nothing dense yet
        labels = system._label_rows
        pos, neg, signed, forced = label_masks(labels)
        assert (system._pos, system._neg) == (pos, neg)
        # each label row's constant and whether a variable enters it, as the
        # plans read them off the layout
        values = search._layout(params, tuple(seqs), reporting)
        assert [search._row_sign(values, row) for _, row in system._template.label_rows] == \
            [(b, any(row)) for _, (row, b) in labels]
        counts["forced"] += forced.bit_count()
        counts["unsigned"] += sum(not signed & mask for mask, _ in labels)
        counts["varying"] += sum(any(row) for _, (row, _) in labels)

    @pytest.mark.parametrize("alpha, p, phi", POINTS)
    def test_every_subtree_code(self, alpha, p, phi):
        counts = {"forced": 0, "unsigned": 0, "varying": 0}
        for k in (1, 2, 3):
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            for first in Score:
                for code in {code for *_, code in induction_entries(params.alpha, k, first)}:
                    self.check(params, code, _subtree(first, k), Reporting.ALL, counts)
        assert min(counts.values()) > 0

    @pytest.mark.parametrize("alpha, p, phi", POINTS)
    def test_every_whole_tree_family_system(self, alpha, p, phi):
        counts = {"forced": 0, "unsigned": 0, "varying": 0}
        for k in (1, 2, 3):
            params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
            for scope in SCOPES[:1] + SCOPES[2:]:  # report-max and every named family
                reporting = Reporting.MAX if scope == "report-max" else Reporting.ALL
                for policy in _family_policies(params.k, scope):
                    code = best_response(params, policy).code
                    self.check(params, code, all_sequences(k), reporting, counts)
        assert min(counts.values()) > 0

    @pytest.mark.parametrize("k, codes", [(2, None), (3, 24)])
    def test_verdicts_match_the_simplex_on_arbitrary_rule_codes(self, k, codes):
        """The dense reference's ``feasible``, which reads the verdict of
        :meth:`_FlowSystem.refutes`, against the simplex on every accept
        pattern of rule codes that no induction makes. The signs it reads
        lazily are the dense rows' signs, and with no negative rhs its point
        is the simplex's. An LP with a negative rhs it refutes, which is the
        simplex's verdict except where the lemma's precondition fails: such
        feasible LPs exist on these codes, and the reference system in
        :class:`TestTreeDecision` decides them."""
        rng = random.Random(20218 + k)
        params = ModelParams(p=Fraction(2, 5), alpha=Fraction(7, 10), phi=Fraction(1, 2), k=k)
        counts = {(ok, neg): 0 for ok in (False, True) for neg in (False, True)}
        for first in Score:
            seqs = _subtree(first, k)
            every = [0]
            for h in (s for s in seqs if len(s) < k):
                every = [c | rule << 4 * node(h) for c in every for rule in range(16) if rule & 3 < 3 and rule >> 2 < 3]
            for code in every if codes is None else rng.sample(every, codes):
                system = DenseFlowSystem(params, code, seqs, Reporting.ALL)
                for pattern in range(1 << len(seqs)):
                    bits = sum(1 << node(s) for i, s in enumerate(seqs) if pattern >> i & 1)
                    a_ub, b_ub = system.rows(bits)
                    solved = _simplex.solve([0] * system.n, a_ub, b_ub, [], [], system.n, scale=system.scale)
                    ok, neg = solved.status == _simplex.OPTIMAL, min(b_ub, default=0) < 0
                    assert system._at_origin(bits) == (not neg)
                    assert system.feasible(bits) == (solved.x if ok and not neg else None)
                    counts[ok, neg] += 1
        assert counts.pop((False, False)) == 0  # an infeasible LP has a negative rhs
        assert min(counts.values()) > 0

    def test_k10_family_scopes_build_no_row_and_call_no_kernel(self, monkeypatch):
        """The origin's signs decide every report-all family LP at k=10,
        and each feasible one has the origin as its point."""
        built, kernel = [], []
        for name in ("_br_rows", "_label_rows"):
            func = getattr(_FlowSystem, name).func
            monkeypatch.setattr(_FlowSystem, name, property(lambda system, f=func: built.append(f) or f(system)))
        optimize = _simplex.optimize
        monkeypatch.setattr(_simplex, "optimize", lambda *args, **kwargs: kernel.append(1) or optimize(*args, **kwargs))
        params = ModelParams(p="0.5", alpha="0.8", phi="0.5", k=10)
        for scope in ("report-all:first-score", "report-all:b-then-a-run"):
            enumeration = enumerate_outcomes(params, scope)
            assert enumeration.classes and all(c.verified for c in enumeration.classes)
        assert built == [] and kernel == []


def reference_admit(params, policy):
    """Admission probability per positive-mass cohort, in Fractions from the
    policy's best-response values: Category 1 is admitted on its accepted
    first scores, Category 2 at its optimal value after each first score."""
    values = best_response(params, policy).values
    admit = {}
    for cohort in (c for c in (C1H, C1L, C2H, C2L) if params.cohort_mass[c] > 0):
        t = cohort.type_
        if cohort.category is Category.CAT1:
            admit[cohort] = sum((params.emit(t, s) for s in Score if policy.accepts((s,))), Fraction(0))
        else:
            admit[cohort] = sum((params.emit(t, s) * values[(t, (s,))] for s in Score), Fraction(0))
    return admit


def reference_policy_lists(params):
    """Each report-all class's policies as one list, keyed by outcome: every
    product of an A-group and a B-group pattern, block after block, with
    one AdmissionPolicy per product."""
    a_groups, b_groups = (search._solve_subtrees(params, first).values() for first in Score)
    lists = {}
    for a_bits, _, _ in a_groups:
        for b_bits, _, _ in b_groups:
            policies = [AdmissionPolicy(params.k, a | b) for a in a_bits for b in b_bits]
            admit = reference_admit(params, policies[0])
            lists.setdefault(admission_key(admit), []).extend(policies)
    return lists


class TestPolicySet:
    """``OutcomeClass.policies`` stores census blocks, not policies; it must
    count, test and list what the list of every product held."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(3, 5), Fraction(4, 5)])
    @pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 2), Fraction(17, 20)])
    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_lists_every_product_in_block_order(self, k, alpha, p, phi):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        classes = enumerate_outcomes(params, "report-all").classes
        lists = reference_policy_lists(params)
        assert sorted(lists) == [c.key() for c in classes]
        for c in classes:
            policies = list(c.policies)
            assert policies == lists[c.key()]
            assert len(c.policies) == len(policies) == len(frozenset(c.policies))
            assert c.witness.policy == policies[0]
            assert all(policy in c.policies for policy in policies)

    @pytest.mark.parametrize("k", [2, 3])
    def test_contains_splits_at_the_subtrees(self, k):
        params = ModelParams(p=Fraction(9, 20), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=k)
        classes = enumerate_outcomes(params, "report-all").classes
        feasible_b = {b for bits, _, _ in search._solve_subtrees(params, Score.B).values() for b in bits}
        infeasible_b = [bits for bits, *_ in induction_entries(params.alpha, k, Score.B) if bits not in feasible_b]
        assert infeasible_b
        for c in classes:
            policy = next(iter(c.policies))
            a_half = policy.bits & c.policies.mask
            assert a_half in {a for a_bits, _, _ in search._solve_subtrees(params, Score.A).values() for a in a_bits}
            for b_half in infeasible_b:
                assert AdmissionPolicy(k, a_half | b_half) not in c.policies
            assert AdmissionPolicy(k + 1, policy.bits) not in c.policies  # another k
            assert policy.bits not in c.policies  # not a policy
            assert sum(policy in other.policies for other in classes) == 1

    def test_family_scope_blocks_hold_one_policy(self):
        params = ModelParams(p=Fraction(1, 4), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=3)
        considered = _family_policies(params.k, "report-max")
        for c in enumerate_outcomes(params, "report-max").classes:
            assert len(c.policies) == len(c.policies.blocks)
            assert list(c.policies) == [policy for policy in considered if policy in c.policies]

"""Core model: parameters, strategies, and outcome distributions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from retesting import (
    COHORTS,
    AdmissionPolicy,
    Category,
    Cohort,
    EquilibriumProfile,
    MalformedProfile,
    MissingStrategyEntry,
    ModelParams,
    Reporting,
    Score,
    StudentStrategy,
    StudentType,
    as_fraction,
    best_score_projection,
    outcome_distribution,
    report_max_reject_all,
    seq,
    seq_str,
)
from retesting.cli import MAX_K
from retesting.model import all_sequences, node
from retesting.search import verify_equilibrium


def brute_force_cat2(alpha: Fraction, k: int, stops: dict) -> dict:
    """Independent oracle: compute every sequence's mass from scratch as
    emissions times survival times the stop probability, with no recursion."""
    out: dict = {"H": {}, "L": {}}
    for t in ("H", "L"):
        for length in range(1, k + 1):
            for word in product("AB", repeat=length):
                w = "".join(word)
                path_p = Fraction(1)
                for ch in w:
                    is_a = ch == "A"
                    path_p *= alpha if (t == "H") == is_a else 1 - alpha
                alive = Fraction(1)
                for j in range(1, length):
                    alive *= 1 - stops[(t, w[:j])]
                stop = stops[(t, w)] if length < k else Fraction(1)
                mass = path_p * alive * stop
                if mass:
                    out[t][w] = mass
    return out


def to_stop_dict(strategy: StudentStrategy) -> dict:
    return {
        (t.value, seq_str(h)): f for (t, h), f in strategy.stop.items()
    }


class TestModelParams:
    def test_decimal_floats_become_exact(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        assert params.alpha == Fraction(4, 5)
        assert params.p == Fraction(3, 10)
        assert params.alpha_bar == Fraction(1, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0, alpha=0.8, phi=0.5, k=2),
            dict(p=1, alpha=0.8, phi=0.5, k=2),
            dict(p=0.3, alpha=0.5, phi=0.5, k=2),
            dict(p=0.3, alpha=1.2, phi=0.5, k=2),
            dict(p=0.3, alpha=0.8, phi=-0.1, k=2),
            dict(p=0.3, alpha=0.8, phi=0.5, k=0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_alpha_one_allowed(self):
        ModelParams(p=0.3, alpha=1, phi=0.5, k=2)

    def test_emissions(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        assert params.emit(StudentType.HIGH, Score.A) == Fraction(4, 5)
        assert params.emit(StudentType.LOW, Score.B) == Fraction(4, 5)
        assert params.emit(StudentType.LOW, Score.A) == Fraction(1, 5)

    def test_as_fraction_string(self):
        assert as_fraction("0.55") == Fraction(11, 20)


class TestNodeOrder:
    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_all_sequences_numbers_the_tree(self, k):
        nodes = all_sequences(k)
        assert list(nodes) == sorted(nodes, key=lambda s: (len(s), seq_str(s)))
        assert len(nodes) == 2 ** (k + 1) - 2
        for i, h in enumerate(nodes):
            if len(h) < k:
                assert (nodes[2 * i + 2], nodes[2 * i + 3]) == (h + (Score.A,), h + (Score.B,))
            else:
                assert 2 * i + 2 >= len(nodes)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_node_is_the_index_in_all_sequences(self, k):
        assert [node(s) for s in all_sequences(k)] == list(range(2 ** (k + 1) - 2))


class TestOutcomeDistribution:
    def test_stop_always_degenerates_to_one_test(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        dist = outcome_distribution(params, StudentStrategy.always_stop(2))
        row = dist.conditional[Cohort(Category.CAT2, StudentType.HIGH)]
        assert row[seq("A")] == Fraction(4, 5)
        assert row[seq("B")] == Fraction(1, 5)
        assert all(len(s) == 1 for s in row)

    def test_low_type_always_retakes_matches_oracle(self):
        # frozen from the exhaustive oracle: AA 1/25, AB 4/25, BA 4/25, BB 16/25
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        strategy = StudentStrategy.from_first_score(2, f_h_a=1, f_h_b=1, f_l_a=0, f_l_b=0)
        dist = outcome_distribution(params, strategy)
        row = dist.conditional[Cohort(Category.CAT2, StudentType.LOW)]
        assert row[seq("AA")] == Fraction(1, 25)
        assert row[seq("AB")] == Fraction(4, 25)
        assert row[seq("BA")] == Fraction(4, 25)
        assert row[seq("BB")] == Fraction(16, 25)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_brute_force_on_random_strategies(self, k):
        rng = random.Random(20240 + k)
        for _ in range(8):
            alpha = Fraction(rng.randint(51, 99), 100)
            params = ModelParams(p=0.3, alpha=alpha, phi=0.5, k=k)
            stops = {
                (t, h): Fraction(rng.randint(0, 4), 4)
                for t in StudentType
                for h in all_sequences(k - 1)
            }
            strategy = StudentStrategy(stops)
            dist = outcome_distribution(params, strategy)
            oracle = brute_force_cat2(
                alpha, k, {(t.value, seq_str(h)): f for (t, h), f in stops.items()}
            )
            for t in StudentType:
                row = dist.conditional[Cohort(Category.CAT2, t)]
                got = {seq_str(s): m for s, m in row.items() if m > 0}
                want = {s: m for s, m in oracle[t.value].items() if m > 0}
                assert got == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_cohort_sums_to_one(self, k):
        rng = random.Random(7 + k)
        for _ in range(10):
            params = ModelParams(
                p=Fraction(rng.randint(1, 99), 100),
                alpha=Fraction(rng.randint(51, 100), 100),
                phi=Fraction(rng.randint(0, 100), 100),
                k=k,
            )
            stops = {
                (t, h): Fraction(rng.randint(0, 10), 10)
                for t in StudentType
                for h in all_sequences(k - 1)
            }
            dist = outcome_distribution(params, StudentStrategy(stops))
            for cohort in COHORTS:
                assert sum(dist.conditional[cohort].values()) == 1

    def test_cat1_matches_cat2_when_everyone_stops(self):
        params = ModelParams(p=0.3, alpha=0.7, phi=0.4, k=3)
        dist = outcome_distribution(params, StudentStrategy.always_stop(3))
        for t in StudentType:
            assert dist.conditional[Cohort(Category.CAT1, t)] == dict(
                dist.conditional[Cohort(Category.CAT2, t)]
            )

    def test_missing_history_raises(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        partial = StudentStrategy({(StudentType.HIGH, seq("A")): 1})
        with pytest.raises(MissingStrategyEntry):
            outcome_distribution(params, partial)

    def test_unreachable_history_not_required(self):
        # stop==1 after the first test makes depth-2 histories unreachable,
        # so k=3 entries of length 2 may be omitted
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=3)
        stops = {(t, h): Fraction(1) for t in StudentType for h in all_sequences(1)}
        dist = outcome_distribution(params, StudentStrategy(stops))
        for t in StudentType:
            assert set(dist.conditional[Cohort(Category.CAT2, t)]) == {seq("A"), seq("B")}

    def test_strategy_validates_probability_range(self):
        with pytest.raises(ValueError):
            StudentStrategy({(StudentType.HIGH, seq("A")): Fraction(3, 2)})


def best_score_distribution(params: ModelParams):
    """The best-score distribution under retake-until-A behaviour: the
    chained outcome distribution, projected to best scores."""
    return best_score_projection(outcome_distribution(params, StudentStrategy.stop_after_a(params.k)))


class TestMaxScoreDistribution:
    def test_retake_until_a_probabilities(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        dist = best_score_distribution(params)
        assert dist.mass(Cohort(Category.CAT2, StudentType.HIGH), seq("A")) == Fraction(24, 25)
        assert dist.mass(Cohort(Category.CAT2, StudentType.LOW), seq("B")) == Fraction(16, 25)

    def test_k_one_equals_single_test(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=1)
        dist = best_score_distribution(params)
        for t in StudentType:
            assert dist.conditional[Cohort(Category.CAT2, t)] == dict(
                dist.conditional[Cohort(Category.CAT1, t)]
            )

    def test_noiseless_test(self):
        params = ModelParams(p=0.3, alpha=1, phi=0.5, k=3)
        dist = best_score_distribution(params)
        assert dist.mass(Cohort(Category.CAT2, StudentType.HIGH), seq("A")) == 1
        assert dist.mass(Cohort(Category.CAT2, StudentType.LOW), seq("B")) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_projected_outcome_distribution(self, k):
        # retake-after-B chaining projected to best scores must reproduce the
        # closed-form best-score table: Category 2 High reports a best A with
        # probability 1 - (1-alpha)^k, Low a best B with probability alpha^k,
        # and Category 1 reports its single test
        params = ModelParams(p=0.35, alpha=0.75, phi=0.6, k=k)
        a, ab = params.alpha, 1 - params.alpha
        closed = {
            Cohort(Category.CAT1, StudentType.HIGH): {seq("A"): a, seq("B"): ab},
            Cohort(Category.CAT1, StudentType.LOW): {seq("A"): ab, seq("B"): a},
            Cohort(Category.CAT2, StudentType.HIGH): {seq("A"): 1 - ab**k, seq("B"): ab**k},
            Cohort(Category.CAT2, StudentType.LOW): {seq("A"): 1 - a**k, seq("B"): a**k},
        }
        chained = best_score_distribution(params)
        for cohort in COHORTS:
            for s in (seq("A"), seq("B")):
                assert chained.mass(cohort, s) == closed[cohort][s]

    def test_weighted_view(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)
        dist = best_score_distribution(params)
        cohort = Cohort(Category.CAT2, StudentType.HIGH)
        assert params.cohort_mass[cohort] == Fraction(1, 2) * Fraction(3, 10)
        assert dist.mass(cohort, seq("A")) * params.cohort_mass[cohort] == Fraction(24, 25) * Fraction(3, 20)


def reference_masses(params: ModelParams, strategy: StudentStrategy, type_: StudentType) -> dict:
    """Term by term: every history whose path a Category 2 student of the type
    reaches with positive probability, with the product of the emissions and
    the continue factors along its path times its own stop probability (1 at
    length k). Reads no stop probability of an unreached history."""
    out = {}
    for length in range(1, params.k + 1):
        for h in product(Score, repeat=length):
            reach = Fraction(1)
            for j, score in enumerate(h):
                if j:
                    reach *= 1 - strategy.stop[(type_, h[:j])]
                reach *= params.emit(type_, score)
                if not reach:
                    break
            if reach:
                out[h] = reach * (strategy.stop[(type_, h)] if length < params.k else 1)
    return out


class TestOutcomeDistributionAgainstReference:
    """`outcome_distribution` runs in integers over one denominator; every
    entry must still equal the term-by-term product."""

    ALPHAS = (Fraction(51, 100), Fraction(2, 3), Fraction(4, 5), Fraction(1))

    @staticmethod
    def random_strategy(rng: random.Random, k: int) -> StudentStrategy:
        values = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4))
        return StudentStrategy(
            {(t, h): rng.choice(values) for t in StudentType for h in all_sequences(k - 1)}
        )

    def assert_matches(self, params: ModelParams, strategy: StudentStrategy) -> None:
        dist = outcome_distribution(params, strategy)
        assert list(dist.conditional) == [
            Cohort(c, t) for t in StudentType for c in Category
        ]
        for t in StudentType:
            single = {(s,): params.emit(t, s) for s in Score}
            assert dist.conditional[Cohort(Category.CAT1, t)] == single
            assert dict(dist.conditional[Cohort(Category.CAT2, t)]) == reference_masses(params, strategy, t)
        for cohort in COHORTS:
            for s, m in dist.conditional[cohort].items():
                assert dist.mass(cohort, s) * params.cohort_mass[cohort] == m * params.cohort_mass[cohort]

    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_strategies_match_the_reference(self, k, phi):
        rng = random.Random(f"reference:{k}:{phi}")
        for alpha in self.ALPHAS:
            params = ModelParams(p=Fraction(3, 10), alpha=alpha, phi=phi, k=k)
            for _ in range(6):
                self.assert_matches(params, self.random_strategy(rng, k))

    @pytest.mark.parametrize("phi", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_reject_all_witness_matches_the_reference(self, phi):
        for p in (Fraction(1, 10), Fraction(3, 20)):
            params = ModelParams(p=p, alpha=Fraction(4, 5), phi=phi, k=2)
            witness = report_max_reject_all(params).witness()
            # the Low-after-B stop is the one fractional stop of a closed form
            assert 0 < witness.strategy.stop[(StudentType.LOW, seq("B"))] < 1
            self.assert_matches(params, witness.strategy)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_missing_entry_raises_only_where_it_is_reached(self, k):
        rng = random.Random(f"missing:{k}")
        params = ModelParams(p=Fraction(3, 10), alpha=Fraction(4, 5), phi=Fraction(1, 2), k=k)
        seen = {True: 0, False: 0}
        for _ in range(3):
            full = self.random_strategy(rng, k)
            for key in full.stop:
                t, h = key
                reached = h in reference_masses(params, full, t)
                partial = StudentStrategy({kv: f for kv, f in full.stop.items() if kv != key})
                seen[reached] += 1
                if reached:
                    with pytest.raises(MissingStrategyEntry):
                        outcome_distribution(params, partial)
                else:
                    assert outcome_distribution(params, partial) == outcome_distribution(params, full)
                profile = EquilibriumProfile(
                    AdmissionPolicy.first_score(k), partial, "first_score", Reporting.ALL
                )
                with pytest.raises(MalformedProfile):
                    verify_equilibrium(params, profile)
        # at k = 2 every history in a strategy is a first score, always reached
        assert seen[True] and (seen[False] or k == 2)


class TestReadOnlyStrategy:
    def test_item_assignment_raises(self):
        strategy = StudentStrategy({(StudentType.HIGH, seq("A")): 1})
        with pytest.raises(TypeError):
            strategy.stop[(StudentType.HIGH, seq("A"))] = Fraction(0)
        with pytest.raises(TypeError):
            del strategy.stop[(StudentType.HIGH, seq("A"))]
        assert strategy.stop[(StudentType.HIGH, seq("A"))] == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shared_canonical_strategies_cannot_be_changed(self, k):
        for build in (StudentStrategy.always_stop, StudentStrategy.stop_after_a):
            shared = build(k)
            assert build(k) is shared
            for key in shared.stop:
                with pytest.raises(TypeError):
                    shared.stop[key] = Fraction(1, 2)

    def test_equal_to_dict_built_strategies(self):
        stops = {(t, h): (1 if Score.A in h else 0) for t in StudentType for h in all_sequences(2)}
        assert StudentStrategy.stop_after_a(3) == StudentStrategy(stops)
        assert StudentStrategy.stop_after_a(3).stop == {kv: Fraction(f) for kv, f in stops.items()}
        assert StudentStrategy.always_stop(3) != StudentStrategy(stops)


class TestCohortHash:
    def test_hash_is_consistent_with_equality(self):
        for cohort in COHORTS:
            twin = Cohort(cohort.category, cohort.type_)
            assert twin == cohort and hash(twin) == hash(cohort)
            assert {cohort: 1}[twin] == 1
        assert len({hash(c) for c in COHORTS}) == len(COHORTS)

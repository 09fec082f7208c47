"""Monte Carlo simulation: determinism, pinned reports, convergence, and
the block-wise, multi-threaded draw against a whole-matrix reference.

``reference_simulate`` draws every student's row in one n x (2k+1) matrix
from one stream before counting anything, kept here only as the oracle: the
block-wise ``simulate`` must give byte-identical reports for any number of
worker threads.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from retesting import (
    Category,
    EmptyPopulation,
    MalformedProfile,
    ModelParams,
    SimConfig,
    construct_first_score_equilibrium,
    construct_non_first_score_equilibrium,
    fairness_report,
    outcome_distribution,
    report_max_reject_all,
    report_max_separating,
    seq_str,
    simulate,
)
from retesting.model import COHORTS, all_sequences

sim = importlib.import_module("retesting.simulate")

PARAMS = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=2)


# sha256 of the report bytes per (profile, k, seed) at n=20000, alpha 0.8,
# phi 0.5 and p 0.5; the reject-all witness exists at k=2 only, at p 0.25
PINNED_REPORTS = {
    ('separating', 1, 1): "546ba8e6acd8efd453f0300934200dd82818ad79bf18434d0fce791edfabd609",
    ('separating', 1, 2): "2c07782db4480e1809c2fe2d00eb8ae7d2774d0b3b6636bd719d4aba3a4ce095",
    ('first-score', 1, 1): "546ba8e6acd8efd453f0300934200dd82818ad79bf18434d0fce791edfabd609",
    ('first-score', 1, 2): "2c07782db4480e1809c2fe2d00eb8ae7d2774d0b3b6636bd719d4aba3a4ce095",
    ('separating', 2, 1): "8fb5f0b900a92c459540683c2be7ee2344bc80d33267f559b59729bc8c969f30",
    ('separating', 2, 2): "9eb549ec8e4e103eaed1a6dd46b031e1ede6afe4f55ac9511d962400f70c8913",
    ('first-score', 2, 1): "4eb937832683405341b7f72d493c1dd251298f6391225498102fab189bef4a6b",
    ('first-score', 2, 2): "da5a0586090c9e0e273cddc067aa5fe9b25a4df23dea382f25ef1a256a9aaebd",
    ('reject-all', 2, 1): "32141dc70bd77ae7add5a1f02158395189552dd67abf53c879d4179cf7869831",
    ('reject-all', 2, 2): "76b630f99b7a23db8cbab6f3519284b958fa2aed158b4fb03d4104209752380e",
    ('non-first-score', 2, 1): "8fb5f0b900a92c459540683c2be7ee2344bc80d33267f559b59729bc8c969f30",
    ('non-first-score', 2, 2): "9eb549ec8e4e103eaed1a6dd46b031e1ede6afe4f55ac9511d962400f70c8913",
    ('separating', 3, 1): "33838ff1b63b08df42df7fb868bd430adc3fd8f855bc00591145dd08d4ab76d1",
    ('separating', 3, 2): "cdf4b60b38197427c29d19f65b75a3837c22625b2f5a2fb73eb735307a2aec2f",
    ('first-score', 3, 1): "8a3bc1bbf2ed86d4bc85f933c14c9be6928b82cf3f3f43ec6c7ee891d73fb568",
    ('first-score', 3, 2): "647ff66e75e15fbf97bbc0e2dbfce0c131a85e3b5d2609dcbb07d4e891df897a",
    ('non-first-score', 3, 1): "f6ee5ebdeac14bfd12e110e9cbdeebf74c7d560ce762b0b4c53fd210f4c5cbdf",
    ('non-first-score', 3, 2): "f91855f72b40a7640b6cd2e9051e046c448f752c43e0110517461f599f074700",
    ('separating', 4, 1): "eeac31b441193c0a706f9c4184f816111213d55b6f70a6526805b98dddcebb44",
    ('separating', 4, 2): "30f77bdb35e7597ae422c9ea2b1b27dcdd54394187a6f1e6462de896b01327dd",
    ('first-score', 4, 1): "a432132eeec4709641c1395b2fdc20dbdeaafa6ad50cef42293b1a6f79208e83",
    ('first-score', 4, 2): "0d899f4745bfe09962ee02d033169090f0230434901e65b3a024c62ea613ce81",
    ('non-first-score', 4, 1): "ed958755ab5ecf7c4097e99ad2684c8361dd843daf8808dd0e289214dc1d62f5",
    ('non-first-score', 4, 2): "8edbe133e5125c57385c3b90d766c12fb0989cd57fdb9ac6492c3c1ad97223d3",
}


def reference_simulate(config: SimConfig) -> sim.EmpiricalReport:
    params, profile, n = config.params, config.profile, config.n
    k = params.k
    rng = np.random.default_rng(config.seed)
    u = rng.random((n, 2 + k + max(k - 1, 0)))

    stop = sim._stop_tables(params, profile)
    accept = sim._accept_table(params, profile)

    phi, p, alpha = float(params.phi), float(params.p), float(params.alpha)
    cat2 = u[:, 0] >= phi
    high = u[:, 1] < p
    p_a = np.where(high, alpha, 1.0 - alpha)
    b = u[:, 2 : 2 + k] >= p_a[:, None]

    node = b[:, 0].astype(np.int64)
    type_index = (~high).astype(np.int64)
    active = cat2
    for j in range(1, k):
        if not active.any():
            break
        go = active & (u[:, 2 + k + j - 1] >= stop[type_index, node])
        node = np.where(go, 2 * node + 2 + b[:, j], node)
        active = go

    nodes = all_sequences(k)
    cohort = 2 * cat2 + high
    counts = np.bincount(cohort * len(nodes) + node, minlength=4 * len(nodes)).reshape(4, -1)
    rows = {"(1,H)": counts[1], "(1,L)": counts[0], "(2,H)": counts[3], "(2,L)": counts[2]}
    cohort_totals = {name: int(row.sum()) for name, row in rows.items()}
    admitted = {name: int(row[accept].sum()) for name, row in rows.items()}
    seq_counts = {name: {seq_str(nodes[i]): int(row[i]) for i in np.flatnonzero(row)}
                  for name, row in rows.items()}

    def rate(num: int, den: int) -> Optional[float]:
        return None if den == 0 else num / den

    fnr = {
        "cat1": rate(cohort_totals["(1,H)"] - admitted["(1,H)"], cohort_totals["(1,H)"]),
        "cat2": rate(cohort_totals["(2,H)"] - admitted["(2,H)"], cohort_totals["(2,H)"]),
    }
    fpr = {
        "cat1": rate(admitted["(1,L)"], cohort_totals["(1,L)"]),
        "cat2": rate(admitted["(2,L)"], cohort_totals["(2,L)"]),
    }
    admitted_high = admitted["(1,H)"] + admitted["(2,H)"]
    admitted_low = admitted["(1,L)"] + admitted["(2,L)"]
    total_admitted = admitted_high + admitted_low
    total_low = cohort_totals["(1,L)"] + cohort_totals["(2,L)"]
    return sim.EmpiricalReport(
        n=n,
        seed=config.seed,
        cohort_totals=cohort_totals,
        seq_counts=seq_counts,
        admitted=admitted,
        fnr=fnr,
        fpr=fpr,
        ppv=rate(admitted_high, total_admitted),
        npv=rate(total_low - admitted_low, n - total_admitted),
        college_payoff=(admitted_high - admitted_low) / n,
    )


def first_score_config(n=200_000, seed=7) -> SimConfig:
    return SimConfig(
        n=n, seed=seed, params=PARAMS, profile=construct_first_score_equilibrium(PARAMS)
    )


class TestDeterminism:
    def test_identical_config_identical_bytes(self):
        a = simulate(first_score_config()).to_json()
        b = simulate(first_score_config()).to_json()
        assert a == b

    def test_seed_changes_report(self):
        a = simulate(first_score_config(seed=1)).to_json()
        b = simulate(first_score_config(seed=2)).to_json()
        assert a != b

    @pytest.mark.parametrize("name,k,seed", sorted(PINNED_REPORTS))
    def test_report_bytes_pinned(self, name, k, seed):
        params = ModelParams(p="0.25" if name == "reject-all" else "0.5", alpha=0.8, phi=0.5, k=k)
        if name == "separating":
            profile = report_max_separating(params)
        elif name == "first-score":
            profile = construct_first_score_equilibrium(params)
        elif name == "reject-all":
            profile = report_max_reject_all(params).witness()
        else:
            profile = construct_non_first_score_equilibrium(params, 2)
        text = simulate(SimConfig(n=20_000, seed=seed, params=params, profile=profile)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[(name, k, seed)]

    def test_empty_population_rejected(self):
        with pytest.raises(EmptyPopulation):
            SimConfig(n=0, seed=1, params=PARAMS,
                      profile=construct_first_score_equilibrium(PARAMS))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SimConfig(n=10, seed=-1, params=PARAMS,
                      profile=construct_first_score_equilibrium(PARAMS))

    def test_profile_of_another_k_rejected(self):
        deeper = construct_first_score_equilibrium(ModelParams(p=0.3, alpha=0.8, phi=0.5, k=3))
        with pytest.raises(MalformedProfile, match="policy of k=3"):
            SimConfig(n=10, seed=1, params=PARAMS, profile=deeper)


class TestBlocks:
    BLOCK = sim._BLOCK

    # the trailing-run profile needs a second test, so it starts at k=2
    @pytest.mark.parametrize("name,k", [(name, k) for k in range(1, 5)
                                        for name in ("first-score", "separating", "trailing-run")
                                        if (name, k) != ("trailing-run", 1)])
    def test_blocks_match_whole_matrix(self, name, k):
        params = ModelParams(p="0.5", alpha=0.8, phi=0.5, k=k)
        if name == "first-score":
            profile = construct_first_score_equilibrium(params)
        elif name == "separating":
            profile = report_max_separating(params)
        else:
            profile = construct_non_first_score_equilibrium(params, 2)
        for n in (1, self.BLOCK - 1, self.BLOCK, 2 * self.BLOCK + 7, 5 * self.BLOCK):
            config = SimConfig(n=n, seed=3, params=params, profile=profile)
            assert simulate(config).to_json() == reference_simulate(config).to_json(), n

    def test_peak_memory_does_not_grow_with_n(self):
        params = ModelParams(p=0.3, alpha=0.8, phi=0.5, k=3)
        profile = construct_first_score_equilibrium(params)

        def peak(n: int) -> int:
            tracemalloc.start()
            try:
                simulate(SimConfig(n=n, seed=1, params=params, profile=profile))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(1_000_000)
        # the whole n x 7 float64 matrix at n=10^6 is 56 MB
        assert large < 16 * 2**20
        assert large <= 1.25 * small

    def test_peak_memory_with_four_workers_does_not_grow_with_n(self, monkeypatch):
        monkeypatch.setattr(sim, "_workers", lambda: 4)
        self.test_peak_memory_does_not_grow_with_n()

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_worker_count_does_not_change_report(self, monkeypatch, workers, k):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(sim, "_workers", lambda: workers)
        monkeypatch.setattr(sim.threading, "Thread", Recorded)
        params = ModelParams(p="0.5", alpha=0.8, phi=0.5, k=k)
        profile = report_max_separating(params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a shared write would race
        try:
            for n in (1, self.BLOCK - 1, self.BLOCK, 2 * self.BLOCK + 7, 5 * self.BLOCK):
                config = SimConfig(n=n, seed=3, params=params, profile=profile)
                assert simulate(config).to_json() == reference_simulate(config).to_json(), n
                # the caller runs the first span itself
                assert len(started) == min(workers, -(-n // self.BLOCK)) - 1, n
                started.clear()
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_raised_in_caller(self, monkeypatch):
        generator = np.random.Generator

        def fail_off_main_thread(bit_generator):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room for the block")
            return generator(bit_generator)

        monkeypatch.setattr(sim, "_workers", lambda: 2)
        monkeypatch.setattr(np.random, "Generator", fail_off_main_thread)
        before = threading.active_count()
        config = SimConfig(n=2 * self.BLOCK, seed=1, params=PARAMS,
                           profile=construct_first_score_equilibrium(PARAMS))
        with pytest.raises(MemoryError, match="no room"):
            simulate(config)
        assert threading.active_count() == before


class TestConvergence:
    def test_first_score_rates_concentrate(self):
        report = simulate(first_score_config())
        analytic = fairness_report(PARAMS, construct_first_score_equilibrium(PARAMS))
        for cat, key in ((Category.CAT1, "cat1"), (Category.CAT2, "cat2")):
            want = float(analytic.fnr[cat])
            count = report.cohort_totals["(1,H)" if key == "cat1" else "(2,H)"]
            tol = 4 * math.sqrt(want * (1 - want) / count)
            assert abs(report.fnr[key] - want) <= tol
            want = float(analytic.fpr[cat])
            count = report.cohort_totals["(1,L)" if key == "cat1" else "(2,L)"]
            tol = 4 * math.sqrt(want * (1 - want) / count)
            assert abs(report.fpr[key] - want) <= tol

    def test_separating_rates_concentrate(self):
        profile = report_max_separating(PARAMS)
        config = SimConfig(n=200_000, seed=11, params=PARAMS, profile=profile)
        report = simulate(config)
        analytic = fairness_report(PARAMS, profile)
        count = report.cohort_totals["(2,H)"]
        want = float(analytic.fnr[Category.CAT2])  # 0.04
        tol = 4 * math.sqrt(want * (1 - want) / count)
        assert abs(report.fnr["cat2"] - want) <= tol

    def test_sequence_frequencies_match_distribution(self):
        profile = report_max_separating(PARAMS)
        config = SimConfig(n=200_000, seed=3, params=PARAMS, profile=profile)
        report = simulate(config)
        dist = outcome_distribution(PARAMS, profile.strategy)
        names = {"(1,H)": COHORTS[0], "(1,L)": COHORTS[1],
                 "(2,H)": COHORTS[2], "(2,L)": COHORTS[3]}
        for name, cohort in names.items():
            total = report.cohort_totals[name]
            if total == 0:
                continue
            expected = {seq_str(s): float(m) for s, m in dist.conditional[cohort].items()}
            for s, want in expected.items():
                got = report.seq_counts[name].get(s, 0) / total
                tol = 4 * math.sqrt(max(want * (1 - want), 1e-12) / total)
                assert abs(got - want) <= tol, (name, s, got, want)
            # nothing outside the support
            assert set(report.seq_counts[name]) <= set(expected)

    def test_noiseless_has_exactly_zero_errors(self):
        params = ModelParams(p=0.3, alpha=1, phi=0.5, k=2)
        profile = report_max_separating(params)
        report = simulate(SimConfig(n=50_000, seed=5, params=params, profile=profile))
        assert report.fnr == {"cat1": 0.0, "cat2": 0.0}
        assert report.fpr == {"cat1": 0.0, "cat2": 0.0}
        assert report.ppv == 1.0 and report.npv == 1.0

    def test_payoff_tracks_closed_form(self):
        report = simulate(first_score_config())
        assert abs(report.college_payoff - 0.1) < 0.01


class TestSeedBattery:
    def test_hundred_seed_concentration(self):
        # 4-sigma bound per metric; at least 99 of 100 seeds must pass all
        profile = report_max_separating(PARAMS)
        analytic = fairness_report(PARAMS, profile)
        targets = {
            ("fnr", "cat1", "(1,H)"): float(analytic.fnr[Category.CAT1]),
            ("fnr", "cat2", "(2,H)"): float(analytic.fnr[Category.CAT2]),
            ("fpr", "cat1", "(1,L)"): float(analytic.fpr[Category.CAT1]),
            ("fpr", "cat2", "(2,L)"): float(analytic.fpr[Category.CAT2]),
        }
        ok = 0
        for seed in range(100):
            report = simulate(SimConfig(n=100_000, seed=seed, params=PARAMS,
                                        profile=profile))
            good = True
            for (metric, cat, cohort), want in targets.items():
                got = getattr(report, metric)[cat]
                count = report.cohort_totals[cohort]
                tol = 4 * math.sqrt(want * (1 - want) / count)
                good &= abs(got - want) <= tol
            ok += good
        assert ok >= 99


class TestK3Paths:
    def test_three_test_histories_exercised(self):
        from retesting import seq

        params = ModelParams(p=0.45, alpha=0.8, phi=0.5, k=3)
        profile = construct_non_first_score_equilibrium(params, 3)
        report = simulate(SimConfig(n=100_000, seed=9, params=params, profile=profile))
        # students chasing the BAA run produce three-score sequences
        assert any(len(s) == 3 for s in report.seq_counts["(2,H)"])
        dist = outcome_distribution(params, profile.strategy)
        want = float(dist.conditional[COHORTS[2]][seq("BAA")])
        got = report.seq_counts["(2,H)"].get("BAA", 0) / report.cohort_totals["(2,H)"]
        tol = 4 * math.sqrt(want * (1 - want) / report.cohort_totals["(2,H)"])
        assert abs(got - want) <= tol

"""Seeded Monte Carlo validation of equilibrium profiles.

Each simulated student owns one row of a pre-drawn uniform matrix, so the
random substream of student i is a pure function of (seed, i). Results are
therefore bit-reproducible for a fixed seed and independent of how the
population is partitioned for aggregation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibria import EquilibriumProfile
from .errors import EmptyPopulation
from .model import (
    ModelParams,
    Score,
    ScoreSeq,
    StudentType,
    all_sequences,
)


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int
    params: ModelParams
    profile: EquilibriumProfile

    def __post_init__(self) -> None:
        if self.n < 1:
            raise EmptyPopulation(f"population size must be >= 1, got {self.n}")


@dataclass
class EmpiricalReport:
    """Counts and rates from one simulated population."""

    n: int
    seed: int
    cohort_totals: dict[str, int]
    seq_counts: dict[str, dict[str, int]]  # cohort -> reported sequence -> count
    admitted: dict[str, int]
    fnr: dict[str, Optional[float]]  # keyed "cat1"/"cat2"
    fpr: dict[str, Optional[float]]
    ppv: Optional[float]
    npv: Optional[float]
    college_payoff: float

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "seed": self.seed,
            "cohort_totals": self.cohort_totals,
            "seq_counts": self.seq_counts,
            "admitted": self.admitted,
            "fnr": self.fnr,
            "fpr": self.fpr,
            "ppv": self.ppv,
            "npv": self.npv,
            "college_payoff": self.college_payoff,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _seq_code(s: ScoreSeq) -> int:
    code = 0
    for x in s:
        code = code * 2 + (1 if x is Score.A else 0)
    return code


def _stop_tables(params: ModelParams, profile: EquilibriumProfile) -> list[np.ndarray]:
    """tables[j][t, code]: stop probability after test j+1 (0-based type)."""
    tables = [np.zeros((2, 2**length)) for length in range(1, params.k)]
    for h in all_sequences(params.k - 1):
        for ti, t in enumerate(StudentType):
            tables[len(h) - 1][ti, _seq_code(h)] = float(profile.strategy.stop_prob(t, h, params.k))
    return tables


def _accept_table(params: ModelParams, profile: EquilibriumProfile) -> list[np.ndarray]:
    """accept[length-1][code] for every reportable sequence."""
    tables = [np.zeros(2**length, dtype=bool) for length in range(1, params.k + 1)]
    for s in all_sequences(params.k):
        tables[len(s) - 1][_seq_code(s)] = profile.policy.accepts(s)
    return tables


def simulate(config: SimConfig, chunks: int = 1) -> EmpiricalReport:
    """Simulate ``n`` students playing the profile and tabulate outcomes.

    ``chunks`` only partitions the aggregation (counts are associative); the
    report is identical for any chunk count.
    """
    params, profile, n = config.params, config.profile, config.n
    if n < 1:
        raise EmptyPopulation(f"population size must be >= 1, got {n}")
    k = params.k
    cols = 2 + k + max(k - 1, 0)
    rng = np.random.default_rng(config.seed)
    u = rng.random((n, cols))

    stop_tables = _stop_tables(params, profile)
    accept_tables = _accept_table(params, profile)

    phi, p, alpha = float(params.phi), float(params.p), float(params.alpha)

    counts: dict[tuple[int, int, int, int], int] = {}  # (cat2, high, length, code) -> count
    bounds = [(i * n) // max(chunks, 1) for i in range(max(chunks, 1) + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        block = u[lo:hi]
        m = hi - lo
        cat2 = block[:, 0] >= phi
        high = block[:, 1] < p
        p_a = np.where(high, alpha, 1.0 - alpha)
        scores = block[:, 2 : 2 + k] < p_a[:, None]  # True where the test came up A

        length = np.ones(m, dtype=np.int64)
        code = scores[:, 0].astype(np.int64)
        active = cat2.copy()
        for j in range(1, k):
            if not active.any():
                break
            table = stop_tables[j - 1]
            f = table[(~high).astype(np.int64), code % (2**j)]
            stop = block[:, 2 + k + j - 1] < f
            go = active & ~stop
            code = np.where(go, code * 2 + scores[:, j], code)
            length = np.where(go, j + 1, length)
            active = go

        keys = (
            cat2.astype(np.int64) * (2 * (k + 1) * 2**k)
            + high.astype(np.int64) * ((k + 1) * 2**k)
            + length * (2**k)
            + code
        )
        uniq, cnt = np.unique(keys, return_counts=True)
        for key, c in zip(uniq.tolist(), cnt.tolist()):
            cat2_i, rest = divmod(key, 2 * (k + 1) * 2**k)
            high_i, rest = divmod(rest, (k + 1) * 2**k)
            length_i, code_i = divmod(rest, 2**k)
            tup = (cat2_i, high_i, length_i, code_i)
            counts[tup] = counts.get(tup, 0) + c

    def code_to_seq(length: int, code: int) -> str:
        bits = [(code >> (length - 1 - i)) & 1 for i in range(length)]
        return "".join("A" if b else "B" for b in bits)

    cohort_name = {
        (0, 1): "(1,H)",
        (0, 0): "(1,L)",
        (1, 1): "(2,H)",
        (1, 0): "(2,L)",
    }
    cohort_totals = {name: 0 for name in cohort_name.values()}
    admitted = {name: 0 for name in cohort_name.values()}
    seq_counts: dict[str, dict[str, int]] = {name: {} for name in cohort_name.values()}
    for (cat2_i, high_i, length_i, code_i), c in sorted(counts.items()):
        name = cohort_name[(cat2_i, high_i)]
        s = code_to_seq(length_i, code_i)
        cohort_totals[name] += c
        seq_counts[name][s] = seq_counts[name].get(s, 0) + c
        if accept_tables[length_i - 1][code_i]:
            admitted[name] += c

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
    rejected = n - total_admitted
    return EmpiricalReport(
        n=n,
        seed=config.seed,
        cohort_totals=cohort_totals,
        seq_counts=seq_counts,
        admitted=admitted,
        fnr=fnr,
        fpr=fpr,
        ppv=rate(admitted_high, total_admitted),
        npv=rate(total_low - admitted_low, rejected),
        college_payoff=(admitted_high - admitted_low) / n,
    )

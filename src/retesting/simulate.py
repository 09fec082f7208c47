"""Seeded Monte Carlo validation of equilibrium profiles.

Student i owns row i of one uniform stream ``default_rng(seed)``, so their
random numbers are a pure function of (seed, i), and results are
bit-reproducible for a fixed seed. The stream is drawn in fixed-size blocks
of students, and successive blocks are successive rows of that stream, so
memory stays O(block) whatever n is. Students walk the game tree by node
number (see :func:`retesting.model.all_sequences`) over one stop table and
one accept table, and are counted per (cohort, node).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .equilibria import EquilibriumProfile
from .errors import EmptyPopulation, MalformedProfile
from .model import (
    ModelParams,
    StudentType,
    all_sequences,
    seq_str,
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
        if self.profile.policy.k != self.params.k:
            raise MalformedProfile(f"a policy of k={self.profile.policy.k} does not fit k={self.params.k}")


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
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _stop_tables(params: ModelParams, profile: EquilibriumProfile) -> np.ndarray:
    """stop[t, node]: stop probability of type t (High 0) at every history
    shorter than k, indexed by its node in :func:`all_sequences`."""
    histories = all_sequences(params.k - 1)
    return np.array([[float(profile.strategy.stop_prob(t, h, params.k)) for h in histories]
                     for t in StudentType])


def _accept_table(params: ModelParams, profile: EquilibriumProfile) -> np.ndarray:
    """accept[node] for every reportable sequence."""
    return np.array([profile.policy.accepts(s) for s in all_sequences(params.k)], dtype=bool)


# Students drawn per block. At n=10^6 and k=3 or 8, blocks of 2^13 to 2^15
# rows ran fastest; larger ones were slower and only add memory.
_BLOCK = 1 << 14


def simulate(config: SimConfig) -> EmpiricalReport:
    """Simulate ``n`` students playing the profile and tabulate outcomes.

    Each student walks the game tree from the node of their first score; a
    Category 2 student who tests again moves from node i to 2i+2 on an A and
    2i+3 on a B.
    """
    params, profile, n = config.params, config.profile, config.n
    k = params.k
    width = 2 + k + max(k - 1, 0)
    stop = _stop_tables(params, profile)
    accept = _accept_table(params, profile)
    nodes = all_sequences(k)
    phi, p, alpha = float(params.phi), float(params.p), float(params.alpha)

    rng = np.random.default_rng(config.seed)
    counts = np.zeros(4 * len(nodes), dtype=np.int64)
    for start in range(0, n, _BLOCK):
        # one row per student: category, type, k scores, k-1 stop draws
        u = rng.random((min(_BLOCK, n - start), width))
        cat2 = u[:, 0] >= phi
        high = u[:, 1] < p
        p_a = np.where(high, alpha, 1.0 - alpha)
        b = u[:, 2 : 2 + k] >= p_a[:, None]  # True where the test came up B

        node = b[:, 0].astype(np.int64)
        type_index = (~high).astype(np.int64)
        active = cat2
        for j in range(1, k):
            if not active.any():
                break
            go = active & (u[:, 2 + k + j - 1] >= stop[type_index, node])
            node = np.where(go, 2 * node + 2 + b[:, j], node)
            active = go
        cohort = 2 * cat2 + high  # 0 (1,L), 1 (1,H), 2 (2,L), 3 (2,H)
        counts += np.bincount(cohort * len(nodes) + node, minlength=len(counts))
    counts = counts.reshape(4, -1)
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

"""Seeded Monte Carlo validation of equilibrium profiles.

Student i owns row i of one uniform stream ``default_rng(seed)``, so their
random numbers are a pure function of (seed, i), and results are
bit-reproducible for a fixed seed. The students are split into one span of
whole blocks per usable CPU (at most four), each simulated on its own thread
from its own PCG64 generator, advanced to the first row of its span. PCG64
spends one 64-bit output per double, so every span reads exactly the rows
that one stream would give it, and the report bytes do not depend on how
many CPUs ran it. A span is drawn block by block into one reused buffer, so
memory stays O(workers x block) whatever n is. Students walk the game tree
by node number (see :func:`retesting.model.all_sequences`) over one stop
table and one accept table, and are counted per (cohort, node).
"""

from __future__ import annotations

import json
import os
import threading
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
# Most worker threads one simulation starts. Each holds one block of draws
# and its scratch, so this bounds memory on a host with many CPUs.
_MAX_WORKERS = 4


def _workers() -> int:
    """Worker threads to simulate on: the CPUs this process may run on, at
    most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, _MAX_WORKERS)


def simulate(config: SimConfig) -> EmpiricalReport:
    """Simulate ``n`` students playing the profile and tabulate outcomes.

    Each student walks the game tree from the node of their first score; a
    Category 2 student who tests again moves from node i to 2i+2 on an A and
    2i+3 on a B.
    """
    params, profile, n = config.params, config.profile, config.n
    k = params.k
    width = 2 + k + max(k - 1, 0)
    # the stop probability of type t (High 0) at node i is at 2i + t
    thresholds = _stop_tables(params, profile).T.ravel()
    accept = _accept_table(params, profile)
    nodes = all_sequences(k)
    size = len(nodes)
    phi, p, alpha = float(params.phi), float(params.p), float(params.alpha)
    p_a = np.array([1.0 - alpha, alpha])  # P(A) of a Low (0) and a High (1) student

    # one span of whole blocks per worker; successive spans are successive
    # rows of the stream, so the counts do not depend on the worker count
    blocks = -(-n // _BLOCK)
    workers = min(_workers(), blocks)
    bounds = [min(n, blocks * w // workers * _BLOCK) for w in range(workers + 1)]
    # Every large array a worker writes is made here, before any thread
    # starts, so peak memory does not depend on how the threads interleave.
    height = min(_BLOCK, n)
    draws = np.empty((workers, height, width))
    floats = np.empty((workers, 2, height))
    ints = np.empty((workers, 2, height), dtype=np.intp)
    counts = np.zeros((workers, 4 * size), dtype=np.int64)

    def count(w: int) -> None:
        """Add the counts of the students of span w to ``counts[w]``."""
        bit_generator = np.random.PCG64(config.seed)
        # each double takes one 64-bit output, so this skips the earlier rows
        bit_generator.advance(bounds[w] * width)
        rng = np.random.Generator(bit_generator)
        for start in range(bounds[w], bounds[w + 1], _BLOCK):
            m = min(_BLOCK, bounds[w + 1] - start)
            # one row per student: category, type, k scores, k-1 stop draws
            u = rng.random(out=draws[w, :m])
            p_own, cut = floats[w, :, :m]
            node, key = ints[w, :, :m]
            cat2 = u[:, 0] >= phi
            high = u[:, 1] < p
            low = 1 - high.view(np.uint8)
            # mode="clip" writes straight into out; every index is in range
            p_a.take(high.view(np.uint8), out=p_own, mode="clip")
            node[...] = u[:, 2] >= p_own  # 1 where the first test came up B
            active = cat2
            for j in range(1, k):
                if not active.any():
                    break
                np.multiply(node, 2, out=key)
                key += low
                thresholds.take(key, out=cut, mode="clip")  # thresholds[2 * node + low]
                go = active & (u[:, 1 + k + j] >= cut)
                np.add(node, 2, out=key)
                key += u[:, 2 + j] >= p_own
                key *= go
                node += key  # to 2i+2 on an A and 2i+3 on a B, where go
                active = go
            key[...] = 2 * cat2.view(np.uint8) + high  # 0 (1,L), 1 (1,H), 2 (2,L), 3 (2,H)
            key *= size
            node += key
            counts[w] += np.bincount(node, minlength=4 * size)

    errors: list[BaseException] = []

    def work(w: int) -> None:
        try:
            count(w)
        except BaseException as exc:  # raised again below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    counts = counts.sum(axis=0).reshape(4, -1)
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

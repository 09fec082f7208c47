"""Two traced runs of one workload with one seed give identical per-layer counts.

Run with ``python3 -m pytest bench/tests``. Each run is capped at a few ops, so
the whole module takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
OPS = {"census-k3": 3, "point-queries": 3, "sweep-closed-form": 12, "simulate-mc": 2}
# a count each workload must exercise, so an all-zero trace cannot pass
EXERCISED = {
    "census-k3": "simplex.solves",
    "point-queries": "search.intervals.lp_solves",
    "sweep-closed-form": "model.outcome_distribution.calls",
    "simulate-mc": "simulate.calls",
}


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "120", "--trace", "1", "--ops", str(OPS[workload])],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count/op", "count") or name == "simplex.feasible_ratio"
    }


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_counts_repeat(workload):
    first = traced_counts(workload, seed=7)
    assert first == traced_counts(workload, seed=7)
    assert first["trace.ops"] == OPS[workload]
    assert first[EXERCISED[workload]] > 0
    for name in ("search.induction.cache_hits", "search.induction.cache_misses",
                 "search.intervals.lp_solves", "simplex.rows", "simplex.cols",
                 "simplex.infeasible"):
        assert name in first

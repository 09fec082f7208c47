"""Outside-in tracing: spans and counts around calls into the program's modules.

``Recorder.install`` replaces each traced function with a wrapper, in every
``retesting`` module that binds it (``from .model import outcome_distribution``
binds it in four more modules). A wrapper records a span only while an op is
running, so set-up and output checks stay untraced. Spans are kept in memory
and written out once, by ``Recorder.write``.

A layer's self time is the duration of its spans minus the time of their
child spans. A span counts as a call into its layer only when its parent span
belongs to another layer, so a layer calling itself is one call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# Every layer a span can belong to; one with no wrapped function left in the
# program is reported as absent.
LAYERS = (
    "search.enumerate",
    "search.intervals",
    "search.verify",
    "search.best_response",
    "simplex",
    "model.outcome_distribution",
    "beliefs",
    "equilibria.construct",
    "metrics.fairness_report",
    "metrics.compare_policies",
    "simulate",
    "simulate.tables",
    "cli",
)


def _bind(fn: Callable, args: tuple, kwargs: dict) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_lp(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict, result) -> None:
    bound = _bind(fn, args, kwargs)
    rec.counts["simplex.rows"] += len(bound["a_ub"]) + len(bound["a_eq"])
    rec.counts["simplex.cols"] += bound["n"]
    if any(v != 0 for v in bound["c"]):
        rec.counts["simplex.optimize_solves"] += 1
    if result.status == "infeasible":
        rec.counts["simplex.infeasible"] += 1
    if rec.depth["search.intervals"]:
        rec.counts["search.intervals.lp_solves"] += 1


def _count_reject(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict, result) -> None:
    if not result.ok:
        rec.counts["search.verify.rejects"] += 1


def _count_students(rec: "Recorder", fn: Callable, args: tuple, kwargs: dict, result) -> None:
    rec.counts["simulate.students"] += _bind(fn, args, kwargs)["config"].n


# (layer, module, attribute, hook run on each successful call). An attribute
# may name a method as "Class.method".
TARGETS = (
    ("search.enumerate", "retesting.search", "enumerate_outcomes", None),
    ("search.intervals", "retesting.search", "free_stop_intervals", None),
    ("search.verify", "retesting.search", "verify_equilibrium", _count_reject),
    ("search.best_response", "retesting.search", "best_response", None),
    ("simplex", "retesting._simplex", "solve", _count_lp),
    ("model.outcome_distribution", "retesting.model", "outcome_distribution", None),
    ("beliefs", "retesting.beliefs", "compute_beliefs", None),
    ("beliefs", "retesting.beliefs", "posterior", None),
    ("beliefs", "retesting.beliefs", "posterior_from_distribution", None),
    ("beliefs", "retesting.beliefs", "posterior_max", None),
    ("beliefs", "retesting.beliefs", "prefix_belief", None),
    ("equilibria.construct", "retesting.equilibria", "construct_first_score_equilibrium", None),
    ("equilibria.construct", "retesting.equilibria", "construct_non_first_score_equilibrium", None),
    ("equilibria.construct", "retesting.equilibria", "report_max_separating", None),
    ("equilibria.construct", "retesting.equilibria", "report_max_reject_all", None),
    ("equilibria.construct", "retesting.equilibria", "RejectAllFamily.witness", None),
    ("metrics.fairness_report", "retesting.metrics", "fairness_report", None),
    ("metrics.compare_policies", "retesting.metrics", "compare_policies", None),
    ("simulate", "retesting.simulate", "simulate", _count_students),
    ("simulate.tables", "retesting.simulate", "_stop_tables", None),
    ("simulate.tables", "retesting.simulate", "_accept_table", None),
    ("cli", "retesting.cli", "main", None),
)

# The alpha-keyed best-response cache; its hit and miss deltas are counted
# per op rather than traced as spans.
INDUCTION_CACHE = ("retesting.search", "_subtree_induction")


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # (layer, start, end, parent index or -1, op id)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self.absent: list[str] = []
        self.present: set[str] = set()
        self.op: Optional[int] = None
        self._open: list[list] = []  # [span index, layer, child seconds]
        self._cache = None
        self._cache_at_start = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr, hook in TARGETS:
            owner, name = self._resolve(module_name, attr)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, original, hook)
            if owner is sys.modules[module_name]:
                for module in _program_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            else:
                setattr(owner, name, wrapper)
            self.present.add(layer)
        owner, name = self._resolve(*INDUCTION_CACHE)
        cache = getattr(owner, name, None) if owner is not None else None
        if cache is not None and hasattr(cache, "cache_info"):
            self._cache = cache
            self.present.add("search.induction")
        else:
            self.absent.append(".".join(INDUCTION_CACHE))

    @staticmethod
    def _resolve(module_name: str, attr: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, attr
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, name
        return owner, name

    def _wrap(self, layer: str, fn: Callable, hook) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            parent = rec._open[-1] if rec._open else None
            if parent is None or parent[1] != layer:
                rec.calls[layer] += 1
            index = len(rec.spans)
            rec.spans.append(None)
            frame = [index, layer, 0.0]
            rec._open.append(frame)
            rec.depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.depth[layer] -= 1
                rec._open.pop()
                duration = end - start
                rec.self_s[layer] += duration - frame[2]
                if parent is None or parent[1] != layer:
                    rec.total_s[layer] += duration
                if parent is not None:
                    parent[2] += duration
                rec.spans[index] = (layer, start, end, -1 if parent is None else parent[0], rec.op)
            if hook is not None:
                hook(rec, fn, args, kwargs, result)
            return result

        return traced

    # -- ops ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        if self._cache is not None:
            self._cache_at_start = self._cache.cache_info()
        self.op = op

    def end_op(self) -> None:
        self.op = None
        if self._cache is not None:
            info = self._cache.cache_info()
            self.counts["search.induction.cache_hits"] += info.hits - self._cache_at_start.hits
            self.counts["search.induction.cache_misses"] += info.misses - self._cache_at_start.misses

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals: calls, self and inclusive seconds per layer, counts."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "present": sorted(self.present),
            "absent": list(self.absent),
            "spans": len(self.spans),
        }

    def write(self, path: Path, meta: dict) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        payload = {
            **meta,
            "fields": ["layer", "start_s", "end_s", "parent", "op"],
            "spans": [
                [layer, round(start - origin, 9), round(end - origin, 9), parent, op]
                for layer, start, end, parent, op in self.spans
            ],
            "absent": self.absent,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "retesting" or name.startswith("retesting."))
    ]


def per_layer_metrics(summary: dict, ops: int, op_seconds: float) -> dict:
    """Per-layer metrics per op, with each layer's share of op time in %.

    Returns {name: (value, unit)}. Layers absent from the program read 0.
    """
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    ops = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def per_op(name: str, value: float, unit: str = "count/op") -> None:
        out[name] = (value / ops, unit)

    def timed(layer: str, with_calls: bool = True) -> None:
        if with_calls:
            per_op(f"{layer}.calls", calls.get(layer, 0))
        per_op(f"{layer}.self_s", self_s.get(layer, 0.0), "s/op")
        share = 100.0 * self_s.get(layer, 0.0) / op_seconds if op_seconds > 0 else 0.0
        out[f"{layer}.self_share"] = (share, "%")

    timed("search.enumerate")
    per_op("search.induction.cache_hits", counts.get("search.induction.cache_hits", 0))
    per_op("search.induction.cache_misses", counts.get("search.induction.cache_misses", 0))
    timed("search.intervals")
    per_op("search.intervals.lp_solves", counts.get("search.intervals.lp_solves", 0))
    timed("search.verify")
    per_op("search.verify.rejects", counts.get("search.verify.rejects", 0))
    timed("search.best_response")
    solves = calls.get("simplex", 0)
    per_op("simplex.solves", solves)
    for name in ("optimize_solves", "infeasible", "rows", "cols"):
        per_op(f"simplex.{name}", counts.get(f"simplex.{name}", 0))
    timed("simplex", with_calls=False)
    feasible = solves - counts.get("simplex.infeasible", 0)
    out["simplex.feasible_ratio"] = (feasible / solves if solves else 0.0, "ratio")
    timed("model.outcome_distribution")
    timed("beliefs")
    timed("equilibria.construct")
    timed("metrics.fairness_report")
    timed("metrics.compare_policies", with_calls=False)
    timed("simulate")
    per_op("simulate.tables_s", self_s.get("simulate.tables", 0.0), "s/op")
    sim_s = summary["total_s"].get("simulate", 0.0)
    out["simulate.students_per_s"] = (
        counts.get("simulate.students", 0) / sim_s if sim_s > 0 else 0.0,
        "1/s",
    )
    timed("cli", with_calls=False)
    return out

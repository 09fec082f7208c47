"""Command-line driver: analyze, sweep, enumerate, simulate, tables.

Numeric flags are parsed as exact decimals (``--p 0.25`` means 1/4), so
threshold coincidences are detected exactly and flagged as boundaries.
Structured outputs carry ``schema_version`` 1; CSV uses '.' decimals with 12
significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .equilibria import (
    FIRST_SCORE,
    SEPARATING,
    AdmissionPolicy,
    EquilibriumProfile,
    Region,
    Reporting,
    closed_form_profiles,
    construct_first_score_equilibrium,
    construct_non_first_score_equilibrium,
    is_boundary,
    p_double_star,
    p_star,
    reject_all_threshold,
    report_all_regions,
    report_max_reject_all,
    report_max_separating,
    report_max_thresholds,
)
from .errors import NoEquilibrium, RetestingError, ScopeTooLarge, UnsupportedK
from .metrics import FairnessReport, compare_policies, fairness_report, payoff_gap
from .model import Category, ModelParams, StudentStrategy, seq_str
from .search import SCOPES, SCOPE_REPORT_ALL, enumerate_outcomes, free_stop_intervals, verify_equilibrium
from .simulate import SimConfig, simulate

SCHEMA_VERSION = 1

# Most values one start:stop:step range may expand to.
MAX_RANGE_VALUES = 10_000
# Largest k accepted: the constructors and tables enumerate all 2^k histories.
MAX_K = 10

SWEEP_COLUMNS = [
    "alpha",
    "p",
    "phi",
    "k",
    "policy",
    "equilibrium_class",
    "fnr_cat1",
    "fnr_cat2",
    "fpr_cat1",
    "fpr_cat2",
    "fnr_gap",
    "fpr_gap",
    "ppv",
    "npv",
    "college_payoff",
    "boundary_flag",
]


def fmt(x: Optional[Fraction]) -> str:
    """12 significant digits, '.' decimal; empty cell for undefined values."""
    if x is None:
        return ""
    return f"{float(x):.12g}"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _parse_list(text: str) -> list[Fraction]:
    """Comma list ("0.6,0.7") or range ("0.05:0.95:0.05"), ascending.

    A range is counted before it is expanded: an empty one, or one of more
    than MAX_RANGE_VALUES values, is a usage error.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_parse_fraction(t) for t in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        if stop < start:
            raise argparse.ArgumentTypeError(f"empty range {text!r}: stop is below start")
        count = math.floor((stop - start) / step) + 1
        if count > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(
                f"range {text!r} has {count} values; at most {MAX_RANGE_VALUES} are allowed"
            )
        return [start + i * step for i in range(count)]
    values = [_parse_fraction(t) for t in text.split(",") if t]
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    if values != sorted(values):
        raise argparse.ArgumentTypeError("values must be ascending")
    return values


def _parse_k(text: str) -> int:
    try:
        k = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if k > MAX_K:
        raise argparse.ArgumentTypeError(f"k={k} is above the limit of {MAX_K}")
    return k


def _parse_int_list(text: str) -> list[int]:
    values = [_parse_k(t) for t in text.split(",") if t]
    if not values or values != sorted(values):
        raise argparse.ArgumentTypeError("k values must be nonempty ascending")
    return values


def _report_values(report: FairnessReport) -> dict[str, Optional[Fraction]]:
    """The numeric sweep columns of one report, in column order."""
    return {
        "fnr_cat1": report.fnr[Category.CAT1],
        "fnr_cat2": report.fnr[Category.CAT2],
        "fpr_cat1": report.fpr[Category.CAT1],
        "fpr_cat2": report.fpr[Category.CAT2],
        "fnr_gap": report.fnr_gap,
        "fpr_gap": report.fpr_gap,
        "ppv": report.ppv,
        "npv": report.npv,
        "college_payoff": report.college_payoff,
    }


def _report_dict(report: FairnessReport) -> dict:
    values = {name: None if v is None else float(v) for name, v in _report_values(report).items()}
    return {"policy": report.policy, "equilibrium_class": report.equilibrium_class, **values}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    params = ModelParams(p=args.p, alpha=args.alpha, phi=args.phi, k=args.k)
    lower, upper = report_max_thresholds(params)
    thresholds: dict[str, Optional[Fraction]] = {
        "p_hat_k": lower,
        "p_hat_prime_k": upper,
    }
    if params.k == 2:
        thresholds["p_hat_hat"] = reject_all_threshold(params)
    if params.k >= 2:
        thresholds["p_star_k"] = p_star(params.k, params.alpha)
        thresholds["p_double_star_k"] = (
            None if params.alpha == 1 else p_double_star(params.k, params.alpha)
        )

    regions: dict[str, object] = {}
    if params.k >= 2:
        first, non_first = report_all_regions(params)
        regions["first_score_exists"] = first
        regions["non_first_score_region"] = non_first
        regions["non_first_score_contains_p"] = non_first.contains(params.p)
    regions["max_separating_exists"] = lower <= params.p <= upper

    comparison = compare_policies(params, search=params.k <= 3)
    boundary = is_boundary(params)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "params": {
                "alpha": float(params.alpha),
                "p": float(params.p),
                "phi": float(params.phi),
                "k": params.k,
            },
            "boundary_flag": int(boundary),
            "thresholds": {k: (None if v is None else float(v)) for k, v in thresholds.items()},
            "regions": {
                k: (str(v) if isinstance(v, Region) else v) for k, v in regions.items()
            },
            "reports": {
                "report_max_separating": (
                    None
                    if comparison.max_separating is None
                    else _report_dict(comparison.max_separating)
                ),
                "report_max_reject_all": (
                    None
                    if comparison.max_reject_all is None
                    else _report_dict(comparison.max_reject_all)
                ),
                "report_all": [_report_dict(r) for r in comparison.all_classes],
            },
            "payoff_gap_closed_form": float(comparison.payoff_gap_closed_form),
            "payoff_deltas": {
                r.equilibrium_class: (
                    None
                    if comparison.payoff_delta(r) is None
                    else float(comparison.payoff_delta(r))
                )
                for r in comparison.all_classes
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(f"parameters: alpha={fmt(params.alpha)} p={fmt(params.p)} "
          f"phi={fmt(params.phi)} k={params.k}")
    if boundary:
        print("note: p sits exactly on a regime threshold (boundary point)")
    print("\nthresholds:")
    for name, value in thresholds.items():
        print(f"  {name:16s} = {fmt(value) if value is not None else 'undefined'}")
    print("\nregions:")
    for name, value in regions.items():
        print(f"  {name}: {value}")

    print("\nequilibrium reports:")
    rows = []
    if comparison.max_separating:
        rows.append(comparison.max_separating)
    if comparison.max_reject_all:
        rows.append(comparison.max_reject_all)
    rows.extend(comparison.all_classes)
    if not rows:
        print("  (no nontrivial equilibrium at these parameters)")
    header = ["policy", "class", "fnr1", "fnr2", "fpr1", "fpr2", "ppv", "npv", "payoff"]
    print("  " + " ".join(f"{h:>12s}" for h in header))
    for r in rows:
        cells = [
            r.policy,
            r.equilibrium_class,
            fmt(r.fnr[Category.CAT1]),
            fmt(r.fnr[Category.CAT2]),
            fmt(r.fpr[Category.CAT1]),
            fmt(r.fpr[Category.CAT2]),
            fmt(r.ppv) or "undef",
            fmt(r.npv) or "undef",
            fmt(r.college_payoff),
        ]
        print("  " + " ".join(f"{c:>12s}" for c in cells))

    print(f"\npayoff gap (first-score minus separating, closed form): "
          f"{fmt(comparison.payoff_gap_closed_form)}")
    for r in comparison.all_classes:
        delta = comparison.payoff_delta(r)
        if delta is not None:
            print(f"payoff delta {r.equilibrium_class} vs separating: {fmt(delta)}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_rows(alphas, ps, phis, ks) -> list[list[str]]:
    rows = []
    for alpha, p, phi, k in itertools.product(alphas, ps, phis, ks):
        params = ModelParams(p=p, alpha=alpha, phi=phi, k=k)
        point = [fmt(params.alpha), fmt(params.p), fmt(params.phi), str(k)]
        flag = "1" if is_boundary(params) else "0"
        reports = [fairness_report(params, pr) for pr in closed_form_profiles(params)]
        for r in sorted(reports, key=lambda r: (r.policy, r.equilibrium_class)):
            values = [fmt(v) for v in _report_values(r).values()]
            rows.append(point + [r.policy, r.equilibrium_class, *values, flag])
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = _sweep_rows(args.alpha, args.p, args.phi, args.k)
    if args.format == "csv":
        text = ",".join(SWEEP_COLUMNS) + "\n"
        text += "".join(",".join(row) + "\n" for row in rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "columns": SWEEP_COLUMNS,
            "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace) -> int:
    params = ModelParams(p=args.p, alpha=args.alpha, phi=args.phi, k=args.k)
    enumeration = enumerate_outcomes(params, args.scope)
    classes_payload = []
    for cls in enumeration.classes:
        witness = cls.witness
        entry = {
            "label": cls.label,
            "admit_prob": {str(c): float(v) for c, v in cls.admit_prob.items()},
            "witness_accepts": sorted(
                seq_str(s) for s in witness.policy.accepted
            ),
            "supporting_policies": len(cls.policies),
            "verified": cls.verified,
        }
        if args.intervals:
            intervals = free_stop_intervals(params, witness.policy, witness.reporting)
            entry["free_stop_intervals"] = {
                f"{t.value} after {seq_str(h)}": [float(lo), float(hi)]
                for (t, h), (lo, hi) in sorted(
                    intervals.items(), key=lambda kv: (kv[0][0].value, seq_str(kv[0][1]))
                )
            }
        classes_payload.append(entry)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "scope": enumeration.scope,
            "boundary_flag": int(enumeration.boundary),
            "policies_considered": enumeration.policies_considered,
            "classes": classes_payload,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(f"scope {enumeration.scope}: {enumeration.policies_considered} policies, "
          f"{len(enumeration.classes)} outcome class(es)"
          + (" [boundary point]" if enumeration.boundary else ""))
    for i, (cls, entry) in enumerate(zip(enumeration.classes, classes_payload), start=1):
        probs = ", ".join(f"{c}={fmt(v)}" for c, v in sorted(cls.admit_prob.items(), key=lambda kv: str(kv[0])))
        print(f"\nclass {i}: {cls.label}  [{'verified' if cls.verified else 'UNVERIFIED'}]")
        print(f"  admission probabilities: {probs}")
        print(f"  witness accepts: {{{', '.join(entry['witness_accepts'])}}}")
        print(f"  supporting policies in scope: {entry['supporting_policies']}")
        if args.intervals and entry.get("free_stop_intervals"):
            print("  free stop probabilities (supporting ranges):")
            for name, (lo, hi) in entry["free_stop_intervals"].items():
                print(f"    {name}: [{lo:g}, {hi:g}]")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _select_profile(params: ModelParams, policy: str, cls: str) -> EquilibriumProfile:
    if policy == "max":
        if cls == "separating":
            profile = report_max_separating(params)
            if profile is None:
                raise NoEquilibrium("no separating equilibrium at these parameters")
            return profile
        if cls == "reject-all":
            family = report_max_reject_all(params)
            if family is None:
                raise NoEquilibrium("no reject-all equilibrium at these parameters")
            return family.witness()
        raise ValueError(f"unknown class {cls!r} for report-max (use separating|reject-all)")
    if cls == "first-score":
        return construct_first_score_equilibrium(params)
    if cls.startswith("non-first-score:"):
        n = int(cls.split(":", 1)[1])
        profile = construct_non_first_score_equilibrium(params, n)
        if profile is None:
            raise NoEquilibrium(f"no trailing-run equilibrium with n={n} at these parameters")
        return profile
    raise ValueError(
        f"unknown class {cls!r} for report-all (use first-score|non-first-score:N)"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    params = ModelParams(p=args.p, alpha=args.alpha, phi=args.phi, k=args.k)
    profile = _select_profile(params, args.policy, args.eq_class)
    verdict = verify_equilibrium(params, profile)
    report = simulate(SimConfig(n=args.n, seed=args.seed, params=params, profile=profile))

    analytic = fairness_report(params, profile)
    checks = []

    def add_check(name: str, empirical, closed, count: int) -> None:
        if empirical is None or closed is None:
            checks.append((name, empirical, closed, None, None))
            return
        closed_f = float(closed)
        tol = 4 * math.sqrt(max(closed_f * (1 - closed_f), 1e-12) / max(count, 1))
        checks.append((name, empirical, closed_f, tol, abs(empirical - closed_f) <= tol))

    add_check("fnr_cat1", report.fnr["cat1"], analytic.fnr[Category.CAT1],
              report.cohort_totals["(1,H)"])
    add_check("fnr_cat2", report.fnr["cat2"], analytic.fnr[Category.CAT2],
              report.cohort_totals["(2,H)"])
    add_check("fpr_cat1", report.fpr["cat1"], analytic.fpr[Category.CAT1],
              report.cohort_totals["(1,L)"])
    add_check("fpr_cat2", report.fpr["cat2"], analytic.fpr[Category.CAT2],
              report.cohort_totals["(2,L)"])
    add_check("ppv", report.ppv, analytic.ppv, report.n)
    add_check("npv", report.npv, analytic.npv, report.n)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "profile_verified": verdict.ok,
            "empirical": json.loads(report.to_json()),
            "checks": [
                {
                    "metric": name,
                    "empirical": emp,
                    "closed_form": closed,
                    "tolerance": tol,
                    "pass": ok,
                }
                for name, emp, closed, tol, ok in checks
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0

    print(f"simulated n={report.n} seed={report.seed} "
          f"(profile verified: {'yes' if verdict.ok else 'NO'})")
    print(f"{'metric':>10s} {'empirical':>12s} {'closed':>12s} {'tol':>10s} {'ok':>4s}")
    for name, emp, closed, tol, ok in checks:
        emp_s = "undef" if emp is None else f"{emp:.6f}"
        closed_s = "undef" if closed is None else f"{closed:.6f}"
        tol_s = "-" if tol is None else f"{tol:.6f}"
        ok_s = "-" if ok is None else ("pass" if ok else "FAIL")
        print(f"{name:>10s} {emp_s:>12s} {closed_s:>12s} {tol_s:>10s} {ok_s:>4s}")
    print(f"college payoff: empirical {report.college_payoff:.6f} "
          f"closed {float(analytic.college_payoff):.6f}")
    return 0


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def cmd_tables(args: argparse.Namespace) -> int:
    # Rates conditional on a cohort do not depend on the prior p.
    params = ModelParams(p=Fraction(1, 4), alpha=args.alpha, phi=args.phi, k=args.k)
    k = params.k
    profiles = {
        "max": EquilibriumProfile(AdmissionPolicy.best_score_a(k), StudentStrategy.stop_after_a(k),
                                  SEPARATING, Reporting.MAX),
        "all": EquilibriumProfile(AdmissionPolicy.first_score(k), StudentStrategy.always_stop(k),
                                  FIRST_SCORE, Reporting.ALL),
    }
    fn, fp = {}, {}
    for name, profile in profiles.items():
        report = fairness_report(params, profile)
        fn[name] = {f"cat{c.value}": float(v) for c, v in report.fnr.items()}
        fp[name] = {f"cat{c.value}": float(v) for c, v in report.fpr.items()}
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "alpha": float(params.alpha),
            "k": k,
            "false_negative": fn,
            "false_positive": fp,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"error rates at alpha={fmt(params.alpha)}, k={k} (separating vs first-score)"]
        lines.append(f"{'':10s} {'(1,H)':>12s} {'(2,H)':>12s}    {'(1,L)':>12s} {'(2,L)':>12s}")
        for name in ("max", "all"):
            lines.append(
                f"{name:10s} {fmt(fn[name]['cat1']):>12s} {fmt(fn[name]['cat2']):>12s}    "
                f"{fmt(fp[name]['cat1']):>12s} {fmt(fp[name]['cat2']):>12s}"
            )
        lines.append("(left block: false negatives, right block: false positives)")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote table to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retesting",
        description="Equilibria and fairness of score-reporting policies "
        "in a two-population testing game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, with_p=True):
        sp.add_argument("--alpha", type=_parse_fraction, required=True,
                        help="per-test accuracy, in (1/2, 1]")
        if with_p:
            sp.add_argument("--p", type=_parse_fraction, required=True,
                            help="share of High types, in (0, 1)")
        sp.add_argument("--phi", type=_parse_fraction, required=True,
                        help="share of single-test students, in [0, 1]")
        sp.add_argument("--k", type=_parse_k, required=True, help=f"maximum tests, 1 to {MAX_K}")

    sp = sub.add_parser("analyze", help="thresholds, regions, equilibria, metrics at one point")
    add_params(sp)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sweep", help="grid sweep to CSV/JSON")
    sp.add_argument("--alpha", type=_parse_list, required=True,
                    help="comma list or start:stop:step")
    sp.add_argument("--p", type=_parse_list, required=True)
    sp.add_argument("--phi", type=_parse_list, required=True)
    sp.add_argument("--k", type=_parse_int_list, required=True,
                    help=f"comma list, each at most {MAX_K}")
    sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("enumerate", help="search a policy scope for equilibrium outcomes")
    add_params(sp)
    sp.add_argument("--scope", choices=list(SCOPES), default=SCOPE_REPORT_ALL)
    sp.add_argument("--intervals", action=argparse.BooleanOptionalAction, default=True,
                    help="report supporting ranges of free stop probabilities")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("simulate", help="Monte Carlo check of a constructed profile")
    add_params(sp)
    sp.add_argument("--policy", choices=["max", "all"], required=True)
    sp.add_argument("--class", dest="eq_class", required=True,
                    help="separating | reject-all | first-score | non-first-score:N")
    sp.add_argument("--n", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("tables", help="false negative/positive rate tables")
    add_params(sp, with_p=False)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_tables)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnsupportedK, NoEquilibrium) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScopeTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RetestingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Each workload is built from the benchmark seed alone and hands the program
only the generated inputs. ``op(i)`` is the timed call into the program;
``check(i, output)`` runs untimed and returns (problem or None, canonical
output bytes). The canonical bytes of the first ``sha_ops`` ops make the run's
``output_sha256``, so a change that alters an answer shows in it.

Ops look the program's functions up on its modules at call time, so the
tracing wrappers that ``spans.Recorder.install`` puts there are the ones
called.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from fractions import Fraction


def _dec(hundredths: int) -> str:
    """A probability given in hundredths as a decimal string: 5 -> "0.05"."""
    return f"{hundredths / 100:.2f}".rstrip("0").rstrip(".")


def _stratified(rng: random.Random, values: list, strata: int, blocks: int,
                replace: bool = True) -> list:
    """``blocks`` runs of ``strata`` draws, one from each equal slice of
    ``values`` in a random order, so every run covers the whole range.
    Without ``replace`` no value repeats and the runs stop when a slice is
    used up."""
    slices = [values[j * len(values) // strata:(j + 1) * len(values) // strata]
              for j in range(strata)]
    if not replace:
        for part in slices:
            rng.shuffle(part)
        blocks = min(blocks, min(len(part) for part in slices))
    out = []
    for b in range(blocks):
        order = list(range(strata))
        rng.shuffle(order)
        out.extend(slices[j][b] if not replace else rng.choice(slices[j]) for j in order)
    return out


def _run_cli(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code} for {' '.join(argv)}")
    return buf.getvalue()


class CensusK3:
    """Exhaustive report-all and report-max enumeration at k=3, one grid point
    per op, visited alpha-major the way a grid sweep visits them."""

    name = "census-k3"
    probe = "fraction"  # host-speed probe, see pace.py
    tail_percentile = 80
    sha_ops = 8
    alphas = ("0.6", "0.7", "0.8", "0.9")
    interior_phis = 8  # per alpha, besides phi 0 and phi 1
    cycles = 64  # a cycle visits every alpha once; inputs repeat after the last

    def __init__(self, seed: int):
        self.rt = importlib.import_module("retesting")
        self.search = importlib.import_module("retesting.search")
        rng = random.Random(f"{self.name}:{seed}")
        self.points = []
        hundredths = list(range(1, 100))
        for _ in range(self.cycles):
            for alpha in self.alphas:
                phis = [0, 100] + _stratified(rng, hundredths, self.interior_phis, 1)
                # one p per tenth: a point with p >= alpha costs about twice
                # as much, and the tenths keep that share the same for every seed
                ps = _stratified(rng, hundredths, 10, 1)
                rng.shuffle(phis)
                self.points += [(alpha, _dec(p), _dec(phi)) for p, phi in zip(ps, phis)]

    def _params(self, i: int):
        alpha, p, phi = self.points[i % len(self.points)]
        return self.rt.ModelParams(p=p, alpha=alpha, phi=phi, k=3)

    def op(self, i: int):
        params = self._params(i)
        return (
            self.search.enumerate_outcomes(params, "report-all"),
            self.search.enumerate_outcomes(params, "report-max"),
        )

    def check(self, i: int, output) -> tuple:
        rt = self.rt
        params = self._params(i)
        every, best = output
        problem = None
        unverified = [c.label for c in every.classes + best.classes if not c.verified]
        if unverified:
            problem = f"unverified classes {unverified}"
        elif not rt.is_boundary(params):
            lower, upper = rt.report_max_thresholds(params)
            accept_best_a = rt.AdmissionPolicy.best_score_a(params.k)
            separating = any(accept_best_a in c.policies for c in best.classes)
            first_expected, non_first_region = rt.report_all_regions(params)
            labels = [c.label for c in every.classes]
            if separating != (lower <= params.p <= upper):
                problem = f"report-max separating class {separating}, thresholds [{lower}, {upper}]"
            elif (rt.FIRST_SCORE in labels) != first_expected:
                problem = f"first_score in {labels}, report_all_regions says {first_expected}"
            elif 0 < params.phi < 1 and (rt.NON_FIRST_SCORE in labels) != non_first_region.contains(params.p):
                problem = f"non_first_score in {labels}, region {non_first_region}"
        canonical = json.dumps(
            [
                [
                    enum.scope,
                    enum.policies_considered,
                    [
                        [c.label, sorted((str(k), str(v)) for k, v in c.admit_prob.items()),
                         c.verified, len(c.policies)]
                        for c in enum.classes
                    ],
                ]
                for enum in output
            ]
        )
        return problem, canonical.encode()


class PointQueries:
    """Interactive k=3 CLI queries run in-process, each at its own alpha:
    ``analyze --format json`` and ``enumerate`` (intervals on) on the
    report-all and report-max scopes, in turn."""

    name = "point-queries"
    probe = "fraction"  # host-speed probe, see pace.py
    tail_percentile = 80
    sha_ops = 6
    kinds = ("analyze", "report-all", "report-max")

    def __init__(self, seed: int):
        self.cli = importlib.import_module("retesting.cli")
        rng = random.Random(f"{self.name}:{seed}")
        # alpha in thousandths within (0.55, 0.95), each query its own
        alphas = _stratified(rng, list(range(551, 950)), 4, 100, replace=False)
        phis = _stratified(rng, list(range(10, 91)), 4, len(alphas) // 4)
        # a census with p >= alpha costs about twice as much: in every two
        # rounds of kinds, one round draws p there and the other below alpha.
        # Its analyze and report-all queries, a third of all ops, then hold
        # the tail percentile inside their cluster rather than on its edge.
        rounds = range(0, len(alphas) // len(self.kinds), 2)
        above = {r + rng.randrange(2) for r in rounds}
        self.queries = []
        for n, (alpha, phi) in enumerate(zip(alphas, phis)):
            kind = self.kinds[n % len(self.kinds)]
            lo, hi = (-(-alpha // 10), 95) if n // len(self.kinds) in above else (5, (alpha - 1) // 10)
            point = ["--alpha", f"{alpha / 1000:.3f}", "--p", _dec(rng.randint(lo, hi)),
                     "--phi", _dec(phi), "--k", "3"]
            if kind == "analyze":
                argv = ["analyze", *point, "--format", "json"]
            else:
                argv = ["enumerate", *point, "--scope", kind, "--intervals", "--format", "json"]
            self.queries.append(argv)

    def op(self, i: int) -> str:
        return _run_cli(self.cli, self.queries[i % len(self.queries)])

    def check(self, i: int, output: str) -> tuple:
        argv = self.queries[i % len(self.queries)]
        try:
            payload = json.loads(output)
        except ValueError as exc:
            return f"output is not JSON: {exc}", output.encode()
        if payload.get("schema_version") != 1:
            return f"schema_version {payload.get('schema_version')!r}", output.encode()
        if argv[0] == "enumerate":
            for cls in payload["classes"]:
                if not cls["verified"]:
                    return f"class {cls['label']} not verified", output.encode()
                for node, (lo, hi) in cls["free_stop_intervals"].items():
                    if not 0 <= lo <= hi <= 1:
                        return f"interval at {node} is [{lo}, {hi}]", output.encode()
        return None, output.encode()


class SweepClosedForm:
    """The README reference sweep, one grid point per CLI call, in a seeded
    order; later passes must repeat the first pass byte for byte."""

    name = "sweep-closed-form"
    probe = "fraction"  # host-speed probe, see pace.py
    # p99 sits on the edge of the 12 slowest grid points (k=3, p=0.5); at p90
    # the grid points' costs are smooth and host jitter moves it least
    tail_percentile = 90
    sha_ops = 456  # one full pass
    header = ("alpha,p,phi,k,policy,equilibrium_class,fnr_cat1,fnr_cat2,fpr_cat1,"
              "fpr_cat2,fnr_gap,fpr_gap,ppv,npv,college_payoff,boundary_flag")
    # --alpha 0.6:0.9:0.1 --p 0.05:0.95:0.05 --phi 0,0.5,1 --k 2,3
    grid = [
        (alpha, _dec(5 * j), phi, k)
        for alpha in ("0.6", "0.7", "0.8", "0.9")
        for j in range(1, 20)
        for phi in ("0", "0.5", "1")
        for k in ("2", "3")
    ]

    def __init__(self, seed: int):
        self.cli = importlib.import_module("retesting.cli")
        self.order = list(range(len(self.grid)))
        random.Random(f"{self.name}:{seed}").shuffle(self.order)
        self.first_pass: dict[int, str] = {}

    def _point(self, i: int):
        return self.grid[self.order[i % len(self.order)]]

    def op(self, i: int) -> str:
        alpha, p, phi, k = self._point(i)
        return _run_cli(self.cli, ["sweep", "--alpha", alpha, "--p", p, "--phi", phi, "--k", k])

    def check(self, i: int, output: str) -> tuple:
        index = self.order[i % len(self.order)]
        if index in self.first_pass:
            if output != self.first_pass[index]:
                return "rerun of the point is not byte-identical", output.encode()
            return None, output.encode()
        self.first_pass[index] = output
        lines = output.splitlines()
        if not lines or lines[0] != self.header:
            return "missing CSV header", output.encode()
        alpha, p, phi, k = self._point(i)
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != 16 or cells[3] != k:
                return f"malformed row {line!r}", output.encode()
            if [Fraction(c) for c in cells[:3]] != [Fraction(alpha), Fraction(p), Fraction(phi)]:
                return f"row {line!r} is not at the requested point", output.encode()
            for cell in cells[6:10] + cells[12:14]:
                if cell and not 0 <= float(cell) <= 1:
                    return f"rate {cell} outside [0, 1] in {line!r}", output.encode()
        return None, output.encode()


class SimulateMC:
    """Monte Carlo check of the README first-score profile at k=3, one
    ``simulate`` call of n students per op, on a pool of seeds derived from
    the benchmark seed; a repeated seed must reproduce its report exactly."""

    name = "simulate-mc"
    probe = "numpy"  # host-speed probe, see pace.py
    tail_percentile = 90
    sha_ops = 4
    n = 1_000_000
    pool = 2

    def __init__(self, seed: int):
        rt = importlib.import_module("retesting")
        self.sim = importlib.import_module("retesting.simulate")
        self.params = rt.ModelParams(p="0.3", alpha="0.8", phi="0.5", k=3)
        self.profile = rt.construct_first_score_equilibrium(self.params)
        self.verified = rt.verify_equilibrium(self.params, self.profile).ok
        closed = rt.fairness_report(self.params, self.profile)
        cat1, cat2 = rt.Category.CAT1, rt.Category.CAT2
        # (metric, closed form, report field, the count the rate is taken over):
        # ppv is a rate over the admitted students and npv over the rejected
        self.expect = [
            ("fnr_cat1", closed.fnr[cat1], lambda r: r.fnr["cat1"], lambda r: r.cohort_totals["(1,H)"]),
            ("fnr_cat2", closed.fnr[cat2], lambda r: r.fnr["cat2"], lambda r: r.cohort_totals["(2,H)"]),
            ("fpr_cat1", closed.fpr[cat1], lambda r: r.fpr["cat1"], lambda r: r.cohort_totals["(1,L)"]),
            ("fpr_cat2", closed.fpr[cat2], lambda r: r.fpr["cat2"], lambda r: r.cohort_totals["(2,L)"]),
            ("ppv", closed.ppv, lambda r: r.ppv, lambda r: sum(r.admitted.values())),
            ("npv", closed.npv, lambda r: r.npv, lambda r: r.n - sum(r.admitted.values())),
        ]
        rng = random.Random(f"{self.name}:{seed}")
        self.seeds = [rng.getrandbits(32) for _ in range(self.pool)]
        self.reports: dict[int, str] = {}

    def op(self, i: int):
        config = self.sim.SimConfig(
            n=self.n, seed=self.seeds[i % self.pool], params=self.params, profile=self.profile
        )
        return self.sim.simulate(config)

    def check(self, i: int, report) -> tuple:
        text = report.to_json()
        seed = self.seeds[i % self.pool]
        if not self.verified:
            return "the simulated profile does not verify", text.encode()
        if seed in self.reports:
            if text != self.reports[seed]:
                return f"seed {seed} did not reproduce its report", text.encode()
            return None, text.encode()
        self.reports[seed] = text
        for metric, closed, field, over in self.expect:
            empirical = field(report)
            if empirical is None or closed is None:
                continue
            count = over(report)
            c = float(closed)
            tol = 4 * math.sqrt(max(c * (1 - c), 1e-12) / max(count, 1))
            if abs(empirical - c) > tol:
                return f"{metric} {empirical} vs closed form {c} beyond 4 sigma", text.encode()
        return None, text.encode()


WORKLOADS = {w.name: w for w in (CensusK3, PointQueries, SweepClosedForm, SimulateMC)}

"""Command-line interface: flags, formats, schemas, determinism."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import retesting.cli
from retesting import ModelParams, p_double_star, p_star, reject_all_threshold, report_max_thresholds
from retesting.cli import MAX_INTERVAL_K, MAX_K, MAX_SIM_N, SWEEP_COLUMNS, main
from retesting.search import _subtree_induction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_reference_point_mentions_payoff_delta(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2")
        assert code == 0
        assert "0.032" in out
        assert "separating" in out and "first_score" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["payoff_gap_closed_form"] == pytest.approx(0.032)
        assert payload["thresholds"]["p_hat_k"] == pytest.approx(7 / 29)
        assert payload["reports"]["report_max_separating"]["fnr_cat2"] == pytest.approx(0.04)
        assert payload["boundary_flag"] == 0

    def test_k3_json_bytes_pinned(self, capsys):
        # five report-all classes at an alpha no other test uses, so the
        # census runs from a cold induction cache
        _subtree_induction.cache_clear()
        code, out, _ = run(capsys, "analyze", "--alpha", "0.777", "--p", "0.55",
                           "--phi", "0", "--k", "3", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f70d3c1ce2e1f2e0bc1218bcc32a803a39648cd18b1c54b51d1b66173b696297"
        )

    def test_invalid_alpha_fails_usage(self, capsys):
        code, _, err = run(capsys, "analyze", "--alpha", "0.4", "--p", "0.3",
                           "--phi", "0.5", "--k", "2")
        assert code == 2
        assert "alpha" in err

    def test_noiseless_all_gaps_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alpha", "1", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["payoff_gap_closed_form"] == 0
        sep = payload["reports"]["report_max_separating"]
        assert sep["fnr_gap"] == 0 and sep["fpr_gap"] == 0

    @pytest.mark.parametrize("alpha,k", [("0.8", 1), ("0.8", 2), ("0.8", 3), ("1", 2), ("1", 3)])
    def test_thresholds_match_closed_forms(self, capsys, alpha, k):
        params = ModelParams(p=Fraction("0.3"), alpha=Fraction(alpha), phi=Fraction(1, 2), k=k)
        lower, upper = report_max_thresholds(params)
        want = {"p_hat_k": lower, "p_hat_prime_k": upper}
        if k == 2:
            want["p_hat_hat"] = reject_all_threshold(params)
        if k >= 2:
            want["p_star_k"] = p_star(k, params.alpha)
            want["p_double_star_k"] = None if params.alpha == 1 else p_double_star(k, params.alpha)
        code, out, _ = run(capsys, "analyze", "--alpha", alpha, "--p", "0.3",
                           "--phi", "0.5", "--k", str(k), "--format", "json")
        assert code == 0
        assert json.loads(out)["thresholds"] == {
            name: None if v is None else float(v) for name, v in want.items()
        }

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--alpha", "0.8", "--p", "0.3", "--phi", "0.5",
                  "--k", "2", "--frobnicate"])
        assert exc.value.code == 2


class TestSweep:
    GRID = ["sweep", "--alpha", "0.6,0.8", "--p", "0.25:0.45:0.05",
            "--phi", "0,0.5,1", "--k", "2,3"]

    def test_csv_schema_and_rows(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *self.GRID, "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) > 60
        by_col = [dict(zip(SWEEP_COLUMNS, r)) for r in rows[1:]]
        # undefined cells are empty, never NaN
        assert not any("nan" in cell.lower() for r in rows[1:] for cell in r if cell)
        reject = [r for r in by_col if r["equilibrium_class"] == "reject_all"]
        assert reject and all(r["ppv"] == "" for r in reject)

    def test_reference_scale_grid(self, capsys, tmp_path):
        # 4 alphas x 19 priors x 5 phis x 2 ks, one row per existing class
        out_path = tmp_path / "big.csv"
        code, _, _ = run(capsys, "sweep", "--alpha", "0.6,0.7,0.8,0.9",
                         "--p", "0.05:0.95:0.05", "--phi", "0,0.25,0.5,0.75,1",
                         "--k", "2,3", "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 760
        assert not any("nan" in (v or "").lower() for r in rows for v in r.values())

    def test_readme_sweep_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha", "0.6:0.9:0.1", "--p", "0.05:0.95:0.05",
                           "--phi", "0,0.5,1", "--k", "2,3")
        assert code == 0
        assert out.count("\n") == 807
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e0692ec5512ebe66bc9c8affffa2ae0250d2cc1c746a5791fae1d07d61a9cf8a"
        )

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *self.GRID, "--out", str(a))
        run(capsys, *self.GRID, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_parity_in_low_interior_band(self, capsys, tmp_path):
        # p strictly inside (1-alpha, 1/2) at k=2: full-reporting rows have
        # zero gaps
        out_path = tmp_path / "band.csv"
        code, _, _ = run(capsys, "sweep", "--alpha", "0.8", "--p", "0.25:0.45:0.05",
                         "--phi", "0.5", "--k", "2", "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        all_rows = [r for r in rows if r["policy"] == "report_all"]
        assert all_rows
        assert all(r["fnr_gap"] == "0" and r["fpr_gap"] == "0" for r in all_rows)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["columns"] == SWEEP_COLUMNS
        again = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert again == out

    def test_boundary_flag_set_exactly(self, capsys):
        # p = 0.5 equals the k=2 run threshold exactly
        code, out, _ = run(capsys, "sweep", "--alpha", "0.8", "--p", "0.5",
                           "--phi", "0.5", "--k", "2")
        assert code == 0
        rows = [r for r in out.splitlines()[1:] if r]
        assert rows and all(r.endswith(",1") for r in rows)

    def test_descending_list_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--alpha", "0.8,0.6", "--p", "0.3", "--phi", "0.5", "--k", "2"])

    @pytest.mark.parametrize("p_range, count", [("0:1:0.0001", 10001), ("0:1:1e-9", 10**9 + 1)])
    def test_oversized_range_refused_before_expansion(self, capsys, p_range, count):
        # 10^9 values would not fit in memory: the range is counted, not built
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "0.8", "--p", p_range, "--phi", "0.5", "--k", "2"])
        assert exc.value.code == 2
        assert f"has {count} values" in capsys.readouterr().err

    def test_empty_range_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "0.8", "--p", "0.9:0.1:0.1", "--phi", "0.5", "--k", "2"])
        assert exc.value.code == 2
        assert "empty range" in capsys.readouterr().err

    def test_invalid_grid_point_is_usage_error(self, capsys):
        # p = 0 and p = 1 lie outside (0, 1)
        code, out, err = run(capsys, "sweep", "--alpha", "0.8", "--p", "0:1:0.5",
                             "--phi", "0.5", "--k", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: p must lie in (0,1)")

    def test_unwritable_path_fails(self, capsys):
        code, _, err = run(capsys, "sweep", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2",
                           "--out", "/nonexistent-dir/x.csv")
        assert code == 4
        assert "io error" in err


class TestEnumerate:
    def test_unique_class_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["policies_considered"] == 64
        assert len(payload["classes"]) == 1
        cls = payload["classes"][0]
        assert cls["label"] == "first_score" and cls["verified"]
        assert cls["admit_prob"]["(2,H)"] == pytest.approx(0.8)

    def test_report_max_coexistence_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0.8", "--p", "0.25",
                           "--phi", "0.5", "--k", "2", "--scope", "report-max")
        assert code == 0
        assert "2 outcome class(es)" in out
        assert "reject_all" in out and "separating" in out

    def test_k3_multiple_classes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0.8", "--p", "0.6",
                           "--phi", "0.5", "--k", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) >= 2

    @pytest.mark.parametrize("alpha, p, phi, digest", [
        # p >= alpha: accept-all and two non-first-score classes
        ("0.613", "0.65", "0", "5279ae8356df91795ca98c9f86c195484581951aad0703cf313d489f02debb10"),
        ("0.777", "0.45", "0", "beb0275e2479173335e6836e539ed36f44db2c2674489e343402ca0b8fe84f6a"),
        ("0.9", "0.05", "0.5", "af0991281a5a58e8652015dc3a7ca17777f8770ac736a6b13d08d19f010fcf15"),
    ])
    def test_report_all_k3_bytes_pinned(self, capsys, alpha, p, phi, digest):
        # witnesses and supporting policies depend on the census order, so
        # the bytes pin it; the cache is cleared to run the census cold
        _subtree_induction.cache_clear()
        code, out, _ = run(capsys, "enumerate", "--alpha", alpha, "--p", p, "--phi", phi,
                           "--k", "3", "--scope", "report-all", "--intervals",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        # family intervals: the scaled Charnes-Cooper LPs at k=4
        (["--scope", "report-all:b-then-a-run", "--k", "4", "--intervals"],
         "0692b2289d4596cb2a2d0c9b983226dadcb2a9aa8a1af9ce1c4008657cf1d658"),
        # best-score reporting over the whole k=8 tree
        (["--scope", "report-max", "--k", "8", "--no-intervals"],
         "7eacca14583434e2fd9467641c851e4cbc992a0ba15cbef69e98fa9bc0a8ef39"),
        # family intervals at k=5, where many nodes share one reach column
        (["--scope", "report-all:b-then-a-run", "--k", "5", "--intervals"],
         "c4857707f9729d604750654e01feb7bb546e73da24147327ff360b4cb3646c52"),
    ])
    def test_deep_paths_bytes_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0.613", "--p", "0.5", "--phi", "0.5",
                           *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_scope_too_large_guidance(self, capsys):
        code, _, err = run(capsys, "enumerate", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "4")
        assert code == 3
        assert "report-all:b-then-a-run" in err

    def test_intervals_rendered(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "0.8", "--p", "0.25",
                           "--phi", "0.5", "--k", "2", "--scope", "report-max",
                           "--intervals")
        assert code == 0
        assert "free stop probabilities" in out


class TestSimulate:
    def test_first_score_passes_tolerances(self, capsys):
        code, out, _ = run(capsys, "simulate", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--policy", "all",
                           "--class", "first-score", "--n", "50000", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("pass") >= 6

    def test_json_checks(self, capsys):
        code, out, _ = run(capsys, "simulate", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--policy", "max",
                           "--class", "separating", "--n", "50000", "--seed", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["profile_verified"] is True
        assert all(c["pass"] for c in payload["checks"] if c["pass"] is not None)

    def test_ppv_and_npv_tolerances_over_admitted_and_rejected(self, capsys):
        # ppv is a rate over the admitted students, npv over the rejected; a
        # tolerance over all n failed ppv here on a verified profile
        code, out, _ = run(capsys, "simulate", "--alpha", "0.8", "--p", "0.3",
                           "--phi", "0.5", "--k", "2", "--policy", "all",
                           "--class", "first-score", "--n", "100000", "--seed", "106",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(c["pass"] is True for c in payload["checks"])
        checks = {c["metric"]: c for c in payload["checks"]}
        admitted = sum(payload["empirical"]["admitted"].values())
        for metric, count in (("ppv", admitted), ("npv", payload["empirical"]["n"] - admitted)):
            c = checks[metric]["closed_form"]
            assert checks[metric]["tolerance"] == 4 * math.sqrt(c * (1 - c) / count)

    def test_unconstructible_profile_explained(self, capsys):
        code, _, err = run(capsys, "simulate", "--alpha", "0.8", "--p", "0.1",
                           "--phi", "0.5", "--k", "2", "--policy", "all",
                           "--class", "first-score", "--n", "100", "--seed", "0")
        assert code == 2
        assert "first-score" in err or "needs p in" in err

    def test_run_selector(self, capsys):
        code, out, _ = run(capsys, "simulate", "--alpha", "0.8", "--p", "0.45",
                           "--phi", "0.5", "--k", "3", "--policy", "all",
                           "--class", "non-first-score:3", "--n", "20000", "--seed", "3")
        assert code == 0
        assert "FAIL" not in out


class TestSimulateLimit:
    ARGV = ["simulate", "--alpha", "0.8", "--p", "0.3", "--phi", "0.5", "--k", "3",
            "--policy", "all", "--class", "first-score", "--seed", "1", "--n"]

    def test_above_limit_refused_before_any_draw(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran with n above the limit")

        monkeypatch.setattr(retesting.cli, "simulate", refuse)
        assert MAX_SIM_N == 10**7
        code, _, err = run(capsys, *self.ARGV, str(MAX_SIM_N + 1))
        assert code == 2
        assert f"limit of {MAX_SIM_N}" in err

    def test_negative_seed_refused(self, capsys):
        code, _, err = run(capsys, "simulate", "--alpha", "0.8", "--p", "0.3", "--phi", "0.5",
                           "--k", "3", "--policy", "all", "--class", "first-score",
                           "--n", "100", "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0, got -1" in err

    def test_at_limit_reaches_simulate(self, capsys, monkeypatch):
        seen = []

        def record(config):
            seen.append(config.n)
            raise RuntimeError("stop before drawing")

        monkeypatch.setattr(retesting.cli, "simulate", record)
        with pytest.raises(RuntimeError):
            main([*self.ARGV, str(MAX_SIM_N)])
        assert seen == [MAX_SIM_N]


class TestTables:
    def test_k2_values(self, capsys):
        code, out, _ = run(capsys, "tables", "--alpha", "0.8", "--phi", "0.5",
                           "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["false_negative"]["max"]["cat2"] == pytest.approx(0.04)
        assert payload["false_negative"]["all"]["cat2"] == pytest.approx(0.2)
        assert payload["false_positive"]["max"]["cat2"] == pytest.approx(0.36)

    def test_k3_max_fn(self, capsys):
        code, out, _ = run(capsys, "tables", "--alpha", "0.8", "--phi", "0.5",
                           "--k", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["false_negative"]["max"]["cat2"] == pytest.approx(0.008)

    def test_noiseless_zero_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--alpha", "1", "--phi", "0.5",
                           "--k", "2", "--format", "json")
        payload = json.loads(out)
        assert set(payload["false_negative"]["max"].values()) == {0}
        assert set(payload["false_positive"]["all"].values()) == {0}

    def test_k3_text_pinned(self, capsys):
        code, out, _ = run(capsys, "tables", "--alpha", "0.8", "--phi", "0.5", "--k", "3")
        assert code == 0
        assert out == (
            "error rates at alpha=0.8, k=3 (separating vs first-score)\n"
            "                  (1,H)        (2,H)           (1,L)        (2,L)\n"
            "max                 0.2        0.008             0.2        0.488\n"
            "all                 0.2          0.2             0.2          0.2\n"
            "(left block: false negatives, right block: false positives)\n"
        )

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "tables.txt"
        code, out, _ = run(capsys, "tables", "--alpha", "0.8", "--phi", "0.5",
                           "--k", "2", "--out", str(path))
        assert code == 0
        assert "0.04" in path.read_text()


class TestKLimit:
    @pytest.fixture
    def no_compute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a command ran with k above the limit")

        monkeypatch.setattr(retesting.cli, "ModelParams", refuse)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--alpha", "0.8", "--p", "0.5", "--phi", "0.5", "--k", "11"],
        ["sweep", "--alpha", "0.8", "--p", "0.5", "--phi", "0.5", "--k", "2,11"],
    ])
    def test_above_limit_is_usage_error(self, capsys, no_compute, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"limit of {MAX_K}" in capsys.readouterr().err

    def test_tables_at_limit(self, capsys):
        assert MAX_K == 10
        code, out, _ = run(capsys, "tables", "--alpha", "0.8", "--phi", "0.5",
                           "--k", str(MAX_K), "--format", "json")
        assert code == 0
        assert json.loads(out)["k"] == MAX_K


class TestIntervalLimit:
    FAMILY = ["enumerate", "--alpha", "0.8", "--p", "0.5", "--phi", "0.5",
              "--scope", "report-all:b-then-a-run"]

    def test_intervals_above_limit_refused_before_any_lp(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an LP ran for k above the interval limit")

        monkeypatch.setattr(retesting.cli, "free_stop_intervals", refuse)
        monkeypatch.setattr(retesting.cli, "enumerate_outcomes", refuse)
        assert MAX_INTERVAL_K == 6
        code, _, err = run(capsys, *self.FAMILY, "--k", str(MAX_INTERVAL_K + 1))
        assert code == 3
        assert "--no-intervals" in err and f"limit of {MAX_INTERVAL_K}" in err

    def test_no_intervals_above_limit(self, capsys):
        code, out, _ = run(capsys, *self.FAMILY, "--k", "7", "--no-intervals", "--format", "json")
        assert code == 0
        assert json.loads(out)["policies_considered"] == 6


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it; a reused
    parser must print the bytes a freshly built one prints."""

    OK = ("tables", "--alpha", "0.8", "--phi", "0.5", "--k", "2")
    USAGE = ("enumerate", "--alpha", "0.8", "--p", "0.3", "--phi", "0.5", "--k", "2", "--scope", "none")

    @staticmethod
    def outcome(capsys, *argv):
        """(exit code, stdout, stderr) of one call, usage errors included."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(self, capsys, *argv):
        retesting.cli._parser.cache_clear()
        return self.outcome(capsys, *argv)

    def test_reused_parser_prints_fresh_bytes(self, capsys):
        first = self.fresh(capsys, *self.OK)
        assert first[0] == 0 and first[1]
        assert self.outcome(capsys, *self.OK) == first
        usage = self.outcome(capsys, *self.USAGE)  # after a successful call
        assert usage[0] == 2 and usage[2].startswith("usage: retesting enumerate")
        assert retesting.cli._parser.cache_info().misses == 1  # built once for all three
        assert self.fresh(capsys, *self.USAGE) == usage

    def test_parser_not_built_at_import(self):
        code = "import retesting.cli as cli; print(cli._parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(retesting.cli.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
        assert out == "0\n"


class TestSweepGridLimit:
    """The product of the sweep lists is capped, since every row is kept in
    memory until the output is written."""

    GRID = ["sweep", "--alpha", "0.6,0.7", "--p", "0.1:0.3:0.1", "--phi", "0,1", "--k", "2"]  # 12 points

    def test_the_cap_is_documented(self):
        assert retesting.cli.MAX_SWEEP_POINTS == 20_000
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
        assert "at most 20000 grid points" in " ".join(readme.split())

    def test_grid_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(retesting.cli, "MAX_SWEEP_POINTS", 12)
        code, out, _ = run(capsys, *self.GRID)
        assert code == 0
        assert {tuple(line.split(",")[:4]) for line in out.splitlines()[1:]} == {
            (a, p, phi, "2") for a in ("0.6", "0.7") for p in ("0.1", "0.2", "0.3") for phi in ("0", "1")
        }

    def test_grid_above_the_cap_refused_before_any_point(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was computed for a grid above the cap")

        monkeypatch.setattr(retesting.cli, "MAX_SWEEP_POINTS", 11)
        monkeypatch.setattr(retesting.cli, "ModelParams", refuse)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, *self.GRID, "--out", str(out_path))
        assert code == 3
        assert out == "" and not out_path.exists()
        assert "12 points" in err and "at most 11" in err


class TestSweepJsonStreamed:
    """A JSON sweep is written row by row from the row lists, with the bytes
    of the payload that one ``json.dumps`` of every row as a dict gave."""

    @pytest.mark.parametrize("grid, classes", [
        # k = 2 reject-all rows at every phi, beside the separating ones
        (["--alpha", "0.8", "--p", "0.1:0.5:0.1", "--phi", "0,0.5,1", "--k", "2"], {"reject_all", "separating"}),
        (["--alpha", "0.6,0.9", "--p", "0.05,0.3,0.95", "--phi", "0.5", "--k", "2,3"], {"first_score", "separating"}),
        # a point where no closed-form equilibrium exists: no rows at all
        (["--alpha", "0.6", "--p", "0.99", "--phi", "0", "--k", "3"], set()),
    ])
    def test_bytes_equal_one_dumps_of_the_payload(self, capsys, tmp_path, grid, classes):
        args = retesting.cli._parser().parse_args(["sweep", *grid])
        rows = retesting.cli._sweep_rows(args.alpha, args.p, args.phi, args.k)
        payload = {
            "schema_version": 1,
            "columns": SWEEP_COLUMNS,
            "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
        }
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        code, out, _ = run(capsys, "sweep", *grid, "--format", "json")
        assert code == 0 and out == want
        path = tmp_path / "sweep.json"
        code, out, _ = run(capsys, "sweep", *grid, "--format", "json", "--out", str(path))
        assert code == 0 and out == f"wrote {len(rows)} rows to {path}\n"
        assert path.read_bytes() == want.encode()
        assert classes <= {row[5] for row in rows} and bool(rows) == bool(classes)


class TestNumericInput:
    """Numbers are parsed exactly, so the work a flag may ask for is bounded
    before parsing: Fraction would expand an exponent of any size."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--alpha", "0.8", "--p", "1e100000000", "--phi", "0.5", "--k", "2"],
        ["sweep", "--alpha", "0.8", "--p", "0.1:0.5:1e-100000000", "--phi", "0.5", "--k", "2"],
    ])
    def test_huge_exponent_refused_at_once(self, argv):
        code = "import sys; from retesting.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(retesting.cli.__file__)))
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                              env=env, timeout=20)
        assert done.returncode == 2
        assert "not a number" in done.stderr

    def test_exponent_limit_is_inclusive(self):
        limit = retesting.cli.MAX_EXPONENT
        assert limit <= 4300
        assert retesting.cli._parse_fraction(f"1e-{limit}") == Fraction(1, 10**limit)
        assert retesting.cli._parse_fraction(f"2E+{limit}") == 2 * 10**limit
        for text in (f"1e-{limit + 1}", f"1E{limit + 1}", "1e"):
            with pytest.raises(argparse.ArgumentTypeError, match="not a number"):
                retesting.cli._parse_fraction(text)

    @pytest.mark.parametrize("flag, values", [("--p", "0.3,0.3"), ("--alpha", "0.6,0.8,0.8"), ("--k", "2,2")])
    def test_repeated_grid_value_refused(self, capsys, flag, values):
        grid = {"--alpha": "0.8", "--p": "0.3", "--phi": "0.5", "--k": "2", flag: values}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *(part for item in grid.items() for part in item)])
        assert exc.value.code == 2
        assert "ascending" in capsys.readouterr().err

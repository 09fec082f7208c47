"""Command-line interface: flags, formats, schemas, determinism."""

from __future__ import annotations

import csv
import hashlib
import json

import pytest

import retesting.cli
from retesting.cli import MAX_K, SWEEP_COLUMNS, main


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

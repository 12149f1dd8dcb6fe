"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "shared-opt" in out
        assert "q32" in out
        assert "fig12" in out


class TestParams:
    def test_preset(self, capsys):
        assert main(["params", "--preset", "q32"]) == 0
        out = capsys.readouterr().out
        assert "lambda (Shared Opt.):      30" in out
        assert "mu (Distributed Opt.):     4" in out
        assert "alpha=16" in out

    def test_custom_machine(self, capsys):
        assert main(["params", "--cores", "4", "--cs", "100", "--cd", "21"]) == 0
        assert "lambda (Shared Opt.):      9" in capsys.readouterr().out

    def test_non_square_cores(self, capsys):
        assert main(["params", "--cores", "6", "--cs", "100", "--cd", "16"]) == 0
        assert "n/a" in capsys.readouterr().out


class TestRun:
    def test_run_basic(self, capsys):
        code = main(
            ["run", "shared-opt", "-m", "8", "--preset", "q32", "--setting", "ideal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MS" in out and "shared-opt" in out

    def test_run_rectangular(self, capsys):
        code = main(
            [
                "run", "outer-product", "-m", "4", "-n", "6", "-z", "8",
                "--preset", "q32", "--setting", "lru",
            ]
        )
        assert code == 0

    def test_error_exit_code(self, capsys):
        # distributed-opt on a non-square core count -> clean error
        code = main(
            ["run", "distributed-opt", "-m", "4", "--cores", "6", "--cs", "100",
             "--cd", "16"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_sweep(self, capsys):
        code = main(
            [
                "sweep", "shared-opt", "outer-product",
                "--orders", "4", "8", "--preset", "q32", "--setting", "ideal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("shared-opt") == 2  # one row per order

    def test_sweep_run_dir_and_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        base = [
            "sweep", "shared-opt", "--orders", "4", "6", "--preset", "q32",
            "--setting", "ideal", "--workers", "1", "--run-dir", str(run_dir),
        ]
        assert main(base) == 0
        captured = capsys.readouterr()
        assert (run_dir / "checkpoint.jsonl").exists()
        assert (run_dir / "manifest.json").exists()
        assert "run dir:" in captured.err

        assert main(base + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "(2 resumed from checkpoint)" in captured.err

    def test_resume_without_run_dir_rejected(self, capsys):
        code = main(
            ["sweep", "shared-opt", "--orders", "4", "--preset", "q32",
             "--workers", "1", "--resume"]
        )
        assert code == 2
        assert "resume" in capsys.readouterr().err


class TestRuns:
    def _make_run(self, run_dir):
        return main(
            ["sweep", "shared-opt", "--orders", "4", "6", "--preset", "q32",
             "--setting", "ideal", "--workers", "1", "--run-dir", str(run_dir)]
        )

    def test_runs_list(self, tmp_path, capsys):
        assert self._make_run(tmp_path / "run-a") == 0
        capsys.readouterr()
        assert main(["runs", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "complete" in out

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", str(tmp_path)]) == 0
        assert "no run directories" in capsys.readouterr().out

    def test_runs_show(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        capsys.readouterr()
        assert main(["runs", "show", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "status: complete" in out
        assert "checkpoint: 2 ok" in out
        assert "manifest: present" in out

    def test_runs_show_rejects_non_run(self, tmp_path, capsys):
        assert main(["runs", "show", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err

    def test_runs_verify_clean_and_corrupt(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        capsys.readouterr()
        assert main(["runs", "verify", str(run_dir)]) == 0
        assert "ok" in capsys.readouterr().out

        checkpoint = run_dir / "checkpoint.jsonl"
        lines = checkpoint.read_text().splitlines()
        lines[0] = lines[0].replace('"ok"', '"OK"')  # break the checksum
        checkpoint.write_text("\n".join(lines) + "\n")
        assert main(["runs", "verify", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "checksum mismatch" in out

    def test_runs_verify_detects_truncation(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._make_run(run_dir) == 0
        capsys.readouterr()
        checkpoint = run_dir / "checkpoint.jsonl"
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[:-9])  # SIGKILL-style torn tail
        assert main(["runs", "verify", str(run_dir)]) == 0  # warning, not error
        out = capsys.readouterr().out
        assert "torn tail" in out


class TestFigure:
    def test_figure_fig4(self, capsys):
        assert main(["figure", "fig4", "--orders", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "Formula" in out

    def test_figure_csv_output(self, tmp_path, capsys):
        code = main(
            ["figure", "fig4", "--orders", "8", "--csv", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig4a.csv").exists()


class TestVerify:
    def test_verify(self, capsys):
        assert main(["verify", "tradeoff", "--preset", "q32", "-m", "8"]) == 0
        assert "passed" in capsys.readouterr().out


class TestTables:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "977" in out and "lambda" in out


class TestAnalyze:
    def test_analyze_basic(self, capsys):
        assert main(["analyze", "shared-opt", "--preset", "q32", "-m", "8"]) == 0
        out = capsys.readouterr().out
        assert "distributed[0]" in out
        assert "shared (alone)" in out

    def test_analyze_curve(self, capsys):
        assert main(
            ["analyze", "shared-opt", "--preset", "q32", "-m", "6", "--curve"]
        ) == 0
        assert "miss curve" in capsys.readouterr().out

    def test_analyze_extra_algorithm(self, capsys):
        assert main(["analyze", "cannon", "--preset", "q32", "-m", "6"]) == 0


class TestCheck:
    def test_single_cell_clean(self, capsys):
        code = main(["check", "--algorithm", "shared-opt", "--machine", "q32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "clean" in out

    def test_filters_multiply(self, capsys):
        code = main(
            [
                "check",
                "--algorithm", "shared-opt", "--algorithm", "cannon",
                "--machine", "q32", "--machine", "q64",
            ]
        )
        assert code == 0

    def test_explicit_orders(self, capsys):
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q32",
             "--orders", "4", "6"]
        )
        assert code == 0
        assert "2 schedule cells" in capsys.readouterr().out

    def test_lint_flag(self, capsys):
        code = main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32", "--lint"]
        )
        assert code == 0
        assert (
            "source scan (lint/determinism/purity): 0 finding(s)"
            in capsys.readouterr().out
        )

    def test_json_output(self, capsys):
        code = main(
            ["check", "--algorithm", "tradeoff", "--machine", "q32",
             "--lint", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["lint"] == []
        report = payload["reports"][0]
        assert report["algorithm"] == "tradeoff"
        assert report["findings"] == []
        assert report["computes"] == report["m"] * report["n"] * report["z"]

    def test_unknown_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--algorithm", "nope"])

    def test_json_schema_versioned_with_cell_accounting(self, capsys):
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q32",
             "--orders", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 3
        assert payload["checker_version"] == 4
        assert payload["cells"] == {"analyzed": 1, "skipped": 0, "cached": 0}
        assert payload["suppressed"] == 0
        assert payload["elapsed_s"] > 0
        report = payload["reports"][0]
        assert report["status"] == "analyzed"
        assert report["elapsed_s"] > 0

    def test_json_cell_accounting_consistent_on_full_matrix(self, capsys):
        # analyzed + skipped must partition the reports, and skipped
        # entries must carry a reason and no findings.
        code = main(["check", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        cells = payload["cells"]
        assert cells["analyzed"] + cells["skipped"] == len(payload["reports"])
        for report in payload["reports"]:
            if report["status"] == "skipped":
                assert report["skip_reason"]
                assert report["findings"] == []

    def test_sarif_export(self, capsys, tmp_path):
        out = tmp_path / "check.sarif"
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q64",
             "--sarif", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["tool"]["driver"]["name"] == "repro-mmm-check"
        assert payload["runs"][0]["results"] == []  # clean matrix

    def test_baseline_write_and_apply(self, capsys, tmp_path):
        base = tmp_path / "baseline.json"
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q64",
             "--write-baseline", str(base)]
        )
        assert code == 0
        assert "wrote 0 suppression(s)" in capsys.readouterr().out
        payload = json.loads(base.read_text())
        assert payload == {"schema": 1, "suppressions": []}
        code = main(
            ["check", "--algorithm", "cannon", "--machine", "q64",
             "--baseline", str(base)]
        )
        assert code == 0

    def test_incremental_cache_round_trip(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["check", "--algorithm", "shared-equal", "--machine", "q64",
                "--incremental", "--cache-dir", str(cache_dir), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cells"]["cached"] == 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cells"]["cached"] == warm["cells"]["analyzed"] > 0
        assert warm["errors"] == cold["errors"] == 0

    def test_gap_certificate_in_summary_and_json(self, capsys):
        code = main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (gap,) = payload["gap"]
        assert gap["algorithm"] == "shared-opt"
        assert gap["cells"] > 0
        assert gap["ms_gap"]["min"] >= 1.0
        assert isinstance(gap["certified_shared"], bool)

    def test_gap_report_written(self, capsys, tmp_path):
        out = tmp_path / "gap-report.json"
        code = main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32",
             "--gap-report", str(out)]
        )
        assert code == 0
        assert "gap certificate:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert {a["algorithm"] for a in payload["algorithms"]} == {"shared-opt"}
        assert all("ms_gap" in c for c in payload["cells"])

    def test_write_gap_baseline(self, capsys, tmp_path):
        base = tmp_path / "gap-baseline.json"
        code = main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32",
             "--write-gap-baseline", str(base)]
        )
        assert code == 0
        assert "wrote gap baseline" in capsys.readouterr().out
        assert json.loads(base.read_text())["algorithms"]

    def test_gap_baseline_comparison_skipped_on_filtered_run(
        self, capsys, tmp_path
    ):
        base = tmp_path / "gap-baseline.json"
        assert main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32",
             "--write-gap-baseline", str(base)]
        ) == 0
        capsys.readouterr()
        # A filtered run sees only a slice of the matrix; comparing it
        # against the full-matrix baseline would fabricate regressions.
        code = main(
            ["check", "--algorithm", "shared-opt", "--machine", "q32",
             "--gap-baseline", str(base)]
        )
        assert code == 0
        assert "skipped (filtered run)" in capsys.readouterr().out

    def test_committed_gap_baseline_matches_full_matrix(self, capsys):
        # The ratchet the CI job enforces: the committed baseline must
        # stay in sync with the schedule matrix.
        code = main(["check", "--gap-baseline", "check-gap-baseline.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "gap certificate:" in out


class TestLU:
    def test_lu_counts(self, capsys):
        assert main(["lu", "--preset", "q32", "-n", "12"]) == 0
        out = capsys.readouterr().out
        assert "right-looking-lu" in out and "left-looking-lu" in out

    def test_lu_verify(self, capsys):
        assert main(["lu", "--preset", "q32", "-n", "8", "--verify"]) == 0
        assert "verification passed" in capsys.readouterr().out


class TestBench:
    @staticmethod
    def _fake_report(path, median):
        import json

        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {
                            "fullname": "bench_x.py::bench_one",
                            "stats": {
                                "median": median,
                                "iqr": median / 10,
                                "mean": median,
                                "stddev": median / 8,
                                "rounds": 10,
                            },
                        }
                    ]
                }
            )
        )

    def test_from_json_records(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        self._fake_report(report, 0.1)
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--from-json", str(report), "--out", str(out)])
        assert code == 0
        assert "recorded 1 benchmarks" in capsys.readouterr().out
        import json

        record = json.loads(out.read_text())
        assert record["benchmarks"]["bench_x.py::bench_one"]["median_s"] == 0.1

    def test_baseline_pass_and_regression(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        self._fake_report(report, 0.1)
        assert (
            main(
                [
                    "bench",
                    "--from-json",
                    str(report),
                    "--out",
                    str(out),
                    "--write-baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # within threshold
        self._fake_report(report, 0.11)
        args = [
            "bench",
            "--from-json",
            str(report),
            "--out",
            str(out),
            "--baseline",
            str(baseline),
        ]
        assert main(args) == 0
        assert "no regressions" in capsys.readouterr().out
        # beyond threshold -> exit 1
        self._fake_report(report, 0.2)
        assert main(args) == 1
        assert "regression(s)" in capsys.readouterr().out

    def test_bad_report_is_cli_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{}")
        code = main(["bench", "--from-json", str(report)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

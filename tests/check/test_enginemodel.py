"""Engine-conformance analyzer tests: matrix walk + call-site scan."""

from __future__ import annotations

from pathlib import Path

from repro.check.enginemodel import (
    check_engine_model,
    fallback_matrix,
    scan_call_sites,
)
from repro.check.findings import WARNING


def scan_snippet(tmp_path: Path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return scan_call_sites(paths=[path])


class TestFallbackMatrix:
    def test_every_finding_is_a_silent_fallback_warning(self):
        findings = fallback_matrix()
        assert findings, "the step engine owns configurations replay cannot"
        for finding in findings:
            assert finding.rule_id == "engine/silent-fallback"
            assert finding.severity == WARNING
            assert "strict_engine=True" in finding.message

    def test_known_unsupported_classes_present(self):
        messages = "\n".join(f.message for f in fallback_matrix())
        assert "check=True" in messages          # checked IDEAL runs
        assert "inclusive=True" in messages      # inclusive hierarchies
        assert "policy='assoc8'" in messages     # associative ablations
        assert "policy='plru'" in messages

    def test_classes_deduplicate_settings_of_one_mode(self):
        # lru/lru-2x/lru-50 collapse into each lru-mode class: no message
        # may name the same (policy, inclusive) class twice.
        messages = [f.message for f in fallback_matrix()]
        assert len(messages) == len(set(messages))

    def test_supported_configurations_not_flagged(self):
        messages = "\n".join(f.message for f in fallback_matrix())
        assert "policy='lru' silently" not in messages
        assert "policy='fifo' silently" not in messages


class TestCallSiteScan:
    def test_literal_unsupported_policy_flagged(self, tmp_path):
        found = scan_snippet(
            tmp_path,
            "run_experiment('shared-opt', m, 8, 8, 8, 'lru-50',"
            " policy='assoc8', engine='replay')\n",
        )
        assert len(found) == 1
        assert found[0].rule_id == "engine/silent-fallback"
        assert "policy='assoc8'" in found[0].message
        assert found[0].location.endswith("snippet.py:1")

    def test_checked_ideal_run_flagged(self, tmp_path):
        found = scan_snippet(
            tmp_path,
            "run_experiment('shared-opt', m, 8, 8, 8, 'ideal', check=True,"
            " engine='replay')\n",
        )
        assert len(found) == 1
        assert "check=True" in found[0].message

    def test_positional_setting_understood(self, tmp_path):
        found = scan_snippet(
            tmp_path,
            "run_experiment('shared-opt', m, 8, 8, 8, 'ideal', check=True,"
            " engine='replay')\n"
            "run_experiment('shared-opt', m, 8, 8, 8, 'lru-50', check=True,"
            " engine='replay')\n",
        )
        # LRU-mode replay ignores check: only the IDEAL line falls back.
        assert len(found) == 1
        assert found[0].location.endswith(":1")

    def test_explicit_step_engine_opt_out(self, tmp_path):
        assert scan_snippet(
            tmp_path,
            "run_experiment('a', m, 8, 8, 8, 'lru', policy='assoc8',"
            " engine='step')\n",
        ) == []

    def test_strict_engine_opt_in(self, tmp_path):
        assert scan_snippet(
            tmp_path,
            "run_experiment('a', m, 8, 8, 8, 'lru', policy='assoc8',"
            " engine='replay', strict_engine=True)\n",
        ) == []

    def test_dynamic_arguments_out_of_scope(self, tmp_path):
        assert scan_snippet(
            tmp_path,
            "for policy in POLICIES:\n"
            "    run_experiment('a', m, 8, 8, 8, 'lru', policy=policy,"
            " engine='replay')\n",
        ) == []

    def test_sweep_with_inclusive_flagged(self, tmp_path):
        found = scan_snippet(
            tmp_path,
            "order_sweep(entries, machine, orders, inclusive=True,"
            " engine='replay')\n",
        )
        assert len(found) == 1
        assert "inclusive=True" in found[0].message

    def test_parallel_sweep_with_unsupported_policy_flagged(self, tmp_path):
        found = scan_snippet(
            tmp_path,
            "parallel_order_sweep(entries, machine, orders, policy='plru',"
            " engine='replay')\n",
        )
        assert len(found) == 1

    def test_supported_sweep_clean(self, tmp_path):
        assert scan_snippet(
            tmp_path,
            "order_sweep(entries, machine, orders, policy='fifo',"
            " engine='replay')\n",
        ) == []

    def test_unrelated_calls_ignored(self, tmp_path):
        assert scan_snippet(
            tmp_path, "configure(policy='assoc8', inclusive=True)\n"
        ) == []

    def test_default_engine_cannot_fall_back(self, tmp_path):
        # Omitting engine= runs step, so only the explicit replay
        # request is a silent fallback.
        call = "run_experiment('shared-opt', m, 8, 8, 8, 'lru', inclusive=True"
        assert scan_snippet(tmp_path, call + ")\n") == []
        found = scan_snippet(tmp_path, call + ", engine='replay')\n")
        assert len(found) == 1
        assert "inclusive=True" in found[0].message

    def test_syntax_errors_left_to_lint(self, tmp_path):
        assert scan_snippet(tmp_path, "def broken(:\n") == []


class TestRepoScan:
    def test_ablation_benchmarks_flagged(self):
        # The associativity ablation pins assoc8/assoc8-plru literally;
        # the repo-wide scan must find those call sites.
        locations = [f.location for f in check_engine_model()]
        assert any("bench_ablation_associativity" in loc for loc in locations)

    def test_repo_package_sources_clean(self):
        # Inside src/repro itself every fallback-prone call site is
        # either dynamic or opted out; only the matrix findings (which
        # point at the runner) may reference the package.
        matrix_count = len(fallback_matrix())
        package_findings = [
            f
            for f in check_engine_model()
            if "src/repro/sim/runner.py" in f.location
        ]
        assert len(package_findings) == matrix_count

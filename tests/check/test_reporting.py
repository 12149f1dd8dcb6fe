"""Rule ids, fingerprints, baseline suppression and SARIF export."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cache.block import MAT_A, block_key
from repro.check import (
    AnalysisContext,
    apply_baseline,
    check_presence,
    load_baseline,
    to_sarif,
    write_baseline,
    write_sarif,
)
from repro.check.findings import ERROR, WARNING, CHECKER_VERSION, Finding
from repro.check.sarif import RULE_DESCRIPTIONS
from repro.exceptions import ReproError

#: The checkout this test file lives in (``tests/check/`` is two levels down).
ROOT = Path(__file__).resolve().parents[2]


def _spurious_evict_finding() -> Finding:
    ctx = AnalysisContext(1)
    ctx.evict_shared(block_key(MAT_A, 0, 0))
    return check_presence(ctx.events, p=1)[0]


class TestRuleIds:
    def test_analyzer_findings_carry_slash_rules(self) -> None:
        finding = _spurious_evict_finding()
        assert finding.rule_id == "presence/spurious-evict"
        assert finding.to_dict()["rule"] == "presence/spurious-evict"

    def test_rule_falls_back_to_analyzer(self) -> None:
        bare = Finding("cost", ERROR, "msg")
        assert bare.rule_id == "cost"

    def test_rule_rendered_in_terminal_line(self) -> None:
        text = _spurious_evict_finding().render()
        assert "presence/spurious-evict" in text

    def test_every_known_rule_is_documented_for_sarif(self) -> None:
        # Rule ids are API: each one must have a catalogue description.
        assert "cost/formula-mismatch" in RULE_DESCRIPTIONS
        assert "cost/below-lower-bound" in RULE_DESCRIPTIONS
        assert all("/" in rule for rule in RULE_DESCRIPTIONS)


class TestFingerprints:
    def test_stable_across_runs(self) -> None:
        assert (
            _spurious_evict_finding().fingerprint()
            == _spurious_evict_finding().fingerprint()
        )

    def test_lint_line_number_excluded(self) -> None:
        # An edit above a lint finding moves its line; identity survives.
        f1 = Finding("lint", WARNING, "msg", location="src/x.py:10", rule="lint/r")
        f2 = Finding("lint", WARNING, "msg", location="src/x.py:99", rule="lint/r")
        assert f1.fingerprint() == f2.fingerprint()

    def test_distinct_rules_distinct_fingerprints(self) -> None:
        f1 = Finding("cost", ERROR, "msg", rule="cost/formula-mismatch")
        f2 = Finding("cost", ERROR, "msg", rule="cost/tdata-mismatch")
        assert f1.fingerprint() != f2.fingerprint()

    def test_from_dict_round_trip(self) -> None:
        original = _spurious_evict_finding()
        rebuilt = Finding.from_dict(original.to_dict())
        assert rebuilt == original
        assert rebuilt.fingerprint() == original.fingerprint()


class TestBaseline:
    def test_missing_file_suppresses_nothing(self, tmp_path: Path) -> None:
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_write_load_apply_round_trip(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        old = Finding("cost", ERROR, "legacy", rule="cost/formula-ratio")
        count = write_baseline(path, [old, old])  # duplicates collapse
        assert count == 1
        suppressed = load_baseline(path)
        assert suppressed == {old.fingerprint()}
        new = Finding("race", ERROR, "fresh", rule="race/write-write")
        active, baselined = apply_baseline([old, new], suppressed)
        assert active == [new]
        assert baselined == [old]

    def test_entries_review_like_a_report(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        write_baseline(path, [Finding("cost", ERROR, "msg", rule="cost/x")])
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        (entry,) = payload["suppressions"]
        assert entry["rule"] == "cost/x"
        assert entry["severity"] == ERROR
        assert entry["message"] == "msg"

    def test_deterministic_output(self, tmp_path: Path) -> None:
        findings = [
            Finding("race", ERROR, "b", rule="race/z"),
            Finding("cost", ERROR, "a", rule="cost/a"),
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_baseline(p1, findings)
        write_baseline(p2, list(reversed(findings)))
        assert p1.read_text() == p2.read_text()

    def test_bad_schema_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        path.write_text('{"schema": 99, "suppressions": []}')
        with pytest.raises(ReproError):
            load_baseline(path)

    def test_corrupt_file_rejected(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        path.write_text("not json {")
        with pytest.raises(ReproError):
            load_baseline(path)


class TestSarif:
    def _findings(self):
        return [
            Finding(
                "cost",
                ERROR,
                "counted MS diverges",
                algorithm="shared-opt",
                machine="q32",
                rule="cost/formula-mismatch",
            ),
            Finding(
                "lint",
                WARNING,
                "mutable default",
                location="src/repro/cli.py:42",
                rule="lint/mutable-default",
            ),
        ]

    def test_document_shape(self) -> None:
        doc = to_sarif(self._findings(), root=ROOT)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-mmm-check"
        assert driver["version"].startswith(f"{CHECKER_VERSION}.")
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"cost/formula-mismatch", "lint/mutable-default"} <= rule_ids

    def test_results_map_levels_locations_and_fingerprints(self) -> None:
        findings = self._findings()
        doc = to_sarif(findings, root=ROOT)
        cost_res, lint_res = doc["runs"][0]["results"]
        assert cost_res["level"] == "error"
        assert lint_res["level"] == "warning"
        # Schedule finding anchors at the algorithm's source module.
        cost_loc = cost_res["locations"][0]["physicalLocation"]
        assert cost_loc["artifactLocation"]["uri"].startswith("src/repro/")
        assert cost_loc["artifactLocation"]["uri"].endswith(".py")
        # Lint finding keeps its exact path:line.
        lint_loc = lint_res["locations"][0]["physicalLocation"]
        assert lint_loc["artifactLocation"]["uri"] == "src/repro/cli.py"
        assert lint_loc["region"]["startLine"] == 42
        # Fingerprints match the baseline identity exactly.
        assert cost_res["partialFingerprints"]["reproCheck/v1"] == findings[
            0
        ].fingerprint()
        # Algorithm context is folded into the message.
        assert "[shared-opt @ q32]" in cost_res["message"]["text"]

    def test_every_result_rule_is_in_the_catalogue(self) -> None:
        doc = to_sarif(self._findings(), root=ROOT)
        (run,) = doc["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert all(res["ruleId"] in rule_ids for res in run["results"])

    def test_write_sarif_serializes(self, tmp_path: Path) -> None:
        out = tmp_path / "out.sarif"
        write_sarif(out, self._findings(), root=ROOT)
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert len(payload["runs"][0]["results"]) == 2

    def test_empty_run_is_valid(self) -> None:
        doc = to_sarif([])
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"]  # catalogue stays

"""Tests for the fingerprint-purity analyzer (`purity/knob-in-fingerprint`)."""

import ast
from pathlib import Path

from repro.check.purity import KNOBS, check_purity

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

RULE = "purity/knob-in-fingerprint"


def findings_for(source):
    return check_purity(ast.parse(source), "m.py", source=source)


class TestMutationFixtures:
    def test_knob_parameter_into_fingerprint_arg(self):
        src = (
            "def fp(self, workers):\n"
            "    return cell_fingerprint(algorithm='a', n_workers=workers)\n"
        )
        (finding,) = findings_for(src)
        assert finding.rule_id == RULE
        assert "workers" in finding.message

    def test_knob_attribute_flows_across_statements(self):
        src = (
            "class Runner:\n"
            "    def __init__(self, workers):\n"
            "        self.workers = workers\n"
            "    def fp(self):\n"
            "        extra = {'pool': self.workers}\n"
            "        return cell_fingerprint(kwargs=extra)\n"
        )
        (finding,) = findings_for(src)
        assert finding.rule_id == RULE

    def test_knob_subscript_into_fingerprint(self):
        src = (
            "def fp(kwargs):\n"
            "    eng = kwargs['engine']\n"
            "    return cell_fingerprint(kwargs={'engine': eng})\n"
        )
        (finding,) = findings_for(src)
        assert finding.rule_id == RULE
        assert "engine" in finding.message

    def test_knob_into_checkpoint_writer_payload(self):
        src = (
            "def save(store, retries):\n"
            "    writer = CheckpointWriter(store)\n"
            "    writer.append({'attempts': retries})\n"
        )
        (finding,) = findings_for(src)
        assert finding.rule_id == RULE
        assert "retries" in finding.message

    def test_key_filter_idiom_is_clean(self):
        # The sanctioned pattern from sim/parallel.py: strip the engine
        # knobs out of kwargs before fingerprinting.
        src = (
            "def fp(kwargs):\n"
            "    clean = {k: v for k, v in kwargs.items()"
            " if k not in ('engine', 'strict_engine')}\n"
            "    return cell_fingerprint(kwargs=clean)\n"
        )
        assert findings_for(src) == []

    def test_untainted_args_are_clean(self):
        src = (
            "def fp(m, n, z):\n"
            "    return cell_fingerprint(m=m, n=n, z=z)\n"
        )
        assert findings_for(src) == []


class TestRealSources:
    """Acceptance: the fingerprint paths are pure with ZERO suppressions."""

    def _scan(self, relative):
        path = SRC_ROOT / relative
        source = path.read_text(encoding="utf-8")
        assert "noqa[purity" not in source, f"{relative} waives purity rules"
        return check_purity(ast.parse(source), str(path), source=source)

    def test_sim_parallel_is_pure(self):
        assert self._scan("sim/parallel.py") == []

    def test_store_checkpoint_is_pure(self):
        assert self._scan("store/checkpoint.py") == []

    def test_mutated_parallel_source_is_caught(self):
        # Negative control for the two clean assertions above: seed a
        # knob into the real cell fingerprint call and the rule fires.
        path = SRC_ROOT / "sim" / "parallel.py"
        source = path.read_text(encoding="utf-8")
        needle = "    return cell_fingerprint(\n        algorithm=algorithm,\n"
        assert needle in source
        mutated = source.replace(needle, needle + "        _pool=self.workers,\n", 1)
        findings = check_purity(ast.parse(mutated), str(path), source=mutated)
        assert [f.rule_id for f in findings] == [RULE]
        assert "workers" in findings[0].message


class TestKnobList:
    def test_knob_list_covers_engine_selection_and_pool_shape(self):
        for knob in ("engine", "strict_engine", "workers", "retries"):
            assert knob in KNOBS

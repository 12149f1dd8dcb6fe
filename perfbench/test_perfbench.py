"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

import oracle
import rep
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fmas(spec):
    return sum(workloads.key_order(key) ** 3 for key in spec["expected"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_work_is_seed_independent(workload):
    first = workloads.make_spec(workload, 7)
    assert first == workloads.make_spec(workload, 7)
    specs = [workloads.make_spec(workload, seed) for seed in range(40)]
    assert len({json.dumps(s["expected"]) for s in specs}) > 1
    totals = [_fmas(s) for s in specs]
    assert max(totals) / min(totals) < 1.006
    assert len({len(s["expected"]) for s in specs}) == 1


def test_oracle_covers_every_cell_any_seed_requests():
    expected = oracle.load()
    keys = {workloads.cell_key(*cell) for cell in workloads.all_cells()}
    assert keys == set(expected["cells"])
    assert {key.split("|")[0] for key in keys} == set(expected["bandwidths"])
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            assert set(workloads.make_spec(workload, seed)["expected"]) <= keys


def test_warm_start_is_detected():
    from repro.algorithms.registry import get_algorithm
    from repro.cache import replay
    from repro.model.machine import preset

    replay.clear_trace_cache()
    assert rep._cold_guard() is None
    schedule = get_algorithm("shared-opt")(preset("q32"), 5, 5, 5)
    replay.compiled_trace_for(schedule)
    try:
        assert "trace memo" in rep._cold_guard()
    finally:
        replay.clear_trace_cache()


def test_tracer_skips_a_binding_the_program_dropped():
    from tracing import Tracer

    owner = types.SimpleNamespace(kept=lambda: 1)
    tracer = Tracer()
    try:
        tracer.wrap(owner, "dropped", "gone")
        tracer.wrap(owner, "kept", "kept")
        assert owner.kept() == 1
    finally:
        tracer.close()
    assert [span["name"] for span in tracer.spans] == ["kept"]


def _run(workload, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["checkpointed-sweep", "figure-set"])
def test_untampered_run_is_correct(workload, monkeypatch, capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = _run(workload, monkeypatch, capsys)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


@pytest.mark.parametrize("workload", ["checkpointed-sweep", "figure-set"])
def test_tampered_expectation_counts_as_failed(workload, monkeypatch, capsys):
    data = oracle.load()
    key = workloads.make_spec(workload, 1)["expected"][0]
    # One more miss at every cache level than step counts, so MS, MD
    # and Tdata (what the figures plot) are all off as well.
    for level in data["cells"][key][1:]:
        level[1] += 1
    monkeypatch.setattr(oracle, "load", lambda: data)
    result = _run(workload, monkeypatch, capsys)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_benchmark_sources_pass_the_repo_lint():
    from repro.check.lint import FileProfile, scan_source

    profile = FileProfile(benchmark_module=True, lint=True)
    findings = []
    for path in sorted(HERE.glob("*.py")):
        findings += scan_source(
            path.read_text(encoding="utf-8"), str(path), profile=profile
        )
    assert [f.to_dict() for f in findings] == []


def test_speed_clock_rescales_work_by_the_nearby_samples():
    from hostspeed import REF_S, SpeedClock

    clock = SpeedClock()
    # Samples of 1 ms at 0.1 and 0.2 s, the first at full speed and the
    # second at half speed; a forked process reports half speed at 0.3 s.
    clock.samples = [(0.1, 0.101, REF_S), (0.2, 0.201, 2 * REF_S)]
    clock.foreign = [(0.3, 0.301, 2 * REF_S)]
    assert clock.raw_seconds(0.0, 0.4) == pytest.approx(0.398)
    # 0-0.1 s at full speed; 0.101-0.2 s between a full-speed and a
    # half-speed sample; 0.201-0.4 s at half speed.
    expected = 0.1 + 0.099 * 0.75 + 0.199 * 0.5
    assert clock.seconds(0.0, 0.4) == pytest.approx(expected)
    assert clock.speed() == pytest.approx(0.5)

"""Engine-fallback observability: warn once, count, strict knob, serde."""

import logging

import pytest

from repro.cache.hierarchy import LRUHierarchy
from repro.exceptions import ConfigurationError
from repro.fabric.local import run_local_fabric
from repro.model.machine import MulticoreMachine
from repro.sim.parallel import parallel_order_sweep
from repro.sim.runner import reset_fallback_warnings, run_experiment
from repro.sim.sweep import order_sweep, ratio_sweep
from repro.store.serde import result_from_dict, result_to_dict

# Power-of-two cache sizes so the 'plru' ablation policy is valid.
MACHINE = MulticoreMachine(p=4, cs=128, cd=16, q=8)

#: The step kernel plain-LRU cells run on here ("step-native" when the
#: compiled kernel is available, else "step").
LRU_STEP = LRUHierarchy(1, 1, 1).kernel


@pytest.fixture(autouse=True)
def fresh_warning_state():
    reset_fallback_warnings()
    yield
    reset_fallback_warnings()


def fallback_warnings(caplog):
    return [r for r in caplog.records if "falling back" in r.getMessage()]


class TestDefaultEngine:
    def test_every_entry_point_defaults_to_step(self, tmp_path):
        entries = [("shared-opt", "lru"), ("shared-opt", "ideal")]
        results = [
            run_experiment("shared-opt", MACHINE, 4, 4, 4, "lru"),
            run_experiment("shared-opt", MACHINE, 4, 4, 4, "ideal"),
        ]
        for sweep in (
            order_sweep(entries, MACHINE, [4]),
            ratio_sweep(entries, MACHINE, [0.5], 4),
            parallel_order_sweep(entries, MACHINE, [4], workers=1),
            run_local_fabric(entries, MACHINE, [4], run_dir=tmp_path / "run"),
        ):
            for label in sweep.labels():
                results += sweep.series[label]
        assert len(results) == 10
        for result in results:
            assert result.engine == "step"
            assert result.kernel == (
                "step" if result.setting == "ideal" else LRU_STEP
            )
            assert result.engine_fallback is False


class TestRunExperimentFallback:
    def test_unsupported_config_falls_back_to_step(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
        )
        assert result.engine == "step"
        assert result.engine_fallback

    def test_supported_config_stays_on_replay_even_when_strict(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", engine="replay", strict_engine=True
        )
        assert result.engine == "replay"
        assert not result.engine_fallback

    def test_explicit_step_engine_is_not_a_fallback(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="step"
        )
        assert result.engine == "step"
        assert not result.engine_fallback

    def test_strict_engine_raises_on_unsupported_config(self):
        with pytest.raises(ConfigurationError, match="strict_engine"):
            run_experiment(
                "shared-opt",
                MACHINE,
                4,
                4,
                4,
                "ideal",
                check=True,
                engine="replay",
                strict_engine=True,
            )

    def test_fallback_is_bit_identical_to_explicit_step(self):
        via_fallback = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="replay"
        )
        explicit = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="step"
        )
        assert via_fallback.stats == explicit.stats
        assert via_fallback.engine_fallback and not explicit.engine_fallback


class TestWarnOnce:
    def test_repeated_configuration_warns_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.sim.runner"):
            run_experiment(
                "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
            )
            run_experiment(
                "shared-opt", MACHINE, 6, 6, 6, "lru", inclusive=True, engine="replay"
            )
        warned = fallback_warnings(caplog)
        assert len(warned) == 1
        assert "strict_engine=True" in warned[0].getMessage()

    def test_distinct_configurations_each_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.sim.runner"):
            run_experiment(
                "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
            )
            run_experiment(
                "shared-opt", MACHINE, 4, 4, 4, "lru", policy="plru", engine="replay"
            )
        assert len(fallback_warnings(caplog)) == 2

    def test_reset_rearms_the_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.sim.runner"):
            run_experiment(
                "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
            )
            reset_fallback_warnings()
            run_experiment(
                "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
            )
        assert len(fallback_warnings(caplog)) == 2


class TestSweeps:
    def test_order_sweep_warns_once_per_sweep(self, caplog):
        # Four cells (2 entries x 2 orders) share one fallback
        # configuration: exactly one warning for the whole sweep.
        entries = [("shared-opt", "lru"), ("outer-product", "lru")]
        with caplog.at_level(logging.WARNING, logger="repro.sim.runner"):
            order_sweep(entries, MACHINE, [4, 8], inclusive=True, engine="replay")
        assert len(fallback_warnings(caplog)) == 1

    def test_order_sweep_strict_engine_raises(self):
        with pytest.raises(ConfigurationError, match="strict_engine"):
            order_sweep(
                [("shared-opt", "lru")],
                MACHINE,
                [4],
                inclusive=True,
                engine="replay",
                strict_engine=True,
            )

    def test_parallel_sweep_counts_fallbacks_in_manifest(self):
        sweep = parallel_order_sweep(
            [("shared-opt", "lru")],
            MACHINE,
            [4, 8],
            policy="plru",
            engine="replay",
            workers=2,
        )
        manifest = sweep.manifest
        assert manifest is not None
        assert manifest.engine_fallbacks == 2
        assert all(cell.engine_fallback for cell in manifest.cells)
        assert manifest.to_dict()["engine_fallbacks"] == 2

    def test_parallel_sweep_clean_run_counts_zero(self):
        sweep = parallel_order_sweep(
            [("shared-opt", "lru")], MACHINE, [4], workers=1
        )
        manifest = sweep.manifest
        assert manifest is not None
        assert manifest.engine_fallbacks == 0
        assert not any(cell.engine_fallback for cell in manifest.cells)


class TestSerde:
    def test_engine_telemetry_round_trips(self):
        result = run_experiment(
            "shared-opt", MACHINE, 4, 4, 4, "lru", inclusive=True, engine="replay"
        )
        again = result_from_dict(result_to_dict(result))
        assert again.engine == "step"
        assert again.engine_fallback

    def test_legacy_payload_defaults_to_no_fallback(self):
        result = run_experiment("shared-opt", MACHINE, 4, 4, 4, "lru")
        payload = result_to_dict(result)
        payload.pop("engine", None)
        payload.pop("engine_fallback", None)
        again = result_from_dict(payload)
        assert again.engine_fallback is False

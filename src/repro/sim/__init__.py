"""Simulation engine: contexts, settings, runner and sweeps.

* :mod:`repro.sim.contexts` — interpreters plugging algorithms into the
  LRU / IDEAL hierarchies.
* :mod:`repro.sim.settings` — the paper's simulation settings (IDEAL,
  LRU, LRU-50, LRU-2x).
* :mod:`repro.sim.runner` — one-call experiment execution producing
  :class:`~repro.sim.results.ExperimentResult`.
* :mod:`repro.sim.sweep` — matrix-order and bandwidth-ratio sweeps.
* :mod:`repro.sim.parallel` — the fault-tolerant process-parallel sweep
  engine (timeouts, retries, crash recovery, run manifests).
* :mod:`repro.sim.telemetry` — per-cell records, worker statistics and
  the JSON run manifest.
* :mod:`repro.sim.faults` — injectable crash/hang/flaky/stall/die
  cells for exercising the engine and the fabric.
* :mod:`repro.sim.retrypolicy` — the shared retry classification and
  jittered exponential backoff used by the pool engine and the fabric.
"""

from repro.sim.contexts import (
    ChainContext,
    IdealContext,
    LRUContext,
    RecordingContext,
)
from repro.sim.settings import SETTINGS, Setting, get_setting
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.runner import run_experiment
from repro.sim.sweep import order_sweep, ratio_sweep, resolve_entries, series_label
from repro.sim.parallel import parallel_order_sweep
from repro.sim.faults import (
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
    dump_fault_plan,
    load_fault_plan,
)
from repro.sim.retrypolicy import BackoffPolicy, is_retryable
from repro.sim.telemetry import CellRecord, FabricStats, RunManifest, WorkerStats
from repro.sim.timing import TimingEstimate, TimingModel

__all__ = [
    "ChainContext",
    "IdealContext",
    "LRUContext",
    "RecordingContext",
    "SETTINGS",
    "Setting",
    "get_setting",
    "ExperimentResult",
    "SweepResult",
    "run_experiment",
    "order_sweep",
    "ratio_sweep",
    "resolve_entries",
    "series_label",
    "parallel_order_sweep",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "dump_fault_plan",
    "load_fault_plan",
    "BackoffPolicy",
    "is_retryable",
    "CellRecord",
    "FabricStats",
    "RunManifest",
    "WorkerStats",
    "TimingEstimate",
    "TimingModel",
]

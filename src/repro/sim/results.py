"""Result containers for experiments and sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.formulas import PredictedCounts
from repro.cache.stats import HierarchyStats
from repro.model.machine import MulticoreMachine
from repro.sim.telemetry import (
    STATUS_FAILED,
    STATUS_SKIPPED,
    CellRecord,
    RunManifest,
)


@dataclass
class ExperimentResult:
    """Outcome of one algorithm run under one setting.

    ``ms``, ``md`` and ``tdata`` are the simulated values; ``predicted``
    carries the closed-form counts for the *declared* machine (what the
    algorithm planned against), when a formula is registered.
    """

    algorithm: str
    setting: str
    machine: MulticoreMachine
    m: int
    n: int
    z: int
    parameters: Dict[str, Any]
    stats: HierarchyStats
    comp: List[int]
    predicted: Optional[PredictedCounts] = None
    elapsed_s: float = 0.0
    #: Telemetry: how many sweep-engine attempts this result took (1 for
    #: serial runs) and the pid of the process that produced it.
    attempts: int = 1
    worker: Optional[int] = None
    #: Which engine actually simulated the cell (``"replay"``/``"step"``;
    #: empty on results predating the field) and whether a requested
    #: replay was silently degraded to the step engine.
    engine: str = ""
    engine_fallback: bool = False
    #: Which kernel evaluated the cell: ``"step-native"`` (step engine,
    #: compiled plain-LRU kernel), ``"step"`` (step engine, Python path:
    #: IDEAL, FIFO, inclusive, or plain LRU without a built kernel),
    #: ``"bulk-lru"``/``"bulk-fifo"``/``"ideal"`` (replay); and where a
    #: replayed cell's compiled trace came from (``"compiled"``/
    #: ``"memory"``/``"disk"``, empty on step results).
    #: ``trace_source="sweep"`` marks a cell that was not simulated: a
    #: :func:`~repro.sim.sweep.ratio_sweep` point whose schedule and
    #: hierarchy equal an earlier point's, built from that point's
    #: counters (``elapsed_s=0.0``; ``engine``/``kernel`` are the
    #: simulated point's).  Both are empty on results predating the
    #: fields; like ``engine``, never part of resume identity or cell
    #: fingerprints.
    kernel: str = ""
    trace_source: str = ""

    @property
    def ms(self) -> int:
        """Simulated shared-cache misses."""
        return self.stats.ms

    @property
    def md(self) -> int:
        """Simulated max per-core distributed misses."""
        return self.stats.md

    @property
    def tdata(self) -> float:
        """Simulated data access time under the machine's bandwidths."""
        return self.stats.tdata(self.machine.sigma_s, self.machine.sigma_d)

    @property
    def comp_total(self) -> int:
        """Total elementary block multiply-adds executed."""
        return sum(self.comp)

    @property
    def ccr_s(self) -> float:
        """Simulated shared CCR: ``MS / comp_total``."""
        return self.ms / self.comp_total if self.comp_total else float("inf")

    @property
    def ccr_d(self) -> float:
        """Simulated distributed CCR: ``MD / (comp_total / p)``."""
        per_core = self.comp_total / self.machine.p
        return self.md / per_core if per_core else float("inf")

    def to_row(self) -> Dict[str, Any]:
        """Flat dict suitable for CSV writing / tabulation."""
        row: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "setting": self.setting,
            "m": self.m,
            "n": self.n,
            "z": self.z,
            "MS": self.ms,
            "MD": self.md,
            "Tdata": self.tdata,
            "CCR_S": self.ccr_s,
            "CCR_D": self.ccr_d,
            "comp_total": self.comp_total,
            "imbalance": self.stats.imbalance(),
        }
        if self.predicted is not None:
            row["MS_pred"] = self.predicted.ms
            row["MD_pred"] = self.predicted.md
            row["Tdata_pred"] = self.predicted.tdata(self.machine)
        for k, v in self.parameters.items():
            row[f"param_{k}"] = v
        return row


@dataclass
class SweepResult:
    """A family of experiment series over a swept variable.

    ``series`` maps a label (typically ``"<algorithm> <setting>"``) to
    the list of results in sweep order; ``xs`` are the swept values.

    A series slot holds ``None`` when that cell never produced a result
    — the sweep engine degraded it to an explicit :class:`CellRecord`
    in ``failures`` instead of aborting the sweep.  ``failures`` and
    ``cell_counts`` let downstream consumers (figures, conformance
    checks) distinguish "ran and measured" from "never ran"; a serial
    sweep always has ``failures == []``.
    """

    variable: str
    xs: List[Any]
    series: Dict[str, List[Optional[ExperimentResult]]] = field(default_factory=dict)
    #: Per-cell failure/skip records from the sweep engine.
    failures: List[CellRecord] = field(default_factory=list)
    #: Run manifest of the engine execution that produced this sweep
    #: (``None`` for serial sweeps).
    manifest: Optional[RunManifest] = None
    #: Signal name when a store-backed run was interrupted and drained
    #: (``"SIGINT"``/``"SIGTERM"``); ``None`` for runs that finished.
    interrupted: Optional[str] = None

    def add(self, label: str, results: List[Optional[ExperimentResult]]) -> None:
        if len(results) != len(self.xs):
            raise ValueError(
                f"series {label!r} has {len(results)} points, expected {len(self.xs)}"
            )
        self.series[label] = results

    def values(self, label: str, metric: str) -> List[float]:
        """Extract one metric (``"ms"``, ``"md"``, ``"tdata"``, …) of a series.

        Raises :class:`ValueError` when the series has holes — callers
        that tolerate failed cells should consult :attr:`failures` and
        :meth:`result` instead of assuming a dense series.
        """
        out: List[float] = []
        for index, result in enumerate(self.series[label]):
            if result is None:
                record = self._record_for(label, index)
                detail = (
                    f" ({record.status}: {record.error_type}: {record.error})"
                    if record is not None
                    else ""
                )
                raise ValueError(
                    f"series {label!r} has no result at "
                    f"{self.variable}={self.xs[index]}{detail}; "
                    "inspect SweepResult.failures"
                )
            out.append(getattr(result, metric))
        return out

    def result(self, label: str, index: int) -> Optional[ExperimentResult]:
        """One cell's result, or ``None`` if it failed / was skipped."""
        return self.series[label][index]

    def labels(self) -> List[str]:
        return list(self.series)

    def _record_for(self, label: str, index: int) -> Optional[CellRecord]:
        for record in self.failures:
            if record.label == label and record.index == index:
                return record
        return None

    @property
    def complete(self) -> bool:
        """Whether every cell of every series produced a result."""
        return not self.failures and all(
            result is not None for results in self.series.values() for result in results
        )

    def failed_cells(self) -> List[CellRecord]:
        """Cells that ran (possibly several times) and never succeeded."""
        return [r for r in self.failures if r.status == STATUS_FAILED]

    def skipped_cells(self) -> List[CellRecord]:
        """Cells the engine never (re)ran — e.g. suspected worker-killers."""
        return [r for r in self.failures if r.status == STATUS_SKIPPED]

    def cell_counts(self) -> Dict[str, int]:
        """Cell totals: ``{"ok": …, "failed": …, "skipped": …}``."""
        ok = sum(
            1 for results in self.series.values() for r in results if r is not None
        )
        return {
            "ok": ok,
            "failed": len(self.failed_cells()),
            "skipped": len(self.skipped_cells()),
        }

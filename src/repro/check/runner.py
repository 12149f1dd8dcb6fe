"""Orchestration: record schedules and run every analyzer over them.

:func:`analyze_schedule` proves one algorithm instance; :func:`check_all`
spans the registered algorithm × machine-preset matrix the way the
experiment harness does, choosing per-cell matrix orders that exercise
both the evenly-tiled and the ragged-edge paths of each schedule while
staying in static-analysis (not simulation) territory time-wise.

Cells with no feasible parameters on a machine (e.g. a non-square core
grid for Algorithm 2) are not silently dropped: they come back as
``status="skipped"`` reports carrying the reason, so a consumer (CI,
``--json``) can tell an intentionally sparse matrix from an
accidentally empty one.  Pass a
:class:`~repro.check.incremental.ReportCache` to reuse the reports of
cells whose inputs (algorithm source, machine, orders, checker
version) have not changed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.check.capacity import (
    capacity_and_peaks,
    check_parameters,
    working_set_peaks,
)
from repro.check.cost import check_cost, count_costs
from repro.check.coverage import check_coverage
from repro.check.events import AnalysisContext
from repro.check.findings import ERROR, Finding
from repro.check.gap import GapCell
from repro.check.presence import check_presence
from repro.check.races import check_races
from repro.check.tightbounds import check_tight_bounds
from repro.exceptions import ReproError
from repro.model.machine import PRESETS, MulticoreMachine

if TYPE_CHECKING:  # imported lazily to keep runner import-light
    from repro.check.incremental import ReportCache
    from repro.check.rules import RuleConfig

#: ``status`` values a :class:`ScheduleReport` can carry.
ANALYZED = "analyzed"
SKIPPED = "skipped"


@dataclass
class ScheduleReport:
    """Outcome of statically analyzing one schedule instance."""

    algorithm: str
    machine: str
    m: int
    n: int
    z: int
    events: int
    computes: int
    peak_shared: int
    peak_dist: List[int]
    findings: List[Finding] = field(default_factory=list)
    status: str = ANALYZED
    skip_reason: str = ""
    elapsed_s: float = 0.0
    cached: bool = False
    #: Optimality-gap data for the gap certificate; ``None`` for skipped
    #: cells and compute-only schedules (no directives, nothing counted).
    gap: Optional[GapCell] = None

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def ok(self) -> bool:
        return self.errors == 0

    @property
    def skipped(self) -> bool:
        return self.status == SKIPPED

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "machine": self.machine,
            "status": self.status,
            "m": self.m,
            "n": self.n,
            "z": self.z,
            "events": self.events,
            "computes": self.computes,
            "peak_shared": self.peak_shared,
            "peak_dist": list(self.peak_dist),
            "elapsed_s": round(self.elapsed_s, 6),
            "findings": [f.to_dict() for f in self.findings],
        }
        if self.skip_reason:
            out["skip_reason"] = self.skip_reason
        if self.cached:
            out["cached"] = True
        if self.gap is not None:
            out["gap"] = self.gap.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScheduleReport":
        """Rebuild a report from :meth:`to_dict` output (cache replay)."""
        return cls(
            algorithm=str(data["algorithm"]),
            machine=str(data["machine"]),
            m=int(data["m"]),
            n=int(data["n"]),
            z=int(data["z"]),
            events=int(data["events"]),
            computes=int(data["computes"]),
            peak_shared=int(data["peak_shared"]),
            peak_dist=[int(d) for d in data["peak_dist"]],
            findings=[Finding.from_dict(f) for f in data["findings"]],
            status=str(data.get("status", ANALYZED)),
            skip_reason=str(data.get("skip_reason", "")),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            gap=(
                GapCell.from_dict(data["gap"]) if data.get("gap") else None
            ),
        )


def _skipped_report(
    algorithm: str, machine: str, order: int, reason: str
) -> ScheduleReport:
    return ScheduleReport(
        algorithm=algorithm,
        machine=machine,
        m=order,
        n=order,
        z=order,
        events=0,
        computes=0,
        peak_shared=0,
        peak_dist=[],
        status=SKIPPED,
        skip_reason=reason,
    )


def analyze_schedule(
    alg: MatmulAlgorithm,
    *,
    machine_label: str = "",
    limit: int = 25,
) -> ScheduleReport:
    """Record ``alg``'s schedule symbolically and run every analyzer.

    Capacity, presence and cost checking apply only to schedules that
    carry explicit directives (``supports_ideal``); coverage and race
    detection always apply — a compute-only schedule is one concurrent
    epoch, so disjoint ``C`` ownership is still proved.
    """
    started = time.perf_counter()
    machine = alg.machine
    label = machine_label or machine.name or f"p={machine.p},cs={machine.cs},cd={machine.cd}"
    ctx = AnalysisContext(machine.p)
    alg.run(ctx)
    events = ctx.events

    findings: List[Finding] = check_parameters(alg, machine=label)
    common: Dict[str, Any] = dict(algorithm=alg.name, machine=label, limit=limit)
    gap: Optional[GapCell] = None
    if ctx.directives:
        cap_findings, peak_shared, peak_dist = capacity_and_peaks(
            events, machine.cs, machine.cd, machine.p, **common
        )
        findings += cap_findings
        findings += check_presence(events, machine.p, **common)
        counted = count_costs(events, machine.p)
        findings += check_cost(
            alg, events, machine=label, limit=limit, counted=counted
        )
        tight_findings, gap = check_tight_bounds(alg, counted, machine=label)
        findings += tight_findings
    else:
        peak_shared, peak_dist = working_set_peaks(events, machine.p)
    findings += check_coverage(events, alg.m, alg.n, alg.z, **common)
    findings += check_races(events, machine.p, **common)
    return ScheduleReport(
        algorithm=alg.name,
        machine=label,
        m=alg.m,
        n=alg.n,
        z=alg.z,
        events=len(events),
        computes=ctx.comp_total,
        peak_shared=peak_shared,
        peak_dist=peak_dist,
        findings=findings,
        elapsed_s=time.perf_counter() - started,
        gap=gap,
    )


def suggested_orders(
    cls: Type[MatmulAlgorithm], machine: MulticoreMachine
) -> Tuple[int, ...]:
    """Matrix orders that exercise a schedule's tiling on ``machine``.

    Derived from the schedule's natural tile side (λ, ``√p·µ``, α, t):
    a multi-tile evenly-divisible order plus a ragged order for small
    tiles; a single ragged order for large tiles (keeps the biggest
    presets — λ = 30 at q32 — within a fraction of a second).
    """
    probe = cls(machine, 1, 1, 1)
    params = probe.parameters()
    sides = [
        v
        for k, v in params.items()
        if k in ("lambda", "tile", "alpha", "t") and isinstance(v, int)
    ]
    if sides:
        tile = max(sides)
    else:
        # Grid-partitioned schedules (outer-product, cannon): any order
        # works; pick a couple of grid multiples ± a ragged remainder.
        tile = int(params.get("grid", 1)) * 2
    tile = max(tile, 1)
    if tile <= 10:
        return (2 * tile, 2 * tile + 3)
    return (tile + 3,)


def check_all(
    algorithms: Optional[Iterable[str]] = None,
    machines: Optional[Dict[str, MulticoreMachine]] = None,
    *,
    orders: Optional[Sequence[int]] = None,
    limit: int = 25,
    cache: Optional["ReportCache"] = None,
) -> List[ScheduleReport]:
    """Analyze every algorithm × machine cell; returns one report each.

    Cells whose parameters are infeasible on a machine (e.g. a
    non-square core grid for Algorithm 2) come back as ``skipped``
    reports rather than disappearing.  A cell that *raises*
    mid-schedule is reported as a single ``schedule`` error finding
    rather than aborting the sweep.  With ``cache`` set, unchanged
    cells replay their stored reports instead of re-analyzing.
    """
    if algorithms is None:
        algorithms = algorithm_names(include_extras=True)
    if machines is None:
        machines = dict(PRESETS)
    reports: List[ScheduleReport] = []
    for name in algorithms:
        cls = get_algorithm(name)
        for key, machine in machines.items():
            try:
                cell_orders = tuple(orders) if orders else suggested_orders(cls, machine)
            except ReproError as exc:
                reports.append(_skipped_report(name, key, 0, str(exc)))
                continue  # no feasible parameters on this machine
            if cache is not None:
                cell_key = cache.cell_key(cls, machine, key, cell_orders)
                cached = cache.load(cell_key)
                if cached is not None:
                    reports.extend(cached)
                    continue
            cell_reports: List[ScheduleReport] = []
            for order in cell_orders:
                try:
                    alg = cls(machine, order, order, order)
                except ReproError as exc:
                    cell_reports.append(_skipped_report(name, key, order, str(exc)))
                    continue
                try:
                    cell_reports.append(
                        analyze_schedule(alg, machine_label=key, limit=limit)
                    )
                except ReproError as exc:
                    cell_reports.append(
                        ScheduleReport(
                            algorithm=name,
                            machine=key,
                            m=order,
                            n=order,
                            z=order,
                            events=0,
                            computes=0,
                            peak_shared=0,
                            peak_dist=[],
                            findings=[
                                Finding(
                                    "schedule",
                                    ERROR,
                                    f"schedule raised while recording: {exc}",
                                    algorithm=name,
                                    machine=key,
                                    rule="schedule/raised",
                                )
                            ],
                        )
                    )
            if cache is not None:
                cache.store(cell_key, cell_reports)
            reports.extend(cell_reports)
    return reports


def source_scan(
    *,
    config: Optional["RuleConfig"] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """The full static source pass, as the CLI and CI run it.

    Returns ``(scan, engine)``: the per-file scan (syntactic lint,
    determinism and purity dataflow rules, suppression hygiene) over
    the package, ``benchmarks/`` and ``tests/``, and the
    engine-conformance findings (configuration-matrix walk plus
    call-site scan), both filtered through ``config``.
    """
    from repro.check.enginemodel import check_engine_model
    from repro.check.lint import run_lint
    from repro.check.rules import DEFAULT_CONFIG, RuleConfig, filter_findings

    cfg = config if config is not None else DEFAULT_CONFIG
    scan = run_lint(config=cfg)
    engine = filter_findings(check_engine_model(), cfg)
    return scan, engine

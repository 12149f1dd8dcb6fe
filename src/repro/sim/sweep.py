"""Parameter sweeps: matrix order and bandwidth ratio.

The paper's evaluation plots everything against either the (square)
matrix order in blocks (Figs. 4–11) or the bandwidth ratio
``r = σS/(σS + σD)`` at fixed order (Fig. 12).  These helpers produce
:class:`~repro.sim.results.SweepResult` families for both axes.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms.registry import get_algorithm
from repro.analysis.formulas import FORMULAS, predict
from repro.exceptions import ConfigurationError, ReproError
from repro.model.machine import MulticoreMachine
from repro.sim.results import ExperimentResult, SweepResult
from repro.sim.runner import reset_fallback_warnings, run_experiment
from repro.sim.settings import get_setting

#: A sweep entry: algorithm name + setting key, optionally with
#: algorithm parameter overrides.
Entry = Union[Tuple[str, str], Tuple[str, str, Dict[str, Any]]]


def _unpack(entry: Entry) -> Tuple[str, str, Dict[str, Any]]:
    if len(entry) == 2:
        algorithm, setting = entry  # type: ignore[misc]
        return algorithm, setting, {}
    algorithm, setting, params = entry  # type: ignore[misc]
    return algorithm, setting, dict(params)


def series_label(
    algorithm: str,
    setting: str,
    params: Optional[Mapping[str, Any]] = None,
) -> str:
    """Canonical series label, e.g. ``"shared-opt lru-50"``.

    Parameter overrides are folded into the label
    (``"shared-opt lru-50 lam=8"``) so that two entries differing only
    in ``params`` produce *distinct* series instead of silently
    overwriting each other's results.
    """
    label = f"{algorithm} {setting}"
    if params:
        overrides = " ".join(f"{key}={params[key]}" for key in sorted(params))
        label = f"{label} {overrides}"
    return label


def resolve_entries(
    entries: Iterable[Entry],
) -> List[Tuple[str, str, Dict[str, Any], str]]:
    """Unpack entries and assign each its unique series label.

    Raises :class:`~repro.exceptions.ConfigurationError` for an unknown
    algorithm or setting name — before any cell runs or any pool
    starts — and when two entries collapse to the same label (same
    algorithm, setting *and* parameter overrides): running a true
    duplicate would silently discard one entry's results.
    """
    resolved: List[Tuple[str, str, Dict[str, Any], str]] = []
    seen: Dict[str, int] = {}
    for position, entry in enumerate(entries):
        algorithm, setting, params = _unpack(entry)
        get_algorithm(algorithm)
        get_setting(setting)
        label = series_label(algorithm, setting, params)
        if label in seen:
            raise ConfigurationError(
                f"duplicate series label {label!r} (entries {seen[label] + 1} "
                f"and {position + 1}): identical (algorithm, setting, params) "
                "entries would overwrite each other's series"
            )
        seen[label] = position
        resolved.append((algorithm, setting, params, label))
    return resolved


def order_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    orders: Sequence[int],
    *,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "step",
    strict_engine: bool = False,
    workers: int = 0,
) -> SweepResult:
    """Run every (algorithm, setting) entry over square orders ``m=n=z``.

    Every cell runs on the step engine unless ``engine="replay"`` is
    requested.  Then entries that share a schedule — same algorithm,
    parameters and *declared* machine, e.g. the ``lru``/``lru-2x``/
    ``ideal`` family — reuse one memoized compiled trace per order
    instead of re-running the schedule per setting (see
    :mod:`repro.cache.replay`), and a configuration replay cannot
    reproduce is warned about once per sweep and falls back to the
    step engine — or raises, with ``strict_engine=True``.

    With ``workers > 1`` the cells run on the fault-tolerant sweep
    engine (:func:`repro.sim.parallel.parallel_order_sweep`), one cell
    per task, largest order first so the paper-scale cells never queue
    behind trivia.  Results are identical to the serial sweep (every
    cell is an independent ``run_experiment`` call); the in-process
    trace memo is per worker, so cross-setting trace reuse happens only
    through the on-disk tier when one is configured.  The contract stays
    the serial one: every cell has a result, or the call raises — a
    cell that failed or was skipped after the engine's retries raises
    :class:`~repro.exceptions.ReproError` naming the cell and its error.
    """
    resolved = resolve_entries(entries)
    if workers > 1:
        from repro.sim.parallel import parallel_order_sweep

        parallel = parallel_order_sweep(
            [(algorithm, setting, params) for algorithm, setting, params, _ in resolved],
            machine,
            orders,
            workers=workers,
            chunksize=1,  # never two paper-scale cells in one task
            check=check,
            inclusive=inclusive,
            policy=policy,
            engine=engine,
            strict_engine=strict_engine,
        )
        for record in parallel.failures:
            raise ReproError(
                f"order sweep cell {record.label!r} at order {record.x} "
                f"{record.status} after {record.attempts} attempt(s): "
                f"{record.error_type}: {record.error}"
            )
        return parallel
    reset_fallback_warnings()
    sweep = SweepResult(variable="order", xs=list(orders))
    for algorithm, setting, params, label in resolved:
        results: List[Optional[ExperimentResult]] = [
            run_experiment(
                algorithm,
                machine,
                order,
                order,
                order,
                setting,
                check=check,
                inclusive=inclusive,
                policy=policy,
                engine=engine,
                strict_engine=strict_engine,
                **params,
            )
            for order in orders
        ]
        sweep.add(label, results)
    return sweep


def ratio_sweep(
    entries: Iterable[Entry],
    machine: MulticoreMachine,
    ratios: Sequence[float],
    order: int,
    *,
    total_bandwidth: float = 2.0,
    check: bool = False,
    inclusive: bool = False,
    policy: str = "lru",
    engine: str = "step",
    strict_engine: bool = False,
) -> SweepResult:
    """Run entries over bandwidth ratios ``r = σS/(σS+σD)`` at fixed order.

    Each ratio rescales the machine's bandwidths (keeping their sum at
    ``total_bandwidth``); algorithms that adapt to bandwidths (Tradeoff)
    re-plan at every point, exactly as in Fig. 12.  ``policy``,
    ``inclusive`` and ``strict_engine`` forward to
    :func:`~repro.sim.runner.run_experiment` exactly as in
    :func:`order_sweep`, so ratio sweeps can exercise the FIFO and
    inclusive-hierarchy variants too.

    Bandwidths only weigh the simulated counters (``Tdata = MS/σS +
    MD/σD``), so each distinct cell identity — the schedule's
    :meth:`~repro.algorithms.base.MatmulAlgorithm.schedule_key` plus
    what the hierarchy's counters depend on — is simulated once per
    call.  Every later ratio with the same identity copies that
    result's counters under its own machine, parameters and
    prediction, with ``elapsed_s=0.0`` and ``trace_source="sweep"``.
    """
    reset_fallback_warnings()
    sweep = SweepResult(variable="r", xs=list(ratios))
    first_of: Dict[Tuple[Any, ...], ExperimentResult] = {}
    for algorithm, setting_key, params, label in resolve_entries(entries):
        cls = get_algorithm(algorithm)
        setting = get_setting(setting_key)
        results: List[Optional[ExperimentResult]] = []
        for r in ratios:
            m = machine.with_bandwidth_ratio(r, total=total_bandwidth)
            alg = cls(setting.declared(m), order, order, order, **params)
            simulated = setting.simulated(m)
            identity = (
                alg.schedule_key(),
                setting.mode,
                simulated.p,
                simulated.cs,
                simulated.cd,
                policy,
                inclusive,
                check,
            )
            first = first_of.get(identity)
            if first is None:
                first = first_of[identity] = run_experiment(
                    algorithm,
                    m,
                    order,
                    order,
                    order,
                    setting_key,
                    check=check,
                    inclusive=inclusive,
                    policy=policy,
                    engine=engine,
                    strict_engine=strict_engine,
                    **params,
                )
                results.append(first)
                continue
            results.append(
                dataclasses.replace(
                    first,
                    setting=setting.key,
                    machine=m,
                    parameters=alg.parameters(),
                    stats=copy.deepcopy(first.stats),
                    comp=list(first.comp),
                    predicted=predict(alg) if alg.name in FORMULAS else None,
                    elapsed_s=0.0,
                    trace_source="sweep",
                )
            )
        sweep.add(label, results)
    return sweep

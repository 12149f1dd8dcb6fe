"""One-call experiment execution.

:func:`run_experiment` wires a machine, an algorithm and a setting into
a hierarchy + context pair, runs the schedule and packages the outcome.
This is the function everything else (experiments, benches, CLI,
examples) goes through.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Any, Optional, Set, Tuple, Type, Union

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import get_algorithm
from repro.analysis.formulas import FORMULAS, predict
from repro.cache import replay as replay_engine
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.exceptions import ConfigurationError, ScheduleError
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext, LRUContext
from repro.sim.results import ExperimentResult
from repro.sim.settings import Setting, get_setting

#: Valid values of ``run_experiment``'s ``engine`` parameter.
ENGINES = ("replay", "step")

#: Largest schedule (in multiply-adds) ``engine="replay"`` materializes.
#: A compiled trace costs 32 bytes per FMA, so this caps it near 2 GB;
#: larger cells (an order-1100 cell is 1.33e9 FMAs) fall back to the
#: memory-bounded step engine.
REPLAY_MAX_FMAS = 64_000_000

logger = logging.getLogger(__name__)

#: Fallback configurations already warned about (process-wide); sweeps
#: reset this so every sweep warns at most once per configuration.
_WARNED_FALLBACKS: Set[Tuple[str, str, bool, bool]] = set()


def reset_fallback_warnings() -> None:
    """Forget which replay→step fallbacks were already warned about.

    Sweep drivers call this at sweep start so "warn once" is scoped to
    the sweep, not the process lifetime.
    """
    _WARNED_FALLBACKS.clear()


def note_engine_fallback(
    setting_key: str, policy: str, inclusive: bool, check: bool
) -> None:
    """Record (and warn once per configuration about) a replay→step fallback.

    The fallback is bit-identical but slow; making it observable is the
    runtime half of the static ``engine/silent-fallback`` analysis
    (:mod:`repro.check.enginemodel`).
    """
    key = (setting_key, policy, inclusive, check)
    if key in _WARNED_FALLBACKS:
        return
    _WARNED_FALLBACKS.add(key)
    logger.warning(
        "replay engine cannot run setting=%r policy=%r inclusive=%r check=%r "
        "(unsupported configuration, or a trace over REPLAY_MAX_FMAS "
        "multiply-adds); falling back to the step engine (pass "
        "strict_engine=True to fail fast, or engine='step' to silence this "
        "warning)",
        setting_key,
        policy,
        inclusive,
        check,
    )


def run_experiment(
    algorithm: Union[str, Type[MatmulAlgorithm]],
    machine: MulticoreMachine,
    m: int,
    n: int,
    z: int,
    setting: Union[str, Setting] = "ideal",
    *,
    check: bool = False,
    policy: str = "lru",
    inclusive: bool = False,
    verify_comp: bool = True,
    engine: str = "step",
    strict_engine: bool = False,
    **alg_params: Any,
) -> ExperimentResult:
    """Run one algorithm on one machine under one setting.

    Parameters
    ----------
    algorithm:
        Registered name or :class:`MatmulAlgorithm` subclass.
    machine:
        The physical machine (full cache sizes, real bandwidths).
    m, n, z:
        Matrix dimensions in blocks (``A: m×z``, ``B: z×n``).
    setting:
        Simulation setting key or object (``ideal``, ``lru``,
        ``lru-2x``, ``lru-50``).
    check:
        In IDEAL mode, enable capacity/inclusion/presence verification
        (slower; invaluable in tests).
    policy, inclusive:
        LRU-mode hierarchy options (replacement policy; shared-eviction
        back-invalidation).
    verify_comp:
        Assert that the schedule emitted exactly ``m·n·z`` elementary
        multiply-adds (cheap sanity net; disable only in throughput
        measurements).
    engine:
        ``"step"`` (default) interprets the schedule reference by
        reference against the hierarchy: memory-bounded at any order,
        and the oracle every other path is tested against.
        ``"replay"`` compiles the schedule's access trace once
        (memoized across settings and repeated runs, see
        :mod:`repro.cache.replay`) and replays it in bulk with
        bit-identical counters; it pays off only where a trace is
        reused (FIFO ablations, capacity curves, warm re-evaluation).
        Configurations replay does not cover (``check=True``, inclusive
        hierarchies, associative/PLRU policies) and traces past
        :data:`REPLAY_MAX_FMAS` use the step engine instead — warned
        once per configuration and recorded on the result
        (``engine_fallback``).
    strict_engine:
        Raise :class:`~repro.exceptions.ConfigurationError` instead of
        falling back when ``engine="replay"`` cannot reproduce the
        configuration.
    alg_params:
        Forwarded to the algorithm constructor (parameter overrides).
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; valid engines: {list(ENGINES)}"
        )
    if isinstance(algorithm, str):
        algorithm = get_algorithm(algorithm)
    if isinstance(setting, str):
        setting = get_setting(setting)

    declared = setting.declared(machine)
    alg = algorithm(declared, m, n, z, **alg_params)

    if setting.is_ideal and not algorithm.supports_ideal:
        raise ConfigurationError(
            f"{alg.name} is a compute-only schedule without explicit "
            "IDEAL directives; run it under an LRU-family setting (or "
            "through MultiLevelContext)"
        )

    replay_ok = (
        replay_engine.supports(setting.mode, policy, inclusive, check)
        and m * n * z <= REPLAY_MAX_FMAS
    )
    fallback = engine == "replay" and not replay_ok
    if fallback:
        if strict_engine:
            raise ConfigurationError(
                f"engine='replay' cannot reproduce setting={setting.key!r} "
                f"policy={policy!r} inclusive={inclusive!r} check={check!r} "
                f"at {m * n * z} FMAs and strict_engine=True forbids the "
                "step fallback; use engine='step' explicitly"
            )
        note_engine_fallback(setting.key, policy, inclusive, check)

    if engine == "replay" and replay_ok:
        simulated = setting.simulated(machine)
        start = time.perf_counter()
        trace = replay_engine.compiled_trace_for(alg, directives=setting.is_ideal)
        if setting.is_ideal:
            stats = replay_engine.replay_ideal(trace)
            kernel = "ideal"
        else:
            stats = replay_engine.replay_bulk(
                trace, [(policy, simulated.cs, simulated.cd)]
            )[0]
            kernel = f"bulk-{policy}"
        elapsed = time.perf_counter() - start
        if verify_comp and trace.comp_total != m * n * z:
            raise ScheduleError(
                f"{alg.name} emitted {trace.comp_total} multiply-adds, "
                f"expected m*n*z = {m * n * z}"
            )
        predicted = predict(alg) if alg.name in FORMULAS else None
        return ExperimentResult(
            algorithm=alg.name,
            setting=setting.key,
            machine=machine,
            m=m,
            n=n,
            z=z,
            parameters=alg.parameters(),
            stats=stats,
            comp=list(trace.comp),
            predicted=predicted,
            elapsed_s=elapsed,
            worker=os.getpid(),
            engine="replay",
            kernel=kernel,
            trace_source=trace.origin,
        )

    if setting.is_ideal:
        simulated = setting.simulated(machine)
        hierarchy: Union[IdealHierarchy, LRUHierarchy] = IdealHierarchy(
            machine.p, simulated.cs, simulated.cd, check=check
        )
        ctx: Union[IdealContext, LRUContext] = IdealContext(hierarchy)
        kernel = "step"
    else:
        simulated = setting.simulated(machine)
        hierarchy = LRUHierarchy(
            machine.p, simulated.cs, simulated.cd, policy=policy, inclusive=inclusive
        )
        ctx = LRUContext(hierarchy)
        kernel = hierarchy.kernel

    start = time.perf_counter()
    alg.run(ctx)
    elapsed = time.perf_counter() - start

    if verify_comp and ctx.comp_total != m * n * z:
        raise ScheduleError(
            f"{alg.name} emitted {ctx.comp_total} multiply-adds, "
            f"expected m*n*z = {m * n * z}"
        )

    predicted = predict(alg) if alg.name in FORMULAS else None
    return ExperimentResult(
        algorithm=alg.name,
        setting=setting.key,
        machine=machine,
        m=m,
        n=n,
        z=z,
        parameters=alg.parameters(),
        stats=hierarchy.snapshot(),
        comp=list(ctx.comp),
        predicted=predicted,
        elapsed_s=elapsed,
        worker=os.getpid(),
        engine="step",
        engine_fallback=fallback,
        kernel=kernel,
    )

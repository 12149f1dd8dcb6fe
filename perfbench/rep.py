"""One repetition of one workload, in a fresh process.

``perfbench/run.py`` starts this script once per repetition, with the
run's inputs (``workloads.make_spec``) as JSON on stdin, and reads one
JSON object from the last line of its stdout.  Modes:

* ``run``: the workload with tracing off: setup time, wall time, peak
  RSS and every requested cell's counters (on ``figure-set``, each
  simulated series value of the figures ``get_figure`` returned).
* ``setup``: the setup of ``run`` only, up to the first cell.
* ``traced``: the same as ``run`` with spans around the public functions, plus
  the per-layer numbers derived from them.
* ``probe``: each unique cell's schedule against a counting no-op
  context (emission cost) and through ``engine="step"`` (oracle cost).

The simulator must start cold: no memoized trace, no trace tier and
zeroed tier counters.  A process that starts warm exits with code 3
and reports nothing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import oracle
import workloads
from hostspeed import SpeedClock

#: ``(preset key, fixed order, sweep result)`` of every sweep a workload
#: ran, in order; the fixed order is ``None`` for order sweeps and the
#: order of a ratio sweep otherwise.
Sweeps = List[Tuple[str, Optional[int], Any]]

#: Modules imported during the timed setup, before the first cell.
_SETUP_MODULES = (
    "numpy",
    "repro.cache.replay",
    "repro.experiments.figures",
    "repro.sim.parallel",
    "repro.sim.sweep",
)

#: Bytes per recorded multiply-add in a compiled trace's (n, 4) int64 array.
_TRACE_BYTES_PER_FMA = 32


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every process this one started has ended."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def _cells(sweeps: Sweeps) -> List[Dict[str, Any]]:
    """Every requested cell of the sweeps, with counters or its error."""
    out: List[Dict[str, Any]] = []
    for preset_key, fixed_order, sweep in sweeps:
        failures = {(r.label, r.index): r for r in sweep.failures}
        for label, results in sweep.series.items():
            algorithm, setting = label.split(" ")[:2]
            for index, result in enumerate(results):
                x = sweep.xs[index]
                order, ratio = (x, None) if fixed_order is None else (fixed_order, x)
                key = workloads.cell_key(preset_key, algorithm, setting, order, ratio)
                if result is None:
                    record = failures.get((label, index))
                    error = (
                        f"{record.error_type}: {record.error}" if record else "no result"
                    )
                    out.append({"key": key, "error": error})
                else:
                    out.append({"key": key, "counters": oracle.counters(result)})
    return out


def _figure_cells(
    figures: List[Tuple[str, Any]], orders: List[int]
) -> List[Dict[str, Any]]:
    """Every simulated series value of the figures, with its oracle key."""
    out: List[Dict[str, Any]] = []
    for fig_id, figure in figures:
        metric = workloads.FIGURE_METRIC[fig_id]
        panels = {panel.key: panel for panel in figure.panels}
        for panel_key, preset_key, series in workloads.FIGURE_PANELS[fig_id]:
            panel = panels.get(panel_key)
            for label, algorithm, setting in series:
                values = panel.series.get(label) if panel else None
                if panel is None or list(panel.xs) != orders:
                    error = f"{fig_id} panel {panel_key} missing or off the axis"
                elif values is None:
                    error = f"{fig_id} panel {panel_key} has no series {label!r}"
                else:
                    error = None
                for index, order in enumerate(orders):
                    key = workloads.cell_key(preset_key, algorithm, setting, order)
                    if error:
                        out.append({"key": key, "error": error})
                    else:
                        value = float(values[index])
                        out.append({"key": key, "metric": metric, "value": value})
    return out


class Workload:
    """Runs one spec through the simulator's public entry points."""

    def __init__(self, spec: Dict[str, Any], tmp: Path) -> None:
        from repro.model.machine import preset

        self.spec = spec
        self.name = spec["workload"]
        self.machines = {
            key: preset(key)
            for key in (
                [spec["preset"]] if "preset" in spec else spec.get("presets", [])
            )
        }
        self.run_dir: Optional[Path] = (
            tmp / "run" if self.name == "checkpointed-sweep" else None
        )
        self.sweeps: Sweeps = []
        #: ``(figure id, Figure)`` of every figure ``get_figure`` returned.
        self.figures: List[Tuple[str, Any]] = []
        self.manifest: Any = None
        self.resume_s = 0.0

    def run(self) -> None:
        from repro.cache import replay
        from repro.experiments import figures
        from repro.sim import parallel, sweep

        spec = self.spec
        if self.name == "cold-cell":
            key = spec["preset"]
            machine = self.machines[key]
            for algorithm, setting, order in spec["cells"]:
                replay.clear_trace_cache()
                replay.configure_trace_tier(None)
                result = sweep.order_sweep([(algorithm, setting)], machine, [order])
                self.sweeps.append((key, None, result))
        elif self.name == "figure-set":
            for fig in spec["figures"]:
                figure = figures.get_figure(fig, orders=spec["orders"])
                self.figures.append((fig, figure))
        elif self.name == "bandwidth-sweep":
            entries = [(algorithm, "ideal") for algorithm in spec["algorithms"]]
            for key, machine in self.machines.items():
                result = sweep.ratio_sweep(
                    entries, machine, spec["ratios"], spec["order"]
                )
                self.sweeps.append((key, spec["order"], result))
        else:
            key = spec["preset"]
            entries = [tuple(entry) for entry in spec["entries"]]
            result = parallel.parallel_order_sweep(
                entries,
                self.machines[key],
                spec["orders"],
                workers=spec["workers"],
                run_dir=self.run_dir,
            )
            self.manifest = result.manifest
            self.sweeps.append((key, None, result))
            start = time.perf_counter()
            resumed = parallel.parallel_order_sweep(
                entries,
                self.machines[key],
                spec["orders"],
                workers=spec["workers"],
                run_dir=self.run_dir,
                resume=True,
            )
            self.resume_s = time.perf_counter() - start
            self.sweeps.append((key, None, resumed))


def _cold_guard() -> Optional[str]:
    from repro.cache import replay, tracestore

    memo = replay.trace_cache_info()
    counters = tracestore.tier_counters()
    if any(memo.values()):
        return f"trace memo not empty at start: {memo}"
    if any(counters.values()):
        return f"trace tier counters not zero at start: {counters}"
    if replay.trace_tier_root() is not None:
        return f"trace tier configured at start: {replay.trace_tier_root()}"
    return None


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _install_tracer(tracer: Any) -> None:
    from repro.cache import replay, tracestore
    from repro.experiments import figures
    from repro.sim import parallel, sweep
    from repro.store import checkpoint

    def runner_cell(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
        algorithm, machine, m, n, z, setting = args[:6]
        name = algorithm if isinstance(algorithm, str) else algorithm.name
        key = setting if isinstance(setting, str) else setting.key
        return f"{name}/{key}/{m}x{n}x{z}@{machine!r}"

    def runner_after(span: Dict[str, Any], args: Any, kwargs: Any, out: Any) -> None:
        span.update(
            engine=out.engine,
            fallback=out.engine_fallback,
            elapsed_s=out.elapsed_s,
            fmas=out.comp_total,
        )

    def lookup_after(span: Dict[str, Any], args: Any, kwargs: Any, out: Any) -> None:
        span["origin"] = out.origin
        span["memo_fmas"] = replay.trace_cache_info()["fmas"]

    def fmas_of_result(span: Dict[str, Any], args: Any, kwargs: Any, out: Any) -> None:
        span["fmas"] = len(out)

    def fmas_of_trace(span: Dict[str, Any], args: Any, kwargs: Any, out: Any) -> None:
        span["fmas"] = len(args[0])

    def load_after(span: Dict[str, Any], args: Any, kwargs: Any, out: Any) -> None:
        span["hit"] = out is not None

    wrap = tracer.wrap
    wrap(figures, "get_figure", "figures")
    wrap(figures, "order_sweep", "sweep")
    wrap(figures, "ratio_sweep", "sweep")
    wrap(sweep, "order_sweep", "sweep")
    wrap(sweep, "ratio_sweep", "sweep")
    wrap(parallel, "parallel_order_sweep", "parallel")
    for owner in (sweep, parallel):
        wrap(owner, "run_experiment", "runner", runner_cell, runner_after)
    wrap(replay, "compiled_trace_for", "replay.lookup", after=lookup_after)
    wrap(replay, "compile_trace", "replay.compile", after=fmas_of_result)
    wrap(replay, "replay_bulk", "replay.lru_kernel", after=fmas_of_trace)
    wrap(replay, "replay_ideal", "replay.ideal_kernel", after=fmas_of_trace)
    wrap(replay, "replay_bulk_streaming", "replay.stream")
    wrap(tracestore, "load", "tracestore.load", after=load_after)
    wrap(tracestore, "store", "tracestore.store")
    wrap(checkpoint.CheckpointWriter, "append", "store.append")
    wrap(parallel, "result_to_dict", "store.serde")
    wrap(parallel, "result_from_dict", "store.serde")


def _per_fma_us(spans: List[Dict[str, Any]]) -> float:
    fmas = sum(span.get("fmas", 0) for span in spans)
    busy = sum(span["end"] - span["start"] for span in spans)
    return busy / fmas * 1e6 if fmas else 0.0


def _dir_bytes(root: Path, skip: str) -> int:
    return sum(
        path.stat().st_size
        for path in root.rglob("*")
        if path.is_file() and skip not in path.relative_to(root).parts
    )


def _layers(work: Workload, trees: List[List[Dict[str, Any]]]) -> Dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    from tracing import self_times

    spans = [span for tree in trees for span in tree]

    def named(name: str) -> List[Dict[str, Any]]:
        return [span for span in spans if span["name"] == name]

    def total_ms(*names: str) -> float:
        return sum(s["end"] - s["start"] for n in names for s in named(n)) * 1e3

    runner = named("runner")
    lookups = named("replay.lookup")
    loads = named("tracestore.load")
    own = self_times(trees)
    layers: Dict[str, float] = {
        "replay.compile_us_per_fma": _per_fma_us(named("replay.compile")),
        "replay.compiles": len(named("replay.compile")),
        "replay.trace_reuse_ratio": (
            sum(1 for s in lookups if s["origin"] in ("memory", "disk")) / len(lookups)
            if lookups
            else 0.0
        ),
        "replay.lru_kernel_us_per_fma": _per_fma_us(named("replay.lru_kernel")),
        "replay.ideal_kernel_us_per_fma": _per_fma_us(named("replay.ideal_kernel")),
        "replay.trace_mb_peak": max((s["memo_fmas"] for s in lookups), default=0)
        * _TRACE_BYTES_PER_FMA
        / 2**20,
        "runner.cells": len(runner),
        "runner.engine_step": sum(1 for s in runner if s["engine"] == "step"),
        "runner.engine_replay": sum(1 for s in runner if s["engine"] == "replay"),
        "runner.fallbacks": sum(1 for s in runner if s["fallback"]),
        "runner.overhead_us": (
            sum(s["end"] - s["start"] - s["elapsed_s"] for s in runner)
            / len(runner)
            * 1e6
            if runner
            else 0.0
        ),
        "tracestore.hits": sum(1 for s in loads if s["hit"]),
        "tracestore.misses": sum(1 for s in loads if not s["hit"]),
        "tracestore.stores": len(named("tracestore.store")),
        "tracestore.load_ms": total_ms("tracestore.load"),
        "store.append_ms": total_ms("store.append"),
        "store.serde_ms": total_ms("store.serde"),
        "trace.spans": len(spans),
    }
    for layer, metric in (
        ("figures", "figures.self_s"),
        ("sweep", "sweep.self_s"),
        ("parallel", "parallel.self_s"),
        ("runner", "runner.self_s"),
        ("replay.lookup", "replay.lookup_self_s"),
        ("replay.compile", "replay.compile_self_s"),
        ("tracestore.load", "tracestore.self_s"),
        ("store.append", "store.self_s"),
    ):
        layers[metric] = own.get(layer, 0.0)
    layers["replay.kernel_self_s"] = sum(
        own.get(name, 0.0)
        for name in ("replay.lru_kernel", "replay.ideal_kernel", "replay.stream")
    )
    layers["tracestore.self_s"] += own.get("tracestore.store", 0.0)
    layers["store.self_s"] += own.get("store.serde", 0.0)

    # The cells get_figure simulated: run_experiment calls under a
    # figures span, and how many of them were of distinct cells.
    host = trees[0]

    def under_figures(index: int) -> bool:
        parent = host[index]["parent"]
        while parent is not None:
            if host[parent]["name"] == "figures":
                return True
            parent = host[parent]["parent"]
        return False

    simulated = [
        span["cell"]
        for index, span in enumerate(host)
        if span["name"] == "runner" and under_figures(index)
    ]
    requested = _figure_cells(work.figures, work.spec.get("orders", []))
    layers["figures.cells_requested"] = len(requested)
    layers["figures.cells_unique"] = len(set(simulated))
    layers["figures.unique_ratio"] = (
        len(set(simulated)) / len(simulated) if simulated else 0.0
    )

    manifest = work.manifest
    workers_frac = attempts = 0.0
    if manifest is not None:
        busy = sum(w.busy_s for w in manifest.worker_stats)
        capacity = manifest.workers * manifest.elapsed_s
        workers_frac = busy / capacity if capacity else 0.0
        ran = [c for c in manifest.cells if not c.resumed]
        attempts = sum(c.attempts for c in ran) / len(ran) if ran else 0.0
    layers["parallel.worker_busy_frac"] = workers_frac
    layers["parallel.attempts_per_cell"] = attempts
    layers["parallel.pool_rebuilds"] = manifest.pool_rebuilds if manifest else 0
    layers["store.resume_s"] = work.resume_s
    if work.run_dir is not None and work.run_dir.is_dir():
        from repro.cache import tracestore

        traces = work.run_dir / "traces"
        layers["store.bytes_written"] = _dir_bytes(work.run_dir, "traces")
        layers["tracestore.disk_mb"] = tracestore.tier_info(traces)["bytes"] / 2**20
    else:
        layers["store.bytes_written"] = 0
        layers["tracestore.disk_mb"] = 0.0
    return layers


# ----------------------------------------------------------------------
# Probe: emission and step-engine cost per unique cell
# ----------------------------------------------------------------------
def _probe(spec: Dict[str, Any]) -> Dict[str, float]:
    from repro.algorithms.base import ExecutionContext
    from repro.algorithms.registry import get_algorithm
    from repro.model.machine import preset
    from repro.sim.runner import run_experiment
    from repro.sim.settings import get_setting

    class CountingContext(ExecutionContext):
        """Counts every call a schedule makes and simulates nothing."""

        def __init__(self, p: int, explicit: bool) -> None:
            super().__init__(p)
            self.explicit = explicit
            self.calls = 0

        def load_shared(self, key: int) -> None:
            self.calls += 1

        def evict_shared(self, key: int) -> None:
            self.calls += 1

        def load_dist(self, core: int, key: int) -> None:
            self.calls += 1

        def evict_dist(self, core: int, key: int) -> None:
            self.calls += 1

        def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
            self.calls += 1
            self.comp[core] += 1

    emit_s = step_s = 0.0
    calls = fmas = 0
    for key in sorted(set(spec["expected"])):
        preset_key, algorithm, setting_key, order_text, ratio_text = key.split("|")
        order = int(order_text)
        machine = preset(preset_key)
        if ratio_text != "-":
            machine = machine.with_bandwidth_ratio(float(ratio_text))
        setting = get_setting(setting_key)
        schedule = get_algorithm(algorithm)(
            setting.declared(machine), order, order, order
        )
        ctx = CountingContext(machine.p, explicit=setting.is_ideal)
        start = time.perf_counter()
        schedule.run(ctx)
        emit_s += time.perf_counter() - start
        calls += ctx.calls
        fmas += ctx.comp_total
        start = time.perf_counter()
        run_experiment(
            algorithm, machine, order, order, order, setting_key, engine="step"
        )
        step_s += time.perf_counter() - start
    return {
        "algorithms.emit_us_per_fma": emit_s / fmas * 1e6,
        "algorithms.calls_per_fma": calls / fmas,
        "hierarchy.step_us_per_fma": step_s / fmas * 1e6,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--mode", choices=("run", "setup", "traced", "probe"), required=True
    )
    parser.add_argument(
        "--t0", type=float, required=True, help="time.monotonic() at spawn"
    )
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)
    clock = SpeedClock(share=args.tmp / "speed")
    clock.start()
    spec = json.loads(sys.stdin.read())

    # Setup: imports, presets and the run dir, up to the first cell.
    for module in _SETUP_MODULES:
        importlib.import_module(module)

    warm = _cold_guard()
    if warm is not None:
        clock.stop()
        print(f"refusing a warm start: {warm}", file=sys.stderr)
        return 3
    if args.mode == "probe":
        clock.stop()
        print(json.dumps({"layers": _probe(spec)}))
        return 0
    work = Workload(spec, args.tmp)
    ready = time.monotonic()
    if args.mode == "setup":
        clock.stop()
        print(
            json.dumps(
                {
                    "setup_s": clock.seconds(args.t0, ready),
                    "raw_setup_s": ready - args.t0,
                }
            )
        )
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        _install_tracer(tracer)
    error = None
    start = time.monotonic()
    try:
        work.run()
    except Exception:  # reported as failed cells, never hidden
        error = traceback.format_exc(limit=4)
    end = time.monotonic()
    clock.stop()
    _reap_children()
    clock.collect()
    out: Dict[str, Any] = {
        "setup_s": clock.seconds(args.t0, ready),
        "wall_s": clock.seconds(start, end),
        "raw_setup_s": ready - args.t0,
        "raw_wall_s": clock.raw_seconds(start, end),
        "host_speed": clock.speed(),
        "peak_rss_mb": _peak_rss_mb(),
        "error": error,
        "cells": _cells(work.sweeps)
        + _figure_cells(work.figures, spec.get("orders", [])),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.close()
        out["layers"] = _layers(work, tracer.trees())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

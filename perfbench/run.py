"""Host-time benchmark of the matrix-product cache simulator.

Run from the repository root::

    python3 perfbench/run.py --workload cold-cell --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed`` (``perfbench/workloads.py``).
Each repetition runs in a fresh ``perfbench/rep.py`` process, so every
one starts cold, and repetitions continue until ``--seconds`` is
spent.  Every simulated cell is compared with the step-engine counters
in ``perfbench/oracle.json``.

Output: a JSON record of the run (inputs, environment, per-repetition
values, median and quartiles) on one line, also saved under
``.perfbench/records/``; then, as the last line, ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
``end_to_end`` metrics of ``BENCHMARK.json``, ``--trace 1`` its
``per_layer`` ones, from traced repetitions interleaved with untraced
ones (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import oracle
import workloads

HERE = Path(__file__).resolve().parent

#: Repetitions per run: at least ``MIN_REPS`` (``MIN_PAIRS`` traced +
#: untraced pairs with ``--trace 1``), more while ``--seconds`` allow.
MIN_REPS = 2
MIN_PAIRS = 1
MAX_REPS = 200
#: A repetition still running this long after the run started is killed
#: and its cells fail, so the run always ends within 180 s.
HARD_LIMIT_S = 165.0
#: Exit code of a refused (warm) start.
EXIT_WARM = 3

_SCRUBBED_ENV = ("REPRO_TRACE_TIER", "REPRO_STREAM_FMAS")


class WarmStart(RuntimeError):
    """A repetition found the simulator's caches warm and refused to run."""


def _quartiles(values: List[float]) -> Dict[str, Any]:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    def __init__(self, root: Path, spec: Dict[str, Any], expected: Dict[str, Any]):
        self.root = root
        self.spec = spec
        self.oracle = expected
        self.tmp = root / ".perfbench" / "tmp" / str(os.getpid())
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reps: List[Dict[str, Any]] = []
        self.versions: Dict[str, Any] = {}
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.fmas = sum(workloads.key_order(k) ** 3 for k in spec["expected"])
        self.env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED_ENV}
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = "src" + (os.pathsep + path if path else "")
        self.env["TMPDIR"] = str(self.tmp)

    def spawn(self, mode: str) -> Dict[str, Any]:
        """Run one ``rep.py`` process to completion and parse its report."""
        rep_tmp = self.tmp / f"rep{len(self.reps)}"
        rep_tmp.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "rep.py"), "--mode", mode, "--tmp", str(rep_tmp)]
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv + ["--t0", repr(t0)],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        timeout = max(self.hard_deadline - t0, 1.0)
        try:
            stdout, stderr = proc.communicate(json.dumps(self.spec), timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            stderr += f"\nkilled after {timeout:.0f} s"
        finally:
            shutil.rmtree(rep_tmp, ignore_errors=True)
        if proc.returncode == EXIT_WARM:
            raise WarmStart(stderr.strip())
        lines = stdout.strip().splitlines()
        try:
            report: Dict[str, Any] = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = {"error": f"exit {proc.returncode}: {stderr.strip()[-2000:]}"}
        report["mode"] = mode
        report["elapsed_s"] = time.monotonic() - t0
        return report

    def check(self, report: Dict[str, Any]) -> int:
        """Compare a repetition's cells with the oracle; return failures."""
        produced = collections.defaultdict(list)
        for cell in report.get("cells", []):
            produced[cell["key"]].append(cell)
        failed = 0
        for key in self.spec["expected"]:
            if produced[key]:
                ok, why = oracle.compare(produced[key].pop(), self.oracle)
            else:
                ok, why = False, f"{key}: requested but not produced"
            if not ok:
                failed += 1
                self.problems.append(why)
        extra = sum(len(cells) for cells in produced.values())
        if extra:
            self.problems.append(f"{extra} cells produced that were not requested")
        if report.get("error"):
            self.problems.append(report["error"])
        self.attempted += len(self.spec["expected"])
        self.failed += failed
        return failed + extra

    def rep(self, mode: str) -> None:
        report = self.spawn(mode)
        failed = 0 if mode == "setup" and "error" not in report else self.check(report)
        row = {
            key: report[key]
            for key in (
                "mode",
                "setup_s",
                "wall_s",
                "raw_setup_s",
                "raw_wall_s",
                "host_speed",
                "peak_rss_mb",
                "layers",
                "error",
            )
            if key in report
        }
        row["failed_cells"] = failed
        if "wall_s" in report:
            row["fma_per_s"] = self.fmas / report["wall_s"]
        self.reps.append(row)
        self.versions = {k: report.get(k) for k in ("python", "numpy")}

    def measure(self, seconds: float, trace: bool) -> Dict[str, float]:
        """Repeat the workload for ``seconds``; return the probe's layers."""
        deadline = time.monotonic() + seconds
        unit = ("run", "traced") if trace else ("run", "setup")
        least = MIN_PAIRS if trace else MIN_REPS
        rounds: List[float] = []
        while len(rounds) < MAX_REPS:
            if len(rounds) >= least and time.monotonic() + statistics.median(rounds) > deadline:
                break
            start = time.monotonic()
            for mode in unit:
                self.rep(mode)
            rounds.append(time.monotonic() - start)
        probe: Dict[str, float] = {}
        if trace:
            report = self.spawn("probe")
            probe = report.get("layers", {})
            if report.get("error"):
                self.problems.append(report["error"])
        return probe

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _environment(root: Path, versions: Dict[str, Any]) -> Dict[str, Any]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def _metrics(
    runner: Runner, bench: Dict[str, Any], probe: Dict[str, float], trace: bool
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """(reported metrics, median/quartile summary) of one run."""
    reps = runner.reps
    timed = [r for r in reps if r["mode"] == "run" and "wall_s" in r]
    setups = [r for r in reps if r["mode"] in ("run", "setup") and "setup_s" in r]
    summary: Dict[str, Dict[str, Any]] = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in (setups if name == "setup_s" else timed) if name in r]
        if values:
            summary[name] = dict(_quartiles(values), unit=metric["unit"])
    # Recorded beside the rescaled times, not reported (hostspeed.py).
    for name, unit in (("raw_setup_s", "s"), ("raw_wall_s", "s"), ("host_speed", "")):
        values = [r[name] for r in (setups if name == "raw_setup_s" else timed) if name in r]
        if values:
            summary[name] = dict(_quartiles(values), unit=unit)
    if not trace:
        metrics = {
            m["name"]: {
                "value": summary[m["name"]]["median"],
                "unit": summary[m["name"]]["unit"],
            }
            for m in bench["end_to_end"]
            if m["name"] in summary
        }
        return metrics, summary
    traced = [r for r in reps if r["mode"] == "traced" and "layers" in r]
    layers: Dict[str, List[float]] = collections.defaultdict(list)
    for r in traced:
        for name, value in r["layers"].items():
            layers[name].append(value)
    for name, value in probe.items():
        layers[name].append(value)
    if timed and traced:
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"].append(traced_wall - summary["wall_s"]["median"])
    attempted = max(runner.attempted, 1)
    layers["oracle.error_rate"].append(runner.failed / attempted)
    metrics = {}
    for metric in bench["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if layers.get(name):
            summary[name] = dict(_quartiles(layers[name]), unit=unit)
            metrics[name] = {"value": summary[name]["median"], "unit": unit}
    return metrics, summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("src/repro not found: run from the repository root", file=sys.stderr)
        return 2
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        expected = oracle.load()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json or the oracle: {exc}", file=sys.stderr)
        return 2
    spec = workloads.make_spec(args.workload, args.seed)
    runner = Runner(root, spec, expected)
    started = time.time()
    try:
        probe = runner.measure(args.seconds, bool(args.trace))
    except WarmStart as exc:
        print(f"refused: repetition started warm: {exc}", file=sys.stderr)
        return EXIT_WARM
    finally:
        runner.close()
    metrics, summary = _metrics(runner, bench, probe, bool(args.trace))
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    correct = runner.failed == 0 and not runner.problems and set(metrics) == set(wanted)
    record = {
        "workload": args.workload,
        "why": next(
            w["why"] for w in bench["workloads"] if w["name"] == args.workload
        ),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": started,
        "inputs": {k: v for k, v in spec.items() if k != "expected"},
        "cells_per_rep": len(spec["expected"]),
        "fmas_per_rep": runner.fmas,
        "environment": _environment(root, runner.versions),
        "summary": summary,
        "reps": runner.reps,
        "problems": runner.problems[:20],
    }
    line = json.dumps(record, sort_keys=True)
    print(line)
    sys.path.insert(0, str(root / "src"))
    from repro.store.atomic import atomic_write_text

    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json",
        line + "\n",
    )
    result = {
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Step-engine expected counters for every cell any seed can request.

``python3 perfbench/oracle.py`` (from the repository root) rebuilds
``perfbench/oracle.json`` by running each cell of
:func:`workloads.all_cells` with ``engine="step"``, the simulator's
oracle.  It also checks that every order is ragged for the schedules
that run it, and refuses to write the file otherwise.

The benchmark compares every timed cell with this file, so a change
that makes a cell faster but alters any counter is counted as failed.
A figure's series values are checked against the MS, MD or Tdata
these counters give under the preset's bandwidths, also recorded here.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import workloads

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle.json"
ORACLE_FORMAT = 2

#: The loaded file: ``cells`` (key -> counters) and ``bandwidths``
#: (preset key -> [σS, σD]).
Oracle = Dict[str, Any]


def counters(result: Any) -> List[List[int]]:
    """The checked counters of one ``ExperimentResult``.

    Per-core multiply-adds, then for the shared cache and each
    distributed cache: hits, misses, write-backs and the A/B/C miss
    split.  MS, MD and Tdata are functions of these.
    """
    stats = result.stats
    levels = [stats.shared] + list(stats.distributed)
    return [[int(c) for c in result.comp]] + [
        [int(s.hits), int(s.misses), int(s.writebacks)]
        + [int(v) for v in s.misses_by_matrix]
        for s in levels
    ]


def load() -> Oracle:
    data: Oracle = json.loads(ORACLE_PATH.read_text(encoding="utf-8"))
    if data.get("format") != ORACLE_FORMAT:
        raise ValueError(f"unsupported oracle format {data.get('format')!r}")
    missing = {"cells", "bandwidths"} - set(data)
    if missing:
        raise ValueError(f"oracle lacks {sorted(missing)}")
    return data


def figure_value(cell: List[List[int]], metric: str, bandwidths: List[float]) -> float:
    """The MS, MD or Tdata that one cell's counters give."""
    ms = cell[1][1]
    md = max(level[1] for level in cell[2:])
    if metric == "ms":
        return ms
    if metric == "md":
        return md
    sigma_s, sigma_d = bandwidths
    return ms / sigma_s + md / sigma_d


def compare(got: Mapping[str, Any], expected: Oracle) -> Tuple[bool, str]:
    """Whether one reported cell matches the oracle, with a reason if not.

    A cell carries either ``counters`` or, read from a figure, a
    ``metric`` and its ``value``.
    """
    key = got.get("key")
    cells = expected["cells"]
    if got.get("error"):
        return False, f"{key}: raised {got['error']}"
    if key not in cells:
        return False, f"{key}: not in the oracle"
    if "metric" in got:
        want = figure_value(
            cells[key], got["metric"], expected["bandwidths"][key.split("|")[0]]
        )
        if not math.isclose(got["value"], want, rel_tol=1e-12):
            return False, f"{key}: figure {got['metric']} {got['value']} != {want}"
    elif got.get("counters") != cells[key]:
        return False, f"{key}: counters differ from engine='step'"
    return True, ""


def _tile_sizes(algorithm: Any) -> Iterable[int]:
    for value in algorithm.parameters().values():
        if isinstance(value, int) and not isinstance(value, bool) and value >= 2:
            yield value


def build() -> Oracle:
    from repro.algorithms.registry import get_algorithm
    from repro.model.machine import preset
    from repro.sim.runner import run_experiment
    from repro.sim.settings import get_setting

    cells: Dict[str, List[List[int]]] = {}
    bandwidths: Dict[str, List[float]] = {}
    not_ragged: List[str] = []
    todo = workloads.all_cells()
    started = time.perf_counter()
    for index, (preset_key, alg, setting, order, ratio) in enumerate(todo):
        machine = preset(preset_key)
        bandwidths[preset_key] = [machine.sigma_s, machine.sigma_d]
        if ratio is not None:
            machine = machine.with_bandwidth_ratio(
                ratio, total=workloads.TOTAL_BANDWIDTH
            )
        key = workloads.cell_key(preset_key, alg, setting, order, ratio)
        schedule = get_algorithm(alg)(
            get_setting(setting).declared(machine), order, order, order
        )
        if any(order % tile == 0 for tile in _tile_sizes(schedule)):
            not_ragged.append(f"{key} {schedule.parameters()}")
        result = run_experiment(
            alg, machine, order, order, order, setting, engine="step"
        )
        cells[key] = counters(result)
        if index % 100 == 0:
            print(
                f"{index}/{len(todo)} cells, {time.perf_counter() - started:.0f} s",
                file=sys.stderr,
            )
    if not_ragged:
        raise SystemExit(
            "orders that are a multiple of a tile size:\n  " + "\n  ".join(not_ragged)
        )
    return {
        "format": ORACLE_FORMAT,
        "engine": "step",
        "cells": cells,
        "bandwidths": bandwidths,
    }


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.store.atomic import atomic_write_text

    payload = build()
    atomic_write_text(ORACLE_PATH, json.dumps(payload, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cells'])} cells to {ORACLE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

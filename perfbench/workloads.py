"""Seeded inputs of the four benchmark workloads.

Everything here is plain data plus :func:`make_spec`, which turns a
workload name and a seed into the inputs one run executes.  The module
does not import the simulator: the harness decides what to request,
the program only sees the generated inputs.

Each workload's work is the same for every seed.  A seed picks among
*variants* whose total multiply-adds agree to within 0.6% (the order
tuples below), and it permutes the cell order; so run-to-run spread is
host noise, not input size.  Every order is ragged: not a multiple of
any tile parameter (grid side, λ, μ, α, β, t) that the workload's
schedules choose, which ``perfbench/oracle.py`` re-checks when it
rebuilds the expected counters.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

#: The six schedules of the paper, in its order.
SIX = (
    "shared-opt",
    "distributed-opt",
    "tradeoff",
    "outer-product",
    "shared-equal",
    "distributed-equal",
)

#: Fig. 12's bandwidth ratios r = σS/(σS+σD) (``figures.DEFAULT_RATIOS``).
RATIOS = tuple(i / 20 for i in range(1, 20))

#: Total of ``figure12``/``ratio_sweep``'s bandwidths.
TOTAL_BANDWIDTH = 2.0

WORKLOADS = ("cold-cell", "figure-set", "bandwidth-sweep", "checkpointed-sweep")

# --- cold-cell --------------------------------------------------------
#: Each (algorithm, setting) runs at every order of one triple; the seed
#: picks the triple per cell.  15³+29³+37³ = 78417, 23³+25³+37³ = 78445.
#: Both end at order 37, so the largest cells (and peak RSS) are the same
#: for every seed.
COLD_TRIPLES: Tuple[Tuple[int, ...], ...] = ((15, 29, 37), (23, 25, 37))
COLD_PRESET = "q32"
COLD_SETTINGS = ("lru-50", "ideal")

# --- figure-set -------------------------------------------------------
#: Order axes of Figs. 7–9; 11³+31³ = 31122, 19³+29³ = 31248.
FIGURE_AXES: Tuple[Tuple[int, ...], ...] = ((11, 31), (19, 29))
FIGURES = ("fig7", "fig8", "fig9")

#: What each figure plots, and per panel ``(panel key, preset, series)``
#: with ``series`` the ``(label, algorithm, setting)`` of every simulated
#: series, mirroring ``repro.experiments.figures``.  The harness reads
#: each series value back from the ``Figure`` that ``get_figure``
#: returns and checks it against the oracle's counters, so the expected
#: cells are fixed by the harness rather than read back from the program.
FIGURE_METRIC = {"fig7": "ms", "fig8": "md", "fig9": "tdata"}
FigurePanel = Tuple[str, str, List[Tuple[str, str, str]]]
FIGURE_PANELS: Dict[str, List[FigurePanel]] = {
    "fig7": [
        (
            panel_key,
            preset_key,
            [
                ("Shared Opt. LRU-50", "shared-opt", "lru-50"),
                ("Shared Opt. IDEAL", "shared-opt", "ideal"),
                ("Shared Equal LRU-50", "shared-equal", "lru-50"),
                ("Outer Product", "outer-product", "lru-50"),
            ],
        )
        for panel_key, preset_key in (("a", "q32"), ("b", "q64"), ("c", "q80"))
    ],
    "fig8": [
        (
            panel_key,
            preset_key,
            [
                ("Distributed Opt. LRU-50", "distributed-opt", "lru-50"),
                ("Distributed Opt. IDEAL", "distributed-opt", "ideal"),
                ("Distributed Equal LRU-50", "distributed-equal", "lru-50"),
                ("Outer Product", "outer-product", "lru-50"),
            ],
        )
        for panel_key, preset_key in (
            ("a", "q32"),
            ("b", "q32-pessimistic"),
            ("c", "q64"),
        )
    ],
    "fig9": [
        (
            panel_key,
            preset_key,
            [(f"{alg} {label}", alg, setting) for alg in SIX],
        )
        for panel_key, preset_key, label, setting in (
            ("a", "q32", "LRU-50", "lru-50"),
            ("b", "q32", "IDEAL", "ideal"),
            ("c", "q32-pessimistic", "LRU-50", "lru-50"),
            ("d", "q32-pessimistic", "IDEAL", "ideal"),
        )
    ],
}

# --- bandwidth-sweep --------------------------------------------------
#: Order 13 is the only order in 7–17 that is ragged for every plan
#: Tradeoff makes across the 19 ratios, so the order is fixed and the
#: seed picks each family's preset variant instead (the optimistic and
#: pessimistic variants differ only in CD).
BANDWIDTH_ORDER = 13
BANDWIDTH_FAMILIES: Tuple[Tuple[str, str], ...] = (
    ("q32", "q32-pessimistic"),
    ("q80", "q80-pessimistic"),
)

# --- checkpointed-sweep -----------------------------------------------
#: Order axes; 15³+25³+33³ = 54937, 19³+23³+33³ = 54963.  Both end at
#: order 33, so the largest trace (and peak RSS) is the same for every seed.
CHECKPOINT_AXES: Tuple[Tuple[int, ...], ...] = ((15, 25, 33), (19, 23, 33))
CHECKPOINT_PRESET = "q32"
CHECKPOINT_ALGORITHMS = ("shared-opt", "distributed-opt", "tradeoff")
CHECKPOINT_SETTINGS = ("lru", "lru-2x", "ideal")
CHECKPOINT_WORKERS = 2


def cell_key(
    preset_key: str, algorithm: str, setting: str, order: int, ratio: Any = None
) -> str:
    """Oracle key of one square cell (``ratio`` only for bandwidth sweeps)."""
    r = "-" if ratio is None else f"{float(ratio):.4f}"
    return f"{preset_key}|{algorithm}|{setting}|{order}|{r}"


def _shuffled(rng: random.Random, items: Sequence[Any]) -> List[Any]:
    out = list(items)
    rng.shuffle(out)
    return out


def make_spec(workload: str, seed: int) -> Dict[str, Any]:
    """The inputs of one run, plus the cells it must produce.

    ``expected`` lists the oracle key of every cell the run requests,
    repeats included, in request order; its multiply-adds are the
    numerator of ``fma_per_s``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {list(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    spec: Dict[str, Any] = {"workload": workload, "seed": seed}
    expected: List[str] = []
    if workload == "cold-cell":
        cells = []
        for setting in COLD_SETTINGS:
            for alg in SIX:
                for order in rng.choice(COLD_TRIPLES):
                    cells.append([alg, setting, order])
        cells = _shuffled(rng, cells)
        spec.update(preset=COLD_PRESET, cells=cells)
        expected = [cell_key(COLD_PRESET, a, s, o) for a, s, o in cells]
    elif workload == "figure-set":
        axis = _shuffled(rng, rng.choice(FIGURE_AXES))
        figures = _shuffled(rng, FIGURES)
        spec.update(orders=axis, figures=figures)
        for fig in figures:
            for _panel, preset_key, series in FIGURE_PANELS[fig]:
                for _label, alg, setting in series:
                    expected += [cell_key(preset_key, alg, setting, o) for o in axis]
    elif workload == "bandwidth-sweep":
        presets = _shuffled(rng, [rng.choice(family) for family in BANDWIDTH_FAMILIES])
        algorithms = _shuffled(rng, SIX)
        ratios = _shuffled(rng, RATIOS)
        spec.update(
            presets=presets,
            algorithms=algorithms,
            ratios=ratios,
            order=BANDWIDTH_ORDER,
        )
        for preset_key in presets:
            for alg in algorithms:
                expected += [
                    cell_key(preset_key, alg, "ideal", BANDWIDTH_ORDER, r)
                    for r in ratios
                ]
    else:
        axis = _shuffled(rng, rng.choice(CHECKPOINT_AXES))
        entries = _shuffled(
            rng, [[a, s] for a in CHECKPOINT_ALGORITHMS for s in CHECKPOINT_SETTINGS]
        )
        spec.update(
            preset=CHECKPOINT_PRESET,
            orders=axis,
            entries=entries,
            workers=CHECKPOINT_WORKERS,
        )
        keys = [cell_key(CHECKPOINT_PRESET, a, s, o) for a, s in entries for o in axis]
        # The sweep, then the resume of the completed run dir.
        expected = keys + keys
    spec["expected"] = expected
    return spec


def key_order(key: str) -> int:
    """Square order of an oracle key."""
    return int(key.split("|")[3])


def all_cells() -> List[Tuple[str, str, str, int, Any]]:
    """Every (preset, algorithm, setting, order, ratio) any seed can request."""
    cells = set()
    for triple in COLD_TRIPLES:
        for setting in COLD_SETTINGS:
            for alg in SIX:
                for order in triple:
                    cells.add((COLD_PRESET, alg, setting, order, None))
    for axis in FIGURE_AXES:
        for panels in FIGURE_PANELS.values():
            for _panel, preset_key, series in panels:
                for _label, alg, setting in series:
                    for order in axis:
                        cells.add((preset_key, alg, setting, order, None))
    for family in BANDWIDTH_FAMILIES:
        for preset_key in family:
            for alg in SIX:
                for r in RATIOS:
                    cells.add((preset_key, alg, "ideal", BANDWIDTH_ORDER, r))
    for axis in CHECKPOINT_AXES:
        for alg in CHECKPOINT_ALGORITHMS:
            for setting in CHECKPOINT_SETTINGS:
                for order in axis:
                    cells.add((CHECKPOINT_PRESET, alg, setting, order, None))
    return sorted(cells, key=lambda c: (c[0], c[1], c[2], c[3], c[4] or 0.0))

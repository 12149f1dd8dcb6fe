"""Regeneration of the paper's Figures 4–12.

Each ``figureN`` function reruns the experiments behind the
corresponding figure and returns a :class:`Figure`: a list of
:class:`Panel` objects, each carrying the swept x values and the data
series (simulated algorithms, closed-form formulas, lower bounds) that
the paper plots.

Scale note
----------
The paper sweeps matrix orders up to 1100 blocks.  The default sweep
stops at order 96 to stay interactive, but every function takes an
``orders=`` / ``order=`` override, and the memory-bounded step engine
(the default of every sweep) makes the full axis reachable: the
nightly ``full-figures`` CI pipeline regenerates Figs. 7–11 at order
1100, sharding figures by panel (``panels_filter``) and fanning sweep
cells over processes (``workers``) on the fault-tolerant sweep engine
(:mod:`repro.sim.parallel`, largest order first, results identical to
the serial figures).  All qualitative features of the
figures — who wins, the LRU-vs-formula factor-≤2 envelope, the
crossovers in the bandwidth sweep — are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.model.bounds import (
    distributed_misses_lower_bound,
    shared_misses_lower_bound,
    tdata_lower_bound,
)
from repro.model.machine import MulticoreMachine, preset
from repro.sim.results import SweepResult
from repro.sim.runner import run_experiment
from repro.sim.sweep import order_sweep, ratio_sweep

#: Default square orders (in blocks) for LRU-heavy sweeps.
DEFAULT_ORDERS: Sequence[int] = (16, 32, 48, 64, 80, 96)

#: Default order for the bandwidth-ratio sweep (paper: 384).
DEFAULT_RATIO_ORDER: int = 64

#: Default bandwidth ratios r = σS/(σS+σD) for Fig. 12.
DEFAULT_RATIOS: Sequence[float] = tuple(i / 20 for i in range(1, 20))


@dataclass
class Panel:
    """One sub-plot: an x axis plus named data series."""

    key: str
    title: str
    xlabel: str
    ylabel: str
    xs: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, label: str, values: Sequence[float]) -> None:
        if len(values) != len(self.xs):
            raise ConfigurationError(
                f"series {label!r} has {len(values)} points for {len(self.xs)} xs"
            )
        self.series[label] = list(values)


@dataclass
class Figure:
    """A regenerated paper figure."""

    id: str
    title: str
    caption: str
    panels: List[Panel]


# ----------------------------------------------------------------------
# Figures 4–6: LRU(C) and LRU(2C) against the formulas
# ----------------------------------------------------------------------
def _lru_vs_formula(
    fig_id: str,
    title: str,
    algorithm: str,
    metric: str,
    machine: MulticoreMachine,
    orders: Sequence[int],
    ylabel: str,
    workers: int = 0,
) -> Figure:
    """Common shape of Figs. 4–6: LRU(C), LRU(2C), formula, 2×formula."""
    sweep = order_sweep(
        [(algorithm, "lru"), (algorithm, "lru-2x")],
        machine,
        orders,
        workers=workers,
    )
    panel = Panel(
        key="a",
        title=title,
        xlabel="Matrix order (blocks)",
        ylabel=ylabel,
        xs=list(orders),
    )
    lru = sweep.series[f"{algorithm} lru"]
    lru2 = sweep.series[f"{algorithm} lru-2x"]
    panel.add(f"{algorithm} LRU (C)", [getattr(r, metric) for r in lru])
    panel.add(f"{algorithm} LRU (2C)", [getattr(r, metric) for r in lru2])
    if metric == "tdata":
        formula = [r.predicted.tdata(machine) for r in lru]
    elif metric == "ms":
        formula = [r.predicted.ms for r in lru]
    else:
        formula = [r.predicted.md for r in lru]
    panel.add("Formula (C)", formula)
    panel.add("2x Formula (C)", [2 * v for v in formula])
    return Figure(
        id=fig_id,
        title=title,
        caption="Impact of the LRU policy vs the ideal-model formula "
        "(the LRU(2C) curve must stay below 2x the formula, per Frigo et al.)",
        panels=[panel],
    )


def figure4(orders: Sequence[int] = DEFAULT_ORDERS, workers: int = 0) -> Figure:
    """Fig. 4: shared misses of Shared Opt. under LRU, CS = 977."""
    return _lru_vs_formula(
        "fig4",
        "Shared cache misses MS of Shared Opt. (CS=977)",
        "shared-opt",
        "ms",
        preset("q32"),
        orders,
        "Shared cache misses MS",
        workers=workers,
    )


def figure5(orders: Sequence[int] = DEFAULT_ORDERS, workers: int = 0) -> Figure:
    """Fig. 5: distributed misses of Distributed Opt. under LRU, CD = 21."""
    return _lru_vs_formula(
        "fig5",
        "Distributed cache misses MD of Distributed Opt. (CD=21)",
        "distributed-opt",
        "md",
        preset("q32"),
        orders,
        "Distributed cache misses MD",
        workers=workers,
    )


def figure6(orders: Sequence[int] = DEFAULT_ORDERS, workers: int = 0) -> Figure:
    """Fig. 6: Tdata of Tradeoff under LRU, CS = 977, CD = 21."""
    return _lru_vs_formula(
        "fig6",
        "Tdata of Tradeoff (CS=977, CD=21)",
        "tradeoff",
        "tdata",
        preset("q32"),
        orders,
        "Tdata",
        workers=workers,
    )


# ----------------------------------------------------------------------
# Figure 7: shared misses across algorithms, three cache configurations
# ----------------------------------------------------------------------
def figure7(
    orders: Sequence[int] = DEFAULT_ORDERS,
    workers: int = 0,
    panels_filter: Optional[Sequence[str]] = None,
) -> Figure:
    """Fig. 7: MS of Shared Opt. vs Outer Product, Shared Equal, bound.

    ``panels_filter`` restricts regeneration to the named panel keys
    (``a``/``b``/``c``) — the nightly full-figure pipeline shards one
    figure across jobs this way, skipping the sweeps of the panels it
    does not own.
    """
    panels: List[FigurePanel] = []
    for key, preset_key in (("a", "q32"), ("b", "q64"), ("c", "q80")):
        if panels_filter is not None and key not in panels_filter:
            continue
        machine = preset(preset_key)
        sweep = order_sweep(
            [
                ("shared-opt", "lru-50"),
                ("shared-opt", "ideal"),
                ("shared-equal", "lru-50"),
                ("outer-product", "lru-50"),
            ],
            machine,
            orders,
            workers=workers,
        )
        panel = Panel(
            key=key,
            title=f"CS={machine.cs}, q={machine.q}",
            xlabel="Matrix order (blocks)",
            ylabel="Shared cache misses MS",
            xs=list(orders),
        )
        panel.add("Shared Opt. LRU-50", sweep.values("shared-opt lru-50", "ms"))
        panel.add("Shared Opt. IDEAL", sweep.values("shared-opt ideal", "ms"))
        panel.add("Shared Equal LRU-50", sweep.values("shared-equal lru-50", "ms"))
        panel.add("Outer Product", sweep.values("outer-product lru-50", "ms"))
        panel.add(
            "Lower Bound",
            [shared_misses_lower_bound(machine, d, d, d) for d in orders],
        )
        panels.append(panel)
    return Figure(
        id="fig7",
        title="Shared cache misses MS vs matrix order",
        caption="Shared Opt. beats Outer Product and Shared Equal at the "
        "shared level; its IDEAL curve approaches the lower bound.",
        panels=panels,
    )


# ----------------------------------------------------------------------
# Figure 8: distributed misses across algorithms
# ----------------------------------------------------------------------
def figure8(
    orders: Sequence[int] = DEFAULT_ORDERS,
    workers: int = 0,
    panels_filter: Optional[Sequence[str]] = None,
) -> Figure:
    """Fig. 8: MD of Distributed Opt. vs Distributed Equal, Outer Product."""
    panels: List[FigurePanel] = []
    for key, preset_key, note in (
        ("a", "q32", "data = 2/3 of distributed cache"),
        ("b", "q32-pessimistic", "data = 1/2 of distributed cache"),
        ("c", "q64", "q=64: µ collapses to 1"),
    ):
        if panels_filter is not None and key not in panels_filter:
            continue
        machine = preset(preset_key)
        sweep = order_sweep(
            [
                ("distributed-opt", "lru-50"),
                ("distributed-opt", "ideal"),
                ("distributed-equal", "lru-50"),
                ("outer-product", "lru-50"),
            ],
            machine,
            orders,
            workers=workers,
        )
        panel = Panel(
            key=key,
            title=f"CD={machine.cd}, q={machine.q} ({note})",
            xlabel="Matrix order (blocks)",
            ylabel="Distributed cache misses MD",
            xs=list(orders),
        )
        panel.add(
            "Distributed Opt. LRU-50", sweep.values("distributed-opt lru-50", "md")
        )
        panel.add(
            "Distributed Opt. IDEAL", sweep.values("distributed-opt ideal", "md")
        )
        panel.add(
            "Distributed Equal LRU-50",
            sweep.values("distributed-equal lru-50", "md"),
        )
        panel.add("Outer Product", sweep.values("outer-product lru-50", "md"))
        panel.add(
            "Lower Bound",
            [distributed_misses_lower_bound(machine, d, d, d) for d in orders],
        )
        panels.append(panel)
    return Figure(
        id="fig8",
        title="Distributed cache misses MD vs matrix order",
        caption="Distributed Opt. approaches the bound with q=32 but loses "
        "its edge at q=64 where µ=1.",
        panels=panels,
    )


# ----------------------------------------------------------------------
# Figures 9–11: Tdata of all six algorithms
# ----------------------------------------------------------------------
_SIX_LRU50 = [
    ("shared-opt", "lru-50"),
    ("distributed-opt", "lru-50"),
    ("tradeoff", "lru-50"),
    ("outer-product", "lru-50"),
    ("shared-equal", "lru-50"),
    ("distributed-equal", "lru-50"),
]
_SIX_IDEAL = [(alg, "ideal") for alg, _ in _SIX_LRU50]


def _tdata_figure(
    fig_id: str,
    shared_preset_keys: Sequence[str],
    orders: Sequence[int],
    workers: int = 0,
    panels_filter: Optional[Sequence[str]] = None,
) -> Figure:
    """Common shape of Figs. 9–11: four panels (LRU-50/IDEAL × two CD).

    ``panels_filter`` restricts regeneration to the named panel keys
    (``a``–``d``), skipping the sweeps behind the others — the nightly
    pipeline shards each figure across two jobs (``a b`` / ``c d``) so
    the paper-scale LRU panels fit a runner's wall-clock budget.
    """
    panels: List[FigurePanel] = []
    combos = [
        (key, preset_key, setting_label, entries)
        for preset_key, key_pair in zip(
            shared_preset_keys, (("a", "b"), ("c", "d"))
        )
        for key, (setting_label, entries) in zip(
            key_pair, (("LRU-50", _SIX_LRU50), ("IDEAL", _SIX_IDEAL))
        )
    ]
    for key, preset_key, setting_label, entries in combos:
        if panels_filter is not None and key not in panels_filter:
            continue
        machine = preset(preset_key)
        sweep = order_sweep(entries, machine, orders, workers=workers)
        panel = Panel(
            key=key,
            title=f"{setting_label}, CS={machine.cs}, CD={machine.cd}",
            xlabel="Matrix order (blocks)",
            ylabel="Tdata",
            xs=list(orders),
        )
        for alg, setting in entries:
            label = f"{alg} {setting_label}"
            panel.add(label, sweep.values(f"{alg} {setting}", "tdata"))
        panel.add(
            "Lower Bound",
            [tdata_lower_bound(machine, d, d, d) for d in orders],
        )
        # Tradeoff IDEAL is also plotted on the paper's LRU panels
        # as the reference; keep panels self-contained instead.
        panels.append(panel)
    return Figure(
        id=fig_id,
        title=f"Overall data access time Tdata (CS={preset(shared_preset_keys[0]).cs})",
        caption="Tdata of all six algorithms under the LRU-50 and IDEAL "
        "settings, for the optimistic and pessimistic distributed-cache "
        "capacities.",
        panels=panels,
    )


def figure9(
    orders: Sequence[int] = DEFAULT_ORDERS,
    workers: int = 0,
    panels_filter: Optional[Sequence[str]] = None,
) -> Figure:
    """Fig. 9: Tdata, CS = 977 (q=32), CD ∈ {21, 16}."""
    return _tdata_figure(
        "fig9", ("q32", "q32-pessimistic"), orders, workers, panels_filter
    )


def figure10(
    orders: Sequence[int] = DEFAULT_ORDERS,
    workers: int = 0,
    panels_filter: Optional[Sequence[str]] = None,
) -> Figure:
    """Fig. 10: Tdata, CS = 245 (q=64), CD ∈ {6, 4}."""
    return _tdata_figure(
        "fig10", ("q64", "q64-pessimistic"), orders, workers, panels_filter
    )


def figure11(
    orders: Sequence[int] = DEFAULT_ORDERS,
    workers: int = 0,
    panels_filter: Optional[Sequence[str]] = None,
) -> Figure:
    """Fig. 11: Tdata, CS = 157 (q=80), CD ∈ {4, 3}."""
    return _tdata_figure(
        "fig11", ("q80", "q80-pessimistic"), orders, workers, panels_filter
    )


# ----------------------------------------------------------------------
# Figure 12: bandwidth-ratio sweep
# ----------------------------------------------------------------------
def figure12(
    order: int = DEFAULT_RATIO_ORDER,
    ratios: Sequence[float] = DEFAULT_RATIOS,
) -> Figure:
    """Fig. 12: Tdata vs r = σS/(σS+σD) for all six algorithms (IDEAL).

    The Tradeoff algorithm re-plans ``(α, β)`` at every ratio; at the
    extremes it must tie Shared Opt. (r→0) and Distributed Opt. (r→1).
    """
    panels: List[FigurePanel] = []
    panel_keys = iter("abcdef")
    for preset_key in (
        "q32",
        "q32-pessimistic",
        "q64",
        "q64-pessimistic",
        "q80",
        "q80-pessimistic",
    ):
        machine = preset(preset_key)
        sweep = ratio_sweep(_SIX_IDEAL, machine, ratios, order)
        panel = Panel(
            key=next(panel_keys),
            title=f"CS={machine.cs}, CD={machine.cd}",
            xlabel="r = sigmaS / (sigmaS + sigmaD)",
            ylabel="Tdata",
            xs=list(ratios),
        )
        for alg, setting in _SIX_IDEAL:
            panel.add(
                f"{alg} IDEAL", sweep.values(f"{alg} {setting}", "tdata")
            )
        panel.add(
            "Lower Bound",
            [
                tdata_lower_bound(
                    machine.with_bandwidth_ratio(r), order, order, order
                )
                for r in ratios
            ],
        )
        panels.append(panel)
    return Figure(
        id="fig12",
        title=f"Cache bandwidth impact on Tdata (order {order})",
        caption="Tradeoff tracks the best of Shared Opt. / Distributed "
        "Opt. across the whole bandwidth range; the plots cross over "
        "where distributed misses become predominant.",
        panels=panels,
    )


# ----------------------------------------------------------------------
# Extension figures (beyond the paper; see DESIGN.md X1–X2)
# ----------------------------------------------------------------------
def figure_lu(orders: Sequence[int] = (16, 24, 32, 40, 48)) -> Figure:
    """Extension: shared misses of the two LU schedules vs order.

    Right-looking (eager) vs left-looking (lazy) blocked LU on the q32
    preset under LRU-50 — the crossover behind
    ``benchmarks/bench_extension_lu.py``.
    """
    from repro.lu.runner import run_lu

    machine = preset("q32")
    panel = Panel(
        key="a",
        title=f"Blocked LU on {machine.name} (LRU-50)",
        xlabel="Matrix order (blocks)",
        ylabel="Shared cache misses MS",
        xs=list(orders),
    )
    for name in ("right-looking-lu", "left-looking-lu"):
        panel.add(name, [run_lu(name, machine, o, "lru-50").ms for o in orders])
    return Figure(
        id="ext-lu",
        title="Extension: eager vs lazy blocked LU",
        caption="The lazy schedule pins each block column while absorbing "
        "all pending updates (Maximum Reuse transposed to LU).",
        panels=[panel],
    )


def figure_nested(orders: Sequence[int] = (16, 32)) -> Figure:
    """Extension: per-level misses of nested vs flat on a 3-level tree."""
    from repro.algorithms.distributed_opt import DistributedOpt
    from repro.algorithms.nested import NestedMaxReuse
    from repro.sim.contexts import MultiLevelContext

    machine = MulticoreMachine(p=16, cs=400, cd=21, q=8, name="16-core/4-socket")
    panel = Panel(
        key="a",
        title=f"Socket-level misses on {machine.name}",
        xlabel="Matrix order (blocks)",
        ylabel="Socket cache misses (max)",
        xs=list(orders),
    )
    for label, cls in (
        ("nested-max-reuse", NestedMaxReuse),
        ("distributed-opt (flat)", DistributedOpt),
    ):
        values: List[float] = []
        for order in orders:
            nest = NestedMaxReuse(machine, order, order, order)
            tree = nest.default_tree()
            cls(machine, order, order, order).run(MultiLevelContext(tree))
            values.append(tree.level_misses(1))
        panel.add(label, values)
    return Figure(
        id="ext-nested",
        title="Extension: topology-aware placement on three levels",
        caption="Socket-contiguous block ownership captures A and B "
        "sharing inside each socket; LLC and core traffic are identical.",
        panels=[panel],
    )


#: Registry used by the CLI: figure id -> builder.
FIGURES: Dict[str, Callable[..., Figure]] = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "ext-lu": figure_lu,
    "ext-nested": figure_nested,
}


def get_figure(fig_id: str, **kwargs) -> Figure:
    """Build a figure by id (``"fig4"`` … ``"fig12"``)."""
    try:
        builder = FIGURES[fig_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {fig_id!r}; valid ids: {sorted(FIGURES)}"
        ) from None
    return builder(**kwargs)

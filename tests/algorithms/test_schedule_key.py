"""``MatmulAlgorithm.schedule_key``: one identity per emitted stream.

A bandwidth sweep simulates each key once and copies the counters to
every other ratio with the same key, so the key must be *complete*:
two schedules with equal keys must emit identical operation streams,
both the compute-only stream an LRU hierarchy sees and the IDEAL
directive sequence.  The property is checked exhaustively over every
registered schedule, the paper's six presets, Fig. 12's 19 ratios,
both declared machines of the settings (full and LRU-50's halved
caches) and ragged orders, plus Tradeoff plans whose slab depth ``β``
is overridden.
"""

from typing import Any, Dict, Hashable, List, Tuple

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.algorithms.tradeoff import Tradeoff
from repro.check.events import AnalysisContext
from repro.model.machine import PRESETS, MulticoreMachine
from repro.sim.contexts import RecordingContext

RATIOS = [i / 20 for i in range(1, 20)]
#: Smaller than every tile side the presets plan, and odd, so every
#: schedule ends on partial tiles.
RAGGED_ORDERS = (5, 7)


def _tradeoff_overrides(machine: MulticoreMachine) -> List[Dict[str, Any]]:
    """Two plans that differ in ``β`` only (same ``α`` and ``µ``)."""
    mu = Tradeoff(machine, 1, 1, 1).mu
    alpha = machine.grid_side * mu
    return [{"alpha": alpha, "beta": 1}, {"alpha": alpha, "beta": 2}]


def _cells(names: List[str]) -> List[MatmulAlgorithm]:
    cells: List[MatmulAlgorithm] = []
    for name in names:
        cls = get_algorithm(name)
        for machine in PRESETS.values():
            for declared in (machine, machine.with_halved_caches()):
                variants: List[Dict[str, Any]] = [{}]
                if cls is Tradeoff:
                    variants += _tradeoff_overrides(declared)
                for r in RATIOS:
                    planned = declared.with_bandwidth_ratio(r)
                    for order in RAGGED_ORDERS:
                        for params in variants:
                            cells.append(cls(planned, order, order, order, **params))
    return cells


def _streams(alg: MatmulAlgorithm) -> Tuple[List[Tuple[int, int, bool]], List[Any]]:
    recording = RecordingContext(alg.machine.p)
    alg.run(recording)
    analysis = AnalysisContext(alg.machine.p)
    alg.run(analysis)
    return list(recording.trace), analysis.events


def _key_collisions(
    cells: List[MatmulAlgorithm], first_only: bool = False
) -> Tuple[int, List[Hashable]]:
    """Distinct keys, and the keys shared by cells with different streams."""
    first: Dict[Hashable, Tuple[List[Tuple[int, int, bool]], List[Any]]] = {}
    broken: List[Hashable] = []
    for alg in cells:
        key = alg.schedule_key()
        streams = _streams(alg)
        if key not in first:
            first[key] = streams
        elif streams != first[key] and key not in broken:
            broken.append(key)
            if first_only:
                break
    return len(first), broken


def test_equal_keys_emit_identical_streams():
    cells = _cells(algorithm_names(include_extras=True))
    distinct, broken = _key_collisions(cells)
    assert broken == []
    # The key leaves bandwidths out, so the sweep really collapses.
    assert distinct < len(cells) // 10


def test_dropping_beta_from_the_key_is_caught(monkeypatch):
    monkeypatch.setattr(
        Tradeoff, "display_only_parameters", frozenset({"alpha_num", "beta"})
    )
    _, broken = _key_collisions(_cells(["tradeoff"]), first_only=True)
    assert broken


class TestKeyContents:
    def test_bandwidths_and_name_left_out(self):
        machine = PRESETS["q32"]
        cls = get_algorithm("shared-opt")
        a = cls(machine.with_bandwidth_ratio(0.1), 9, 9, 9)
        b = cls(machine.with_bandwidth_ratio(0.9, total=7.0), 9, 9, 9)
        renamed = MulticoreMachine(
            p=4, cs=machine.cs, cd=machine.cd, q=machine.q, name="other"
        )
        assert a.schedule_key() == b.schedule_key()
        assert a.schedule_key() == cls(renamed, 9, 9, 9).schedule_key()
        assert repr(a.schedule_key()) == repr(cls(renamed, 9, 9, 9).schedule_key())

    def test_shape_capacity_and_plan_kept(self):
        machine = PRESETS["q32"]
        cls = get_algorithm("shared-opt")
        base = cls(machine, 9, 9, 9).schedule_key()
        assert cls(machine, 9, 9, 10).schedule_key() != base
        assert cls(machine.with_halved_caches(), 9, 9, 9).schedule_key() != base
        assert cls(machine, 9, 9, 9, lam=4).schedule_key() != base

    def test_tradeoff_alpha_num_is_display_only(self):
        machine = PRESETS["q32"]
        plans = [
            Tradeoff(machine.with_bandwidth_ratio(r), 13, 13, 13) for r in RATIOS
        ]
        by_plan: Dict[Tuple[int, int, int], Hashable] = {}
        for alg in plans:
            plan = (alg.alpha, alg.beta, alg.mu)
            by_plan.setdefault(plan, alg.schedule_key())
            assert alg.schedule_key() == by_plan[plan]
        # several plans across the sweep, and α_num moves more often
        assert 1 < len(by_plan) < len({a.parameters()["alpha_num"] for a in plans})


"""Micro-benchmarks of the batched replay kernels.

The batched kernels are what make multi-cell sweeps cheap: one bounded
stack-distance pass serves every LRU ``(CS, CD)`` cell at once, and one
insertion-ring pass per ``CD`` serves every FIFO shared capacity.  The
pairs here measure exactly that structural claim on identical
workloads:

* ``bulk_batched`` — one :func:`repro.cache.replay.replay_bulk` call
  evaluating the whole cell grid over one compiled trace;
* ``bulk_percell`` — the same grid, one kernel invocation per cell
  (what a naive per-configuration replay would cost).

Memos are cleared inside each round so the rounds measure the passes,
not the result cache.
"""

import pytest

from repro.algorithms.registry import get_algorithm
from repro.cache import replay
from repro.model.machine import PRESETS

MACHINE = PRESETS["q32"]
ORDER = 16

#: The cell grid every pair evaluates: both policies across a spread of
#: shared/distributed capacities (12 cells — a figure panel's worth).
CELLS = [
    (policy, cs, cd)
    for policy in ("lru", "fifo")
    for cs in (245, 488, 977)
    for cd in (6, 21)
]


@pytest.fixture(scope="module")
def grid_trace():
    """Compiled shared-opt trace shared by the bulk benches."""
    alg = get_algorithm("shared-opt")(MACHINE, ORDER, ORDER, ORDER)
    return replay.compile_trace(alg, directives=False)


def bench_bulk_batched(benchmark, grid_trace):
    """All cells from one batched call (shared distributed passes)."""

    def run():
        grid_trace._replays.clear()
        return replay.replay_bulk(grid_trace, CELLS)

    assert len(benchmark(run)) == len(CELLS)


def bench_bulk_percell(benchmark, grid_trace):
    """The same cells one kernel invocation at a time."""

    def run():
        out = []
        for policy, cs, cd in CELLS:
            if policy == "lru":
                out.append(replay._bulk_lru(grid_trace, [(cs, cd)])[(cs, cd)])
            else:
                out.append(
                    replay._bulk_fifo_cd(grid_trace, cd, [cs])[(cs, cd)]
                )
        return out

    assert len(benchmark(run)) == len(CELLS)


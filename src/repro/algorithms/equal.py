"""Reference algorithms — *Shared Equal* and *Distributed Equal*.

The paper's second baseline (§4.1) is "inspired by [Toledo's out-of-core
survey]": the target cache is split in three equal parts, one per
matrix, and the product proceeds over square ``t × t`` tiles with
``3t² ≤ Z``.  Unlike the Maximum Reuse family, no matrix is favoured —
which is precisely why it "does not use the memory optimally": the tile
side is ``√(Z/3)`` instead of ``≈ √Z``.

Two variants, as in the paper:

* :class:`SharedEqual` sizes ``t`` to the shared cache.  The ``C`` tile
  is pinned in the shared cache while ``A``/``B`` tiles stream through;
  tile-row fragments are dealt to the cores like Algorithm 1 does.
  Closed form (exact under divisibility): ``MS = mn + 2mnz/t`` with
  ``t = ⌊√(CS/3)⌋``.
* :class:`DistributedEqual` sizes ``t`` to the distributed caches.  Each
  core independently processes its own share of ``C`` tiles, pinning a
  tile triple in its private cache; no inter-core sharing is attempted.
  Closed form: ``MD = mn/p + 2mnz/(p·t)`` with ``t = ⌊√(CD/3)⌋`` and
  ``MS = mn + 2mnz/t``.

These closed forms are *our* derivations (the paper only describes the
allocation scheme); they are validated against the simulator in
``tests/analysis/test_formula_vs_sim.py``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine


def equal_tile(capacity: int) -> int:
    """Largest ``t`` with ``3t² ≤ capacity`` (the equal-thirds tile)."""
    if capacity < 3:
        raise ParameterError(
            f"capacity {capacity} cannot hold one block of each matrix"
        )
    t = math.isqrt(capacity // 3)
    return max(t, 1)


class SharedEqual(MatmulAlgorithm):
    """Toledo-style equal-thirds allocation of the shared cache."""

    name = "shared-equal"
    label = "Shared Equal"

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        t: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        if t is None:
            t = equal_tile(machine.cs)
        if t < 1 or 3 * t * t > machine.cs:
            raise ParameterError(f"t={t} violates 3t² <= CS={machine.cs}")
        self.t = t

    def parameters(self) -> Dict[str, Any]:
        return {"t": self.t}

    def run(self, ctx: ExecutionContext) -> None:
        p = ctx.p
        m, n, z = self.m, self.n, self.z
        t = self.t
        explicit = ctx.explicit
        compute_row = ctx.compute_row
        RS = ROW_SHIFT

        for i0 in range(0, m, t):
            hi = min(i0 + t, m)
            for j0 in range(0, n, t):
                wj = min(j0 + t, n)
                if explicit:
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            ctx.load_shared(crow | j)
                chunks = self.split_evenly(i0, hi, p)
                cols = range(j0, wj)
                for k0 in range(0, z, t):
                    kh = min(k0 + t, z)
                    if explicit:
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ctx.load_shared(arow | k)
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                ctx.load_shared(brow | j)
                    # Tile rows are dealt to cores; the inner streaming
                    # mirrors Algorithm 1 (hold a, stream B/C pairs).
                    for core in range(p):
                        for i in chunks[core]:
                            crow = C_BASE | (i << RS)
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ka = arow | k
                                brow = B_BASE | (k << RS)
                                if explicit:
                                    ctx.load_dist(core, ka)
                                    ctx.stream_row(core, ka, crow, brow, cols)
                                    ctx.evict_dist(core, ka)
                                else:
                                    compute_row(core, ka, crow, brow, cols)
                    if explicit:
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ctx.evict_shared(arow | k)
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                ctx.evict_shared(brow | j)
                if explicit:
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            ctx.evict_shared(crow | j)


class DistributedEqual(MatmulAlgorithm):
    """Toledo-style equal-thirds allocation of each distributed cache.

    ``C`` tiles (side ``t``, ``3t² ≤ CD``) are dealt round-robin to the
    cores; each core pins its current ``(C, A, B)`` tile triple in its
    private cache.  Cores are interleaved at the ``k``-step granularity
    to approximate concurrent execution in LRU mode.
    """

    name = "distributed-equal"
    label = "Distributed Equal"

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        t: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        if t is None:
            t = equal_tile(machine.cd)
        if t < 1 or 3 * t * t > machine.cd:
            raise ParameterError(f"t={t} violates 3t² <= CD={machine.cd}")
        self.t = t

    def parameters(self) -> Dict[str, Any]:
        return {"t": self.t}

    def run(self, ctx: ExecutionContext) -> None:
        p = ctx.p
        m, n, z = self.m, self.n, self.z
        t = self.t
        explicit = ctx.explicit
        compute_row = ctx.compute_row
        RS = ROW_SHIFT

        # Round-robin deal of C tiles to cores.
        tiles = [
            (i0, min(i0 + t, m), j0, min(j0 + t, n))
            for i0 in range(0, m, t)
            for j0 in range(0, n, t)
        ]
        # Process in rounds of p tiles so cores advance together.
        for r0 in range(0, len(tiles), p):
            round_tiles = tiles[r0 : r0 + p]
            if explicit:
                for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            key = crow | j
                            ctx.load_shared(key)
                            ctx.load_dist(core, key)
            for k0 in range(0, z, t):
                kh = min(k0 + t, z)
                step_keys = set()
                if explicit:
                    # Different cores of a round may need the same A (or
                    # B) tile; load each distinct block into the shared
                    # cache once and track the set for the evict phase.
                    for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                key = arow | k
                                if key not in step_keys:
                                    step_keys.add(key)
                                    ctx.load_shared(key)
                                ctx.load_dist(core, key)
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                key = brow | j
                                if key not in step_keys:
                                    step_keys.add(key)
                                    ctx.load_shared(key)
                                ctx.load_dist(core, key)
                for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                    cols = range(j0, wj)
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        arow = A_BASE | (i << RS)
                        for k in range(k0, kh):
                            compute_row(core, arow | k, crow, B_BASE | (k << RS), cols)
                if explicit:
                    for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ctx.evict_dist(core, arow | k)
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                ctx.evict_dist(core, brow | j)
                    for key in step_keys:
                        ctx.evict_shared(key)
            if explicit:
                for core, (i0, hi, j0, wj) in enumerate(round_tiles):
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            key = crow | j
                            ctx.evict_dist(core, key)
                            ctx.evict_shared(key)

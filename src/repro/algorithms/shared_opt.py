"""Algorithm 1 — *Shared Opt.*: minimize shared-cache misses ``MS``.

The Maximum Reuse Algorithm adapted to the shared cache (paper §3.1):
a ``λ×λ`` block of ``C`` (with ``1 + λ + λ² ≤ CS``) is pinned in the
shared cache; for each ``k`` a ``λ`` row of ``B`` and, one at a time,
the ``λ`` elements of the corresponding column of ``A`` stream through
the remaining shared-cache space.  Each row of the ``C`` block is dealt
out to the ``p`` cores in ``λ/p`` sub-rows; each core's distributed
cache only ever holds three blocks (one each of ``A``, ``B``, ``C``).

Closed-form counts (exact when ``λ | m`` and ``λ | n``):

* ``MS = mn + 2mnz/λ``      (CCR_S ``= 1/z + 2/λ``, near the bound)
* ``MD = 2mnz/p + mnz/λ``   (CCR_D ``= 2 + p/λ``, far from the bound)
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine
from repro.model.params import lambda_param, largest_divisor_at_most


class SharedOpt(MatmulAlgorithm):
    """Maximum Reuse Algorithm tuned for the shared cache (Algorithm 1).

    Parameters
    ----------
    machine, m, n, z:
        See :class:`~repro.algorithms.base.MatmulAlgorithm`.
    lam:
        Tile side override.  Default: the largest ``λ`` with
        ``1 + λ + λ² ≤ CS``.
    round_to_divisor:
        When ``True``, shrink ``λ`` to the largest divisor of
        ``gcd-like`` feasible side of ``min(m, n)`` — the constraint the
        paper's implementation applies.  Ragged tiles are otherwise
        handled directly.
    """

    name = "shared-opt"
    label = "Shared Opt."

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        lam: Optional[int] = None,
        round_to_divisor: bool = False,
    ) -> None:
        super().__init__(machine, m, n, z)
        if lam is None:
            lam = lambda_param(machine.cs)
        if lam < 1:
            raise ParameterError(f"lambda must be positive, got {lam}")
        if 1 + lam + lam * lam > machine.cs:
            raise ParameterError(
                f"lambda={lam} violates 1 + λ + λ² <= CS={machine.cs}"
            )
        if round_to_divisor:
            lam = min(
                largest_divisor_at_most(m, lam),
                largest_divisor_at_most(n, lam),
            )
        self.lam = lam

    def parameters(self) -> Dict[str, Any]:
        return {"lambda": self.lam}

    def run(self, ctx: ExecutionContext) -> None:
        p = ctx.p
        m, n, z = self.m, self.n, self.z
        lam = self.lam
        explicit = ctx.explicit
        compute_row = ctx.compute_row
        split = self.split_evenly
        RS = ROW_SHIFT

        for i0 in range(0, m, lam):
            hi = min(i0 + lam, m)
            for j0 in range(0, n, lam):
                wj = min(j0 + lam, n)
                if explicit:
                    # Pin the C tile in the shared cache.
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            ctx.load_shared(crow | j)
                chunks = split(j0, wj, p)
                for k in range(z):
                    brow = B_BASE | (k << RS)
                    if explicit:
                        for j in range(j0, wj):
                            ctx.load_shared(brow | j)
                    for i in range(i0, hi):
                        ka = A_BASE | (i << RS) | k
                        crow = C_BASE | (i << RS)
                        if explicit:
                            ctx.load_shared(ka)
                        for core in range(p):
                            chunk = chunks[core]
                            if not chunk:
                                continue
                            if explicit:
                                ctx.load_dist(core, ka)
                                ctx.stream_row(core, ka, crow, brow, chunk)
                                ctx.evict_dist(core, ka)
                            else:
                                compute_row(core, ka, crow, brow, chunk)
                        if explicit:
                            ctx.evict_shared(ka)
                    if explicit:
                        for j in range(j0, wj):
                            ctx.evict_shared(brow | j)
                if explicit:
                    # Write the finished C tile back to memory.
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            ctx.evict_shared(crow | j)

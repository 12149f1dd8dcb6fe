"""Algorithm 3 — *Tradeoff*: minimize the data access time ``Tdata``.

The tradeoff variant of the Multicore Maximum Reuse Algorithm (paper
§3.3): an ``α×α`` tile of ``C`` is pinned in the shared cache together
with slabs of ``β`` columns of ``A`` and ``β`` rows of ``B``
(``α² + 2αβ ≤ CS``).  Loading slabs of depth ``β`` lets each core keep
its ``µ×µ`` sub-block of ``C`` across ``β`` accumulation steps, cutting
the ``C``-induced distributed misses by a factor ``β`` relative to
Shared Opt., at the price of a smaller ``α`` (hence more shared
misses).  The optimal ``α`` as a function of the bandwidth ratio
``ρ = pσD/σS`` is computed in :mod:`repro.analysis.tradeoff_opt`.

Closed-form counts (exact when ``α | m``, ``α | n``, ``β | z`` and
``α > √pµ``):

* ``MS = mn + 2mnz/α``
* ``MD = mnz/(pβ) + 2mnz/(pµ)``

and in the degenerate case ``α = √pµ`` each core owns a single
sub-block, which is loaded once per tile:

* ``MD = mn/p + 2mnz/(pµ)`` — the Distributed Opt. count.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.analysis.tradeoff_opt import optimal_parameters
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.exceptions import ParameterError
from repro.model.machine import MulticoreMachine
from repro.model.params import TradeoffParameters, beta_for_alpha, mu_param


class Tradeoff(MatmulAlgorithm):
    """Multicore Maximum Reuse Algorithm tuned for ``Tdata`` (Algorithm 3).

    Parameters
    ----------
    alpha, beta, mu:
        Tile parameter overrides.  By default they come from
        :func:`repro.analysis.tradeoff_opt.optimal_parameters`, i.e.
        from the machine's bandwidth ratio.  Overrides must satisfy
        ``α² + 2αβ ≤ CS``, ``1 + µ + µ² ≤ CD`` and ``√p·µ | α``.  ``beta``
        needs ``alpha``: the optimizer picks β together with α.
    """

    name = "tradeoff"
    label = "Tradeoff"
    requires_square_grid = True
    #: ``alpha_num`` is rounded from the bandwidth ratio for reports;
    #: the schedule runs on the integer ``(α, β, µ)`` alone.
    display_only_parameters = frozenset({"alpha_num"})

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        alpha: Optional[int] = None,
        beta: Optional[int] = None,
        mu: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        s = machine.grid_side
        if alpha is None:
            if beta is not None:
                raise ParameterError(
                    f"beta={beta} without alpha would be replaced by the "
                    "optimizer's choice; pass alpha too"
                )
            params = optimal_parameters(machine, mu=mu)
            alpha, beta, mu = params.alpha, params.beta, params.mu
            self._alpha_num = params.alpha_num
        else:
            if mu is None:
                mu = mu_param(machine.cd)
            if beta is None:
                beta = beta_for_alpha(machine.cs, alpha)
            self._alpha_num = float(alpha)
        if mu < 1 or 1 + mu + mu * mu > machine.cd:
            raise ParameterError(f"mu={mu} violates 1 + µ + µ² <= CD={machine.cd}")
        if alpha % (s * mu) != 0:
            raise ParameterError(
                f"alpha={alpha} must be a multiple of sqrt(p)*mu={s * mu}"
            )
        if beta < 1:
            raise ParameterError(f"beta must be >= 1, got {beta}")
        if alpha * alpha + 2 * alpha * beta > machine.cs:
            raise ParameterError(
                f"(alpha={alpha}, beta={beta}) violates α² + 2αβ <= CS={machine.cs}"
            )
        self.alpha = alpha
        self.beta = beta
        self.mu = mu
        self.grid = s

    def parameters(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "mu": self.mu,
            "alpha_num": round(self._alpha_num, 2),
            "grid": self.grid,
        }

    @property
    def single_subblock(self) -> bool:
        """Whether ``α = √p·µ`` (each core owns one ``C`` sub-block)."""
        return self.alpha == self.grid * self.mu

    def run(self, ctx: ExecutionContext) -> None:
        m, n, z = self.m, self.n, self.z
        alpha, beta, mu, s = self.alpha, self.beta, self.mu, self.grid
        region = alpha // s  # side of each core's contiguous C region
        explicit = ctx.explicit
        compute_row = ctx.compute_row
        hoist = self.single_subblock
        RS = ROW_SHIFT

        for i0 in range(0, m, alpha):
            hi = min(i0 + alpha, m)
            for j0 in range(0, n, alpha):
                wj = min(j0 + alpha, n)
                if explicit:
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            ctx.load_shared(crow | j)
                # Per-core contiguous regions (paper pseudocode), clamped.
                regions = []
                for core in range(s * s):
                    gi, gj = core % s, core // s
                    rlo = min(i0 + gi * region, hi)
                    rhi = min(i0 + (gi + 1) * region, hi)
                    clo = min(j0 + gj * region, wj)
                    chi = min(j0 + (gj + 1) * region, wj)
                    regions.append((rlo, rhi, clo, chi))
                if explicit and hoist:
                    # α = √pµ: each core's single sub-block is its whole
                    # region; pin it for the entire tile computation.
                    for core, (rlo, rhi, clo, chi) in enumerate(regions):
                        for i in range(rlo, rhi):
                            crow = C_BASE | (i << RS)
                            for j in range(clo, chi):
                                ctx.load_dist(core, crow | j)
                for k0 in range(0, z, beta):
                    kh = min(k0 + beta, z)
                    if explicit:
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                ctx.load_shared(brow | j)
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ctx.load_shared(arow | k)
                    for core, (rlo, rhi, clo, chi) in enumerate(regions):
                        for bi in range(rlo, rhi, mu):
                            bih = min(bi + mu, rhi)
                            for bj in range(clo, chi, mu):
                                bjh = min(bj + mu, chi)
                                cols = range(bj, bjh)
                                if explicit and not hoist:
                                    for i in range(bi, bih):
                                        crow = C_BASE | (i << RS)
                                        for j in range(bj, bjh):
                                            ctx.load_dist(core, crow | j)
                                for k in range(k0, kh):
                                    brow = B_BASE | (k << RS)
                                    if explicit:
                                        for j in range(bj, bjh):
                                            ctx.load_dist(core, brow | j)
                                    for i in range(bi, bih):
                                        ka = A_BASE | (i << RS) | k
                                        crow = C_BASE | (i << RS)
                                        if explicit:
                                            ctx.load_dist(core, ka)
                                        compute_row(core, ka, crow, brow, cols)
                                        if explicit:
                                            ctx.evict_dist(core, ka)
                                    if explicit:
                                        for j in range(bj, bjh):
                                            ctx.evict_dist(core, brow | j)
                                if explicit and not hoist:
                                    # Push the partial sub-block back up.
                                    for i in range(bi, bih):
                                        crow = C_BASE | (i << RS)
                                        for j in range(bj, bjh):
                                            ctx.evict_dist(core, crow | j)
                    if explicit:
                        for k in range(k0, kh):
                            brow = B_BASE | (k << RS)
                            for j in range(j0, wj):
                                ctx.evict_shared(brow | j)
                        for i in range(i0, hi):
                            arow = A_BASE | (i << RS)
                            for k in range(k0, kh):
                                ctx.evict_shared(arow | k)
                if explicit:
                    if hoist:
                        for core, (rlo, rhi, clo, chi) in enumerate(regions):
                            for i in range(rlo, rhi):
                                crow = C_BASE | (i << RS)
                                for j in range(clo, chi):
                                    ctx.evict_dist(core, crow | j)
                    for i in range(i0, hi):
                        crow = C_BASE | (i << RS)
                        for j in range(j0, wj):
                            ctx.evict_shared(crow | j)

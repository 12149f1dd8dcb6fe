"""Nested Maximum Reuse for three-level hierarchies (extension, paper §6).

The paper's conclusion: "we expect yet another level of hierarchy (or
tiling) in the algorithmic specification to be required" for clusters
of multicores.  This schedule makes that concrete for the topology
``memory → LLC → g socket caches → p core caches``:

* each core pins a ``µ×µ`` block of ``C`` in its private cache
  (``1 + µ + µ² ≤ C_core``), fully accumulated before write-back —
  Algorithm 2's idea;
* the ``√(p/g) × √(p/g)`` cores of a socket tile a ``ν×ν`` region,
  ``ν = √(p/g)·µ``, which their shared socket cache pins;
* the ``√g × √g`` sockets tile a ``Λ×Λ`` region, ``Λ = √g·ν``, pinned
  in the LLC — so the single tiling parameter ``µ`` induces a
  hierarchy-consistent tile at every level, exactly as ``CS ≥ p·CD``
  made Algorithm 2's tile fit the shared cache.

Miss counts per level (divisible case, derived exactly like §3.2):

* LLC:    ``mn + 2mnz/Λ``
* socket: ``mn/g + 2mnz/(g·ν)`` per socket
* core:   ``mn/p + 2mnz/(p·µ)`` per core

A *flat* algorithm that only knows two levels (e.g. Distributed Opt.
with its ``√p·µ`` tile) leaves the socket level almost no reuse to
capture; the nested schedule trades a slightly smaller LLC tile for
maximum reuse at every level.  The bench
``bench_extension_nested.py`` quantifies the gap.

The schedule is expressed against the ordinary
:class:`~repro.algorithms.base.ExecutionContext` protocol (computes
only — counting happens in
:class:`~repro.sim.contexts.MultiLevelContext`), so the same code is
numerically verified by :func:`repro.numerics.executor.verify_schedule`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.cache.multilevel import LevelSpec, MultiLevelHierarchy
from repro.exceptions import ConfigurationError, ParameterError
from repro.model.machine import MulticoreMachine
from repro.model.params import mu_param


class NestedMaxReuse(MatmulAlgorithm):
    """Three-level nested Maximum Reuse schedule.

    Parameters
    ----------
    machine:
        Used for ``p`` only (the flat machine abstraction has no socket
        level); capacities come from ``tree`` when given.
    sockets:
        Number of socket caches ``g``; must divide ``p``, and both
        ``g`` and ``p/g`` must be perfect squares.
    mu:
        Core tile side; default from ``core_capacity``.
    core_capacity:
        Capacity (blocks) of each core cache, used to derive ``µ`` when
        ``mu`` is not given; defaults to ``machine.cd``.
    """

    name = "nested-max-reuse"
    label = "Nested Max Reuse (3 levels)"
    supports_ideal = False  # compute-only: counted via MultiLevelContext

    def __init__(
        self,
        machine: MulticoreMachine,
        m: int,
        n: int,
        z: int,
        sockets: Optional[int] = None,
        mu: Optional[int] = None,
        core_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(machine, m, n, z)
        p = machine.p
        if sockets is None:
            # largest square divisor of p with a square co-factor
            sockets = 1
            for g in range(1, p + 1):
                if p % g:
                    continue
                sg, sc = math.isqrt(g), math.isqrt(p // g)
                if sg * sg == g and sc * sc == p // g and 1 < g < p:
                    sockets = g
        if p % sockets:
            raise ConfigurationError(f"sockets={sockets} must divide p={p}")
        s_g = math.isqrt(sockets)
        s_c = math.isqrt(p // sockets)
        if s_g * s_g != sockets or s_c * s_c != p // sockets:
            raise ConfigurationError(
                f"sockets={sockets} and cores-per-socket={p // sockets} "
                "must both be perfect squares"
            )
        if core_capacity is None:
            core_capacity = machine.cd
        if mu is None:
            mu = mu_param(core_capacity)
        if mu < 1 or 1 + mu + mu * mu > core_capacity:
            raise ParameterError(
                f"mu={mu} violates 1 + µ + µ² <= C_core={core_capacity}"
            )
        self.sockets = sockets
        self.s_g = s_g
        self.s_c = s_c
        self.mu = mu
        self.nu = s_c * mu
        self.tile = s_g * self.nu  # Λ

    def parameters(self) -> Dict[str, Any]:
        return {
            "mu": self.mu,
            "nu": self.nu,
            "tile": self.tile,
            "sockets": self.sockets,
        }

    def default_tree(
        self,
        llc_capacity: Optional[int] = None,
        socket_capacity: Optional[int] = None,
    ) -> MultiLevelHierarchy:
        """A hierarchy-consistent tree for this schedule's parameters.

        Capacities default to the tightest Maximum-Reuse fit per level:
        ``1 + x + x²`` for the level's tile side — the three-level
        generalization of the paper's ``CS ≥ p·CD`` sizing.
        """
        p = self.machine.p
        core_cap = self.machine.cd
        if socket_capacity is None:
            socket_capacity = max(
                1 + self.nu + self.nu**2, (p // self.sockets) * core_cap
            )
        if llc_capacity is None:
            llc_capacity = max(
                1 + self.tile + self.tile**2, self.sockets * socket_capacity
            )
        return MultiLevelHierarchy(
            p,
            [
                LevelSpec(1, llc_capacity, name="LLC"),
                LevelSpec(self.sockets, socket_capacity, name="socket"),
                LevelSpec(p, core_cap, name="core"),
            ],
        )

    def _core_of(self, bi: int, bj: int) -> int:
        """Core owning the µ-block at tile-local block coords (bi, bj).

        ``bi, bj`` are in µ units within the Λ tile: the outer
        ``(bi//s_c, bj//s_c)`` picks the socket on the ``s_g×s_g``
        grid, the inner remainder picks the core within the socket —
        both contiguous (region) assignments, matching the paper's
        pseudocode style.
        """
        gi, gj = bi // self.s_c, bj // self.s_c
        ci, cj = bi % self.s_c, bj % self.s_c
        socket = gj * self.s_g + gi
        core_in_socket = cj * self.s_c + ci
        return socket * (self.s_c * self.s_c) + core_in_socket

    def run(self, ctx: ExecutionContext) -> None:
        m, n, z = self.m, self.n, self.z
        mu, tile = self.mu, self.tile
        compute_row = ctx.compute_row
        RS = ROW_SHIFT

        for i0 in range(0, m, tile):
            hi = min(i0 + tile, m)
            for j0 in range(0, n, tile):
                wj = min(j0 + tile, n)
                # µ-block grid of this tile, with the owning core of each
                blocks = []
                for bi0 in range(i0, hi, mu):
                    for bj0 in range(j0, wj, mu):
                        core = self._core_of((bi0 - i0) // mu, (bj0 - j0) // mu)
                        blocks.append(
                            (core, bi0, min(bi0 + mu, hi), bj0, min(bj0 + mu, wj))
                        )
                # lockstep over k: every core advances its blocks together,
                # so B fragments and A elements are shared at the socket
                # and LLC levels while hot.
                for k in range(z):
                    brow = B_BASE | (k << RS)
                    for core, rlo, rhi, clo, chi in blocks:
                        cols = range(clo, chi)
                        for i in range(rlo, rhi):
                            ka = A_BASE | (i << RS) | k
                            compute_row(core, ka, C_BASE | (i << RS), brow, cols)

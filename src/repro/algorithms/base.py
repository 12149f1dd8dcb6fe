"""Algorithm/context interface: one schedule, many interpreters.

The paper's algorithms are *schedules*: an order of explicit cache
movements and elementary block multiply-adds.  We express each schedule
once, as a ``run(ctx)`` method emitting operations against an
:class:`ExecutionContext`, and plug in different contexts:

* an LRU counting context (explicit directives ignored, every compute
  touches the hierarchy — the paper's LRU simulator mode);
* an IDEAL counting context (directives drive the explicitly-controlled
  hierarchy, optionally verifying capacity/inclusion/presence);
* a numeric context (directives ignored, every compute performs the
  real block arithmetic so the schedule's correctness is provable);
* a chain context fanning out to several of the above at once.

Contexts advertise ``explicit``: schedules wrap their load/evict
directives in ``if ctx.explicit`` so the (very hot) LRU and numeric
paths don't pay for directive no-op calls.  ``compute`` is always
emitted.  Per-core compute counters live in the context because the
communication-to-computation ratios of the paper normalize by them.

Schedules emit their innermost loop a row at a time:
:meth:`ExecutionContext.compute_row` (one ``A`` element times a row
fragment of ``B`` into a row fragment of ``C``) and, for the IDEAL
per-block streaming pattern, :meth:`ExecutionContext.stream_row`
(itself a directive-bearing call, so guarded by ``if ctx.explicit``).
The defaults expand to the exact per-block operation sequence; the
counting contexts override them to run a whole row per call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Any, ClassVar, Dict, FrozenSet, Hashable, List, Sequence

from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.exceptions import ConfigurationError
from repro.model.machine import MulticoreMachine


class ExecutionContext(ABC):
    """Interpreter of an algorithm's schedule.

    Attributes
    ----------
    p:
        Number of cores; schedules may only use core ids ``0..p-1``.
    explicit:
        Whether the context honours explicit cache directives.  When
        ``False`` a schedule should skip emitting them (they would be
        ignored anyway).
    comp:
        Per-core count of elementary block multiply-adds, maintained by
        :meth:`count_compute` which every ``compute`` implementation
        must call (or replicate).
    """

    explicit: bool = False

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.comp: List[int] = [0] * p

    # -- explicit directives (no-ops unless the context opts in) -------
    def load_shared(self, key: int) -> None:
        """Directive: load ``key`` from memory into the shared cache."""

    def evict_shared(self, key: int) -> None:
        """Directive: evict ``key`` from the shared cache."""

    def load_dist(self, core: int, key: int) -> None:
        """Directive: load ``key`` from shared into ``core``'s cache."""

    def evict_dist(self, core: int, key: int) -> None:
        """Directive: evict ``key`` from ``core``'s cache."""

    # -- the universal hot operation -----------------------------------
    @abstractmethod
    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        """One elementary block multiply-add ``C[c] += A[a] · B[b]``."""

    # -- row operations (defaults expand to the per-block sequence) ----
    def compute_row(
        self, core: int, akey: int, crow: int, brow: int, cols: range
    ) -> None:
        """``compute(core, crow | j, akey, brow | j)`` for ``j`` in ``cols``.

        One row of a micro-kernel: the element ``akey`` of ``A`` times a
        row fragment of ``B`` (keys ``brow | j``) accumulated into a row
        fragment of ``C`` (keys ``crow | j``).  Counting contexts override
        this with one call per row; the default keeps every other
        context's operation sequence exactly as per-block emission.
        """
        compute = self.compute
        for j in cols:
            compute(core, crow | j, akey, brow | j)

    def stream_row(
        self,
        core: int,
        akey: int,
        crow: int,
        brow: int,
        cols: range,
        shared: bool = False,
    ) -> None:
        """:meth:`compute_row` with the IDEAL streaming directives.

        Per ``j``: load ``B`` and ``C`` blocks into ``core``'s cache,
        compute, evict both.  With ``shared=True`` each block is also
        loaded into (before) and evicted from (after) the shared cache,
        as the cache-oblivious Outer Product and Cannon schedules do.
        ``akey`` must already be resident: the row does not load it.  A
        context that ignores directives just computes the row.
        """
        if self.explicit:
            compute = self.compute
            for j in cols:
                kb = brow | j
                kc = crow | j
                if shared:
                    self.load_shared(kb)
                self.load_dist(core, kb)
                if shared:
                    self.load_shared(kc)
                self.load_dist(core, kc)
                compute(core, kc, akey, kb)
                self.evict_dist(core, kb)
                self.evict_dist(core, kc)
                if shared:
                    self.evict_shared(kb)
                    self.evict_shared(kc)
        else:
            self.compute_row(core, akey, crow, brow, cols)

    def count_compute(self, core: int) -> None:
        """Bump the per-core compute counter (helper for subclasses)."""
        self.comp[core] += 1

    @property
    def comp_total(self) -> int:
        """Total elementary multiply-adds across all cores."""
        return sum(self.comp)


class NullContext(ExecutionContext):
    """Counts computes and nothing else (scheduling dry-runs, tests)."""

    explicit = False

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self.comp[core] += 1


class MatmulAlgorithm(ABC):
    """Base class of the six schedules.

    Subclasses compute their tile parameters at construction (raising
    :class:`~repro.exceptions.ParameterError` /
    :class:`~repro.exceptions.ConfigurationError` for impossible
    machines) and implement :meth:`run`.

    The matrix dimensions are in *blocks*: ``A`` is ``m × z``, ``B`` is
    ``z × n``, ``C`` is ``m × n``.  Schedules must handle arbitrary
    positive dimensions (ragged edge tiles); the paper's closed-form
    miss counts are exact only when the tile sides divide the
    dimensions, which the analysis and tests account for.
    """

    #: Stable identifier used by the registry, the CLI and reports.
    name: ClassVar[str] = "abstract"
    #: Pretty label as used in the paper's figures.
    label: ClassVar[str] = "Abstract"
    #: Whether the schedule lays cores on a square grid (needs square p).
    requires_square_grid: ClassVar[bool] = False
    #: Whether the schedule carries explicit IDEAL-mode cache directives.
    #: Compute-only schedules (counted through LRU/tree contexts) set
    #: this to False; the runner then refuses the ``ideal`` setting
    #: instead of silently reporting zero misses.
    supports_ideal: ClassVar[bool] = True
    #: Entries of :meth:`parameters` that are reported but never read by
    #: :meth:`run` (left out of :meth:`schedule_key`).
    display_only_parameters: ClassVar[FrozenSet[str]] = frozenset()

    def __init__(self, machine: MulticoreMachine, m: int, n: int, z: int) -> None:
        if m < 1 or n < 1 or z < 1:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got m={m}, n={n}, z={z}"
            )
        if self.requires_square_grid and not machine.is_square_grid:
            raise ConfigurationError(
                f"{self.name} lays cores on a square grid; p={machine.p} "
                "is not a perfect square"
            )
        self.machine = machine
        self.m = m
        self.n = n
        self.z = z

    @abstractmethod
    def run(self, ctx: ExecutionContext) -> None:
        """Emit the full schedule for ``C = A × B`` against ``ctx``."""

    def parameters(self) -> Dict[str, Any]:
        """The tile parameters the schedule runs with (for reports)."""
        return {}

    def schedule_key(self) -> Hashable:
        """Identity of the emitted operation stream, bandwidths left out.

        Everything :meth:`run` can read: the registered name, the shape,
        the *declared* machine with ``sigma_s``/``sigma_d``/``name``
        normalised away (schedules plan against bandwidths only through
        their tile parameters) and the resolved tile plan minus
        :attr:`display_only_parameters`.  Two schedules with equal keys
        emit identical streams, so a bandwidth sweep simulates each key
        once and a compiled trace is shared across bandwidth ratios.
        """
        machine = replace(self.machine, sigma_s=1.0, sigma_d=1.0, name="")
        plan = tuple(
            sorted(
                (key, value)
                for key, value in self.parameters().items()
                if key not in self.display_only_parameters
            )
        )
        return (type(self).name, machine, self.m, self.n, self.z, plan)

    @property
    def comp_total(self) -> int:
        """Elementary multiply-adds any correct schedule must emit."""
        return self.m * self.n * self.z

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v}" for k, v in self.parameters().items())
        return (
            f"{type(self).__name__}(m={self.m}, n={self.n}, z={self.z}"
            + (f", {params}" if params else "")
            + ")"
        )

    # ------------------------------------------------------------------
    # Shared helpers for schedules
    # ------------------------------------------------------------------
    @staticmethod
    def a_key(i: int, k: int) -> int:
        """Key of block ``A[i, k]`` (row ``i`` of ``A``, column ``k``)."""
        return block_key(MAT_A, i, k)

    @staticmethod
    def b_key(k: int, j: int) -> int:
        """Key of block ``B[k, j]``."""
        return block_key(MAT_B, k, j)

    @staticmethod
    def c_key(i: int, j: int) -> int:
        """Key of block ``C[i, j]``."""
        return block_key(MAT_C, i, j)

    @staticmethod
    def split_evenly(lo: int, hi: int, parts: int) -> List[range]:
        """Split ``range(lo, hi)`` into ``parts`` contiguous chunks.

        Chunk sizes differ by at most one (the first ``extra`` chunks
        are longer); empty chunks are possible when the range is shorter
        than ``parts``.  Used to deal rows/columns of a tile out to
        cores, e.g. Algorithm 1's ``λ/p`` sub-rows.
        """
        total = hi - lo
        base, extra = divmod(total, parts)
        chunks: List[range] = []
        start = lo
        for c in range(parts):
            size = base + (1 if c < extra else 0)
            chunks.append(range(start, start + size))
            start += size
        return chunks


def tile_starts(extent: int, tile: int) -> Sequence[int]:
    """Start offsets of consecutive tiles of side ``tile`` over ``extent``."""
    return range(0, extent, tile)

"""The two-level cache hierarchy of the paper, in both simulator modes.

Two classes mirror the two modes of the paper's simulator (§4.1):

* :class:`LRUHierarchy` — "read and write operations are made at the
  distributed cache level (top of hierarchy); if a miss occurs,
  operations are propagated throughout the hierarchy until a cache hit
  happens."  Replacement is automatic (LRU by default, FIFO available
  for ablations).  Explicit load/evict directives from algorithms are
  ignored in this mode.  Plain LRU runs on a compiled kernel
  (:mod:`repro.cache.native`); other policies on the Python
  :class:`~repro.cache.cache.Cache` path.

* :class:`IdealHierarchy` — "the user manually decides which data needs
  to be loaded/unloaded in a given cache; I/O operations are not
  propagated throughout the hierarchy in case of a cache miss: it is the
  user responsibility to guarantee that a given data is present in every
  cache below the target cache."  With ``check=True`` the hierarchy
  *verifies* that responsibility: capacity overflows, inclusion
  violations and computes on absent blocks raise instead of being
  silently miscounted.

Both expose the same statistics surface
(:class:`repro.cache.stats.HierarchyStats`) so the simulation engine is
mode-agnostic.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, NamedTuple, NoReturn, Set

from repro.cache import native
from repro.cache.block import MAT_SHIFT, key_name
from repro.cache.cache import Cache
from repro.cache.stats import CacheStats, HierarchyStats
from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    InclusionError,
    PresenceError,
)


class CacheState(NamedTuple):
    """Resident blocks of one cache, in eviction order, and its dirty set.

    ``order`` lists resident keys least recently used first (insertion
    order under FIFO): the next victim is ``order[0]``.
    """

    order: List[int]
    dirty: FrozenSet[int]


class HierarchyState(NamedTuple):
    """:class:`CacheState` of the shared and of every distributed cache."""

    shared: CacheState
    distributed: List[CacheState]


class LRUHierarchy:
    """Shared cache + ``p`` distributed caches with automatic replacement.

    Parameters
    ----------
    p:
        Number of cores (and distributed caches).
    cs, cd:
        Capacities (in blocks) of the shared and of each distributed
        cache.
    policy:
        Replacement policy name (``"lru"`` or ``"fifo"``).
    inclusive:
        When ``True``, evicting a block from the shared cache
        back-invalidates any distributed copy, enforcing the paper's
        inclusivity assumption.  When ``False`` (default, and what a
        straightforward two-level LRU does), inner copies may outlive
        the shared one.

    Plain non-inclusive LRU runs on the compiled kernel of
    :mod:`repro.cache.native`, which then holds all cache state; every
    other configuration (and plain LRU when the kernel cannot be built)
    runs the generic Python path over :attr:`shared` and
    :attr:`distributed` :class:`~repro.cache.cache.Cache` objects.  Both
    paths produce identical counters; :attr:`kernel` names the one in
    use (``"step-native"`` or ``"step"``).  Read state through
    :meth:`snapshot` and :meth:`state`, which work on either path.
    """

    #: Generic-path caches; absent while the native kernel holds the state.
    shared: Cache
    distributed: List[Cache]

    def __init__(
        self,
        p: int,
        cs: int,
        cd: int,
        policy: str = "lru",
        inclusive: bool = False,
    ) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.policy_name = policy
        self.inclusive = inclusive
        #: Multiply-adds simulated per core through :attr:`compute`.
        self.comp: List[int] = [0] * p
        self._native = (
            native.kernel() if policy == "lru" and not inclusive else None
        )
        #: The per-FMA step kernel, ``(core, ckey, akey, bkey)`` in
        #: :meth:`ExecutionContext.compute` order: the three references
        #: of ``C += A·B`` plus one count in :attr:`comp`.
        self.compute: Callable[[int, int, int, int], None]
        #: The row kernel, :meth:`ExecutionContext.compute_row` order:
        #: :attr:`compute` of ``(crow | j, akey, brow | j)`` for every
        #: ``j`` in ``cols``.
        self.compute_row: Callable[[int, int, int, int, range], None]
        if self._native is not None:
            for capacity in (cs, cd):
                if capacity < 1:
                    raise ConfigurationError(
                        f"cache capacity must be >= 1, got {capacity}"
                    )
            self.kernel = "step-native"
            self._bind_native(self._native, cs, cd)
        else:
            self.kernel = "step"
            self.shared = Cache("shared", cs, policy)
            self.distributed = [
                Cache(f"distributed[{c}]", cd, policy) for c in range(p)
            ]
            self.compute = self._generic_compute
            self.compute_row = self._generic_compute_row

    # ------------------------------------------------------------------
    # Native kernel
    # ------------------------------------------------------------------
    def _bind_native(self, module: Any, cs: int, cd: int) -> None:
        ffi, lib = module.ffi, module.lib
        handle = lib.lru_new(self.p, cs, cd)
        if handle == ffi.NULL:
            raise MemoryError(
                f"cannot allocate an LRU hierarchy of {cs} + {self.p}x{cd} blocks"
            )
        self._handle = ffi.gc(handle, lib.lru_free)
        self._lib = lib
        self._ffi = ffi
        fma = lib.lru_compute
        row = lib.lru_compute_row
        comp = self.comp
        fail = self._fail

        def compute(core: int, ckey: int, akey: int, bkey: int) -> None:
            rc = fma(handle, core, ckey, akey, bkey)
            if rc:
                fail(rc, core)
            comp[core] += 1

        def compute_row(
            core: int, akey: int, crow: int, brow: int, cols: range
        ) -> None:
            rc = row(handle, core, akey, crow, brow, cols.start, cols.stop, cols.step)
            if rc:
                fail(rc, core)
            comp[core] += len(cols)

        self.compute = compute
        self.compute_row = compute_row

    def _fail(self, rc: int, core: int) -> NoReturn:
        if rc == native.ERR_CORE:
            raise IndexError(f"core {core} out of range for p={self.p}")
        raise ValueError("block key with a matrix tag outside A, B, C")

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def touch(self, core: int, key: int, write: bool = False) -> bool:
        """One reference by ``core`` to ``key``; returns distributed-hit.

        A distributed miss is propagated to the shared cache; a shared
        miss loads from memory.  Writes mark the block dirty at the
        distributed level.  A dirty victim evicted from the distributed
        cache is written back into its shared copy, which becomes dirty
        (mirroring :meth:`IdealHierarchy.evict_distributed`); if the
        shared cache no longer holds the block, the write-back goes
        straight to memory and was already counted at the distributed
        level.
        """
        if self._native is not None:
            rc = self._lib.lru_touch(self._handle, core, key, write)
            if rc < 0:
                self._fail(rc, core)
            return bool(rc)
        hit, victim, victim_dirty = self.distributed[core].access(key, write)
        if victim is not None and victim_dirty and victim in self.shared:
            self.shared.dirty.add(victim)
        if hit:
            return True
        s_hit, s_victim, _ = self.shared.access(key)
        if s_victim is not None and self.inclusive:
            for dc in self.distributed:
                dc.invalidate(s_victim)
        return False

    def compute_touches(self, core: int, akey: int, bkey: int, ckey: int) -> None:
        """The three references of one block multiply-add ``C += A·B``."""
        self.compute(core, ckey, akey, bkey)

    def _generic_compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self.touch(core, akey)
        self.touch(core, bkey)
        self.touch(core, ckey, write=True)
        self.comp[core] += 1

    def _generic_compute_row(
        self, core: int, akey: int, crow: int, brow: int, cols: range
    ) -> None:
        for j in cols:
            self._generic_compute(core, crow | j, akey, brow | j)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _native_stats(self, cache: int) -> CacheStats:
        out = self._ffi.new("lru_counters *")
        self._lib.lru_counters_of(self._handle, cache, out)
        return CacheStats(
            hits=out.hits,
            misses=out.misses,
            writebacks=out.writebacks,
            misses_by_matrix=list(out.misses_by_matrix),
        )

    def _native_state(self, cache: int) -> CacheState:
        size = self._lib.lru_size(self._handle, cache)
        keys = self._ffi.new("uint64_t[]", size)
        dirty = self._ffi.new("int32_t[]", size)
        self._lib.lru_export(self._handle, cache, keys, dirty)
        order = list(keys)
        return CacheState(order, frozenset(k for k, d in zip(order, dirty) if d))

    def snapshot(self) -> HierarchyStats:
        """Snapshot all counters into a :class:`HierarchyStats`."""
        if self._native is not None:
            return HierarchyStats(
                shared=self._native_stats(-1),
                distributed=[self._native_stats(c) for c in range(self.p)],
            )
        return HierarchyStats(
            shared=self.shared.stats(),
            distributed=[dc.stats() for dc in self.distributed],
        )

    def state(self) -> HierarchyState:
        """Resident blocks (in eviction order) and dirty sets of every cache."""
        if self._native is not None:
            return HierarchyState(
                self._native_state(-1),
                [self._native_state(c) for c in range(self.p)],
            )

        def of(cache: Cache) -> CacheState:
            return CacheState(list(cache.policy), frozenset(cache.dirty))

        return HierarchyState(of(self.shared), [of(dc) for dc in self.distributed])

    def reset(self) -> None:
        """Empty every cache and zero all counters."""
        if self._native is not None:
            self._lib.lru_reset(self._handle)
        else:
            self.shared.reset()
            for dc in self.distributed:
                dc.reset()
        self.comp[:] = [0] * self.p

    def check_inclusion(self) -> bool:
        """Whether every distributed-resident block is shared-resident."""
        state = self.state()
        shared = set(state.shared.order)
        return all(
            key in shared for dc in state.distributed for key in dc.order
        )


class IdealHierarchy:
    """Explicitly controlled hierarchy for the ideal cache model.

    Every data movement is an explicit call:

    * :meth:`load_shared` — memory → shared: counts one shared miss;
    * :meth:`load_distributed` — shared → distributed cache of one core:
      counts one distributed miss for that core;
    * :meth:`evict_shared` / :meth:`evict_distributed` — frees capacity;
      dirty blocks count a write-back;
    * :meth:`mark_dirty` — flags a resident block as modified.

    With ``check=True`` (the default — disable only in throughput
    benchmarks) the hierarchy raises
    :class:`~repro.exceptions.CapacityError` on overflow,
    :class:`~repro.exceptions.InclusionError` when the inclusive-cache
    invariant would break, and :meth:`assert_present` raises
    :class:`~repro.exceptions.PresenceError` for computes on absent
    blocks.
    """

    def __init__(self, p: int, cs: int, cd: int, check: bool = True) -> None:
        if p < 1:
            raise ConfigurationError(f"need at least one core, got p={p}")
        self.p = p
        self.cs = cs
        self.cd = cd
        self.check = check
        self.shared_set: Set[int] = set()
        self.dist_sets: List[Set[int]] = [set() for _ in range(p)]
        self.shared_dirty: Set[int] = set()
        self.dist_dirty: List[Set[int]] = [set() for _ in range(p)]
        # counters
        self.ms = 0
        self.ms_by_matrix = [0, 0, 0]
        self.md = [0] * p
        self.md_by_matrix = [[0, 0, 0] for _ in range(p)]
        self.shared_writebacks = 0
        self.dist_updates = [0] * p
        self.redundant_loads = 0
        self.peak_shared = 0
        self.peak_dist = [0] * p

    # ------------------------------------------------------------------
    # Shared level
    # ------------------------------------------------------------------
    def load_shared(self, key: int) -> None:
        """Load one block from memory into the shared cache (one MS)."""
        sset = self.shared_set
        if key in sset:
            self.redundant_loads += 1
            return
        if self.check and len(sset) >= self.cs:
            raise CapacityError(
                f"shared cache overflow loading {key_name(key)}: "
                f"{len(sset)}/{self.cs} blocks resident"
            )
        sset.add(key)
        self.ms += 1
        self.ms_by_matrix[key >> MAT_SHIFT] += 1
        if len(sset) > self.peak_shared:
            self.peak_shared = len(sset)

    def evict_shared(self, key: int) -> None:
        """Remove a block from the shared cache.

        Dirty blocks count one write-back to memory.  In checked mode,
        evicting a block still held by a distributed cache violates
        inclusivity and raises.
        """
        if self.check:
            for c, dset in enumerate(self.dist_sets):
                if key in dset:
                    raise InclusionError(
                        f"evicting {key_name(key)} from shared cache while "
                        f"core {c} still holds it"
                    )
        if key in self.shared_dirty:
            self.shared_dirty.discard(key)
            self.shared_writebacks += 1
        self.shared_set.discard(key)

    def mark_shared_dirty(self, key: int) -> None:
        """Flag a shared-resident block as modified."""
        if self.check and key not in self.shared_set:
            raise PresenceError(f"{key_name(key)} not in shared cache")
        self.shared_dirty.add(key)

    # ------------------------------------------------------------------
    # Distributed level
    # ------------------------------------------------------------------
    def load_distributed(self, core: int, key: int) -> None:
        """Load one block from shared into ``core``'s cache (one MD)."""
        dset = self.dist_sets[core]
        if key in dset:
            self.redundant_loads += 1
            return
        if self.check:
            if key not in self.shared_set:
                raise InclusionError(
                    f"core {core} loads {key_name(key)} absent from shared cache"
                )
            if len(dset) >= self.cd:
                raise CapacityError(
                    f"distributed cache of core {core} overflow loading "
                    f"{key_name(key)}: {len(dset)}/{self.cd} blocks resident"
                )
        dset.add(key)
        self.md[core] += 1
        self.md_by_matrix[core][key >> MAT_SHIFT] += 1
        if len(dset) > self.peak_dist[core]:
            self.peak_dist[core] = len(dset)

    def evict_distributed(self, core: int, key: int) -> None:
        """Remove a block from ``core``'s cache.

        A dirty block is pushed back into the shared copy (counted in
        ``dist_updates``; the shared copy becomes dirty).
        """
        if key in self.dist_dirty[core]:
            self.dist_dirty[core].discard(key)
            self.dist_updates[core] += 1
            self.shared_dirty.add(key)
        self.dist_sets[core].discard(key)

    def mark_distributed_dirty(self, core: int, key: int) -> None:
        """Flag a block in ``core``'s cache as modified."""
        if self.check and key not in self.dist_sets[core]:
            raise PresenceError(
                f"{key_name(key)} not in distributed cache of core {core}"
            )
        self.dist_dirty[core].add(key)

    def assert_present(self, core: int, akey: int, bkey: int, ckey: int) -> None:
        """Verify the three operands of a multiply-add are core-resident."""
        dset = self.dist_sets[core]
        for key in (akey, bkey, ckey):
            if key not in dset:
                raise PresenceError(
                    f"compute on core {core} touches {key_name(key)} which was "
                    "never loaded into its distributed cache"
                )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def snapshot(self) -> HierarchyStats:
        """Snapshot all counters into a :class:`HierarchyStats`.

        Hits are meaningless under explicit control and reported as 0.
        """
        shared = CacheStats(
            hits=0,
            misses=self.ms,
            writebacks=self.shared_writebacks,
            misses_by_matrix=list(self.ms_by_matrix),
        )
        distributed = [
            CacheStats(
                hits=0,
                misses=self.md[c],
                writebacks=self.dist_updates[c],
                misses_by_matrix=list(self.md_by_matrix[c]),
            )
            for c in range(self.p)
        ]
        return HierarchyStats(shared=shared, distributed=distributed)

    def reset(self) -> None:
        """Empty both levels and zero every counter."""
        self.shared_set.clear()
        self.shared_dirty.clear()
        for dset in self.dist_sets:
            dset.clear()
        for ddirty in self.dist_dirty:
            ddirty.clear()
        self.ms = 0
        self.ms_by_matrix = [0, 0, 0]
        self.md = [0] * self.p
        self.md_by_matrix = [[0, 0, 0] for _ in range(self.p)]
        self.shared_writebacks = 0
        self.dist_updates = [0] * self.p
        self.redundant_loads = 0
        self.peak_shared = 0
        self.peak_dist = [0] * self.p

    def check_inclusion(self) -> bool:
        """Whether every distributed-resident block is shared-resident."""
        return all(
            key in self.shared_set for dset in self.dist_sets for key in dset
        )

    def resident_shared(self) -> int:
        """Blocks currently resident in the shared cache."""
        return len(self.shared_set)

    def resident_distributed(self, core: int) -> int:
        """Blocks currently resident in ``core``'s distributed cache."""
        return len(self.dist_sets[core])

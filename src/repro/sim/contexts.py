"""Execution contexts binding algorithm schedules to simulated hierarchies.

See :mod:`repro.algorithms.base` for the contract.  The two counting
contexts mirror the paper simulator's two modes; :class:`ChainContext`
fans one schedule out to several interpreters at once (used by tests to
run numeric execution and checked-IDEAL simulation simultaneously).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.algorithms.base import ExecutionContext
from repro.cache.block import MAT_SHIFT
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.cache.multilevel import MultiLevelHierarchy
from repro.cache.trace import AccessTrace


class LRUContext(ExecutionContext):
    """LRU simulator mode: only compute touches reach the caches.

    Explicit directives are ignored ("in the LRU mode, read and write
    operations are made at the distributed cache level; if a miss
    occurs, operations are propagated throughout the hierarchy").
    """

    explicit = False

    def __init__(self, hierarchy: LRUHierarchy) -> None:
        super().__init__(hierarchy.p)
        self.hierarchy = hierarchy
        # One call per multiply-add (or per row): the hierarchy's step
        # kernels do the touches and count the multiply-adds in its
        # ``comp``, which this context reports as its own.
        self.comp = hierarchy.comp
        self.compute = hierarchy.compute  # type: ignore[method-assign]
        self.compute_row = hierarchy.compute_row  # type: ignore[method-assign]

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        # Shadowed per instance by ``hierarchy.compute`` (see __init__).
        self.hierarchy.compute(core, ckey, akey, bkey)


class IdealContext(ExecutionContext):
    """IDEAL simulator mode: the schedule controls every cache movement."""

    explicit = True

    def __init__(self, hierarchy: IdealHierarchy) -> None:
        super().__init__(hierarchy.p)
        self.hierarchy = hierarchy
        self.load_shared = hierarchy.load_shared  # type: ignore[method-assign]
        self.evict_shared = hierarchy.evict_shared  # type: ignore[method-assign]
        self.load_dist = hierarchy.load_distributed  # type: ignore[method-assign]
        self.evict_dist = hierarchy.evict_distributed  # type: ignore[method-assign]
        self._check = hierarchy.check
        self._dist_dirty = hierarchy.dist_dirty
        self._assert = hierarchy.assert_present

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        if self._check:
            self._assert(core, akey, bkey, ckey)
        self._dist_dirty[core].add(ckey)
        self.comp[core] += 1

    # The row operations below inline :class:`IdealHierarchy`'s set
    # operations for a whole row.  They reproduce the per-block sequence
    # exactly (counters, ``redundant_loads``, peaks, dirty sets); with
    # ``check=True`` they take the per-block path, whose capacity,
    # inclusion and presence errors fire at the same operation.
    def compute_row(
        self, core: int, akey: int, crow: int, brow: int, cols: range
    ) -> None:
        if self._check:
            super().compute_row(core, akey, crow, brow, cols)
            return
        mark = self._dist_dirty[core].add
        for j in cols:
            mark(crow | j)
        self.comp[core] += len(cols)

    def stream_row(
        self,
        core: int,
        akey: int,
        crow: int,
        brow: int,
        cols: range,
        shared: bool = False,
    ) -> None:
        if self._check:
            super().stream_row(core, akey, crow, brow, cols, shared)
            return
        h = self.hierarchy
        dset = h.dist_sets[core]
        ddirty = h.dist_dirty[core]
        sset = h.shared_set
        sdirty = h.shared_dirty
        peak_d = h.peak_dist[core]
        peak_s = h.peak_shared
        redundant = ms_b = ms_c = md_b = md_c = 0
        updates = swb = 0
        for j in cols:
            kb = brow | j
            kc = crow | j
            if shared:
                if kb in sset:
                    redundant += 1
                else:
                    sset.add(kb)
                    ms_b += 1
            if kb in dset:
                redundant += 1
            else:
                dset.add(kb)
                md_b += 1
            if shared:
                if kc in sset:
                    redundant += 1
                else:
                    sset.add(kc)
                    ms_c += 1
                if len(sset) > peak_s:
                    peak_s = len(sset)
            if kc in dset:
                redundant += 1
            else:
                dset.add(kc)
                md_c += 1
            if len(dset) > peak_d:
                peak_d = len(dset)
            # compute marks C dirty; evicting B, then the dirty C, pushes
            # C (and B, if dirty) back into the shared copy.
            if kb in ddirty:
                ddirty.discard(kb)
                updates += 1
                sdirty.add(kb)
            dset.discard(kb)
            ddirty.discard(kc)
            updates += 1
            dset.discard(kc)
            if shared:
                if kb in sdirty:
                    sdirty.discard(kb)
                    swb += 1
                sset.discard(kb)
                # The C write-back just dirtied the shared copy.
                sdirty.discard(kc)
                swb += 1
                sset.discard(kc)
            else:
                sdirty.add(kc)
        tb = brow >> MAT_SHIFT
        tc = crow >> MAT_SHIFT
        h.md[core] += md_b + md_c
        h.md_by_matrix[core][tb] += md_b
        h.md_by_matrix[core][tc] += md_c
        h.peak_dist[core] = peak_d
        h.dist_updates[core] += updates
        h.redundant_loads += redundant
        if shared:
            h.ms += ms_b + ms_c
            h.ms_by_matrix[tb] += ms_b
            h.ms_by_matrix[tc] += ms_c
            h.peak_shared = peak_s
            h.shared_writebacks += swb
        self.comp[core] += len(cols)


class MultiLevelContext(ExecutionContext):
    """LRU counting against an N-level cache tree.

    The multi-level analogue of :class:`LRUContext`: explicit
    directives are ignored, every compute touches the tree (A, B, then
    the written C) through the issuing core's leaf cache.
    """

    explicit = False

    def __init__(self, tree: MultiLevelHierarchy) -> None:
        super().__init__(tree.p)
        self.tree = tree
        self._touch = tree.touch

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        touch = self._touch
        touch(core, akey)
        touch(core, bkey)
        touch(core, ckey, True)
        self.comp[core] += 1


class RecordingContext(ExecutionContext):
    """Record the reference stream instead of simulating it.

    Each compute appends its three touches (A, B, then the written C)
    to an :class:`~repro.cache.trace.AccessTrace`, which can then be
    replayed against arbitrary hierarchies, fed to the stack-distance
    analyzer (:mod:`repro.cache.stackdist`) for whole-miss-curve
    analysis, or to Belady's OPT (:mod:`repro.cache.opt`).
    """

    explicit = False

    def __init__(self, p: int) -> None:
        super().__init__(p)
        self.trace = AccessTrace()

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        record = self.trace.record
        record(core, akey)
        record(core, bkey)
        record(core, ckey, True)
        self.comp[core] += 1

    def keys(self) -> List[int]:
        """The flat key sequence (core-agnostic), for trace analyses."""
        return [key for _, key, _ in self.trace]


class ChainContext(ExecutionContext):
    """Fan a schedule out to several contexts (they must agree on ``p``).

    ``explicit`` is the OR of the children's: explicit directives are
    forwarded only to children that honour them.
    """

    def __init__(self, contexts: Sequence[ExecutionContext]) -> None:
        if not contexts:
            raise ValueError("ChainContext needs at least one child context")
        p = contexts[0].p
        if any(c.p != p for c in contexts):
            raise ValueError("chained contexts disagree on the core count")
        super().__init__(p)
        self.contexts = list(contexts)
        self.explicit = any(c.explicit for c in contexts)
        self._explicit_children = [c for c in contexts if c.explicit]

    def load_shared(self, key: int) -> None:
        for c in self._explicit_children:
            c.load_shared(key)

    def evict_shared(self, key: int) -> None:
        for c in self._explicit_children:
            c.evict_shared(key)

    def load_dist(self, core: int, key: int) -> None:
        for c in self._explicit_children:
            c.load_dist(core, key)

    def evict_dist(self, core: int, key: int) -> None:
        for c in self._explicit_children:
            c.evict_dist(core, key)

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        for c in self.contexts:
            c.compute(core, ckey, akey, bkey)
        self.comp[core] += 1

"""Trace-compile/replay fast path for the two-level simulator.

The step simulator (:mod:`repro.cache.hierarchy`) interprets a schedule
one reference at a time: three Python-level cache operations per
elementary multiply-add.  This module splits that work in two:

* **compile** — run the schedule once against a recording context and
  keep its block-access trace (the compute stream, and the explicit
  IDEAL directives when the schedule carries them) as a
  :class:`CompiledTrace`;
* **replay** — consume the whole trace in bulk against any simulated
  capacity/policy combination, without re-running the schedule.

Replays are *exact*: every counter of the resulting
:class:`~repro.cache.stats.HierarchyStats` (``ms``, ``md``, write-backs,
per-matrix breakdowns) is bit-identical to the step simulator's, which
the test suite proves across algorithms × policies × ragged shapes and
with hypothesis-generated traces.  The step engine is the default and
the oracle (``engine="step"`` in :func:`repro.sim.runner.run_experiment`):
a cold cell runs faster on it than through compile plus replay (see
``docs/BENCHMARKS.md``), so replay is an explicit opt-in for work that
reuses a trace.

Where replay saves work:

* the schedule runs **once** per (algorithm, declared machine, shape) —
  every additional setting/capacity/policy replays the memoized trace
  (:func:`compiled_trace_for` keeps a bounded LRU of compiled traces,
  optionally backed by an on-disk content-addressed memmap tier shared
  across processes, see :func:`configure_trace_tier`);
* :func:`replay_bulk` evaluates **many** ``(policy, CS, CD)`` cells
  over one shared trace: LRU cells share a single bounded Mattson
  stack-distance pass (the inclusion property gives every distributed
  capacity's misses *and* eviction victims from one pass), per-cell
  counters are aggregated with numpy over chunked depth arrays, and
  the shared level replays only the distributed-miss stream — orders
  of magnitude shorter than the touch stream;
* **FIFO** replay keeps the insertion-ring formulation (hits never
  mutate FIFO state; no inclusion property, so one distributed pass
  per ``CD``) with the same short shared-stream treatment;
* **IDEAL** replay is vectorized: the directive stream is lowered to
  numpy arrays once per trace and each replay is a handful of
  sorts/scans instead of four million Python method calls;
* **capacity curves** come from one bounded Mattson pass over the
  per-core streams (:func:`distributed_miss_curves`) instead of one
  full simulation per capacity point.

The write-back path is preserved exactly without per-touch dirty sets:
in this workload C blocks are touched *last* in their triple and dirtied
when the triple retires, so **every resident C block is dirty at any
eviction point and A/B blocks never are** — distributed write-backs are
exactly the C-tagged evictions, and each one emits a timestamped "mark"
event that the shared-level pass interleaves (mark before the miss that
caused it) to reproduce the dirty-victim → shared-copy propagation.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import MAT_C, MAT_SHIFT
from repro.cache.stats import CacheStats, HierarchyStats
from repro.exceptions import ConfigurationError

#: Directive opcodes in a compiled trace's directive stream.
OP_LOAD_SHARED = 0
OP_EVICT_SHARED = 1
OP_LOAD_DIST = 2
OP_EVICT_DIST = 3

#: Replacement policies the replay engine can reproduce exactly.  The
#: associative/PLRU ablation policies and inclusive hierarchies fall
#: back to the step engine (see :func:`supports`).
REPLAY_POLICIES = frozenset({"lru", "fifo"})

#: Sentinel insertion index meaning "never inserted" in the FIFO pass;
#: must compare below ``miss_count - capacity`` for every reachable
#: state (a plain ``-1`` collides with the cold-start window).
_NEVER = -(1 << 62)

#: Saturated stack depth for keys absent from a bounded recency stack
#: (cold or deeper than the bound) — compares ``>=`` every capacity the
#: pass distinguishes.
_ABSENT = 1 << 30

#: FMAs per kernel chunk: the Python transition loop hands counters to
#: numpy in chunks this size, bounding intermediate-array memory even
#: on memmapped paper-scale traces.
_CHUNK_FMAS = 1 << 16

#: Keys at or above this value are C blocks (tags are A=0 < B=1 < C=2,
#: so one compare replaces shift-and-equal in the hot eviction check).
_C_BASE = MAT_C << MAT_SHIFT


class _Recorder(ExecutionContext):
    """Execution context that records the schedule instead of simulating.

    The compute stream is appended to a flat ``array('q')`` buffer as
    ``(core, akey, bkey, ckey)`` quadruples — the exact touch order of
    the step simulator (A, B, then the written C) — and lowered to one
    ``(n, 4)`` int64 array at compile time.  With ``explicit=True`` the
    schedule's IDEAL directives are recorded too, as four parallel int
    lists timestamped with the number of computes already emitted
    (directive ``t`` sorts before compute ``t``).
    """

    def __init__(self, p: int, explicit: bool) -> None:
        super().__init__(p)
        self.explicit = explicit
        self._buf: "array[int]" = array("q")
        self._n_fmas = 0
        self.dir_op: List[int] = []
        self.dir_t: List[int] = []
        self.dir_core: List[int] = []
        self.dir_key: List[int] = []

    def _record(self, op: int, core: int, key: int) -> None:
        self.dir_op.append(op)
        self.dir_t.append(self._n_fmas)
        self.dir_core.append(core)
        self.dir_key.append(key)

    def load_shared(self, key: int) -> None:
        self._record(OP_LOAD_SHARED, -1, key)

    def evict_shared(self, key: int) -> None:
        self._record(OP_EVICT_SHARED, -1, key)

    def load_dist(self, core: int, key: int) -> None:
        self._record(OP_LOAD_DIST, core, key)

    def evict_dist(self, core: int, key: int) -> None:
        self._record(OP_EVICT_DIST, core, key)

    def compute(self, core: int, ckey: int, akey: int, bkey: int) -> None:
        self._buf.extend((core, akey, bkey, ckey))
        self._n_fmas += 1
        self.comp[core] += 1

    def fma_array(self) -> NDArray[np.int64]:
        if self._n_fmas == 0:
            return np.empty((0, 4), dtype=np.int64)
        return np.frombuffer(self._buf, dtype=np.int64).reshape(-1, 4).copy()


def _as_fma_array(fmas: Any) -> NDArray[np.int64]:
    """Coerce a compute stream (array or tuple list) to ``(n, 4)`` int64."""
    if isinstance(fmas, np.ndarray):
        if fmas.ndim != 2 or fmas.shape[1] != 4:
            raise ConfigurationError(
                f"fma array must have shape (n, 4), got {fmas.shape}"
            )
        return fmas
    return np.asarray(list(fmas), dtype=np.int64).reshape(-1, 4)


class CompiledTrace:
    """One schedule's recorded access trace, ready for bulk replay.

    The compute stream lives in :attr:`fma_array` — an ``(n, 4)`` int64
    array of ``(core, akey, bkey, ckey)`` rows, either owned in memory
    or memmapped read-only from the on-disk trace tier (the kernels only
    ever slice it in chunks, so a memmap streams from the page cache and
    is shared across processes).  ``origin`` is telemetry: where this
    process got the trace (``"compiled"``, ``"memory"``, ``"disk"``).
    """

    __slots__ = (
        "p",
        "fma_array",
        "comp",
        "has_directives",
        "origin",
        "_dir_lists",
        "_ideal_arrays",
        "_replays",
    )

    def __init__(
        self,
        p: int,
        fmas: Any,
        comp: List[int],
        directives: Optional[Tuple[Any, Any, Any, Any]],
    ) -> None:
        self.p = p
        self.fma_array = _as_fma_array(fmas)
        self.comp = comp
        self.has_directives = directives is not None
        self.origin = "compiled"
        self._dir_lists = directives
        self._ideal_arrays: Optional[Tuple[NDArray[np.int64], ...]] = None
        # Replay results are pure functions of (trace, policy, cs, cd) —
        # IDEAL counters of the trace alone — so each trace memoizes
        # them: re-evaluating a cell (sweep reruns, conformance checks,
        # figure regeneration) costs a dict probe instead of a pass.
        self._replays: Dict[Tuple[str, int, int], HierarchyStats] = {}

    def __len__(self) -> int:
        return int(self.fma_array.shape[0])

    @property
    def fmas(self) -> List[Tuple[int, int, int, int]]:
        """The compute stream as ``(core, akey, bkey, ckey)`` tuples.

        Compatibility view (tests, external consumers); the kernels use
        :attr:`fma_array` directly.
        """
        return [
            (int(r[0]), int(r[1]), int(r[2]), int(r[3]))
            for r in self.fma_array.tolist()
        ]

    @property
    def comp_total(self) -> int:
        return sum(self.comp)

    def ideal_arrays(self) -> Tuple[NDArray[np.int64], ...]:
        """The directive/compute streams as int64 arrays (built once).

        Returns ``(op, t, core, key, fma_core, fma_ckey)``; the numpy
        lowering is the expensive part of an IDEAL replay and is cached
        on the trace so repeated replays (sweep families, benchmark
        reruns, conformance checks) pay it once.
        """
        if self._ideal_arrays is None:
            if self._dir_lists is None:
                raise ConfigurationError(
                    "trace was compiled without IDEAL directives; "
                    "recompile with directives=True"
                )
            op, t, core, key = self._dir_lists
            self._ideal_arrays = (
                np.asarray(op, dtype=np.int64),
                np.asarray(t, dtype=np.int64),
                np.asarray(core, dtype=np.int64),
                np.asarray(key, dtype=np.int64),
                np.ascontiguousarray(self.fma_array[:, 0]),
                np.ascontiguousarray(self.fma_array[:, 3]),
            )
        return self._ideal_arrays


def compile_trace(
    algorithm: MatmulAlgorithm, *, directives: bool = True
) -> CompiledTrace:
    """Run ``algorithm`` once and record its trace.

    ``directives=True`` records the explicit IDEAL directives too
    (needed by :func:`replay_ideal`); compute-only replays can skip them
    to avoid paying the recording cost.
    """
    recorder = _Recorder(algorithm.machine.p, explicit=directives)
    algorithm.run(recorder)
    dirs = (
        (recorder.dir_op, recorder.dir_t, recorder.dir_core, recorder.dir_key)
        if directives
        else None
    )
    return CompiledTrace(
        recorder.p, recorder.fma_array(), list(recorder.comp), dirs
    )


def supports(mode: str, policy: str, inclusive: bool, check: bool) -> bool:
    """Whether the replay engine reproduces this configuration exactly.

    IDEAL replays carry no capacity/inclusion/presence verification, so
    checked runs use the step oracle; LRU-mode replays cover the plain
    ``lru``/``fifo`` policies on non-inclusive hierarchies (the
    associative and PLRU ablations keep their per-touch policy state).
    """
    if mode == "ideal":
        return not check
    return policy in REPLAY_POLICIES and not inclusive


def _copy_stats(stats: HierarchyStats) -> HierarchyStats:
    """Independent copy of a memoized result (callers may mutate)."""
    return HierarchyStats(
        shared=CacheStats(
            stats.shared.hits,
            stats.shared.misses,
            stats.shared.writebacks,
            list(stats.shared.misses_by_matrix),
        ),
        distributed=[
            CacheStats(d.hits, d.misses, d.writebacks, list(d.misses_by_matrix))
            for d in stats.distributed
        ],
    )


def _memoized(
    trace: CompiledTrace, policy: str, cs: int, cd: int
) -> Optional[HierarchyStats]:
    cached = trace._replays.get((policy, cs, cd))
    return _copy_stats(cached) if cached is not None else None


def _memoize(
    trace: CompiledTrace, policy: str, cs: int, cd: int, stats: HierarchyStats
) -> HierarchyStats:
    trace._replays[(policy, cs, cd)] = _copy_stats(stats)
    return stats


# ----------------------------------------------------------------------
# Batched LRU/FIFO replay
# ----------------------------------------------------------------------
class _SharedLRU:
    """One shared LRU cache replayed over the distributed-miss stream.

    The shared level only ever sees distributed misses — a stream one
    to two orders of magnitude shorter than the touch stream — so each
    requested ``CS`` keeps its own ``OrderedDict`` recency state with
    O(1) membership/promotion/eviction (C-speed dict operations beat a
    Mattson stack scan at shared capacities of several hundred blocks).
    The interleaved dirty-victim marks reproduce the write-back path:
    a mark lands on the block's shared copy iff it is resident, exactly
    the step simulator's victim-then-propagate order.
    """

    __slots__ = ("cs", "data", "dirty", "hits", "miss", "wb", "mbm")

    def __init__(self, cs: int) -> None:
        self.cs = cs
        self.data: "OrderedDict[int, None]" = OrderedDict()
        self.dirty: set[int] = set()
        self.hits = 0
        self.miss = 0
        self.wb = 0
        self.mbm = [0, 0, 0]

    def feed(
        self,
        ref_times: List[int],
        ref_keys: List[int],
        mark_times: List[int],
        mark_keys: List[int],
    ) -> None:
        """Advance over one chunk's references and dirty-victim marks.

        Both streams are time-sorted; a mark at time ``t`` (the dirty
        distributed victim of the miss at touch ``t``) is applied
        *before* the same touch's shared reference.
        """
        data = self.data
        move = data.move_to_end
        dirty = self.dirty
        cs = self.cs
        mbm = self.mbm
        i = j = 0
        n_r = len(ref_times)
        n_m = len(mark_times)
        while i < n_r or j < n_m:
            if j < n_m and (i >= n_r or mark_times[j] <= ref_times[i]):
                v = mark_keys[j]
                j += 1
                if v in data:
                    dirty.add(v)
                continue
            key = ref_keys[i]
            i += 1
            if key in data:
                move(key)
                self.hits += 1
                continue
            self.miss += 1
            mbm[key >> MAT_SHIFT] += 1
            if len(data) >= cs:
                victim, _ = data.popitem(last=False)
                if victim in dirty:
                    dirty.discard(victim)
                    self.wb += 1
            data[key] = None

    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.miss, self.wb, list(self.mbm))


class _LRUPass:
    """Chunk-incremental state of the batched LRU kernel.

    One bounded recency-stack pass over the global touch stream (bound =
    the largest ``CD``) serves every distributed capacity at once —
    Mattson's inclusion property makes the depth array and the stack
    positions ``cd - 1`` exact misses and victims for *all* ``cd`` —
    and each ``CD``'s shared level replays only its distributed-miss
    stream through one :class:`_SharedLRU` state per requested ``CS``.

    :meth:`process` consumes one ``(k, 4)`` slice of the compute
    stream at a time (:func:`_bulk_lru`), so intermediate arrays stay
    bounded even on memmapped traces.
    """

    __slots__ = (
        "p",
        "pairs",
        "cds",
        "css_by_cd",
        "bound",
        "cd_list",
        "stacks",
        "dmiss",
        "dmbm",
        "dwb",
        "touches",
        "shared",
        "_fmas_seen",
        "_single",
    )

    def __init__(self, p: int, pairs: Sequence[Tuple[int, int]]) -> None:
        self.p = p
        self.pairs = list(pairs)
        cds = sorted({cd for _, cd in pairs})
        self.cds = cds
        self.css_by_cd = {
            cd: sorted({cs for cs, cd2 in pairs if cd2 == cd}) for cd in cds
        }
        self.bound = cds[-1]
        self.cd_list = list(enumerate(cds))
        self.stacks: List[List[int]] = [[] for _ in range(p)]
        n_cd = len(cds)
        self.dmiss = np.zeros((n_cd, p), dtype=np.int64)
        self.dmbm = np.zeros((n_cd, p, 3), dtype=np.int64)
        self.dwb = [[0] * p for _ in range(n_cd)]
        self.touches = np.zeros(p, dtype=np.int64)
        self.shared = {
            (cd, cs): _SharedLRU(cs)
            for cd in cds
            for cs in self.css_by_cd[cd]
        }
        self._fmas_seen = 0
        self._single: Optional[List["OrderedDict[int, None]"]] = (
            [OrderedDict() for _ in range(p)] if len(cds) == 1 else None
        )

    def process(self, chunk: NDArray[np.int64]) -> None:
        """Advance every cell's counters over one compute-stream slice."""
        if self._single is not None:
            self._process_single(chunk)
            return
        p = self.p
        cds = self.cds
        cd_list = self.cd_list
        bound = self.bound
        stacks = self.stacks
        dwb = self.dwb
        rows = chunk.tolist()
        t0 = 3 * self._fmas_seen
        self._fmas_seen += len(rows)
        t = t0
        depths: List[int] = []
        dappend = depths.append
        marks: Dict[int, Tuple[List[int], List[int]]] = {
            cd: ([], []) for cd in cds
        }
        for core, akey, bkey, ckey in rows:
            stack = stacks[core]
            for key in (akey, bkey, ckey):
                # membership scan instead of try/except around .index():
                # deep/cold touches dominate at paper scale and a raised
                # ValueError per miss would double the pass cost
                if key in stack:
                    d = stack.index(key)
                    dappend(d)
                    if d:
                        length = len(stack)
                        for i, cd in cd_list:
                            if cd <= d and cd <= length:
                                victim = stack[cd - 1]
                                if victim >= _C_BASE:
                                    # resident C blocks are always
                                    # dirty: eviction == write-back ==
                                    # shared mark
                                    dwb[i][core] += 1
                                    mt, mk = marks[cd]
                                    mt.append(t)
                                    mk.append(victim)
                        del stack[d]
                        stack.insert(0, key)
                else:
                    dappend(_ABSENT)
                    length = len(stack)
                    for i, cd in cd_list:
                        if cd <= length:
                            victim = stack[cd - 1]
                            if victim >= _C_BASE:
                                dwb[i][core] += 1
                                mt, mk = marks[cd]
                                mt.append(t)
                                mk.append(victim)
                    stack.insert(0, key)
                    if length >= bound:
                        stack.pop()
                t += 1
        dep = np.asarray(depths, dtype=np.int64)
        keys = np.ascontiguousarray(chunk[:, 1:4]).reshape(-1)
        cores3 = np.repeat(np.ascontiguousarray(chunk[:, 0]), 3)
        tags = keys >> MAT_SHIFT
        self.touches += np.bincount(cores3, minlength=p)
        for i, cd in cd_list:
            miss = dep >= cd
            self.dmiss[i] += np.bincount(cores3[miss], minlength=p)
            self.dmbm[i] += np.bincount(
                cores3[miss] * 3 + tags[miss], minlength=3 * p
            ).reshape(p, 3)
            ref_t = (np.nonzero(miss)[0] + t0).tolist()
            ref_k = keys[miss].tolist()
            mt, mk = marks[cd]
            for cs in self.css_by_cd[cd]:
                self.shared[(cd, cs)].feed(ref_t, ref_k, mt, mk)

    def _process_single(self, chunk: NDArray[np.int64]) -> None:
        """Single-``CD`` fast path over one compute-stream slice.

        With one distributed capacity there is nothing for the Mattson
        stack to amortize, so each core's cache is simulated directly as
        a capacity-``cd`` ``OrderedDict`` — O(1) hit/promotion/eviction
        instead of two O(cd) list scans per touch.  Inclusion puts a
        miss's LRU victim exactly at stack position ``cd - 1``, so the
        marks and the distributed-miss stream fed to the shared level
        are identical to the general pass.
        """
        cd = self.cds[0]
        caches = self._single
        assert caches is not None
        dwb_row = self.dwb[0]
        p = self.p
        rows = chunk.tolist()
        t = 3 * self._fmas_seen
        self._fmas_seen += len(rows)
        touch_add = [0] * p
        miss_add = [0] * p
        mbm_add = [[0, 0, 0] for _ in range(p)]
        ref_t: List[int] = []
        ref_k: List[int] = []
        mt: List[int] = []
        mk: List[int] = []
        for core, akey, bkey, ckey in rows:
            cache = caches[core]
            move = cache.move_to_end
            for key in (akey, bkey, ckey):
                if key in cache:
                    move(key)
                else:
                    miss_add[core] += 1
                    mbm_add[core][key >> MAT_SHIFT] += 1
                    if len(cache) >= cd:
                        victim, _ = cache.popitem(last=False)
                        if victim >= _C_BASE:
                            dwb_row[core] += 1
                            mt.append(t)
                            mk.append(victim)
                    cache[key] = None
                    ref_t.append(t)
                    ref_k.append(key)
                t += 1
            touch_add[core] += 3
        self.touches += np.asarray(touch_add, dtype=np.int64)
        self.dmiss[0] += np.asarray(miss_add, dtype=np.int64)
        self.dmbm[0] += np.asarray(mbm_add, dtype=np.int64)
        for cs in self.css_by_cd[cd]:
            self.shared[(cd, cs)].feed(ref_t, ref_k, mt, mk)

    def finalize(self) -> Dict[Tuple[int, int], HierarchyStats]:
        """Assemble every requested cell's final hierarchy counters."""
        out: Dict[Tuple[int, int], HierarchyStats] = {}
        for cs, cd in self.pairs:
            i = self.cds.index(cd)
            out[(cs, cd)] = HierarchyStats(
                shared=self.shared[(cd, cs)].stats(),
                distributed=[
                    CacheStats(
                        int(self.touches[c] - self.dmiss[i, c]),
                        int(self.dmiss[i, c]),
                        self.dwb[i][c],
                        [int(x) for x in self.dmbm[i, c]],
                    )
                    for c in range(self.p)
                ],
            )
        return out


def _bulk_lru(
    trace: CompiledTrace, pairs: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], HierarchyStats]:
    """Exact LRU counters for every ``(cs, cd)`` from one shared pass."""
    kernel = _LRUPass(trace.p, pairs)
    arr = trace.fma_array
    for start in range(0, int(arr.shape[0]), _CHUNK_FMAS):
        kernel.process(arr[start : start + _CHUNK_FMAS])
    return kernel.finalize()


class _SharedFIFO:
    """One shared FIFO cache replayed over the distributed-miss stream.

    FIFO has no inclusion property, so each ``(cd, cs)`` keeps its own
    insertion-window state; the stream it consumes is the short
    distributed-miss stream, not the touch stream.
    """

    __slots__ = ("cs", "ins", "ring", "m", "hits", "miss", "wb", "mbm", "dirty")

    def __init__(self, cs: int) -> None:
        self.cs = cs
        self.ins: Dict[int, int] = {}
        self.ring: List[int] = []
        self.m = 0
        self.hits = 0
        self.miss = 0
        self.wb = 0
        self.mbm = [0, 0, 0]
        self.dirty: set[int] = set()

    def feed(
        self,
        ref_times: List[int],
        ref_keys: List[int],
        mark_times: List[int],
        mark_keys: List[int],
    ) -> None:
        ins = self.ins
        ring = self.ring
        cs = self.cs
        dirty = self.dirty
        mbm = self.mbm
        m = self.m
        i = j = 0
        n_r = len(ref_times)
        n_m = len(mark_times)
        while i < n_r or j < n_m:
            if j < n_m and (i >= n_r or mark_times[j] <= ref_times[i]):
                v = mark_keys[j]
                j += 1
                # dirty victim lands in its shared copy, if resident
                if ins.get(v, _NEVER) >= m - cs:
                    dirty.add(v)
                continue
            key = ref_keys[i]
            i += 1
            if ins.get(key, _NEVER) >= m - cs:
                self.hits += 1
                continue
            self.miss += 1
            mbm[key >> MAT_SHIFT] += 1
            if m >= cs:
                victim = ring[m - cs]
                if victim in dirty:
                    dirty.discard(victim)
                    self.wb += 1
            ins[key] = m
            ring.append(key)
            m += 1
        self.m = m

    def stats(self) -> CacheStats:
        return CacheStats(self.hits, self.miss, self.wb, list(self.mbm))


class _FIFOPass:
    """Chunk-incremental state of the batched FIFO kernel for one ``CD``.

    One insertion-window pass over the touch stream (hits never mutate
    FIFO state: a key is resident iff its latest insertion is among the
    last ``cd`` misses, and miss ``M``'s victim is the key inserted at
    ``M - cd``); the dirty-victim marks and the distributed-miss stream
    feed one :class:`_SharedFIFO` per shared capacity.  Like
    :class:`_LRUPass` it consumes the trace one chunk at a time.
    """

    __slots__ = (
        "p",
        "cd",
        "ins",
        "rings",
        "miss_m",
        "dmbm",
        "dwb",
        "touches",
        "shared_states",
        "_t",
    )

    def __init__(self, p: int, cd: int, css: Sequence[int]) -> None:
        self.p = p
        self.cd = cd
        self.ins: List[Dict[int, int]] = [dict() for _ in range(p)]
        self.rings: List[List[int]] = [[] for _ in range(p)]
        self.miss_m = [0] * p
        self.dmbm = [[0, 0, 0] for _ in range(p)]
        self.dwb = [0] * p
        self.touches = np.zeros(p, dtype=np.int64)
        self.shared_states = [_SharedFIFO(cs) for cs in css]
        self._t = 0

    def process(self, chunk: NDArray[np.int64]) -> None:
        """Advance every shared capacity over one compute-stream slice."""
        cd = self.cd
        ins = self.ins
        rings = self.rings
        miss_m = self.miss_m
        dmbm = self.dmbm
        dwb = self.dwb
        rows = chunk.tolist()
        t = self._t
        ref_t: List[int] = []
        ref_k: List[int] = []
        mark_t: List[int] = []
        mark_k: List[int] = []
        for core, akey, bkey, ckey in rows:
            d_ins = ins[core]
            ring = rings[core]
            mbm = dmbm[core]
            m = miss_m[core]
            for key in (akey, bkey, ckey):
                if d_ins.get(key, _NEVER) >= m - cd:
                    t += 1
                    continue
                mbm[key >> MAT_SHIFT] += 1
                if m >= cd:
                    victim = ring[m - cd]
                    if victim >= _C_BASE:
                        # resident C blocks are always dirty under FIFO
                        # too (dirtied on insertion and on every hit)
                        dwb[core] += 1
                        mark_t.append(t)
                        mark_k.append(victim)
                d_ins[key] = m
                ring.append(key)
                m += 1
                ref_t.append(t)
                ref_k.append(key)
                t += 1
            miss_m[core] = m
        self._t = t
        self.touches += 3 * np.bincount(
            np.ascontiguousarray(chunk[:, 0]), minlength=self.p
        )
        for state in self.shared_states:
            state.feed(ref_t, ref_k, mark_t, mark_k)

    def finalize(self) -> Dict[Tuple[int, int], HierarchyStats]:
        """Assemble every requested ``(cs, cd)`` cell's final counters."""
        out: Dict[Tuple[int, int], HierarchyStats] = {}
        for state in self.shared_states:
            out[(state.cs, self.cd)] = HierarchyStats(
                shared=state.stats(),
                distributed=[
                    CacheStats(
                        int(self.touches[c]) - self.miss_m[c],
                        self.miss_m[c],
                        self.dwb[c],
                        list(self.dmbm[c]),
                    )
                    for c in range(self.p)
                ],
            )
        return out


def _bulk_fifo_cd(
    trace: CompiledTrace, cd: int, css: Sequence[int]
) -> Dict[Tuple[int, int], HierarchyStats]:
    """Exact FIFO counters for one ``CD`` and every requested ``CS``."""
    kernel = _FIFOPass(trace.p, cd, css)
    arr = trace.fma_array
    for start in range(0, int(arr.shape[0]), _CHUNK_FMAS):
        kernel.process(arr[start : start + _CHUNK_FMAS])
    return kernel.finalize()


def _bulk_fifo(
    trace: CompiledTrace, pairs: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], HierarchyStats]:
    by_cd: Dict[int, List[int]] = {}
    for cs, cd in pairs:
        by_cd.setdefault(cd, []).append(cs)
    out: Dict[Tuple[int, int], HierarchyStats] = {}
    for cd in sorted(by_cd):
        out.update(_bulk_fifo_cd(trace, cd, sorted(set(by_cd[cd]))))
    return out


def replay_bulk(
    trace: CompiledTrace, cells: Sequence[Tuple[str, int, int]]
) -> List[HierarchyStats]:
    """Exact hierarchy counters for many ``(policy, cs, cd)`` cells.

    The batched entry point: all LRU cells share one bounded
    stack-distance pass over the touch stream (:func:`_bulk_lru`), FIFO
    cells share one insertion-ring pass per distinct ``CD``
    (:func:`_bulk_fifo`), and every cell's shared level replays only
    the distributed-miss stream.  Counters are bit-identical to
    ``engine="step"`` (property-tested), write-backs and per-matrix
    splits included.  Results are memoized on the trace, so
    re-evaluating a cell costs a dict probe; each returned object is an
    independent copy (callers may mutate).
    """
    memo_hits: Dict[int, HierarchyStats] = {}
    todo_lru: set[Tuple[int, int]] = set()
    todo_fifo: set[Tuple[int, int]] = set()
    for idx, (policy, cs, cd) in enumerate(cells):
        if policy not in REPLAY_POLICIES:
            raise ConfigurationError(
                f"replay_bulk cannot replay policy {policy!r}; "
                f"supported: {sorted(REPLAY_POLICIES)}"
            )
        if cs < 1 or cd < 1:
            raise ConfigurationError(
                f"capacities must be positive, got cs={cs} cd={cd}"
            )
        cached = _memoized(trace, policy, cs, cd)
        if cached is not None:
            memo_hits[idx] = cached
        elif policy == "fifo":
            todo_fifo.add((cs, cd))
        else:
            todo_lru.add((cs, cd))

    computed: Dict[Tuple[str, int, int], HierarchyStats] = {}
    if todo_lru:
        for (cs, cd), stats in _bulk_lru(trace, sorted(todo_lru)).items():
            computed[("lru", cs, cd)] = stats
    if todo_fifo:
        for (cs, cd), stats in _bulk_fifo(trace, sorted(todo_fifo)).items():
            computed[("fifo", cs, cd)] = stats
    for (policy, cs, cd), stats in computed.items():
        _memoize(trace, policy, cs, cd, stats)

    out: List[HierarchyStats] = []
    for idx, (policy, cs, cd) in enumerate(cells):
        hit = memo_hits.get(idx)
        if hit is not None:
            out.append(hit)
        else:
            out.append(_copy_stats(computed[(policy, cs, cd)]))
    return out


def replay_lru(
    trace: CompiledTrace, configs: Sequence[Tuple[int, int]]
) -> List[HierarchyStats]:
    """Exact LRU hierarchy counters for each ``(cs, cd)`` configuration.

    Thin wrapper over :func:`replay_bulk`.
    """
    return replay_bulk(trace, [("lru", cs, cd) for cs, cd in configs])


def replay_fifo(
    trace: CompiledTrace, configs: Sequence[Tuple[int, int]]
) -> List[HierarchyStats]:
    """Exact FIFO hierarchy counters for each ``(cs, cd)`` configuration.

    Thin wrapper over :func:`replay_bulk`.
    """
    return replay_bulk(trace, [("fifo", cs, cd) for cs, cd in configs])


# ----------------------------------------------------------------------
# IDEAL-mode replay (vectorized)
# ----------------------------------------------------------------------
def _last_before(
    mask: NDArray[np.bool_],
    idx: NDArray[np.int64],
    seg_first: NDArray[np.int64],
) -> NDArray[np.int64]:
    """Per element: index of the latest earlier element with ``mask`` set
    inside the same segment, or ``-1``."""
    last = np.maximum.accumulate(np.where(mask, idx, np.int64(-1)))
    excl = np.empty_like(last)
    excl[0] = -1
    excl[1:] = last[:-1]
    return np.where(excl >= seg_first, excl, np.int64(-1))


def _group_sort(group: NDArray[np.int64]) -> NDArray[np.int64]:
    """Stable argsort by group id (elements already in time order).

    Packs ``group`` and position into one int64 and sorts it — a single
    ``np.sort`` of scalars is ~10× cheaper than a stable ``argsort``
    here.  Falls back to the stable argsort when packing would overflow.
    """
    n = len(group)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n < (1 << 31) and int(group.max()) < (1 << 31):
        packed = (group << np.int64(31)) | np.arange(n, dtype=np.int64)
        packed.sort()
        return packed & np.int64((1 << 31) - 1)
    return np.argsort(group, kind="stable").astype(np.int64)


def _dense_block_ids(key: NDArray[np.int64]) -> NDArray[np.int64]:
    """Map block keys to small dense ids using their (tag, row, col)
    structure — no sort needed, unlike ``np.unique``."""
    if len(key) == 0:
        return key
    mask = np.int64((1 << 28) - 1)
    tag = key >> np.int64(MAT_SHIFT)
    row = (key >> np.int64(28)) & mask
    col = key & mask
    n_row = np.int64(int(row.max()) + 1)
    n_col = np.int64(int(col.max()) + 1)
    return (tag * n_row + row) * n_col + col


def _time_ordered(
    seq: NDArray[np.int64], n_slots: int
) -> NDArray[np.int64]:
    """Indices that sort ``seq`` ascending, via scatter.

    ``seq`` holds unique interleave ranks ``< n_slots``, so scattering
    into a rank-indexed table and compacting replaces an argsort with
    two elementwise passes.
    """
    table = np.full(n_slots, -1, dtype=np.int64)
    table[seq] = np.arange(len(seq), dtype=np.int64)
    return table[table >= 0]


def replay_ideal(trace: CompiledTrace) -> HierarchyStats:
    """Exact IDEAL-mode counters from one vectorized pass.

    Replays the recorded load/evict directives and compute-writes with
    the semantics of :class:`~repro.cache.hierarchy.IdealHierarchy`
    (``check=False``): redundant loads don't count misses, dirty
    distributed evictions update the shared copy (which becomes dirty),
    dirty shared evictions write back to memory.  Instead of a Python
    call per directive, events are sorted per (cache, block) and the
    per-block state machines are evaluated with cumulative scans.

    IDEAL counters are capacity-independent — a pure function of the
    trace — so the result is memoized on the trace: every replay after
    the first costs a dict probe.
    """
    cached = _memoized(trace, "ideal", 0, 0)
    if cached is not None:
        return cached
    p = trace.p
    op, t, core, key, fma_core, fma_ckey = trace.ideal_arrays()
    n_dir = len(op)
    n_fma = len(fma_core)

    # Global interleave rank: directive d (timestamp t_d) precedes
    # compute i iff t_d <= i, so rank(directive d) = d + t_d and
    # rank(compute i) = i + |{d : t_d <= i}|.
    dir_seq = np.arange(n_dir, dtype=np.int64) + t
    if n_fma:
        d_before = np.cumsum(np.bincount(t, minlength=n_fma + 1)[:n_fma])
        fma_seq = np.arange(n_fma, dtype=np.int64) + d_before
    else:
        fma_seq = np.empty(0, dtype=np.int64)

    # ---------------- distributed level ----------------
    # Events per (core, key): explicit loads/evicts + dirtying writes.
    dl = (op == OP_LOAD_DIST) | (op == OP_EVICT_DIST)
    e_core = np.concatenate([core[dl], fma_core])
    e_key = np.concatenate([key[dl], fma_ckey])
    e_seq = np.concatenate([dir_seq[dl], fma_seq])
    # kinds: 0 = load, 1 = evict, 2 = write
    e_kind = np.concatenate(
        [
            np.where(op[dl] == OP_LOAD_DIST, np.int64(0), np.int64(1)),
            np.full(n_fma, 2, dtype=np.int64),
        ]
    )
    n_slots = n_dir + n_fma
    time_order = _time_ordered(e_seq, n_slots)
    e_core = e_core[time_order]
    e_key = e_key[time_order]
    e_kind = e_kind[time_order]
    e_seq = e_seq[time_order]

    md = [0] * p
    md_by_matrix = [[0, 0, 0] for _ in range(p)]
    dist_updates = [0] * p
    mark_keys = np.empty(0, dtype=np.int64)
    mark_seq = np.empty(0, dtype=np.int64)
    n_ev = len(e_kind)
    if n_ev:
        group = _dense_block_ids(e_key) * np.int64(p) + e_core
        order = _group_sort(group)
        g = group[order]
        k = e_key[order]
        c = e_core[order]
        kind = e_kind[order]
        idx = np.arange(n_ev, dtype=np.int64)
        new = np.empty(n_ev, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        seg_first = np.maximum.accumulate(np.where(new, idx, np.int64(0)))
        last_load = _last_before(kind == 0, idx, seg_first)
        last_evict = _last_before(kind == 1, idx, seg_first)
        last_write = _last_before(kind == 2, idx, seg_first)
        resident = last_load > last_evict
        miss = (kind == 0) & ~resident
        mdc = np.bincount(c[miss], minlength=p)
        tags = k >> np.int64(MAT_SHIFT)
        mdm = np.bincount(
            c[miss] * np.int64(3) + tags[miss], minlength=3 * p
        ).reshape(p, 3)
        dirty_evict = (kind == 1) & (last_write > last_evict)
        duc = np.bincount(c[dirty_evict], minlength=p)
        md = [int(x) for x in mdc]
        md_by_matrix = [[int(x) for x in row] for row in mdm]
        dist_updates = [int(x) for x in duc]
        # dirty distributed evictions mark the shared copy dirty
        mark_keys = k[dirty_evict]
        mark_seq = e_seq[order][dirty_evict]

    # ---------------- shared level ----------------
    sl = (op == OP_LOAD_SHARED) | (op == OP_EVICT_SHARED)
    s_key = np.concatenate([key[sl], mark_keys])
    s_seq = np.concatenate([dir_seq[sl], mark_seq])
    # kinds: 0 = load, 1 = evict, 2 = dirty mark
    s_kind = np.concatenate(
        [
            np.where(op[sl] == OP_LOAD_SHARED, np.int64(0), np.int64(1)),
            np.full(len(mark_keys), 2, dtype=np.int64),
        ]
    )
    ms = 0
    ms_by_matrix = [0, 0, 0]
    shared_writebacks = 0
    n_sev = len(s_kind)
    if n_sev:
        time_order = _time_ordered(s_seq, n_slots)
        s_key = s_key[time_order]
        s_kind = s_kind[time_order]
        group = _dense_block_ids(s_key)
        order = _group_sort(group)
        g = group[order]
        k = s_key[order]
        kind = s_kind[order]
        idx = np.arange(n_sev, dtype=np.int64)
        new = np.empty(n_sev, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        seg_first = np.maximum.accumulate(np.where(new, idx, np.int64(0)))
        last_load = _last_before(kind == 0, idx, seg_first)
        last_evict = _last_before(kind == 1, idx, seg_first)
        last_mark = _last_before(kind == 2, idx, seg_first)
        resident = last_load > last_evict
        miss = (kind == 0) & ~resident
        ms = int(miss.sum())
        tags = k >> np.int64(MAT_SHIFT)
        ms_by_matrix = [
            int(x) for x in np.bincount(tags[miss], minlength=3)
        ]
        dirty_evict = (kind == 1) & (last_mark > last_evict)
        shared_writebacks = int(dirty_evict.sum())

    stats = HierarchyStats(
        shared=CacheStats(0, ms, shared_writebacks, ms_by_matrix),
        distributed=[
            CacheStats(0, md[c], dist_updates[c], md_by_matrix[c])
            for c in range(p)
        ],
    )
    return _memoize(trace, "ideal", 0, 0, stats)


# ----------------------------------------------------------------------
# Capacity curves: one pass, every capacity
# ----------------------------------------------------------------------
def distributed_miss_curves(
    trace: CompiledTrace, capacities: Sequence[int]
) -> Dict[int, List[int]]:
    """Per-core distributed LRU miss counts for *every* capacity at once.

    One bounded Mattson stack-distance pass per core (Mattson's
    inclusion property: an LRU cache of capacity ``Z`` hits iff the
    stack distance is ``< Z``) replaces one full hierarchy simulation
    per capacity point — the asymptotic win of the replay engine for
    the capacity-ablation workloads.  Returns ``{capacity: [md per
    core]}``; counts equal ``engine="step"`` distributed misses exactly.
    """
    from repro.cache.stackdist import miss_counts_multi

    if not capacities:
        return {}
    p = trace.p
    arr = trace.fma_array
    cores = np.ascontiguousarray(arr[:, 0])
    curves: Dict[int, List[int]] = {cap: [0] * p for cap in capacities}
    for c in range(p):
        # per-core touch stream in (A, B, C) order
        stream = np.ascontiguousarray(arr[cores == c, 1:4]).reshape(-1)
        counts = miss_counts_multi(stream.tolist(), capacities)
        for cap in capacities:
            curves[cap][c] = counts[cap]
    return curves


# ----------------------------------------------------------------------
# Trace memoization (in-memory LRU + optional on-disk memmap tier)
# ----------------------------------------------------------------------
#: Bounded LRU of compiled traces, keyed by schedule fingerprint.  The
#: budget is in recorded multiply-adds (the dominant memory term) so a
#: few small traces or one big one stay resident.
_TRACE_CACHE: "OrderedDict[Hashable, CompiledTrace]" = OrderedDict()
_TRACE_CACHE_BUDGET = 4_000_000

#: Root of the on-disk content-addressed trace tier, or ``None`` when
#: disabled (see :func:`configure_trace_tier`).
_TRACE_TIER: Optional[str] = None


def configure_trace_tier(root: Optional[str]) -> None:
    """Enable (or disable, with ``None``) the on-disk trace tier.

    When set, :func:`compiled_trace_for` consults
    :mod:`repro.cache.tracestore` under ``root`` before compiling and
    stores freshly compiled traces there — parallel-sweep and fabric
    workers then memmap one shared on-disk trace instead of recompiling
    per process.
    """
    global _TRACE_TIER
    _TRACE_TIER = root


def trace_tier_root() -> Optional[str]:
    """The configured on-disk trace tier root (``None`` when disabled)."""
    return _TRACE_TIER


def trace_fingerprint(algorithm: MatmulAlgorithm) -> Hashable:
    """Memoization key: the schedule's
    :meth:`~repro.algorithms.base.MatmulAlgorithm.schedule_key`.

    That is everything the emitted trace can depend on: the *declared*
    machine (the one the schedule plans its tiles against) without its
    bandwidths, the shape and the resolved tile plan.  A
    bandwidth-adaptive schedule that re-plans (Tradeoff under ratio
    sweeps) fingerprints differently per plan; every other point of a
    ratio sweep shares one trace, as do ``lru`` and ``lru-2x`` (same
    declared machine, different simulated capacities).
    """
    return algorithm.schedule_key()


def compiled_trace_for(
    algorithm: MatmulAlgorithm, *, directives: bool = True
) -> CompiledTrace:
    """Compile ``algorithm``'s trace, memoized on its fingerprint.

    Lookup order: in-memory LRU, then the on-disk memmap tier (when
    configured), then compile — freshly compiled traces are stored to
    the tier so sibling processes memmap them instead of recompiling.
    A cached compute-only trace is upgraded (recompiled with
    directives) when an IDEAL replay needs it; a directive-bearing
    trace serves compute-only replays as-is.  ``trace.origin`` records
    where this call got the trace (telemetry).
    """
    from repro.cache import tracestore

    fp = trace_fingerprint(algorithm)
    cached = _TRACE_CACHE.get(fp)
    if cached is not None and (cached.has_directives or not directives):
        _TRACE_CACHE.move_to_end(fp)
        cached.origin = "memory"
        return cached
    trace: Optional[CompiledTrace] = None
    if _TRACE_TIER is not None:
        loaded = tracestore.load(_TRACE_TIER, fp)
        if loaded is not None and (loaded.has_directives or not directives):
            loaded.origin = "disk"
            trace = loaded
    if trace is None:
        trace = compile_trace(algorithm, directives=directives)
        trace.origin = "compiled"
        if _TRACE_TIER is not None:
            tracestore.store(_TRACE_TIER, fp, trace)
    _TRACE_CACHE[fp] = trace
    _TRACE_CACHE.move_to_end(fp)
    total = sum(len(tr) for tr in _TRACE_CACHE.values())
    while total > _TRACE_CACHE_BUDGET and len(_TRACE_CACHE) > 1:
        _, evicted = _TRACE_CACHE.popitem(last=False)
        total -= len(evicted)
    return trace


def clear_trace_cache() -> None:
    """Drop every memoized trace (tests, memory pressure)."""
    _TRACE_CACHE.clear()


def trace_cache_info() -> Dict[str, int]:
    """Introspection: entries and recorded multiply-adds held."""
    return {
        "entries": len(_TRACE_CACHE),
        "fmas": sum(len(tr) for tr in _TRACE_CACHE.values()),
    }

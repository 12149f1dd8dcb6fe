"""Tests for the LRU-mode two-level hierarchy."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import native
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import LRUHierarchy
from repro.exceptions import ConfigurationError
from repro.sim.contexts import LRUContext


def ka(i, j=0):
    return block_key(MAT_A, i, j)


def kb(i, j=0):
    return block_key(MAT_B, i, j)


def kc(i, j=0):
    return block_key(MAT_C, i, j)


class TestPropagation:
    def test_distributed_hit_does_not_touch_shared(self):
        h = LRUHierarchy(p=2, cs=16, cd=4)
        h.touch(0, ka(1))
        shared_before = h.snapshot().shared.accesses
        h.touch(0, ka(1))  # distributed hit
        assert h.snapshot().shared.accesses == shared_before

    def test_distributed_miss_propagates(self):
        h = LRUHierarchy(p=2, cs=16, cd=4)
        h.touch(0, ka(1))
        assert h.snapshot().shared.misses == 1
        # Another core misses in its own cache but hits in shared.
        h.touch(1, ka(1))
        stats = h.snapshot()
        assert stats.shared.misses == 1
        assert stats.shared.hits == 1
        assert stats.distributed[1].misses == 1

    def test_per_core_isolation(self):
        h = LRUHierarchy(p=2, cs=16, cd=4)
        h.touch(0, ka(1))
        assert 0 == len(h.state().distributed[1].order)

    def test_md_is_max_across_cores(self):
        h = LRUHierarchy(p=2, cs=64, cd=4)
        for i in range(5):
            h.touch(0, ka(i))
        h.touch(1, ka(0))
        stats = h.snapshot()
        assert stats.md == 5
        assert stats.md_per_core == [5, 1]
        assert stats.md_total == 6

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            LRUHierarchy(p=0, cs=4, cd=2)


class TestWritebacks:
    def test_dirty_eviction_at_distributed_level(self):
        h = LRUHierarchy(p=1, cs=16, cd=1)
        h.touch(0, kc(0), write=True)
        h.touch(0, kc(1))  # evicts dirty kc(0)
        assert h.snapshot().distributed[0].writebacks == 1

    def test_distributed_writeback_dirties_shared_copy(self):
        # Mirrors IdealHierarchy.evict_distributed: a dirty victim
        # written back from a distributed cache makes the shared copy
        # dirty, so its later shared eviction counts a shared
        # write-back.
        h = LRUHierarchy(p=1, cs=16, cd=1)
        h.touch(0, kc(0), write=True)
        h.touch(0, kc(1))  # evicts dirty kc(0) -> shared copy dirty
        assert kc(0) in h.state().shared.dirty
        assert h.snapshot().distributed[0].writebacks == 1

    def test_shared_eviction_after_propagation_counts_writeback(self):
        h = LRUHierarchy(p=1, cs=2, cd=1)
        h.touch(0, kc(0), write=True)
        h.touch(0, ka(0))  # evicts dirty kc(0) from distributed
        assert kc(0) in h.state().shared.dirty
        h.touch(0, kb(0))  # shared (cs=2) evicts kc(0): dirty -> write-back
        assert kc(0) not in h.state().shared.dirty
        assert h.snapshot().shared.writebacks == 1

    def test_writeback_to_memory_when_shared_copy_gone(self):
        # If the shared cache already dropped the block, the distributed
        # write-back goes straight to memory: counted once at the
        # distributed level, no shared dirtiness appears.
        h = LRUHierarchy(p=1, cs=1, cd=2)
        h.touch(0, kc(0), write=True)
        h.touch(0, ka(0))  # shared (cs=1) evicts kc(0); core keeps both
        h.touch(0, kb(0))  # distributed evicts dirty kc(0); not in shared
        assert h.snapshot().distributed[0].writebacks == 1
        assert kc(0) not in h.state().shared.dirty
        assert h.snapshot().shared.writebacks == 0

    def test_matches_ideal_dirty_propagation_semantics(self):
        # The same load/evict story expressed against IdealHierarchy
        # must yield the same shared write-back count.
        from repro.cache.hierarchy import IdealHierarchy

        ideal = IdealHierarchy(p=1, cs=4, cd=1)
        ideal.load_shared(kc(0))
        ideal.load_distributed(0, kc(0))
        ideal.mark_distributed_dirty(0, kc(0))
        ideal.evict_distributed(0, kc(0))  # dirty -> shared copy dirty
        ideal.evict_shared(kc(0))  # dirty shared eviction -> write-back
        assert ideal.shared_writebacks == 1

        lru = LRUHierarchy(p=1, cs=2, cd=1)
        lru.touch(0, kc(0), write=True)
        lru.touch(0, ka(0))  # distributed evicts dirty kc(0)
        lru.touch(0, kb(0))  # shared evicts kc(0)
        assert lru.snapshot().shared.writebacks == ideal.shared_writebacks


class TestInclusiveMode:
    def test_back_invalidation(self):
        # Shared of 2 blocks, distributed of 2: filling shared evicts
        # older blocks, which must leave the distributed caches too.
        h = LRUHierarchy(p=1, cs=2, cd=2, inclusive=True)
        h.touch(0, ka(1))
        h.touch(0, ka(2))
        h.touch(0, ka(3))  # shared evicts ka(1)
        assert ka(1) not in h.state().distributed[0].order
        assert h.check_inclusion()

    def test_non_inclusive_can_violate(self):
        h = LRUHierarchy(p=1, cs=2, cd=2, inclusive=False)
        h.touch(0, ka(1))
        h.touch(0, ka(2))
        h.touch(0, ka(3))
        # ka(1) survives in the distributed cache (cd=2 holds 2,3? No:
        # the distributed cache also evicted ka(1) here; use a case
        # where it survives: touch ka(1) again to refresh distributed
        # ordering).
        h2 = LRUHierarchy(p=2, cs=2, cd=2, inclusive=False)
        h2.touch(0, ka(1))
        h2.touch(1, ka(2))
        h2.touch(1, ka(3))  # shared evicts ka(1); core 0 still holds it
        assert not h2.check_inclusion()

    def test_inclusive_holds_under_random_traffic(self):
        h = LRUHierarchy(p=2, cs=8, cd=4, inclusive=True)
        keys = [ka(i % 11) for i in range(200)]
        for idx, key in enumerate(keys):
            h.touch(idx % 2, key)
        assert h.check_inclusion()


def python_hierarchy(*args, **kwargs):
    """An LRUHierarchy forced onto the generic Python (Cache) path."""
    with mock.patch.object(native, "kernel", return_value=None):
        return LRUHierarchy(*args, **kwargs)


def _run_both(fmas, p, cs, cd):
    """Drive the step kernel through LRUContext and, separately, the
    reference: three generic touch() calls per multiply-add on the
    Python path."""
    fast = LRUHierarchy(p=p, cs=cs, cd=cd)
    slow = python_hierarchy(p=p, cs=cs, cd=cd)
    assert slow.kernel == "step"
    ctx = LRUContext(fast)
    assert ctx.compute is fast.compute
    for core, akey, bkey, ckey in fmas:
        ctx.compute(core, ckey, akey, bkey)
        slow.touch(core, akey)
        slow.touch(core, bkey)
        slow.touch(core, ckey, write=True)
    comp = [0] * p
    for core, *_ in fmas:
        comp[core] += 1
    assert ctx.comp == comp
    return fast, slow


def _assert_identical(fast, slow):
    fs, ss = fast.snapshot(), slow.snapshot()
    # Every counter: hits, misses, write-backs and per-matrix splits at
    # both levels.
    assert fs == ss
    # Write-back accounting and dirtiness must agree everywhere:
    # shared write-backs only match if distributed dirty evictions
    # propagate identically on both paths.  The state export also
    # carries every cache's recency order.
    fst, sst = fast.state(), slow.state()
    assert fst.shared.dirty == sst.shared.dirty
    for fdc, sdc in zip(fst.distributed, sst.distributed):
        assert fdc.dirty == sdc.dirty
        assert fdc.order == sdc.order
    assert fst.shared.order == sst.shared.order


class TestFastPathEquivalence:
    """The LRU step kernel must equal three generic touch() calls."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # core
                st.integers(0, 5),  # i
                st.integers(0, 5),  # j
                st.integers(0, 5),  # k
            ),
            min_size=1,
            max_size=150,
        ),
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=6, max_value=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_generic_path(self, fmas, cd, cs):
        stream = [(core, ka(i, k), kb(k, j), kc(i, j)) for core, i, j, k in fmas]
        _assert_identical(*_run_both(stream, 2, cs, cd))

    def test_writeback_cascade_matches_generic_path(self):
        # At CS=2, CD=1 every C block leaves the distributed cache dirty
        # while its shared copy is resident, and that dirty shared copy
        # is later evicted: both write-back legs must fire.
        stream = [(0, ka(0, i), kb(i), kc(i, i)) for i in range(4)]
        fast, slow = _run_both(stream, 1, 2, 1)
        _assert_identical(fast, slow)
        stats = fast.snapshot()
        assert stats.distributed[0].writebacks > 0
        assert stats.shared.writebacks > 0
        assert fast.state().distributed[0].dirty

    def test_compute_touches_is_the_fused_kernel(self):
        h = LRUHierarchy(p=1, cs=8, cd=3)
        h.compute_touches(0, ka(0), kb(0), kc(0))
        assert h.snapshot().distributed[0].misses == 3
        assert h.comp == [1]
        assert h.state().distributed[0].dirty == {kc(0)}

    def test_fifo_uses_generic_path(self):
        h = LRUHierarchy(p=1, cs=8, cd=3, policy="fifo")
        assert h.kernel == "step"
        h.compute_touches(0, ka(0), kb(0), kc(0))
        assert h.snapshot().distributed[0].misses == 3

    def test_reset(self):
        h = LRUHierarchy(p=2, cs=8, cd=3)
        h.compute_touches(0, ka(0), kb(0), kc(0))
        h.reset()
        stats = h.snapshot()
        assert stats.ms == 0 and stats.md == 0

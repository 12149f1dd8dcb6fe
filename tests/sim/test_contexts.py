"""Tests for the simulation contexts."""

import pytest

from repro.algorithms.shared_opt import SharedOpt
from repro.cache.block import block_key, MAT_A, MAT_B, MAT_C
from repro.cache.hierarchy import IdealHierarchy, LRUHierarchy
from repro.numerics.blockmatrix import BlockMatrix
from repro.numerics.executor import NumericContext
from repro.sim.contexts import ChainContext, IdealContext, LRUContext


def keys(i, j, k):
    return block_key(MAT_C, i, j), block_key(MAT_A, i, k), block_key(MAT_B, k, j)


class TestLRUContext:
    def test_compute_touches_all_three(self):
        h = LRUHierarchy(p=1, cs=16, cd=4)
        ctx = LRUContext(h)
        ctx.compute(0, *keys(0, 0, 0))
        assert h.snapshot().distributed[0].misses == 3
        assert ctx.comp == [1]

    def test_not_explicit(self):
        assert not LRUContext(LRUHierarchy(p=1, cs=16, cd=4)).explicit

    def test_directives_ignored(self):
        h = LRUHierarchy(p=1, cs=16, cd=4)
        ctx = LRUContext(h)
        ctx.load_shared(block_key(MAT_A, 0, 0))
        assert h.snapshot().shared.misses == 0


class TestIdealContext:
    def test_explicit(self):
        assert IdealContext(IdealHierarchy(p=1, cs=16, cd=4)).explicit

    def test_directives_forwarded(self):
        h = IdealHierarchy(p=1, cs=16, cd=4)
        ctx = IdealContext(h)
        key = block_key(MAT_A, 0, 0)
        ctx.load_shared(key)
        ctx.load_dist(0, key)
        assert h.ms == 1 and h.md == [1]
        ctx.evict_dist(0, key)
        ctx.evict_shared(key)
        assert h.resident_shared() == 0

    def test_compute_marks_c_dirty(self):
        h = IdealHierarchy(p=1, cs=16, cd=4)
        ctx = IdealContext(h)
        kc, ka, kb = keys(0, 0, 0)
        for key in (ka, kb, kc):
            ctx.load_shared(key)
            ctx.load_dist(0, key)
        ctx.compute(0, kc, ka, kb)
        assert kc in h.dist_dirty[0]
        assert ctx.comp == [1]

    def test_checked_compute_requires_presence(self):
        from repro.exceptions import PresenceError

        h = IdealHierarchy(p=1, cs=16, cd=4, check=True)
        ctx = IdealContext(h)
        with pytest.raises(PresenceError):
            ctx.compute(0, *keys(0, 0, 0))


class TestRecordingContext:
    def test_records_three_touches_per_compute(self):
        from repro.sim.contexts import RecordingContext

        ctx = RecordingContext(p=2)
        ctx.compute(1, *keys(0, 0, 0))
        assert len(ctx.trace) == 3
        assert ctx.comp == [0, 1]
        # order: A read, B read, C write
        entries = ctx.trace.entries
        assert entries[0][1:] == (block_key(MAT_A, 0, 0), False)
        assert entries[2][1:] == (block_key(MAT_C, 0, 0), True)

    def test_keys_flattened_in_order(self):
        from repro.sim.contexts import RecordingContext

        ctx = RecordingContext(p=1)
        ctx.compute(0, *keys(0, 0, 0))
        ctx.compute(0, *keys(1, 1, 1))
        assert len(ctx.keys()) == 6


class TestMultiLevelContext:
    def test_touches_reach_the_tree(self):
        from repro.cache.multilevel import two_level
        from repro.sim.contexts import MultiLevelContext

        tree = two_level(2, cs=16, cd=4)
        ctx = MultiLevelContext(tree)
        ctx.compute(0, *keys(0, 0, 0))
        assert tree.level_misses(0) == 3
        assert ctx.comp == [1, 0]

    def test_two_level_tree_matches_flat_hierarchy(self, quad):
        """Running a real schedule through the tree context equals the
        flat LRU hierarchy bit for bit."""
        from repro.cache.multilevel import two_level
        from repro.sim.contexts import MultiLevelContext

        alg = SharedOpt(quad, 6, 6, 6)
        tree = two_level(quad.p, quad.cs, quad.cd)
        alg.run(MultiLevelContext(tree))
        flat = LRUHierarchy(quad.p, quad.cs, quad.cd)
        SharedOpt(quad, 6, 6, 6).run(LRUContext(flat))
        assert tree.level_misses(0) == flat.snapshot().ms
        assert [c.misses for c in tree.level_stats(1)] == flat.snapshot().md_per_core


class TestChainContext:
    def test_runs_numeric_and_ideal_together(self, quad):
        alg = SharedOpt(quad, 4, 4, 4, lam=4)
        a = BlockMatrix.random(4, 4, q=2, seed=0)
        b = BlockMatrix.random(4, 4, q=2, seed=1)
        numeric = NumericContext(quad.p, a, b)
        h = IdealHierarchy(quad.p, quad.cs, quad.cd, check=True)
        ideal = IdealContext(h)
        chain = ChainContext([numeric, ideal])
        assert chain.explicit  # OR of children
        alg.run(chain)
        numeric.assert_complete()
        assert numeric.c.allclose(a @ b)
        assert h.ms > 0
        assert chain.comp_total == 64
        assert numeric.comp == ideal.comp

    def test_explicit_false_when_no_explicit_child(self, quad):
        h = LRUHierarchy(quad.p, quad.cs, quad.cd)
        chain = ChainContext([LRUContext(h)])
        assert not chain.explicit

    def test_mismatched_core_counts_rejected(self):
        h1 = LRUHierarchy(p=1, cs=16, cd=4)
        h2 = LRUHierarchy(p=2, cs=16, cd=4)
        with pytest.raises(ValueError):
            ChainContext([LRUContext(h1), LRUContext(h2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChainContext([])

"""Row operations: ``compute_row`` and ``stream_row`` on every context.

The defaults on :class:`ExecutionContext` expand to the per-block
operation sequence; :class:`IdealContext` overrides both with inlined
set operations that must leave the hierarchy in exactly the state the
expansion does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import ExecutionContext, MatmulAlgorithm
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT
from repro.cache.hierarchy import IdealHierarchy
from repro.check.events import AnalysisContext
from repro.exceptions import PresenceError
from repro.model.machine import MulticoreMachine
from repro.sim.contexts import IdealContext

P = 2


class ExpandedIdeal(IdealContext):
    """IDEAL context running the row defaults (per-block expansion)."""

    compute_row = ExecutionContext.compute_row
    stream_row = ExecutionContext.stream_row


def _state(h: IdealHierarchy):
    return {
        name: (
            sorted(value)
            if isinstance(value, set)
            else [sorted(v) if isinstance(v, set) else v for v in value]
            if isinstance(value, list)
            else value
        )
        for name, value in vars(h).items()
    }


def _row(i, k):
    """``(akey, crow, brow)`` of row ``i`` of ``C`` at step ``k``."""
    akey = A_BASE | (i << ROW_SHIFT) | k
    return akey, C_BASE | (i << ROW_SHIFT), B_BASE | (k << ROW_SHIFT)


keys = st.builds(
    lambda base, i, j: base | (i << ROW_SHIFT) | j,
    st.sampled_from([A_BASE, B_BASE, C_BASE]),
    st.integers(0, 3),
    st.integers(0, 6),
)
# Arbitrary prior state: resident, dirty and shared-dirty blocks that a
# row may then load redundantly or find dirty.
directives = st.tuples(
    st.sampled_from(
        ["load_shared", "load_dist", "evict_dist", "evict_shared", "dirty"]
    ),
    st.integers(0, P - 1),
    keys,
)
row_ops = st.tuples(
    st.sampled_from(["compute_row", "stream_row", "stream_row_shared"]),
    st.integers(0, P - 1),
    st.integers(0, 3),  # i
    st.integers(0, 3),  # k
    st.integers(0, 6),  # first column
    st.integers(0, 5),  # length
)


def _apply(ctx, op):
    kind, core = op[0], op[1]
    if kind in ("load_shared", "evict_shared"):
        getattr(ctx, kind)(op[2])
    elif kind in ("load_dist", "evict_dist"):
        getattr(ctx, kind)(core, op[2])
    elif kind == "dirty":
        ctx.hierarchy.dist_dirty[core].add(op[2])
        ctx.hierarchy.shared_dirty.add(op[2] ^ 1)
    else:
        _, _, i, k, lo, length = op
        akey, crow, brow = _row(i, k)
        cols = range(lo, lo + length)
        if kind == "compute_row":
            ctx.compute_row(core, akey, crow, brow, cols)
        else:
            ctx.stream_row(core, akey, crow, brow, cols, kind == "stream_row_shared")


class TestIdealRowOps:
    @given(st.lists(st.one_of(directives, row_ops), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_inlined_rows_match_expansion(self, stream):
        fast = IdealContext(IdealHierarchy(P, 10**6, 10**6, check=False))
        slow = ExpandedIdeal(IdealHierarchy(P, 10**6, 10**6, check=False))
        for op in stream:
            _apply(fast, op)
            _apply(slow, op)
        assert _state(fast.hierarchy) == _state(slow.hierarchy)
        assert fast.comp == slow.comp

    def test_schedules_match_expansion(self):
        from repro.algorithms.registry import get_algorithm

        machine = MulticoreMachine(p=4, cs=60, cd=12, q=8)
        for name in ("shared-opt", "outer-product", "cannon", "shared-equal"):
            alg = get_algorithm(name)(machine, 7, 9, 5)
            fast = IdealContext(IdealHierarchy(4, 60, 12, check=False))
            slow = ExpandedIdeal(IdealHierarchy(4, 60, 12, check=False))
            alg.run(fast)
            alg.run(slow)
            assert _state(fast.hierarchy) == _state(slow.hierarchy), name
            assert fast.comp == slow.comp


class ForgetsA(MatmulAlgorithm):
    """A one-row schedule that streams B and C but never loads A."""

    name = "forgets-a"
    label = "Forgets A"

    def __init__(self, machine, shared: bool) -> None:
        super().__init__(machine, 1, 4, 1)
        self.shared = shared

    def run(self, ctx: ExecutionContext) -> None:
        akey, crow, brow = _row(0, 0)
        cols = range(self.n)
        if ctx.explicit:
            if not self.shared:
                for j in cols:
                    ctx.load_shared(brow | j)
                    ctx.load_shared(crow | j)
            ctx.stream_row(0, akey, crow, brow, cols, shared=self.shared)
        else:
            ctx.compute_row(0, akey, crow, brow, cols)


class TestCheckedRowOps:
    @pytest.mark.parametrize("shared", [False, True])
    def test_stream_row_without_a_raises_presence(self, shared):
        machine = MulticoreMachine(p=1, cs=20, cd=6, q=8)
        ctx = IdealContext(IdealHierarchy(1, 20, 6, check=True))
        with pytest.raises(PresenceError, match=r"A\[0,0\]"):
            ForgetsA(machine, shared).run(ctx)

    def test_compute_row_on_absent_block_raises(self):
        ctx = IdealContext(IdealHierarchy(1, 20, 6, check=True))
        akey, crow, brow = _row(0, 0)
        for key in (akey, brow, crow):
            ctx.load_shared(key)
            ctx.load_dist(0, key)
        with pytest.raises(PresenceError, match=r"B\[0,1\]"):
            ctx.compute_row(0, akey, crow, brow, range(3))
        assert ctx.comp == [1]  # the first block computed, as per block


class TestDefaultExpansion:
    @pytest.mark.parametrize("shared", [False, True])
    def test_stream_row_event_log(self, shared):
        akey, crow, brow = _row(1, 2)
        cols = range(3, 6)
        rows = AnalysisContext(P)
        rows.stream_row(1, akey, crow, brow, cols, shared=shared)
        blocks = AnalysisContext(P)
        for j in cols:
            kb, kc = brow | j, crow | j
            if shared:
                blocks.load_shared(kb)
            blocks.load_dist(1, kb)
            if shared:
                blocks.load_shared(kc)
            blocks.load_dist(1, kc)
            blocks.compute(1, kc, akey, kb)
            blocks.evict_dist(1, kb)
            blocks.evict_dist(1, kc)
            if shared:
                blocks.evict_shared(kb)
                blocks.evict_shared(kc)
        assert rows.events == blocks.events
        assert rows.directives == blocks.directives
        assert rows.comp == blocks.comp == [0, 3]

    def test_compute_row_event_log(self):
        akey, crow, brow = _row(0, 1)
        ctx = AnalysisContext(P)
        ctx.compute_row(0, akey, crow, brow, range(2))
        assert ctx.events == [
            (4, 0, crow | 0, akey, brow | 0),
            (4, 0, crow | 1, akey, brow | 1),
        ]

    def test_implicit_context_stream_row_only_computes(self):
        from repro.algorithms.base import NullContext

        ctx = NullContext(P)
        akey, crow, brow = _row(0, 0)
        ctx.stream_row(1, akey, crow, brow, range(4), shared=True)
        assert ctx.comp == [0, 4]

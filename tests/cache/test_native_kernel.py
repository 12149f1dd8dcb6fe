"""The compiled plain-LRU step kernel: equivalence, build and fallback.

The kernel (``repro/cache/lru_kernel.c``) holds all cache state of a
plain-LRU :class:`LRUHierarchy`.  It is checked against two independent
Python references: the generic :class:`~repro.cache.cache.Cache` path of
the same class (every counter, recency order and dirty set) and the
two-level :class:`MultiLevelHierarchy` (everything that tree models; it
does not propagate distributed write-backs into the shared copy, so the
shared dirty set and shared write-backs are compared with the first
reference only).
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cache import native
from repro.cache.block import A_BASE, B_BASE, C_BASE, ROW_SHIFT, block_key
from repro.cache.hierarchy import LRUHierarchy
from repro.cache.multilevel import two_level
from repro.model.machine import PRESETS
from repro.sim.contexts import LRUContext
from repro.sim.runner import run_experiment

requires_native = pytest.mark.skipif(
    native.kernel() is None, reason="the native LRU kernel could not be built"
)


def python_hierarchy(*args, **kwargs):
    """An LRUHierarchy forced onto the generic Python (Cache) path."""
    with mock.patch.object(native, "kernel", return_value=None):
        return LRUHierarchy(*args, **kwargs)


def _colliding_keys(count, bits=6):
    """Block keys sharing one home slot in every table of <= 2**bits slots.

    The kernel's home slot is the top bits of ``key * 0x9E37...15``
    (mod 2**64); keys that agree on the top ``bits`` bits agree on any
    shorter prefix too, so they probe the same run in every cache of
    this module's tests and exercise backward-shift deletion.
    """
    keys, target = [], None
    for tag in range(3):
        for row in range(64):
            for col in range(64):
                key = block_key(tag, row, col)
                slot = ((key * 0x9E3779B97F4A7C15) % 2**64) >> (64 - bits)
                if target is None:
                    target = slot
                if slot == target:
                    keys.append(key)
                    if len(keys) == count:
                        return keys
    raise AssertionError("not enough colliding keys")


POOL = _colliding_keys(24) + [block_key(t, i, 0) for t in range(3) for i in range(6)]

ops = st.one_of(
    st.tuples(
        st.just("touch"),
        st.integers(0, 3),
        st.sampled_from(POOL),
        st.booleans(),
    ),
    st.tuples(
        st.just("compute"),
        st.integers(0, 3),
        st.sampled_from(POOL),
        st.sampled_from(POOL),
        st.sampled_from(POOL),
    ),
    st.tuples(
        st.just("row"),
        st.integers(0, 3),
        st.integers(0, 4),  # i
        st.integers(0, 4),  # k
        st.integers(0, 6),  # first column
        st.integers(0, 6),  # row length
    ),
)


def _drive(op, native_h, python_h, tree):
    """Apply one operation to the three implementations."""
    kind, core = op[0], op[1] % native_h.p
    if kind == "touch":
        _, _, key, write = op
        assert native_h.touch(core, key, write) == python_h.touch(core, key, write)
        tree.touch(core, key, write)
        return
    if kind == "compute":
        _, _, ckey, akey, bkey = op
        native_h.compute(core, ckey, akey, bkey)
        python_h.compute(core, ckey, akey, bkey)
        refs = [(akey, False), (bkey, False), (ckey, True)]
    else:
        _, _, i, k, lo, length = op
        akey = A_BASE | (i << ROW_SHIFT) | k
        crow = C_BASE | (i << ROW_SHIFT)
        brow = B_BASE | (k << ROW_SHIFT)
        cols = range(lo, lo + length)
        native_h.compute_row(core, akey, crow, brow, cols)
        python_h.compute_row(core, akey, crow, brow, cols)
        refs = [
            ref
            for j in cols
            for ref in ((akey, False), (brow | j, False), (crow | j, True))
        ]
    for key, write in refs:
        tree.touch(core, key, write)


def _assert_same(native_h, python_h, tree):
    ns, ps = native_h.snapshot(), python_h.snapshot()
    assert ns == ps
    nst, pst = native_h.state(), python_h.state()
    assert nst == pst
    assert native_h.comp == python_h.comp
    assert native_h.check_inclusion() == python_h.check_inclusion()
    # The tree: its root is the shared cache, its leaves the cores'.
    root = tree.caches[0][0]
    assert (root.hits, root.misses, root.misses_by_matrix) == (
        ns.shared.hits,
        ns.shared.misses,
        ns.shared.misses_by_matrix,
    )
    assert list(root.policy) == nst.shared.order
    for leaf, stats, state in zip(tree.caches[1], ns.distributed, nst.distributed):
        assert leaf.stats() == stats
        assert list(leaf.policy) == state.order
        assert leaf.dirty == state.dirty


@requires_native
class TestNativeEquivalence:
    @given(
        st.integers(1, 4),  # p
        st.integers(1, 8),  # cd
        st.integers(1, 16),  # cs
        st.lists(ops, max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_python_references(self, p, cd, cs, stream):
        native_h = LRUHierarchy(p, cs, cd)
        python_h = python_hierarchy(p, cs, cd)
        tree = two_level(p, cs, cd)
        assert (native_h.kernel, python_h.kernel) == ("step-native", "step")
        for op in stream:
            _drive(op, native_h, python_h, tree)
        _assert_same(native_h, python_h, tree)

    def test_colliding_keys_survive_deletion(self):
        # Every key shares one probe run; evicting from the middle of the
        # run must leave the rest findable (backward-shift deletion).
        keys = POOL[:24]
        native_h = LRUHierarchy(1, 16, 8)
        python_h = python_hierarchy(1, 16, 8)
        tree = two_level(1, 16, 8)
        for rounds in range(3):
            for idx, key in enumerate(keys):
                op = ("touch", 0, key, (idx + rounds) % 3 == 0)
                _drive(op, native_h, python_h, tree)
            _assert_same(native_h, python_h, tree)
        stats = native_h.snapshot()
        assert stats.distributed[0].hits == 0  # 24 keys cycle through 8 slots
        assert stats.shared.writebacks > 0

    def test_writeback_cascade(self):
        # CS=2, CD=1: a dirty C leaves the core while its shared copy is
        # resident (shared copy dirtied), then leaves the shared cache
        # (shared write-back).
        native_h = LRUHierarchy(1, 2, 1)
        python_h = python_hierarchy(1, 2, 1)
        tree = two_level(1, 2, 1)
        for i in range(4):
            ckey, akey, bkey = block_key(2, i, i), block_key(0, 0, i), block_key(1, i, 0)
            _drive(("compute", 0, ckey, akey, bkey), native_h, python_h, tree)
        _assert_same(native_h, python_h, tree)
        stats = native_h.snapshot()
        assert stats.distributed[0].writebacks > 0
        assert stats.shared.writebacks > 0

    def test_reset_empties_the_kernel(self):
        h = LRUHierarchy(2, 8, 3)
        h.compute_row(1, block_key(0, 0, 0), C_BASE, B_BASE, range(5))
        h.reset()
        empty = python_hierarchy(2, 8, 3)
        assert h.snapshot() == empty.snapshot()
        assert h.state() == empty.state()
        assert h.comp == [0, 0]

    def test_rejects_bad_core_and_key(self):
        h = LRUHierarchy(2, 8, 3)
        with pytest.raises(IndexError):
            h.touch(2, block_key(0, 0, 0))
        with pytest.raises(ValueError):
            h.compute(0, 0, 3 << 56, 0)  # A, the first reference, is invalid
        assert h.snapshot() == python_hierarchy(2, 8, 3).snapshot()

    def test_lru_context_runs_rows_natively(self):
        h = LRUHierarchy(2, 16, 4)
        ctx = LRUContext(h)
        assert ctx.compute_row is h.compute_row
        ctx.compute_row(1, block_key(0, 0, 0), C_BASE, B_BASE, range(3))
        assert ctx.comp == [0, 3]


class TestFallback:
    def test_failed_build_warns_once_and_matches(self, monkeypatch, caplog):
        machine = PRESETS["q32"]
        cells = [("shared-opt", "lru-50"), ("tradeoff", "lru"), ("cannon", "lru-50")]
        expected = [
            run_experiment(alg, machine, 9, 9, 9, setting, engine="step")
            for alg, setting in cells
        ]

        def broken():
            raise OSError("simulated build failure")

        # A fresh process whose build fails.
        monkeypatch.setattr(native, "_build_and_load", broken)
        monkeypatch.setattr(native, "_tried", False)
        monkeypatch.setattr(native, "_kernel", None)
        with caplog.at_level(logging.WARNING, logger="repro.cache.native"):
            got = [
                run_experiment(alg, machine, 9, 9, 9, setting, engine="step")
                for alg, setting in cells
            ]
        warnings = [r for r in caplog.records if r.name == "repro.cache.native"]
        assert len(warnings) == 1
        assert "simulated build failure" in warnings[0].getMessage()
        assert [r.kernel for r in got] == ["step"] * len(cells)
        assert [(r.stats, r.comp) for r in got] == [
            (r.stats, r.comp) for r in expected
        ]


def _kernel_source():
    return native.SOURCE.read_text()


@requires_native
class TestBuild:
    def test_concurrent_first_builds_both_load(self, tmp_path):
        # Two fresh processes race to build into one empty cache dir:
        # the temp-dir + os.replace protocol must leave both loading a
        # complete module.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.cache import native\n"
            "from repro.cache.hierarchy import LRUHierarchy\n"
            "k = native.kernel()\n"
            "assert k is not None\n"
            "assert LRUHierarchy(1, 2, 1).kernel == 'step-native'\n"
            "print(k.__file__)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [proc.communicate(timeout=240) for proc in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
        paths = {out.strip() for out, _ in outs}
        assert len(paths) == 1
        built = Path(paths.pop())
        assert built.parent == tmp_path / "repro-mmm" / "native"
        # Nothing but the finished module is left behind.
        assert sorted(p.name for p in built.parent.iterdir()) == [built.name]

    def test_edited_source_rebuilds(self, tmp_path):
        source = _kernel_source()
        first = native.build(tmp_path, source)
        stamp = first.stat().st_mtime_ns
        assert native.build(tmp_path, source) == first  # cached, not rebuilt
        assert first.stat().st_mtime_ns == stamp
        edited = source + "\n/* an edit changes the build key */\n"
        second = native.build(tmp_path, edited)
        assert second != first
        assert second.exists() and first.stat().st_mtime_ns == stamp
        module = native.load(second)
        handle = module.lib.lru_new(1, 2, 1)
        try:
            assert module.lib.lru_touch(handle, 0, 5, 0) == 0
            assert module.lib.lru_touch(handle, 0, 5, 0) == 1
        finally:
            module.lib.lru_free(handle)

    def test_build_key_covers_source_and_interpreter(self):
        source = _kernel_source()
        key = native.build_key(source)
        assert native.build_key(source + " ") != key
        with mock.patch.object(sys.implementation, "cache_tag", "other-tag"):
            assert native.build_key(source) != key

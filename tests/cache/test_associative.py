"""Tests for set-associative caches and tree pseudo-LRU."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.associative import SetAssociativeCache, TreePLRU, _set_index
from repro.cache.lru import LRUCache, make_policy
from repro.exceptions import ConfigurationError


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TreePLRU(3)
        with pytest.raises(ConfigurationError):
            TreePLRU(0)

    def test_capacity_one(self):
        c = TreePLRU(1)
        assert c.access(1) == (False, None)
        assert c.access(1) == (True, None)
        hit, victim = c.access(2)
        assert not hit and victim == 1

    def test_two_ways_is_exact_lru(self):
        """With 2 ways one bit tracks recency exactly."""
        plru, lru = TreePLRU(2), LRUCache(2)
        trace = [1, 2, 1, 3, 2, 3, 1, 1, 4, 2]
        for key in trace:
            assert plru.access(key)[0] == lru.access(key)[0]

    def test_fills_free_ways_before_evicting(self):
        c = TreePLRU(4)
        for key in (1, 2, 3, 4):
            _, victim = c.access(key)
            assert victim is None
        assert len(c) == 4

    def test_victim_is_not_most_recent(self):
        c = TreePLRU(4)
        for key in (1, 2, 3, 4):
            c.access(key)
        c.access(4)  # refresh
        _, victim = c.access(5)
        assert victim != 4

    def test_discard_frees_way(self):
        c = TreePLRU(2)
        c.access(1)
        c.access(2)
        assert c.discard(1)
        _, victim = c.access(3)
        assert victim is None  # reused the freed way
        assert set(c) == {2, 3}

    def test_clear(self):
        c = TreePLRU(4)
        c.access(1)
        c.clear()
        assert len(c) == 0
        assert 1 not in c

    @given(st.lists(st.integers(0, 15), max_size=300), st.sampled_from([2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity_and_stays_consistent(self, trace, ways):
        c = TreePLRU(ways)
        for key in trace:
            c.access(key)
            assert len(c) <= ways
            assert len(set(c)) == len(c)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_plru_close_to_lru(self, trace):
        """PLRU is a heuristic: never better than 0 misses of course,
        and empirically within 2x of true LRU on small traces."""
        plru, lru = TreePLRU(4), LRUCache(4)
        plru_misses = sum(0 if plru.access(k)[0] else 1 for k in trace)
        lru_misses = sum(0 if lru.access(k)[0] else 1 for k in trace)
        assert plru_misses >= len(set(trace)) * 0  # sanity
        assert plru_misses <= 2 * lru_misses + 4


class TestSetAssociative:
    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(10, 4)  # not a multiple
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(8, 0)

    def test_keys_isolated_per_set(self):
        c = SetAssociativeCache(8, 2)
        # find 3 keys in the same set: conflict evictions despite 5 free ways
        keys = []
        target = _set_index(0, c.n_sets)
        k = 0
        while len(keys) < 3:
            if _set_index(k, c.n_sets) == target:
                keys.append(k)
            k += 1
        c.access(keys[0])
        c.access(keys[1])
        hit, victim = c.access(keys[2])
        assert not hit and victim == keys[0]
        assert len(c) == 2  # 6 other ways unused: conflict miss

    def test_fully_associative_degenerate(self):
        """ways == capacity: identical to plain LRU."""
        assoc = SetAssociativeCache(4, 4)
        lru = LRUCache(4)
        trace = [1, 2, 3, 4, 5, 1, 2, 6, 3, 3, 7]
        for key in trace:
            assert assoc.access(key)[0] == lru.access(key)[0]

    def test_iter_len_discard(self):
        c = SetAssociativeCache(8, 2)
        for key in range(5):
            c.access(key)
        assert len(c) == 5
        assert set(c) == set(range(5))
        assert c.discard(3)
        assert not c.discard(3)
        assert len(c) == 4

    def test_clear(self):
        c = SetAssociativeCache(8, 2)
        c.access(1)
        c.clear()
        assert len(c) == 0

    @given(
        st.lists(st.integers(0, 30), max_size=300),
        st.sampled_from([(8, 2), (8, 4), (16, 4)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_partitioned_lru(self, trace, geometry):
        """Defining invariant: an s-set, w-way LRU cache behaves exactly
        like s independent w-entry LRU caches over the hash-partitioned
        subtraces.  (Note: set-associativity does NOT uniformly increase
        misses over full associativity — hypothesis finds traces where a
        block survives in its quiet set while full LRU evicts it.)"""
        capacity, ways = geometry
        assoc = SetAssociativeCache(capacity, ways)
        shadows = [LRUCache(ways) for _ in range(assoc.n_sets)]
        for key in trace:
            expected = shadows[_set_index(key, assoc.n_sets)].access(key)[0]
            assert assoc.access(key)[0] == expected


class TestPolicySpecs:
    def test_make_policy_specs(self):
        assert isinstance(make_policy("plru", 8), TreePLRU)
        assoc = make_policy("assoc4", 16)
        assert isinstance(assoc, SetAssociativeCache) and assoc.ways == 4
        plru_assoc = make_policy("assoc2-plru", 8)
        assert isinstance(plru_assoc, SetAssociativeCache)

    def test_bad_specs(self):
        with pytest.raises(ConfigurationError):
            make_policy("assoc", 8)
        with pytest.raises(ConfigurationError):
            make_policy("assocx", 8)
        with pytest.raises(ConfigurationError):
            make_policy("optimal", 8)

    def test_hierarchy_accepts_assoc_policy(self):
        from repro.cache.hierarchy import LRUHierarchy
        from repro.cache.block import block_key, MAT_A

        h = LRUHierarchy(p=2, cs=16, cd=4, policy="assoc2")
        assert h.kernel == "step"  # generic path
        h.touch(0, block_key(MAT_A, 0, 0))
        assert h.snapshot().shared.misses == 1

    def test_run_experiment_with_assoc(self):
        from repro.model.machine import MulticoreMachine
        from repro.sim.runner import run_experiment

        # capacities divisible by the way count (assoc caches require it)
        machine = MulticoreMachine(p=4, cs=96, cd=20, q=8)
        assoc = run_experiment(
            "shared-opt", machine, 12, 12, 12, "lru", policy="assoc4"
        )
        # plumbing check: the run completes and sees at least the
        # compulsory shared traffic (every block of A, B, C once)
        assert assoc.ms >= 3 * 12 * 12

"""A single simulated cache: bounded block container + statistics.

:class:`Cache` couples a replacement policy with hit/miss/write-back
accounting and dirty-block tracking.  It is the building brick of the
LRU-mode hierarchy; IDEAL mode uses explicit sets instead (see
:mod:`repro.cache.hierarchy`).

Counters are plain ``int`` attributes rather than a stats object so the
hot path pays a single attribute increment; :meth:`Cache.stats`
materializes a :class:`repro.cache.stats.CacheStats` snapshot on demand.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.cache.block import MAT_SHIFT
from repro.cache.lru import make_policy
from repro.cache.policy import ReplacementPolicy
from repro.cache.stats import CacheStats


class Cache:
    """A bounded, policy-driven cache of matrix blocks.

    Parameters
    ----------
    name:
        Label used in error messages and reports (e.g. ``"shared"``,
        ``"distributed[2]"``).
    capacity:
        Capacity in blocks.
    policy:
        Either a policy name registered in
        :data:`repro.cache.lru.POLICIES` or a ready
        :class:`~repro.cache.policy.ReplacementPolicy` instance.
    """

    __slots__ = (
        "name",
        "capacity",
        "policy",
        "hits",
        "misses",
        "writebacks",
        "misses_by_matrix",
        "dirty",
    )

    def __init__(self, name: str, capacity: int, policy="lru") -> None:
        self.name = name
        self.capacity = capacity
        if isinstance(policy, ReplacementPolicy):
            self.policy = policy
        else:
            self.policy = make_policy(policy, capacity)
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.misses_by_matrix = [0, 0, 0]
        self.dirty: Set[int] = set()

    def access(
        self, key: int, write: bool = False
    ) -> Tuple[bool, Optional[int], bool]:
        """Reference ``key``; return ``(hit, victim_or_None, victim_was_dirty)``.

        A miss inserts the key (evicting per policy); ``write`` marks it
        dirty.  Evicting a dirty victim counts one write-back and cleans
        it; the caller learns about it through ``victim_was_dirty`` so a
        hierarchy can land the written-back contents in the level below
        (see :meth:`repro.cache.hierarchy.LRUHierarchy.touch`).
        """
        hit, victim = self.policy.access(key)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.misses_by_matrix[key >> MAT_SHIFT] += 1
        if write:
            self.dirty.add(key)
        victim_was_dirty = victim is not None and victim in self.dirty
        if victim_was_dirty:
            self.dirty.discard(victim)
            self.writebacks += 1
        return hit, victim, victim_was_dirty

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` without statistics impact (back-invalidation).

        Dirty invalidated blocks still count a write-back — their
        contents must survive somewhere below.
        """
        if key in self.dirty:
            self.dirty.discard(key)
            self.writebacks += 1
        return self.policy.discard(key)

    def __contains__(self, key: int) -> bool:
        return key in self.policy

    def __len__(self) -> int:
        return len(self.policy)

    def stats(self) -> CacheStats:
        """Snapshot the counters into a :class:`CacheStats`."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            writebacks=self.writebacks,
            misses_by_matrix=list(self.misses_by_matrix),
        )

    def reset(self) -> None:
        """Empty the cache and zero every counter."""
        self.policy.clear()
        self.dirty.clear()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.misses_by_matrix = [0, 0, 0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name!r}, capacity={self.capacity}, "
            f"resident={len(self)}, hits={self.hits}, misses={self.misses})"
        )

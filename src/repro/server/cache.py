"""Sharded LRU result cache for reachability answers.

Reachability answers are ideal cache fodder: a query is two ints, an
answer is one bool, and the oracle is immutable for the lifetime of a
served artifact, so entries never go stale.  The cache is sharded —
each shard an ``OrderedDict`` behind its own lock — so concurrent
connection threads rarely contend on the same lock, and one giant
dict's resize pauses are avoided.

Statistics distinguish **negative hits** (cached ``False`` answers)
from positive ones: on the sparse graphs the paper targets, random
workloads are almost entirely negative, so a served deployment's hit
profile is dominated by negatives — worth seeing directly rather than
inferring.

**Epoch keying.**  A served oracle is immutable only *per artifact
epoch*: the batch APIs fold the answering ``epoch`` into every key as
``(epoch, u, v)`` (a static server answers from epoch 0).  When the
store flips to a new epoch, entries cached under the old one simply
become unreachable — no global flush, no lock sweep — and age out of
the LRU under new traffic.

A ``capacity`` of 0 disables the cache entirely (every lookup is a
pass-through miss that is not counted); the service uses that for
benchmark runs that must measure the raw query path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = ["ShardedLRUCache"]


class _Shard:
    """One LRU shard: an ordered dict + lock + local counters."""

    __slots__ = ("lock", "entries", "capacity", "hits", "misses",
                 "negative_hits", "evictions")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[Hashable, bool]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.evictions = 0


class ShardedLRUCache:
    """An LRU map from query pairs to boolean answers, split into shards.

    Parameters
    ----------
    capacity:
        Total entry budget across all shards; 0 disables the cache.
    shards:
        Number of independent LRU shards (rounded up to a power of two
        so shard selection is a mask, not a modulo).
    """

    def __init__(self, capacity: int, shards: int = 8) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        n_shards = 1
        while n_shards < shards:
            n_shards *= 2
        if capacity == 0:
            n_shards = 1
        self._mask = n_shards - 1
        per_shard = (capacity + n_shards - 1) // n_shards
        self._shards = [_Shard(per_shard) for _ in range(n_shards)]
        self.capacity = per_shard * n_shards if capacity else 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def _shard_for(self, key: Hashable) -> _Shard:
        return self._shards[hash(key) & self._mask]

    # -- single-key API ------------------------------------------------
    def get(self, key: Hashable) -> Optional[bool]:
        """The cached answer, or ``None`` on a miss (counted)."""
        if not self.capacity:
            return None
        shard = self._shard_for(key)
        with shard.lock:
            try:
                value = shard.entries[key]
            except KeyError:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            if not value:
                shard.negative_hits += 1
            return value

    def put(self, key: Hashable, value: bool) -> None:
        """Insert (or refresh) one answer, evicting the LRU entry on overflow."""
        if not self.capacity:
            return
        shard = self._shard_for(key)
        with shard.lock:
            entries = shard.entries
            if key in entries:
                entries[key] = value
                entries.move_to_end(key)
                return
            entries[key] = value
            if len(entries) > shard.capacity:
                entries.popitem(last=False)
                shard.evictions += 1

    # -- batch API (the service's hot path) ----------------------------
    def _group_by_shard(self, keys) -> Dict[int, List[int]]:
        """Positions of ``keys`` grouped by shard index."""
        mask = self._mask
        groups: Dict[int, List[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(hash(key) & mask, []).append(i)
        return groups

    def get_many(
        self, pairs: Sequence[Tuple[int, int]], epoch: int
    ) -> Tuple[List[Optional[bool]], List[int]]:
        """Look up a workload, taking each shard lock once per batch.

        Returns ``(answers, missing)``: ``answers[i]`` is the cached
        bool or ``None``, and ``missing`` lists the indices that need
        the oracle.  ``epoch`` scopes the keys to one artifact version
        (see the module docstring).  With the cache disabled everything
        is missing and nothing is counted.
        """
        if not self.capacity:
            return [None] * len(pairs), list(range(len(pairs)))
        keys = [(epoch, u, v) for u, v in pairs]
        answers: List[Optional[bool]] = [None] * len(pairs)
        for shard_idx, positions in self._group_by_shard(keys).items():
            shard = self._shards[shard_idx]
            with shard.lock:
                entries = shard.entries
                for i in positions:
                    try:
                        value = entries[keys[i]]
                    except KeyError:
                        shard.misses += 1
                        continue
                    entries.move_to_end(keys[i])
                    shard.hits += 1
                    if not value:
                        shard.negative_hits += 1
                    answers[i] = value
        missing = [i for i, a in enumerate(answers) if a is None]
        return answers, missing

    def put_many(
        self,
        pairs: Sequence[Tuple[int, int]],
        answers: Sequence[bool],
        epoch: int,
    ) -> None:
        """Insert a batch of fresh oracle answers (one lock per shard).

        ``epoch`` must be the epoch of the oracle that *produced* the
        answers — the live service passes the resolving batch's lease
        epoch, not the epoch current at submission time.
        """
        if not self.capacity:
            return
        keys = [(epoch, u, v) for u, v in pairs]
        for shard_idx, positions in self._group_by_shard(keys).items():
            shard = self._shards[shard_idx]
            with shard.lock:
                entries = shard.entries
                for i in positions:
                    key = keys[i]
                    if key in entries:
                        entries[key] = bool(answers[i])
                        entries.move_to_end(key)
                        continue
                    entries[key] = bool(answers[i])
                    if len(entries) > shard.capacity:
                        entries.popitem(last=False)
                        shard.evictions += 1

    # -- management ----------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (statistics survive)."""
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()

    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)

    def stats(self) -> Dict[str, object]:
        """Aggregated counters plus the derived hit rate."""
        hits = misses = negative = evictions = 0
        for shard in self._shards:
            with shard.lock:
                hits += shard.hits
                misses += shard.misses
                negative += shard.negative_hits
                evictions += shard.evictions
        lookups = hits + misses
        return {
            "capacity": self.capacity,
            "shards": len(self._shards),
            "entries": len(self),
            "hits": hits,
            "misses": misses,
            "negative_hits": negative,
            "positive_hits": hits - negative,
            "evictions": evictions,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedLRUCache(capacity={self.capacity}, "
            f"shards={len(self._shards)}, entries={len(self)})"
        )

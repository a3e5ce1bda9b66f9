"""Tests for the sharded LRU result cache."""

import threading

import pytest

from repro.server.cache import ShardedLRUCache


class TestBasics:
    def test_get_put_round_trip(self):
        cache = ShardedLRUCache(16)
        cache.put((1, 2), True)
        cache.put((3, 4), False)
        assert cache.get((1, 2)) is True
        assert cache.get((3, 4)) is False
        assert cache.get((9, 9)) is None

    def test_len_and_clear(self):
        cache = ShardedLRUCache(16, shards=2)
        for i in range(5):
            cache.put((i, i), True)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0  # stats survive, still zero

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ShardedLRUCache(-1)
        with pytest.raises(ValueError):
            ShardedLRUCache(8, shards=0)


class TestLRU:
    def test_eviction_drops_least_recent(self):
        cache = ShardedLRUCache(3, shards=1)
        cache.put((0, 0), True)
        cache.put((1, 1), True)
        cache.put((2, 2), True)
        cache.get((0, 0))  # refresh 0 — (1, 1) is now LRU
        cache.put((3, 3), True)
        assert cache.get((1, 1)) is None
        assert cache.get((0, 0)) is True
        assert cache.stats()["evictions"] == 1

    def test_refresh_on_put_of_existing_key(self):
        cache = ShardedLRUCache(2, shards=1)
        cache.put((0, 0), True)
        cache.put((1, 1), True)
        cache.put((0, 0), False)  # refresh + overwrite, no eviction
        cache.put((2, 2), True)
        assert cache.get((1, 1)) is None  # (1, 1) was LRU
        assert cache.get((0, 0)) is False


class TestStats:
    def test_hit_miss_negative_counters(self):
        cache = ShardedLRUCache(16)
        cache.put((1, 2), True)
        cache.put((3, 4), False)
        cache.get((1, 2))        # positive hit
        cache.get((3, 4))        # negative hit
        cache.get((3, 4))        # negative hit
        cache.get((5, 6))        # miss
        stats = cache.stats()
        assert stats["hits"] == 3
        assert stats["misses"] == 1
        assert stats["negative_hits"] == 2
        assert stats["positive_hits"] == 1
        assert stats["hit_rate"] == pytest.approx(0.75)

    def test_capacity_splits_across_shards(self):
        cache = ShardedLRUCache(64, shards=8)
        assert cache.stats()["shards"] == 8
        assert cache.capacity == 64


class TestBatchApi:
    def test_get_many_partitions_hits_and_misses(self):
        cache = ShardedLRUCache(16)
        cache.put_many([(0, 1)], [True], epoch=0)
        answers, missing = cache.get_many([(0, 1), (2, 3), (4, 5)], epoch=0)
        assert answers == [True, None, None]
        assert missing == [1, 2]

    def test_put_many_then_full_hit(self):
        cache = ShardedLRUCache(16)
        pairs = [(i, i + 1) for i in range(6)]
        cache.put_many(pairs, [i % 2 == 0 for i in range(6)], epoch=3)
        answers, missing = cache.get_many(pairs, epoch=3)
        assert missing == []
        assert answers == [True, False, True, False, True, False]


class TestDisabled:
    def test_zero_capacity_is_pass_through(self):
        cache = ShardedLRUCache(0)
        assert not cache.enabled
        cache.put((1, 2), True)
        assert cache.get((1, 2)) is None
        answers, missing = cache.get_many([(1, 2), (3, 4)], epoch=0)
        assert answers == [None, None]
        assert missing == [0, 1]
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestConcurrency:
    def test_parallel_readers_and_writers_stay_consistent(self):
        cache = ShardedLRUCache(256, shards=4)
        errors = []

        def hammer(seed):
            try:
                for i in range(500):
                    key = ((seed * 31 + i) % 64, i % 64)
                    cache.put(key, (i % 2) == 0)
                    got = cache.get(key)
                    assert got is None or isinstance(got, bool)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= cache.capacity

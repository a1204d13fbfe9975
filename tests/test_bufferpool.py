"""The shared chunk buffer pool and the APR prefetch pipeline.

Covers the pool's accounting invariants (hits + misses == lookups),
oversized-chunk rejection, O(array) invalidation, pinning,
prefetch-hit/wasted-prefetch bookkeeping, in-flight deduplication, and
thread-safety under concurrent resolvers and concurrent server clients.
"""

import threading

import numpy as np
import pytest

from repro import (
    SSDM, MemoryArrayStore, NumericArray, SqlArrayStore, URI,
    APRResolver, Strategy,
)
from repro.client import SSDMClient, SSDMServer
from repro.exceptions import StorageError
from repro.storage.bufferpool import BufferPool, shared_pool


def chunk(n=16, value=1.0):
    return np.full(n, value)


class TestAdmission:
    def test_oversized_chunk_is_rejected_and_counted(self):
        pool = BufferPool(max_bytes=64)
        big = np.zeros(64)  # 512 bytes > budget
        assert pool.put("a", 0, big) is False
        assert pool.get("a", 0) is None
        stats = pool.stats()
        assert stats["rejected"] == 1
        assert stats["entries"] == 0
        assert stats["bytes"] == 0

    def test_resolver_cache_rejects_oversized_instead_of_keeping_it(self):
        # the pre-pool per-resolver cache admitted chunks larger than
        # its whole budget (its eviction loop stopped at one resident
        # entry); the integer-keyed get/put surface must not
        cache = BufferPool(max_bytes=64)
        assert cache.put(1, 0, np.zeros(64)) is False
        assert len(cache) == 0
        assert cache.stats()["rejected"] == 1

    def test_fitting_chunks_evict_lru_not_newest(self):
        pool = BufferPool(max_bytes=3 * chunk().nbytes)
        for cid in range(4):
            pool.put("a", cid, chunk())
        assert pool.get("a", 0) is None       # evicted (oldest)
        assert pool.get("a", 3) is not None   # newest resident
        assert pool.stats()["evictions"] == 1


class TestCounters:
    def test_hits_plus_misses_equals_lookups(self):
        pool = BufferPool()
        pool.put("a", 0, chunk())
        pool.get("a", 0)          # hit
        pool.get("a", 1)          # miss
        pool.get("b", 0)          # miss
        cached, owned, waiting = pool.claim("a", [0, 1, 2])
        stats = pool.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["hits"] == 2      # get + claim on chunk 0
        assert stats["misses"] == 4
        pool.fail("a", owned, StorageError("cleanup"))

    def test_reset_counters_keeps_contents(self):
        pool = BufferPool()
        pool.put("a", 0, chunk())
        pool.get("a", 0)
        pool.reset_counters()
        stats = pool.stats()
        assert stats["lookups"] == 0
        assert stats["entries"] == 1


class TestInvalidation:
    def test_invalidate_one_array_leaves_others(self):
        pool = BufferPool()
        for cid in range(5):
            pool.put("a", cid, chunk())
            pool.put("b", cid, chunk())
        pool.invalidate("a")
        assert all(pool.get("a", cid) is None for cid in range(5))
        assert all(pool.get("b", cid) is not None for cid in range(5))

    def test_two_level_index_drops_empty_array_buckets(self):
        pool = BufferPool()
        pool.put("a", 0, chunk())
        pool.invalidate("a", 0)
        assert "a" not in pool._arrays

    def test_invalidate_marks_inflight_stale(self):
        pool = BufferPool()
        cached, owned, waiting = pool.claim("a", [0])
        assert owned == [0]
        pool.invalidate("a")
        pool.publish("a", {0: chunk()})
        # the stale result was delivered to any waiter but not admitted
        assert pool.get("a", 0) is None

    def test_store_put_invalidates_recycled_ids(self):
        store = MemoryArrayStore(chunk_bytes=128)
        proxy = store.put(NumericArray(list(range(64))))
        APRResolver(store, strategy=Strategy.PREFETCH).resolve([proxy])
        key = store.pool_key(proxy.array_id)
        assert store.buffer_pool._arrays.get(key)
        store.invalidate_cached(proxy.array_id)
        assert not store.buffer_pool._arrays.get(key)


class TestPinning:
    def test_pinned_chunks_survive_pressure(self):
        pool = BufferPool(max_bytes=2 * chunk().nbytes)
        pool.put("a", 0, chunk())
        pool.pin("a", [0])
        pool.put("a", 1, chunk())
        pool.put("a", 2, chunk())   # pressure: someone must go
        assert pool.get("a", 0) is not None
        pool.unpin("a", [0])
        # deferred eviction applies once the pin drops
        assert pool.current_bytes <= pool.max_bytes

    def test_pins_nest(self):
        pool = BufferPool(max_bytes=chunk().nbytes)
        pool.put("a", 0, chunk())
        pool.pin("a", [0])
        pool.pin("a", [0])
        pool.unpin("a", [0])
        pool.put("a", 1, chunk())   # chunk 0 still pinned
        assert pool.get("a", 0) is not None


class TestPrefetchAccounting:
    def test_prefetched_entry_first_hit_counts_once(self):
        pool = BufferPool()
        pool.put("a", 0, chunk(), prefetched=True)
        pool.get("a", 0)
        pool.get("a", 0)
        stats = pool.stats()
        assert stats["prefetch_hits"] == 1
        assert stats["hits"] == 2

    def test_evicted_unused_prefetch_counts_as_wasted(self):
        pool = BufferPool(max_bytes=chunk().nbytes)
        pool.put("a", 0, chunk(), prefetched=True)
        pool.put("a", 1, chunk())   # evicts the prefetched entry
        assert pool.stats()["wasted_prefetches"] == 1

    def test_invalidated_unused_prefetch_counts_as_wasted(self):
        pool = BufferPool()
        pool.put("a", 0, chunk(), prefetched=True)
        pool.invalidate("a")
        assert pool.stats()["wasted_prefetches"] == 1


class TestInFlight:
    def test_claim_partitions_cached_owned_waiting(self):
        pool = BufferPool()
        pool.put("a", 0, chunk())
        cached1, owned1, waiting1 = pool.claim("a", [0, 1])
        assert list(cached1) == [0] and owned1 == [1] and not waiting1
        cached2, owned2, waiting2 = pool.claim("a", [1])
        assert not cached2 and not owned2 and list(waiting2) == [1]
        assert pool.stats()["inflight_waits"] == 1
        pool.publish("a", {1: chunk(value=7.0)})
        got = pool.wait(waiting2[1], timeout=5)
        assert got[0] == 7.0

    def test_fail_propagates_to_waiters(self):
        pool = BufferPool()
        _, owned, _ = pool.claim("a", [0])
        _, _, waiting = pool.claim("a", [0])
        pool.fail("a", owned, StorageError("backend down"))
        with pytest.raises(StorageError):
            pool.wait(waiting[0], timeout=5)


class _CountingStore(MemoryArrayStore):
    """Counts how many times each chunk is physically read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.read_counts = {}
        self._count_lock = threading.Lock()

    def _read_chunk(self, array_id, chunk_id):
        with self._count_lock:
            key = (array_id, chunk_id)
            self.read_counts[key] = self.read_counts.get(key, 0) + 1
        return super()._read_chunk(array_id, chunk_id)


class TestConcurrentResolvers:
    def test_no_double_fetch_across_four_threads(self):
        store = _CountingStore(chunk_bytes=256,
                               buffer_pool=BufferPool())
        data = list(range(2048))
        proxy = store.put(NumericArray(data))
        barrier = threading.Barrier(4)
        results = [None] * 4
        errors = []

        def resolve(slot):
            try:
                resolver = APRResolver(store, strategy=Strategy.PREFETCH)
                barrier.wait(timeout=10)
                results[slot] = resolver.resolve([proxy])[0]
            except Exception as error:  # surface in the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=resolve, args=(slot,))
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        for result in results:
            assert result.to_nested_lists() == data
        # in-flight dedup: no chunk was read from the store twice
        assert all(
            count == 1 for count in store.read_counts.values()
        ), store.read_counts
        stats = store.buffer_pool.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["inflight"] == 0
        assert stats["pinned"] == 0

    def test_concurrent_sql_store_resolvers(self):
        store = SqlArrayStore(chunk_bytes=256,
                              buffer_pool=BufferPool())
        data = list(range(1024))
        proxy = store.put(NumericArray(data))
        errors = []

        def resolve():
            try:
                resolver = APRResolver(store, strategy=Strategy.PREFETCH)
                out = resolver.resolve([proxy])[0]
                assert out.to_nested_lists() == data
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors


class TestServerConcurrency:
    def test_four_clients_share_the_pool(self):
        store = SqlArrayStore(chunk_bytes=512,
                              default_strategy="prefetch",
                              buffer_pool=BufferPool())
        ssdm = SSDM(array_store=store, externalize_threshold=16)
        data = [float(v) for v in range(4096)]
        ssdm.add(URI("http://e/m"), URI("http://e/val"),
                 NumericArray(data))
        server = SSDMServer(ssdm).start()
        port = server.server_address[1]
        query = ("SELECT ?a WHERE { <http://e/m> <http://e/val> ?a }")
        errors = []

        def fetch():
            try:
                client = SSDMClient("127.0.0.1", port)
                try:
                    result = client.query(query)
                    assert result.rows[0][0].to_nested_lists() == data
                finally:
                    client.close()
            except Exception as error:
                errors.append(error)

        try:
            threads = [threading.Thread(target=fetch) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            stats = store.buffer_pool.stats()
            assert stats["hits"] + stats["misses"] == stats["lookups"]
            assert stats["inflight"] == 0
            # four identical queries, one working set: every chunk hit
            # the SQL back-end exactly once — the other three clients
            # were served by pool hits or by waiting on fetches already
            # in flight (perfectly overlapped requests are all "misses")
            chunk_count = store.meta(1).layout.chunk_count
            assert store.stats.snapshot()["chunks_fetched"] == chunk_count
            assert stats["hits"] + stats["inflight_waits"] >= (
                3 * chunk_count
            )
        finally:
            server.stop()

    def test_server_stats_and_explain_ops(self):
        store = SqlArrayStore(chunk_bytes=512,
                              default_strategy="prefetch",
                              buffer_pool=BufferPool())
        ssdm = SSDM(array_store=store, externalize_threshold=16)
        ssdm.add(URI("http://e/m"), URI("http://e/val"),
                 NumericArray([float(v) for v in range(256)]))
        server = SSDMServer(ssdm).start()
        try:
            client = SSDMClient(
                "127.0.0.1", server.server_address[1]
            )
            try:
                query = (
                    "SELECT ?a WHERE { <http://e/m> <http://e/val> ?a }"
                )
                client.query(query)
                stats = client.stats()
                assert stats["buffer_pool"]["lookups"] == (
                    stats["buffer_pool"]["hits"]
                    + stats["buffer_pool"]["misses"]
                )
                assert stats["storage"]["chunks_fetched"] > 0
                assert stats["last_resolve"]["strategy"] == "prefetch"
                explained = client.explain(query)
                assert "plan" in explained
                assert "buffer_pool" in explained["stats"]
            finally:
                client.close()
        finally:
            server.stop()


class TestResolveStats:
    def test_resolver_records_per_resolve_statistics(self):
        store = MemoryArrayStore(chunk_bytes=256,
                                 buffer_pool=BufferPool())
        proxy = store.put(NumericArray(list(range(512))))
        resolver = APRResolver(store, strategy=Strategy.PREFETCH)
        resolver.resolve([proxy])
        first = store.last_resolve_stats
        assert first["strategy"] == "prefetch"
        assert first["chunks_fetched"] > 0
        assert first["cache_hit_ratio"] == 0.0
        resolver.resolve([proxy])
        second = store.last_resolve_stats
        assert second["chunks_fetched"] == 0
        assert second["cache_hit_ratio"] == 1.0
        assert resolver.last_stats is second

    def test_ssdm_stats_exposes_pool_counters(self):
        store = MemoryArrayStore(chunk_bytes=256,
                                 buffer_pool=BufferPool())
        ssdm = SSDM(array_store=store, externalize_threshold=16)
        stats = ssdm.stats()
        assert stats["storage"]["requests"] == 0
        assert stats["buffer_pool"]["lookups"] == 0
        assert stats["last_resolve"] is None


class TestUpdateInvalidation:
    def test_delete_data_drops_pooled_chunks(self):
        store = MemoryArrayStore(chunk_bytes=256,
                                 buffer_pool=BufferPool())
        ssdm = SSDM(array_store=store, externalize_threshold=16)
        ssdm.add(URI("http://e/m"), URI("http://e/val"),
                 NumericArray(list(range(512))))
        result = ssdm.execute(
            "SELECT ?a WHERE { <http://e/m> <http://e/val> ?a }"
        )
        proxy = result.scalar()
        APRResolver(store, strategy=Strategy.PREFETCH).resolve([proxy])
        key = store.pool_key(proxy.array_id)
        assert store.buffer_pool._arrays.get(key)
        ssdm.execute(
            "DELETE WHERE { <http://e/m> <http://e/val> ?a }"
        )
        assert not store.buffer_pool._arrays.get(key)

    def test_clear_graph_drops_pooled_chunks(self):
        store = MemoryArrayStore(chunk_bytes=256,
                                 buffer_pool=BufferPool())
        ssdm = SSDM(array_store=store, externalize_threshold=16)
        ssdm.add(URI("http://e/m"), URI("http://e/val"),
                 NumericArray(list(range(512))))
        proxy = ssdm.execute(
            "SELECT ?a WHERE { <http://e/m> <http://e/val> ?a }"
        ).scalar()
        APRResolver(store, strategy=Strategy.PREFETCH).resolve([proxy])
        key = store.pool_key(proxy.array_id)
        assert store.buffer_pool._arrays.get(key)
        ssdm.execute("CLEAR ALL")
        assert not store.buffer_pool._arrays.get(key)

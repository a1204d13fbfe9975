"""Array-proxy-resolve (APR): turn lazy proxies into resident arrays.

The APR operator sits at the boundary between the query engine and an ASEI
back-end.  Given one or a *bag* of proxies (dissertation section 6.2.4:
resolving bags lets accesses to the same stored array share round trips),
it plans which chunks each view touches, fetches them under one of four
retrieval strategies, and assembles the requested elements:

- :attr:`Strategy.SINGLE` — one request per chunk; the naive baseline.
- :attr:`Strategy.BUFFER` — chunk ids are accumulated into a buffer of
  ``buffer_size`` ids and fetched with batched (IN-list) requests.
- :attr:`Strategy.SPD` — the Sequence Pattern Detector factors the id
  stream into arithmetic ranges served by range requests, with leftovers
  batched.
- :attr:`Strategy.PREFETCH` — SPD planning plus a parallel fetch
  pipeline: while the engine consumes the chunks of run *i*, a small
  thread pool is already fetching runs *i+1..i+k* (``prefetch_depth``),
  all through the shared :class:`~repro.storage.bufferpool.BufferPool`
  with in-flight request deduplication.  The detector's pending run is
  additionally extrapolated (``speculate`` chunks) so a subsequent
  resolve over a continuing access pattern finds its chunks resident.

The aggregate variant (AAPR, :meth:`APRResolver.resolve_aggregate`)
computes whole-array aggregates chunk-at-a-time — or delegates them to the
back-end entirely — so a terabyte-scale array never needs to be resident.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.arrays.chunks import (
    assemble_from_chunks,
    chunks_of_runs,
    linear_indices_of_runs,
)
from repro.arrays.nma import NumericArray
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import StorageError
from repro import context
from repro import governor as gov
from repro.lifecycle import check_deadline, current_deadline
from repro import observability as obs
from repro.storage.bufferpool import BufferPool, shared_pool
from repro.storage.spd import RANGE, SINGLE, SequencePatternDetector

#: A contiguous SPD range is split into pipeline units of at most this
#: many chunks, so even a whole-array scan (one giant range) overlaps
#: fetching with consumption instead of degenerating to one request.
PIPELINE_UNIT_CHUNKS = 32

#: How long a resolver waits on another thread's in-flight fetch before
#: giving up; owners always complete or fail their claims, so this only
#: guards against catastrophic owner death.
INFLIGHT_WAIT_SECONDS = 60.0

_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()


def _shared_executor():
    """Lazy process-wide pool of fetch workers for the prefetch pipeline."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="apr-prefetch"
            )
        return _executor


class Strategy(enum.Enum):
    """APR retrieval strategies compared in Experiment 1 (section 6.3.2).

    PREFETCH extends SPD with the parallel chunk-fetch pipeline.
    """

    SINGLE = "single"
    BUFFER = "buffer"
    SPD = "spd"
    PREFETCH = "prefetch"


class APRResolver:
    """Plans and executes chunk retrieval for array proxies."""

    def __init__(self, store, strategy=Strategy.SPD, buffer_size=256,
                 cache=None, min_run=3, prefetch_depth=4, pool=None,
                 executor=None, speculate=8):
        if isinstance(strategy, str):
            strategy = Strategy(strategy.lower())
        self.store = store
        self.strategy = strategy
        self.buffer_size = int(buffer_size)
        if self.buffer_size < 1:
            raise StorageError("buffer_size must be positive")
        self.cache = cache
        self.min_run = min_run
        #: How many fetch units may be in flight ahead of consumption.
        self.prefetch_depth = max(1, int(prefetch_depth))
        #: How many chunks beyond the demanded stream to speculatively
        #: prefetch by extrapolating the SPD's pending run (0 disables).
        self.speculate = max(0, int(speculate))
        self.pool = pool
        self.executor = executor
        #: Statistics of the most recent :meth:`resolve` call.
        self.last_stats = None

    # -- public API -------------------------------------------------------------

    def resolve(self, proxies):
        """Resolve a bag of proxies; returns resident NumericArrays.

        Proxies referring to the same stored array share fetches: their
        chunk needs are united before any request is issued.
        """
        started = obs._clock()
        result = self._resolve(proxies)
        obs.observe_span("apr_resolve", obs._clock() - started,
                         arrays=len(result))
        return result

    def _resolve(self, proxies):
        proxies = list(proxies)
        check_deadline()
        for proxy in proxies:
            if not isinstance(proxy, ArrayProxy):
                raise StorageError("cannot resolve %r" % (proxy,))
            if proxy.store is not self.store:
                raise StorageError(
                    "proxy belongs to a different store: %r" % (proxy,)
                )
        # Raw counter reads, not locked snapshots: the deltas are
        # approximate under concurrency either way, and resolve is hot.
        stats = self.store.stats
        store_before = (stats.requests, stats.chunks_fetched,
                        stats.bytes_fetched)
        # Only snapshot the pool when this resolve can touch it: the
        # pipelined strategy always does, the others only through an
        # attached BufferPool-backed cache.
        if self.strategy is Strategy.PREFETCH:
            pool = self._pool()
        elif isinstance(self.cache, BufferPool):
            pool = self.cache
        else:
            pool = None
        pool_before = pool.stats() if pool is not None else None
        plans = []
        needs: Dict[object, List[int]] = {}
        for proxy in proxies:
            layout = self.store.meta(proxy.array_id).layout
            runs = list(proxy.iter_runs())
            chunk_ids = chunks_of_runs(runs, layout.elements_per_chunk)
            plans.append((proxy, layout, runs, chunk_ids))
            bucket = needs.setdefault(proxy.array_id, [])
            bucket.extend(chunk_ids)
        fetched: Dict[object, Dict[int, np.ndarray]] = {}
        for array_id, chunk_ids in needs.items():
            fetched[array_id] = self._fetch(array_id, chunk_ids)
        scope = gov.current_scope()
        results = []
        for proxy, layout, runs, chunk_ids in plans:
            indices = linear_indices_of_runs(runs)
            flat = assemble_from_chunks(
                indices, fetched[proxy.array_id],
                layout.elements_per_chunk, proxy.dtype,
            )
            if scope is not None:
                scope.charge_bytes(int(flat.nbytes), "apr assembly")
            results.append(
                NumericArray(flat.reshape(proxy.shape)
                             if proxy.shape else flat.reshape(()))
            )
        self._record_stats(proxies, store_before, pool, pool_before)
        return results

    def resolve_aggregate(self, proxy, op):
        """AAPR: aggregate over a proxy without materializing the view.

        Whole-array views go to the back-end when it supports delegated
        aggregates; otherwise (and for partial views) chunks stream through
        a running reducer.
        """
        if op not in ("sum", "avg", "min", "max", "count"):
            raise StorageError("unknown aggregate %r" % (op,))
        if op == "count":
            return proxy.element_count
        if proxy.is_whole_array() and self.store.supports_aggregates:
            return self.store.aggregate(proxy.array_id, op)
        layout = self.store.meta(proxy.array_id).layout
        runs = list(proxy.iter_runs())
        total = 0.0
        count = 0
        low = None
        high = None
        epc = layout.elements_per_chunk
        # stream the needed chunks in batches bounded by the buffer size
        chunk_ids = chunks_of_runs(runs, epc)
        indices = linear_indices_of_runs(runs)
        order = np.argsort(indices // epc, kind="stable")
        sorted_indices = indices[order]
        position = 0
        deadline = current_deadline()
        for start in range(0, len(chunk_ids), self.buffer_size):
            if deadline is not None:
                deadline.check()
            batch = chunk_ids[start:start + self.buffer_size]
            chunks = self._fetch(proxy.array_id, batch)
            batch_set = set(batch)
            # consume every element index living in this batch of chunks
            while position < len(sorted_indices):
                index = sorted_indices[position]
                chunk_id = int(index // epc)
                if chunk_id not in batch_set:
                    break
                value = float(chunks[chunk_id][int(index - chunk_id * epc)])
                total += value
                count += 1
                low = value if low is None else min(low, value)
                high = value if high is None else max(high, value)
                position += 1
        if count == 0:
            raise StorageError("aggregate of an empty view")
        if op == "sum":
            return total
        if op == "avg":
            return total / count
        if op == "min":
            return low
        return high

    # -- fetch planning ------------------------------------------------------------

    def _fetch(self, array_id, chunk_ids):
        """Fetch chunk ids (first-touch order) under the configured
        strategy, going through the cache when one is attached."""
        unique = list(dict.fromkeys(chunk_ids))
        if self.strategy is Strategy.PREFETCH:
            return self._fetch_pipelined(array_id, unique)
        chunks: Dict[int, np.ndarray] = {}
        missing = []
        if self.cache is not None:
            for chunk_id in unique:
                hit = self.cache.get(array_id, chunk_id)
                if hit is None:
                    missing.append(chunk_id)
                else:
                    chunks[chunk_id] = hit
        else:
            missing = unique
        if missing:
            if self.strategy is Strategy.SINGLE:
                fetched = self._fetch_single(array_id, missing)
            elif self.strategy is Strategy.BUFFER:
                fetched = self._fetch_buffered(array_id, missing)
            else:
                fetched = self._fetch_spd(array_id, missing)
            if self.cache is not None:
                for chunk_id, data in fetched.items():
                    self.cache.put(array_id, chunk_id, data)
            chunks.update(fetched)
        return chunks

    def _fetch_single(self, array_id, chunk_ids):
        return {
            chunk_id: self.store.get_chunk(array_id, chunk_id)
            for chunk_id in chunk_ids
        }

    def _fetch_buffered(self, array_id, chunk_ids):
        result = {}
        for start in range(0, len(chunk_ids), self.buffer_size):
            batch = chunk_ids[start:start + self.buffer_size]
            result.update(self.store.get_chunks(array_id, batch))
        return result

    def _fetch_spd(self, array_id, chunk_ids):
        detector = SequencePatternDetector(min_run=self.min_run)
        emissions = []
        for chunk_id in chunk_ids:
            emissions.extend(detector.feed(chunk_id))
        emissions.extend(detector.flush())
        ranges = [(e[1], e[2], e[3]) for e in emissions if e[0] == RANGE]
        singles = [e[1] for e in emissions if e[0] == SINGLE]
        result = {}
        if ranges:
            result.update(self.store.get_chunk_ranges(array_id, ranges))
        if singles:
            result.update(self._fetch_buffered(array_id, singles))
        return result

    # -- the prefetch pipeline -----------------------------------------------------

    def _pool(self):
        """The buffer pool this resolver fetches through."""
        if self.pool is not None:
            return self.pool
        if isinstance(self.cache, BufferPool):
            return self.cache
        store_pool = getattr(self.store, "buffer_pool", None)
        if store_pool is not None:
            return store_pool
        return shared_pool()

    def _pool_key(self, array_id):
        pool_key = getattr(self.store, "pool_key", None)
        return pool_key(array_id) if pool_key is not None else array_id

    def _plan_units(self, chunk_ids):
        """Factor owned ids into pipeline fetch units via the SPD.

        Returns (units, predicted): each unit is ``(range_or_None, ids)``
        — ranges are split into sub-ranges of at most
        :data:`PIPELINE_UNIT_CHUNKS` chunks so large scans still overlap;
        leftover singles are batched by ``buffer_size``.  ``predicted``
        extrapolates the detector's pending run for speculation.
        """
        detector = SequencePatternDetector(min_run=self.min_run)
        emissions = []
        for chunk_id in chunk_ids:
            emissions.extend(detector.feed(chunk_id))
        predicted = detector.predict(self.speculate)
        emissions.extend(detector.flush())
        units = []
        singles = []
        for emission in emissions:
            if emission[0] == RANGE:
                first, last, step = emission[1], emission[2], emission[3]
                ids = list(range(first, last + 1, step))
                for start in range(0, len(ids), PIPELINE_UNIT_CHUNKS):
                    part = ids[start:start + PIPELINE_UNIT_CHUNKS]
                    units.append(((part[0], part[-1], step), part))
            else:
                singles.append(emission[1])
        for start in range(0, len(singles), self.buffer_size):
            batch = singles[start:start + self.buffer_size]
            units.append((None, batch))
        return units, predicted

    def _submit_unit(self, executor, array_id, unit):
        id_range, ids = unit
        if id_range is not None:
            return self.store.get_chunk_ranges_async(
                array_id, [id_range], executor=executor
            )
        return self.store.get_chunks_async(array_id, ids, executor=executor)

    def _fetch_pipelined(self, array_id, unique):
        """PREFETCH: SPD-planned units fetched through a sliding window
        of ``prefetch_depth`` in-flight requests, deduplicated and cached
        in the shared buffer pool.

        Claims partition the demanded ids into resident (pool hits), owned
        (this resolver fetches and publishes them) and waiting (another
        thread is fetching them right now).  All owned units are published
        before waiting on foreign fetches, so concurrent resolvers with
        crossing needs cannot deadlock.
        """
        pool = self._pool()
        key = self._pool_key(array_id)
        deadline = current_deadline()
        cached, owned, waiting = pool.claim(key, unique)
        chunks: Dict[int, np.ndarray] = dict(cached)
        if not owned and not waiting:
            # Warm pool: everything resident, nothing to pipeline.  The
            # returned dict already references the buffers, so no pin is
            # needed to protect them from eviction.
            return chunks
        executor = self.executor if self.executor is not None \
            else _shared_executor()
        # pin the whole working set so early chunks survive until assembly
        pool.pin(key, unique)
        published = set()
        try:
            units, predicted = self._plan_units(owned)
            window = deque()
            for unit in units:
                if deadline is not None:
                    deadline.check()
                while len(window) >= self.prefetch_depth:
                    self._complete_unit(
                        window.popleft(), pool, key, chunks, published
                    )
                window.append((unit, self._submit_unit(
                    executor, array_id, unit
                )))
            while window:
                self._complete_unit(
                    window.popleft(), pool, key, chunks, published
                )
            if predicted and self.speculate:
                self._speculate(
                    pool, key, executor, array_id, predicted, set(unique)
                )
            for chunk_id, fetch in waiting.items():
                timeout = INFLIGHT_WAIT_SECONDS
                if deadline is not None:
                    deadline.check()
                    left = deadline.remaining()
                    if left is not None:
                        # wake shortly after our own deadline: the owner
                        # may be budget-free, but we are not
                        timeout = min(timeout, left + 0.05)
                try:
                    chunks[chunk_id] = pool.wait(fetch, timeout=timeout)
                except TimeoutError:
                    if deadline is not None:
                        deadline.check()   # ours expired -> TIMEOUT
                    raise                  # owner really is stuck
        finally:
            unpublished = [cid for cid in owned if cid not in published]
            if unpublished:
                pool.fail(
                    key, unpublished,
                    StorageError(
                        "chunk fetch aborted for array %r" % (array_id,)
                    ),
                )
            pool.unpin(key, unique)
        return chunks

    def _complete_unit(self, entry, pool, key, chunks, published):
        unit, future = entry
        try:
            fetched = future.result()
        except Exception as error:
            # propagate the real failure to any waiters on these ids
            pool.fail(key, unit[1], error)
            published.update(unit[1])
            raise
        pool.publish(key, fetched)
        chunks.update(fetched)
        published.update(fetched)
        # charge the fetched (and now pinned) bytes on the query thread;
        # a blown budget unwinds through _fetch_pipelined's finally,
        # failing unpublished claims and releasing every pin
        scope = gov.current_scope()
        if scope is not None:
            scope.charge_bytes(
                sum(int(chunk.nbytes) for chunk in fetched.values()),
                "apr pinned fetch",
            )

    def _speculate(self, pool, key, executor, array_id, predicted, demanded):
        """Fire-and-forget fetch of SPD-extrapolated chunks.

        Claimed with ``record=False`` (not demand lookups) and published
        with ``prefetched=True`` so the pool can account prefetch-hits
        and wasted prefetches.  Never waited on.
        """
        if not gov.get_governor().speculation_allowed():
            # degrade before killing: under memory pressure the system
            # stops spending pool space on speculative reads first
            return
        chunk_count = self.store.meta(array_id).layout.chunk_count
        wanted = [
            cid for cid in predicted
            if 0 <= cid < chunk_count and cid not in demanded
        ]
        if not wanted:
            return
        _, owned, _ = pool.claim(key, wanted, record=False)
        if not owned:
            return
        # Speculation outlives the demanding request, so it runs with
        # no request context at all: not its deadline (a speculative
        # fetch failing with one request's TIMEOUT would poison waiters
        # from other requests), not its trace (spans landing after the
        # trace is sealed), not its budget or snapshot.
        future = context.adopt(
            None, self.store.get_chunks_async, array_id, owned, executor
        )

        def _deliver(done):
            try:
                pool.publish(key, done.result(), prefetched=True)
            except Exception as error:
                pool.fail(key, owned, error)

        future.add_done_callback(_deliver)

    # -- per-resolve statistics ------------------------------------------------------

    def _record_stats(self, proxies, store_before, pool, pool_before):
        """Publish the deltas this resolve produced (approximate when
        other threads fetch concurrently)."""
        store_stats = self.store.stats
        requests_before, chunks_before, bytes_before = store_before
        stats = {
            "strategy": self.strategy.value,
            "proxies": len(proxies),
            "requests": store_stats.requests - requests_before,
            "chunks_fetched": store_stats.chunks_fetched - chunks_before,
            "bytes_fetched": store_stats.bytes_fetched - bytes_before,
        }
        if pool is not None and pool_before is not None:
            pool_after = pool.stats()
            for name in ("hits", "misses", "prefetch_hits",
                         "inflight_waits"):
                stats["pool_" + name] = pool_after[name] - pool_before[name]
            lookups = stats["pool_hits"] + stats["pool_misses"]
            stats["cache_hit_ratio"] = (
                stats["pool_hits"] / lookups if lookups else 0.0
            )
        else:
            stats["cache_hit_ratio"] = 0.0
        self.last_stats = stats
        self.store.last_resolve_stats = stats

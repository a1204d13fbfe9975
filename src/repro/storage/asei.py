"""The Array Storage Extensibility Interface (ASEI).

A back-end stores linearized array buffers as sequences of equal-size
chunks and answers three kinds of retrieval requests, in increasing order
of sophistication (dissertation section 6.1):

1. ``get_chunk``  — fetch one chunk (always required);
2. ``get_chunks`` — fetch a batch of chunk ids in one round trip
   (IN-list style; default implementation loops over ``get_chunk``);
3. ``get_chunk_ranges`` — fetch arithmetic ranges of chunk ids in one
   round trip (range-scan style; default expands to a batch).

Each back-end maintains a :class:`StorageStats` counter block so the
benchmarks can report *round trips* and *chunks transferred* — the
quantities the paper's experiments compare across strategies.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from concurrent.futures import Future
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.chunks import ChunkLayout, DEFAULT_CHUNK_BYTES
from repro.arrays.nma import ELEMENT_TYPES, NumericArray, dtype_code
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import CorruptionError, StorageError
from repro import context
from repro.lifecycle import check_deadline
from repro import observability as obs
from repro.storage.bufferpool import shared_pool

#: Per-instance namespace tokens so many stores can share one buffer
#: pool without their (integer) array ids colliding.
_POOL_TOKENS = itertools.count(1)


class StorageStats:
    """Counters of back-end traffic, reset between measurements.

    Updates go through :meth:`count` under a lock so concurrent
    prefetch workers do not lose increments.
    """

    __slots__ = ("requests", "chunks_fetched", "bytes_fetched",
                 "arrays_stored", "aggregates_delegated",
                 "corrupt_chunks", "chunks_quarantined", "_lock")

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = 0
        self.chunks_fetched = 0
        self.bytes_fetched = 0
        self.arrays_stored = 0
        self.aggregates_delegated = 0
        self.corrupt_chunks = 0
        self.chunks_quarantined = 0

    def count(self, **deltas):
        """Atomically add the given deltas to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def count_fetch(self, chunks, nbytes):
        """Record one fetch round trip; hot path, so no kwargs."""
        with self._lock:
            self.requests += 1
            self.chunks_fetched += chunks
            self.bytes_fetched += nbytes

    def snapshot(self):
        with self._lock:
            return {
                "requests": self.requests,
                "chunks_fetched": self.chunks_fetched,
                "bytes_fetched": self.bytes_fetched,
                "arrays_stored": self.arrays_stored,
                "aggregates_delegated": self.aggregates_delegated,
                "corrupt_chunks": self.corrupt_chunks,
                "chunks_quarantined": self.chunks_quarantined,
            }

    def __repr__(self):
        return "StorageStats(%r)" % (self.snapshot(),)


class ArrayMeta:
    """Descriptor of one stored array: shape, element type, layout."""

    __slots__ = ("array_id", "element_type", "shape", "layout")

    def __init__(self, array_id, element_type, shape, layout):
        self.array_id = array_id
        self.element_type = element_type
        self.shape = tuple(shape)
        self.layout = layout


class ArrayStore:
    """Abstract ASEI back-end.

    Concrete back-ends implement ``_write_chunk`` / ``_read_chunk`` and may
    override the batched and ranged readers when the underlying system can
    answer them in one round trip.  The public API works in terms of
    :class:`ArrayProxy` values and numpy chunk buffers.
    """

    #: Capability flags a back-end may override.
    supports_batch = False
    supports_ranges = False
    supports_aggregates = False
    #: Whether concurrent threads may call the retrieval methods.  A
    #: back-end declaring True enables the APR prefetch pipeline to
    #: overlap its fetches; False degrades async requests to synchronous
    #: ones (correct, just unoverlapped).
    thread_safe = False

    def __init__(self, chunk_bytes=DEFAULT_CHUNK_BYTES, buffer_pool=None,
                 default_strategy=None, faults=None,
                 verify_checksums=True):
        self.chunk_bytes = int(chunk_bytes)
        self.stats = StorageStats()
        #: Optional :class:`~repro.storage.faults.FaultPlan` injecting
        #: deterministic latency/errors into this store's operations.
        self.faults = faults
        self._meta: Dict[object, ArrayMeta] = {}
        self._next_id = 1
        self._default_resolver = None
        #: The chunk buffer pool this store participates in — the
        #: process-wide pool unless a private one is injected.
        self.buffer_pool = buffer_pool if buffer_pool is not None \
            else shared_pool()
        self._pool_token = next(_POOL_TOKENS)
        #: Default APR strategy for ``resolve()`` / proxy resolution
        #: (None -> the APR default).
        self.default_strategy = default_strategy
        #: Statistics of the most recent APR resolve against this store
        #: (set by the resolver; approximate under concurrency).
        self.last_resolve_stats = None
        #: Whether read paths verify per-chunk checksums when the
        #: back-end persists them (raising
        #: :class:`~repro.exceptions.CorruptionError` on mismatch).
        self.verify_checksums = bool(verify_checksums)
        #: Report of the most recent :meth:`verify` / :meth:`repair`
        #: scan, surfaced through ``SSDM.stats()``.
        self.last_verify = None

    # -- registration ---------------------------------------------------------

    def put(self, array, chunk_bytes=None):
        """Store a resident array; returns a whole-array proxy.

        ``array`` may be a NumericArray, numpy array, or nested lists.
        """
        if not isinstance(array, NumericArray):
            array = NumericArray(array)
        flat = np.ascontiguousarray(array.to_numpy()).reshape(-1)
        element_type = dtype_code(flat.dtype)
        chunk_bytes = chunk_bytes or self.chunk_bytes
        layout = ChunkLayout(flat.shape[0], flat.dtype.itemsize, chunk_bytes)
        array_id = self._allocate_id()
        meta = ArrayMeta(array_id, element_type, array.shape, layout)
        self._meta[array_id] = meta
        try:
            # all-or-nothing: the transaction hook lets transactional
            # back-ends make the chunk writes + metadata one atomic
            # unit, and _flush_chunks lets file back-ends order
            # data -> checksums -> metadata so a half-written array is
            # never registered (torn chunks stay unreachable orphans)
            with self._put_transaction(meta):
                for chunk_id, start, count in layout.chunk_slices():
                    if self.faults is not None:
                        self.faults.on_write()
                    self._write_chunk(
                        array_id, chunk_id, flat[start:start + count]
                    )
                self._flush_chunks(meta)
                self._register_meta(meta)
        except BaseException:
            self._meta.pop(array_id, None)
            raise
        self.stats.count(arrays_stored=1)
        # drop any stale pool entries under this id (defensive: ids may
        # be recycled by a reopened persistent store)
        self.invalidate_cached(array_id)
        return ArrayProxy(self, array_id, element_type, array.shape)

    def proxy(self, array_id):
        """A whole-array proxy for an already-stored array."""
        meta = self.meta(array_id)
        return ArrayProxy(self, array_id, meta.element_type, meta.shape)

    def meta(self, array_id):
        meta = self._meta.get(array_id)
        if meta is None:
            meta = self._load_meta(array_id)
            if meta is None:
                raise StorageError("unknown array id %r" % (array_id,))
            self._meta[array_id] = meta
        return meta

    def array_ids(self):
        return list(self._meta.keys())

    def _allocate_id(self):
        array_id = self._next_id
        self._next_id += 1
        return array_id

    # -- buffer-pool participation ------------------------------------------------

    def pool_key(self, array_id):
        """This array's namespace in the shared buffer pool."""
        return (self._pool_token, array_id)

    def invalidate_cached(self, array_id=None):
        """Drop pooled chunks of one array (or all of this store's).

        Called on writes and by SPARQL Update execution when an array
        value is deleted or replaced, so the pool never serves stale
        chunks for a recycled array id.
        """
        if self.buffer_pool is None:
            return
        if array_id is not None:
            self.buffer_pool.invalidate(self.pool_key(array_id))
            return
        for known_id in list(self._meta):
            self.buffer_pool.invalidate(self.pool_key(known_id))

    # -- retrieval (back-end contract) -----------------------------------------

    def get_chunk(self, array_id, chunk_id):
        """One chunk as a 1-D numpy array; one round trip."""
        check_deadline()
        meta = self.meta(array_id)
        started = obs._clock()
        if self.faults is not None:
            self.faults.on_read()
        data = self._count_corrupt(
            self._read_chunk, array_id, chunk_id
        )
        elapsed = obs._clock() - started
        obs.observe_span("chunk_fetch", elapsed,
                         chunks=1, bytes=data.nbytes)
        self.stats.count_fetch(1, data.nbytes)
        _observe_fetch(1, data.nbytes, elapsed)
        return data

    def get_chunks(self, array_id, chunk_ids):
        """A batch of chunks in one round trip (when supported).

        Returns {chunk_id: 1-D numpy array}.  The default implementation
        degrades to per-chunk requests, modelling a back-end without
        IN-list support.
        """
        if not self.supports_batch:
            return {cid: self.get_chunk(array_id, cid) for cid in chunk_ids}
        check_deadline()
        chunk_ids = list(chunk_ids)
        started = obs._clock()
        if self.faults is not None:
            self.faults.on_read(len(chunk_ids))
        result = self._count_corrupt(
            self._read_chunks, array_id, chunk_ids
        )
        nbytes = sum(a.nbytes for a in result.values())
        elapsed = obs._clock() - started
        obs.observe_span("chunk_fetch", elapsed,
                         chunks=len(result), bytes=nbytes)
        self.stats.count_fetch(len(result), nbytes)
        _observe_fetch(len(result), nbytes, elapsed)
        return result

    def get_chunk_ranges(self, array_id, ranges):
        """Chunks for arithmetic (first, last, step) id ranges, inclusive.

        One round trip per call when the back-end supports range scans;
        otherwise the ranges are expanded into a batch request.
        """
        if not self.supports_ranges:
            chunk_ids = []
            for first, last, step in ranges:
                chunk_ids.extend(range(first, last + 1, step))
            return self.get_chunks(array_id, chunk_ids)
        check_deadline()
        ranges = list(ranges)
        started = obs._clock()
        if self.faults is not None:
            self.faults.on_read(sum(
                (last - first) // step + 1
                for first, last, step in ranges
            ))
        result = self._count_corrupt(
            self._read_chunk_ranges, array_id, ranges
        )
        nbytes = sum(a.nbytes for a in result.values())
        elapsed = obs._clock() - started
        obs.observe_span("chunk_fetch", elapsed,
                         chunks=len(result), bytes=nbytes)
        self.stats.count_fetch(len(result), nbytes)
        _observe_fetch(len(result), nbytes, elapsed)
        return result

    # -- asynchronous retrieval (prefetch pipeline) ---------------------------------

    def get_chunks_async(self, array_id, chunk_ids, executor=None):
        """Schedule a batched fetch; returns a Future of {id: chunk}.

        On a ``thread_safe`` back-end the request runs on ``executor``
        so callers can overlap fetches; otherwise it completes
        synchronously (same result, no overlap).  The worker adopts
        the submitting thread's request context: its ``chunk_fetch``
        spans accumulate under the operator that demanded the chunks
        (wall times sum *across* workers, so an aggregate span's
        elapsed may exceed the query's wall clock), and a timed-out
        request's outstanding fetches abort instead of occupying pool
        workers.
        """
        chunk_ids = list(chunk_ids)
        if executor is not None and self.thread_safe:
            return executor.submit(
                context.adopt, context.fork(),
                self.get_chunks, array_id, chunk_ids,
            )
        return _completed(self.get_chunks, array_id, chunk_ids)

    def get_chunk_ranges_async(self, array_id, ranges, executor=None):
        """Schedule a range fetch; returns a Future of {id: chunk}."""
        ranges = [tuple(r) for r in ranges]
        if executor is not None and self.thread_safe:
            return executor.submit(
                context.adopt, context.fork(),
                self.get_chunk_ranges, array_id, ranges,
            )
        return _completed(self.get_chunk_ranges, array_id, ranges)

    def aggregate(self, array_id, op):
        """Whole-array aggregate computed back-end-side (AAPR delegation).

        ``op`` is one of 'sum', 'avg', 'min', 'max'.  Back-ends with
        ``supports_aggregates`` evaluate without shipping chunks to the
        client; the base implementation raises.
        """
        raise StorageError(
            "back-end %s cannot delegate aggregates"
            % type(self).__name__
        )

    def _count_corrupt(self, read, *args):
        """Run one read, counting checksum failures in the stats."""
        try:
            return read(*args)
        except CorruptionError:
            self.stats.count(corrupt_chunks=1)
            raise

    # -- integrity scanning (durability layer) ---------------------------------

    def verify(self, array_id=None, repair=False):
        """Scan stored chunks against their checksums; returns a report.

        Every chunk of every known array (or of one ``array_id``) is
        read through the back-end's verifying read path.  The report
        maps the outcome::

            {"arrays_checked": n, "chunks_checked": n, "ok": n,
             "corrupt": [[array_id, chunk_id], ...],
             "missing": [[array_id, chunk_id-or-None], ...],
             "quarantined": [[array_id, chunk_id], ...]}

        With ``repair=True`` corrupt/missing chunks are quarantined via
        the back-end's :meth:`_quarantine_chunk` (moved out of the way
        so later reads fail fast with a *missing* error instead of
        re-reading bad bytes), and their buffer-pool entries dropped.
        The report is kept as :attr:`last_verify` and the corruption
        counters land in :attr:`stats`.
        """
        ids = [array_id] if array_id is not None else self._all_array_ids()
        report = {
            "arrays_checked": 0, "chunks_checked": 0, "ok": 0,
            "corrupt": [], "missing": [], "quarantined": [],
        }
        for aid in ids:
            try:
                meta = self.meta(aid)
            except StorageError:
                report["missing"].append([aid, None])
                continue
            report["arrays_checked"] += 1
            for chunk_id in range(meta.layout.chunk_count):
                report["chunks_checked"] += 1
                try:
                    # the raw read path: verifies checksums but skips
                    # deadline polling and traffic accounting (this is
                    # an administrative scan, not query traffic)
                    self._read_chunk(aid, chunk_id)
                except CorruptionError:
                    report["corrupt"].append([aid, chunk_id])
                except StorageError:
                    report["missing"].append([aid, chunk_id])
                else:
                    report["ok"] += 1
        if repair:
            damaged = report["corrupt"] + [
                entry for entry in report["missing"]
                if entry[1] is not None
            ]
            for aid, chunk_id in damaged:
                if self._quarantine_chunk(aid, chunk_id):
                    report["quarantined"].append([aid, chunk_id])
                    self.invalidate_cached(aid)
        self.stats.count(
            corrupt_chunks=len(report["corrupt"]),
            chunks_quarantined=len(report["quarantined"]),
        )
        self.last_verify = report
        return report

    def repair(self, array_id=None):
        """Scan and quarantine bad chunks; returns the verify report."""
        return self.verify(array_id=array_id, repair=True)

    def _all_array_ids(self):
        """Every array id this store knows of (back-ends with persistent
        metadata override to include arrays not yet loaded)."""
        return list(self._meta)

    def _quarantine_chunk(self, array_id, chunk_id):
        """Move one bad chunk out of the read path; returns True when
        something was quarantined.  Default: back-end cannot."""
        return False

    def _put_transaction(self, meta):
        """Context manager making one ``put`` atomic (default no-op)."""
        return contextlib.nullcontext()

    def _flush_chunks(self, meta):
        """Hook after a put's chunk writes, before metadata registration
        (file back-ends fsync data and persist checksums here)."""

    def _fault_read_bytes(self, raw):
        """Apply at-rest read corruption from the fault plan (bit
        flips), *before* checksum verification."""
        if self.faults is not None:
            return self.faults.mangle_read(raw)
        return raw

    def _fault_write_bytes(self, payload):
        """Apply torn-write injection; returns (bytes, crash_after)."""
        if self.faults is not None:
            return self.faults.mangle_write(payload)
        return payload, False

    # -- resolution -----------------------------------------------------------

    def resolve(self, proxies, strategy=None, buffer_size=None):
        """Resolve proxies to resident arrays with the default APR setup."""
        from repro.storage.apr import APRResolver

        if strategy is None and buffer_size is None:
            if self._default_resolver is None:
                kwargs = {}
                if self.default_strategy is not None:
                    kwargs["strategy"] = self.default_strategy
                self._default_resolver = APRResolver(self, **kwargs)
            resolver = self._default_resolver
        else:
            kwargs = {}
            if strategy is not None:
                kwargs["strategy"] = strategy
            if buffer_size is not None:
                kwargs["buffer_size"] = buffer_size
            resolver = APRResolver(self, **kwargs)
        return resolver.resolve(proxies)

    # -- subclass responsibilities ----------------------------------------------

    def _write_chunk(self, array_id, chunk_id, data):
        raise NotImplementedError

    def _read_chunk(self, array_id, chunk_id):
        raise NotImplementedError

    def _read_chunks(self, array_id, chunk_ids):
        raise NotImplementedError

    def _read_chunk_ranges(self, array_id, ranges):
        raise NotImplementedError

    def _register_meta(self, meta):
        """Hook for back-ends persisting array metadata."""

    def _load_meta(self, array_id):
        """Hook for back-ends that can recover metadata from persistence."""
        return None


def _completed(fn, *args):
    """A Future resolved synchronously with fn(*args) (or its error)."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as error:  # propagate through the future contract
        future.set_exception(error)
    return future


def _observe_fetch(chunks, nbytes, seconds):
    """Feed one fetch round trip into the process-wide metrics."""
    registry = obs.metrics()
    registry.inc("storage_fetch_requests_total")
    registry.inc("storage_chunks_fetched_total", chunks)
    registry.inc("storage_bytes_fetched_total", nbytes)
    registry.observe("storage_fetch_seconds", seconds)

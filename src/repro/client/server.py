"""A minimal SSDM query server and client.

SSDM can run stand-alone, client-server, or peer-to-peer (section 5.1);
this module provides the client-server mode over a line-delimited JSON
protocol on TCP:

    request:  {"op": "query",  "text": "<SciSPARQL>", "timeout_ms": 500,
               "min_seq": 12, "at_seq": 12}
    request:  {"op": "update", "text": "<SciSPARQL update>", "epoch": 2}
    request:  {"op": "stats"} / {"op": "health"} / {"op": "promote"}
    request:  {"op": "metrics"} / {"op": "slowlog", "threshold_ms": 50}
    request:  {"op": "explain", "text": "<SciSPARQL>"}
    request:  {"op": "verify", "repair": false}
    request:  {"op": "wal_since", "since": 12, "epoch": 2,
               "max_records": 512, "wait_ms": 100}
    response: {"ok": true, "columns": [...], "rows": [[...], ...]}
              {"ok": true, "result": <bool-or-int>, "seq": 13, "epoch": 2}
              {"ok": true, "stats": {...}} / {"ok": true, "plan": "..."}
              {"ok": true, "records": [[13, "<payload>"], ...],
               "last_seq": 13, "epoch": 2, "restart": false}
              {"ok": false, "code": "TIMEOUT", "error": "...",
               "retryable": false}

Queries run concurrently (sharing the process-wide chunk buffer pool, so
parallel requests deduplicate their fetches) and are **never blocked by
writers**: every admitted read pins an immutable MVCC snapshot of the
dataset at its admission sequence (see :mod:`repro.mvcc`), so a long
analytical scan and a write burst proceed independently.  Updates
serialize against each other on a single-writer mutex ordered by WAL
append; there is no read lock anywhere on the read path.  A query may
carry ``at_seq`` to read the *exact* published version at a WAL
sequence: a seq ahead of the node answers ``LAGGING`` (retryable), a
seq that fell out of the bounded retention window answers
``SNAPSHOT_GONE`` (non-retryable — re-issue without ``at_seq``).

Request lifecycle (see ``docs/LANGUAGE.md``): each request is minted a
:class:`~repro.lifecycle.Deadline` from its ``timeout_ms`` field (falling
back to the server's ``default_timeout_ms``); engine and storage loops
poll it cooperatively, and expiry surfaces as an ``{"ok": false, "code":
"TIMEOUT"}`` response with the handler thread, read lock, and buffer-pool
pins all released.  Admission is a bounded two-lane queue
(``priority: "interactive" | "batch"``) over ``max_concurrent``
execution slots: batch waits behind interactive and is shed first, and
requests beyond the queue (or waiting past ``queue_wait_ms`` / their
deadline) are shed with code ``OVERLOAD`` plus a ``retry_after_ms``
pacing hint, which the client's capped, jittered retry backoff honors.
Admitted requests run inside a resource-governor budget scope; a query
that blows its row/byte budget dies with the non-retryable ``RESOURCE``
code (see :mod:`repro.governor`).

Array values cross the wire as ``{"@array": <nested lists>}``; proxies are
resolved server-side before serialization, so the client never needs
back-end access (the transfer-size economics chapter 7 measures).

Replication (see :mod:`repro.replication`): a server runs in the
``primary`` or ``replica`` role.  Replicas reject writes with
``READONLY``; primaries stream their WAL through ``wal_since`` (a
long-poll bounded by the request deadline) to follower
``ReplicationClient`` tails.  Every replicated exchange carries a
fencing *epoch*: the ``promote`` admin op bumps it, and a server that
sees a newer epoch on any request steps down to a replica and answers
``FENCED`` — a deposed primary can neither accept stale writes nor ship
a divergent stream.  A query may carry ``min_seq`` as a read barrier:
a node whose applied WAL sequence is behind answers ``LAGGING``.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Optional

from repro.algebra.cost import estimate_plan_cost
from repro.arrays.nma import NumericArray
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import (
    ConnectionClosedError,
    FencedError,
    ReadOnlyError,
    ReplicaLaggingError,
    RequestTimeoutError,
    SciSparqlError,
    ServerOverloadedError,
    StorageError,
    error_code,
    error_from_code,
)
from repro.governor import (
    BATCH, INTERACTIVE, AdmissionQueue, get_governor,
)
from repro.lifecycle import Deadline
from repro.mvcc import snapshot_scope
from repro import observability as obs
from repro.rdf.term import BlankNode, Literal, URI
from repro.replication import PRIMARY, REPLICA, ReplicationState
from repro.ssdm import SSDM, QueryResult


def serialize_value(value):
    """JSON-encode one result value."""
    if value is None:
        return None
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, URI):
        return {"@uri": value.value}
    if isinstance(value, BlankNode):
        return {"@bnode": value.label}
    if isinstance(value, Literal):
        return {"@literal": value.lexical_form(),
                "datatype": value.datatype.value,
                "lang": value.lang}
    if isinstance(value, ArrayProxy):
        value = value.resolve()
        if not isinstance(value, NumericArray):
            return value
    if isinstance(value, NumericArray):
        return {"@array": value.to_nested_lists()}
    return {"@repr": repr(value)}


def deserialize_value(payload):
    if isinstance(payload, dict):
        if "@uri" in payload:
            return URI(payload["@uri"])
        if "@bnode" in payload:
            return BlankNode(payload["@bnode"])
        if "@literal" in payload:
            lang = payload.get("lang")
            if lang:
                # language-tagged string: reconstruct the tag (the
                # datatype is implied to be rdf:langString)
                return Literal(payload["@literal"], lang=lang)
            return Literal.from_lexical(
                payload["@literal"], URI(payload["datatype"])
            )
        if "@array" in payload:
            return NumericArray(payload["@array"])
        return payload
    return payload


class _WriteMutex:
    """Single-writer mutex ordering mutations by WAL append.

    MVCC snapshot reads (:mod:`repro.mvcc`) removed readers from the
    locking picture: an admitted query pins the immutable published
    dataset version and never touches this mutex, so reads cannot delay
    writes and writes cannot delay reads.  What remains is mutual
    exclusion between *mutators* — client updates, streamed replication
    records, and verify ``repair`` — each of which appends to the WAL
    and publishes a new version before releasing.  ``writing`` bounds
    the wait by the request deadline and surfaces expiry as a typed
    ``TIMEOUT``.
    """

    def __init__(self):
        self._lock = threading.Lock()

    def locked(self):
        return self._lock.locked()

    @contextmanager
    def writing(self, deadline=None):
        budget = _lock_budget(deadline)
        if budget is None:
            acquired = self._lock.acquire()
        else:
            acquired = self._lock.acquire(timeout=max(0.0, budget))
        if not acquired:
            raise RequestTimeoutError(
                "timed out waiting for the server's write mutex"
            )
        try:
            yield
        finally:
            self._lock.release()


def _lock_budget(deadline):
    """Seconds a lock acquisition may wait under ``deadline``."""
    if deadline is None:
        return None
    return deadline.remaining()


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
                response = self.server.ssdm_dispatch(request)
            except SciSparqlError as error:
                response = _error_response(error)
            except Exception as error:
                response = {
                    "ok": False, "code": "INTERNAL", "error": str(error),
                    "retryable": False,
                }
            try:
                payload = json.dumps(response)
            except (TypeError, ValueError) as error:
                # a non-JSON-serializable value reached the response
                # (e.g. inside an {"@repr": ...} payload): never kill
                # the connection without an answer
                payload = json.dumps({
                    "ok": False, "code": "INTERNAL",
                    "error": "response not serializable: %s" % (error,),
                    "retryable": False,
                })
            try:
                self.wfile.write((payload + "\n").encode("utf-8"))
                self.wfile.flush()
            except OSError:
                return           # client went away mid-response


def _error_response(error):
    response = {
        "ok": False,
        "code": error_code(error),
        "error": str(error),
        "retryable": bool(getattr(error, "retryable", False)),
    }
    retry_after_ms = getattr(error, "retry_after_ms", None)
    if retry_after_ms is not None:
        response["retry_after_ms"] = int(retry_after_ms)
    return response


class SSDMServer(socketserver.ThreadingTCPServer):
    """Serves one SSDM instance on a TCP port.

    ``default_timeout_ms`` bounds every request that does not carry its
    own ``timeout_ms`` field (None = unbounded).  ``max_concurrent``
    caps simultaneously *executing* query/update/explain requests; up
    to ``max_queue`` further requests wait (bounded by ``queue_wait_ms``
    and their own deadline) in a two-lane admission queue — interactive
    before batch, batch shed first when the queue fills — and every
    shed is a typed ``OVERLOAD`` carrying a ``retry_after_ms`` pacing
    hint.  ``max_queue=0`` restores the old immediate binary shed.
    Queries may carry ``priority: "batch"``; interactive queries whose
    estimated plan cost (:func:`~repro.algebra.cost.estimate_plan_cost`)
    reaches ``batch_cost_threshold`` are demoted to the batch lane, so
    analytical scans cannot crowd point lookups out of the queue.
    Admitted requests execute inside a ``governor`` budget scope (the
    process-wide one by default): blowing the per-query row/byte budget
    aborts with the non-retryable ``RESOURCE`` code.  ``stats`` /
    ``health`` / ``metrics`` requests always pass, so monitoring works
    under load.

    >>> server = SSDMServer(SSDM(), port=0)   # 0 = ephemeral port
    >>> port = server.server_address[1]
    >>> server.start()            # background thread
    >>> # ... SSDMClient("127.0.0.1", port) ...
    >>> server.shutdown()
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, ssdm, host="127.0.0.1", port=0,
                 default_timeout_ms=None, max_concurrent=64,
                 role=PRIMARY, epoch=1, max_queue=16,
                 queue_wait_ms=1000.0, batch_cost_threshold=100_000.0,
                 governor=None):
        super().__init__((host, port), _Handler)
        self.ssdm = ssdm
        self._thread: Optional[threading.Thread] = None
        self._write_mutex = _WriteMutex()
        self.default_timeout_ms = default_timeout_ms
        self.max_concurrent = (
            None if max_concurrent is None else int(max_concurrent)
        )
        self.batch_cost_threshold = float(batch_cost_threshold)
        self.governor = governor if governor is not None else get_governor()
        ssdm.governor = self.governor
        self._queue = AdmissionQueue(
            max_active=self.max_concurrent, max_queue=max_queue,
            max_wait_ms=queue_wait_ms,
        )
        self._admission = threading.Lock()
        #: query text -> estimated plan cost (None = unpriceable);
        #: bounded LRU so admission never re-plans a repeated query
        self._cost_cache: "OrderedDict[str, Optional[float]]" = OrderedDict()
        #: Lifecycle counters, surfaced in the ``stats`` op.
        self._counters = {
            "requests": 0, "timeouts": 0, "shed": 0, "errors": 0,
            "resource_aborts": 0, "demoted_batch": 0, "snapshot_gone": 0,
        }
        # retained MVCC versions count toward the governor's memory
        # pressure signal, so long snapshot readers trigger degradation
        # (APR off, pool shrink) before anything is killed
        self.governor.add_retained_source(ssdm.mvcc)
        #: Replication identity (role + fencing epoch); shared with an
        #: attached :class:`~repro.replication.ReplicationClient` and
        #: surfaced through ``SSDM.stats()``.
        self.replication = ReplicationState(role=role, epoch=epoch)
        ssdm.replication = self.replication
        #: follower_id -> {"seq": acked seq, "epoch": follower epoch}
        self._followers = {}
        self._repl_client = None

    # -- replication wiring ------------------------------------------------------

    def attach_replication(self, host, port, **kwargs):
        """Tail ``host:port`` as this server's upstream primary.

        Builds a :class:`~repro.replication.ReplicationClient` sharing
        this server's replication state and write mutex (streamed
        deltas apply exclusively, like local updates would; snapshot
        readers are unaffected).  The caller starts/stops it;
        :meth:`stop` and ``promote`` stop it too.
        """
        from repro.replication import ReplicationClient

        client = ReplicationClient(
            self.ssdm, host, port, state=self.replication,
            write_guard=self._write_mutex.writing, **kwargs
        )
        self._repl_client = client
        return client

    # -- request dispatch --------------------------------------------------------

    def ssdm_dispatch(self, request):
        op = request.get("op")
        # stats / health / promote / metrics / slowlog bypass admission
        # control, so monitoring and failover keep working on a
        # saturated server
        if op == "stats":
            return {"ok": True, "stats": self._stats_payload()}
        if op == "health":
            return {"ok": True, "health": self._replication_payload()}
        if op == "promote":
            return self._op_promote()
        if op == "metrics":
            return {"ok": True, "metrics": obs.metrics().snapshot()}
        if op == "slowlog":
            return self._op_slowlog(request)
        if op not in ("query", "update", "explain", "verify", "wal_since"):
            return {"ok": False, "code": "BAD_REQUEST",
                    "error": "unknown op %r" % (op,), "retryable": False}
        deadline = self._deadline_for(request)
        priority = self._priority_for(op, request)
        if priority is None:
            return {"ok": False, "code": "BAD_REQUEST",
                    "error": "priority must be %r or %r, got %r"
                    % (INTERACTIVE, BATCH, request.get("priority")),
                    "retryable": False}
        with self._admission:
            self._counters["requests"] += 1
        try:
            self._queue.admit(priority, deadline)
        except ServerOverloadedError as error:
            with self._admission:
                self._counters["shed"] += 1
            return _error_response(error)
        registry = obs.metrics()
        registry.inc("server_requests_total")
        started = time.monotonic()
        try:
            # the request context is entered here, once: deadline and
            # budget in one derivation (execute() derives from it)
            with registry.timer("server_request_seconds"), \
                    self.governor.scope(priority=priority,
                                        deadline=deadline):
                return self._dispatch_admitted(op, request, deadline)
        except SciSparqlError as error:
            code = error_code(error)
            with self._admission:
                if code in ("TIMEOUT", "CANCELLED"):
                    self._counters["timeouts"] += 1
                elif code == "RESOURCE":
                    self._counters["resource_aborts"] += 1
                elif code == "SNAPSHOT_GONE":
                    self._counters["snapshot_gone"] += 1
                else:
                    self._counters["errors"] += 1
            return _error_response(error)
        finally:
            self._queue.release(time.monotonic() - started)

    def _priority_for(self, op, request):
        """The admission lane for one request (None = invalid field).

        Everything defaults to the interactive lane — updates and WAL
        streaming are latency-sensitive — but a query whose estimated
        plan cost reaches ``batch_cost_threshold`` is demoted to batch,
        so self-declared priority cannot smuggle an analytical scan
        ahead of point lookups.
        """
        priority = request.get("priority") or INTERACTIVE
        if priority not in (INTERACTIVE, BATCH):
            return None
        if op == "query" and priority == INTERACTIVE:
            cost = self._estimate_cost(request.get("text", ""))
            if cost is not None and cost >= self.batch_cost_threshold:
                priority = BATCH
                with self._admission:
                    self._counters["demoted_batch"] += 1
                obs.metrics().inc("server_demoted_batch_total")
        return priority

    def _estimate_cost(self, text):
        """Cached :func:`estimate_plan_cost` for one query text.

        Pricing must never break a request: any planning failure (parse
        error, unsupported form) prices as None — execution will report
        the real error through the normal path.  The cache is not
        invalidated on update; estimates only steer lane choice, so a
        stale price costs queue position at worst.
        """
        if not text:
            return None
        with self._admission:
            if text in self._cost_cache:
                self._cost_cache.move_to_end(text)
                return self._cost_cache[text]
        try:
            # price against a pinned snapshot: planning reads graph
            # statistics, which must not race a concurrent writer's
            # overlay mutation
            with self._pinned():
                plan, _ = self.ssdm.plan(text)
                cost = float(
                    estimate_plan_cost(plan, self.ssdm.dataset.graph(None))
                )
        except Exception:
            cost = None
        with self._admission:
            self._cost_cache[text] = cost
            while len(self._cost_cache) > 512:
                self._cost_cache.popitem(last=False)
        return cost

    @contextmanager
    def _pinned(self):
        """Pin the published dataset version for planning outside
        ``execute`` (pricing, EXPLAIN)."""
        ssdm = self.ssdm
        with ssdm.mvcc.reading(ssdm.dataset.capture()) as snapshot, \
                snapshot_scope(snapshot):
            yield

    def _op_slowlog(self, request):
        """Serve (and optionally reconfigure or clear) the slow-query
        log.  ``threshold_ms`` / ``capacity`` adjust the log before the
        snapshot is taken; ``clear`` empties it afterwards."""
        log = obs.slow_query_log()
        if request.get("threshold_ms") is not None \
                or request.get("capacity") is not None:
            log.configure(
                capacity=request.get("capacity"),
                threshold_ms=request.get("threshold_ms"),
            )
        payload = log.snapshot()
        if request.get("clear"):
            log.clear()
        return {"ok": True, "slowlog": payload}

    def _dispatch_admitted(self, op, request, deadline):
        text = request.get("text", "")
        if op in ("update", "wal_since"):
            self._observe_request_epoch(request)
        if op == "wal_since":
            return self._op_wal_since(request, deadline)
        if op == "update" and not self.replication.is_primary():
            raise ReadOnlyError(
                "this server is a replica (epoch %d): writes must go to "
                "the primary" % self.replication.snapshot()["epoch"]
            )
        if op == "query":
            self._check_read_barrier(request)
        if op == "explain":
            from repro.client.results_format import explain_payload
            # lock-free: planning reads a pinned snapshot, so it
            # neither blocks on nor races a concurrent writer
            with self._pinned():
                payload = explain_payload(
                    self.ssdm, text,
                    objectlog=bool(request.get("objectlog")),
                    costs=bool(request.get("costs")),
                )
            return {"ok": True, **payload}
        if op == "verify":
            store = self.ssdm.array_store
            if store is None:
                return {"ok": True, "report": None}
            # repair moves chunks aside, so it serializes with other
            # mutators; a plain verify only reads and runs lock-free
            repair = bool(request.get("repair"))
            if repair:
                with self._write_mutex.writing(deadline):
                    report = store.repair()
            else:
                report = store.verify()
            return {"ok": True, "report": report}
        if op == "update":
            # the single-writer mutex: updates serialize against each
            # other (and replication applies); snapshot readers never
            # wait here
            with self._write_mutex.writing(deadline):
                result = self.ssdm.execute(text)
        else:
            # lock-free read: execute() pins an immutable MVCC snapshot
            # at admission; at_seq requests the exact published version
            # at a WAL sequence (LAGGING if ahead, SNAPSHOT_GONE if
            # evicted from the retention window)
            at_seq = request.get("at_seq")
            result = self.ssdm.execute(
                text, at_seq=None if at_seq is None else int(at_seq)
            )
        if op == "update":
            response = {"ok": True, "result": result,
                        "epoch": self.replication.snapshot()["epoch"]}
            if self.ssdm.journal is not None:
                # the WAL position this write is durable at — clients
                # use it as a read-your-writes barrier on replicas
                response["seq"] = self.ssdm.journal.last_seq
            return response
        # serialization stays under the deadline (it may resolve array
        # proxies); the snapshot was released by execute(), so a slow
        # transfer retains no version memory
        if isinstance(result, QueryResult):
            return {
                "ok": True,
                "columns": result.columns,
                "rows": [
                    [serialize_value(v) for v in row]
                    for row in result.rows
                ],
            }
        if isinstance(result, bool):
            return {"ok": True, "result": result}
        if isinstance(result, int):
            return {"ok": True, "result": result}
        # CONSTRUCT/DESCRIBE: ship NTriples text
        if hasattr(result, "to_ntriples"):
            return {"ok": True, "ntriples": result.to_ntriples()}
        return {"ok": True, "result": repr(result)}

    # -- replication ops ---------------------------------------------------------

    def _observe_request_epoch(self, request):
        """Fence this node against requests from a newer epoch.

        A request carrying a higher epoch proves a promotion happened
        elsewhere: a primary steps down (it must not accept writes or
        ship its now-divergent stream) and the request is refused with
        ``FENCED`` so the peer re-probes for the real primary.
        """
        epoch = request.get("epoch")
        if epoch is None:
            return
        if self.replication.observe_epoch(int(epoch)):
            if self._repl_client is not None:
                self._repl_client.stop(join=False)
            raise FencedError(
                "request epoch %d supersedes this node's; it has "
                "stepped down to a replica" % int(epoch)
            )

    def _check_read_barrier(self, request):
        min_seq = request.get("min_seq")
        if not min_seq:
            return
        # the barrier is against the *published* MVCC seq, not the raw
        # journal tail: a record appended but not yet published is not
        # visible to a snapshot read, so answering from last_seq alone
        # could satisfy the barrier without satisfying the read
        applied = self.ssdm.dataset.published_seq
        if applied < int(min_seq):
            raise ReplicaLaggingError(
                "read barrier min_seq=%d not reached: this node has "
                "applied seq %d" % (int(min_seq), applied)
            )

    def _op_wal_since(self, request, deadline):
        """Stream journal records past ``since`` (bounded long-poll).

        Scans the append-only log without the server lock — appends
        only ever extend the intact prefix, so a concurrent reader sees
        a consistent record sequence — and therefore never blocks
        writers while a follower waits for news.
        """
        journal = self.ssdm.journal
        if journal is None:
            raise StorageError(
                "this server has no WAL to stream: open its SSDM with "
                "SSDM.open(path)"
            )
        since = int(request.get("since", 0))
        max_records = max(1, int(request.get("max_records", 512)))
        state = self.replication.snapshot()
        if since > journal.last_seq:
            # the follower is ahead of this log: either we recovered to
            # an older state or we compacted — a full resync is needed
            return {"ok": True, "epoch": state["epoch"],
                    "last_seq": journal.last_seq,
                    "restart": True, "records": []}
        self._long_poll_for_records(journal, since, request, deadline)
        records = journal.records_since(since, limit=max_records)
        follower_id = request.get("follower_id")
        if follower_id:
            with self._admission:
                self._followers[str(follower_id)] = {
                    "acked_seq": since,
                    "epoch": int(request.get("epoch", 0)),
                }
        return {
            "ok": True,
            "epoch": state["epoch"],
            "last_seq": journal.last_seq,
            "restart": False,
            "records": [
                [seq, payload.decode("utf-8")] for seq, payload in records
            ],
        }

    @staticmethod
    def _long_poll_for_records(journal, since, request, deadline):
        """Wait (bounded by ``wait_ms`` and the deadline) for news."""
        wait_ms = float(request.get("wait_ms", 0) or 0)
        if wait_ms <= 0:
            return
        end = time.monotonic() + wait_ms / 1000.0
        while journal.last_seq <= since:
            left = end - time.monotonic()
            if left <= 0 or deadline.expired():
                return
            budget = deadline.remaining()
            if budget is not None:
                left = min(left, budget)
            time.sleep(min(0.01, max(left, 0.0)))

    def _op_promote(self):
        """Make this node the primary of a new epoch (admin op)."""
        if self._repl_client is not None:
            self._repl_client.stop(join=False)
        epoch = self.replication.promote()
        return {"ok": True, "role": PRIMARY, "epoch": epoch}

    def _replication_payload(self):
        journal = self.ssdm.journal
        wal_seq = journal.last_seq if journal is not None else None
        state = self.replication.snapshot()
        with self._admission:
            followers = {
                follower_id: dict(
                    info,
                    lag=max(0, (wal_seq or 0) - info["acked_seq"]),
                )
                for follower_id, info in self._followers.items()
            }
        payload = dict(state, wal_seq=wal_seq, followers=followers)
        payload["upstream"] = (
            self._repl_client.status() if self._repl_client is not None
            else None
        )
        return payload

    def _deadline_for(self, request):
        timeout_ms = request.get("timeout_ms", self.default_timeout_ms)
        if timeout_ms is None:
            return Deadline(None)
        try:
            timeout_ms = float(timeout_ms)
        except (TypeError, ValueError):
            raise SciSparqlError(
                "timeout_ms must be a number, got %r" % (timeout_ms,)
            )
        return Deadline.after_ms(timeout_ms)

    def _stats_payload(self):
        stats = self.ssdm.stats()
        with self._admission:
            counters = dict(self._counters)
        stats["server"] = dict(
            counters,
            active=self._queue.active,
            max_concurrent=self.max_concurrent,
            admission=self._queue.snapshot(),
        )
        stats["replication"] = self._replication_payload()
        return stats

    # -- process control ---------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        if self._repl_client is not None:
            self._repl_client.stop(join=False)
        self.shutdown()
        self.server_close()


class SSDMClient:
    """Blocking client for :class:`SSDMServer` with retry + reconnect.

    Server-reported errors surface as the typed exceptions of
    :mod:`repro.exceptions` (``TIMEOUT`` ->
    :class:`~repro.exceptions.RequestTimeoutError`, ``PARSE`` ->
    :class:`~repro.exceptions.ParseError`, ...).  Retryable failures —
    an ``OVERLOAD`` shed or a dropped connection — are retried up to
    ``retries`` times with exponential backoff (``backoff`` seconds
    doubling each attempt by default), re-establishing the connection
    first when it was lost.  When an ``OVERLOAD`` response carries the
    server's ``retry_after_ms`` pacing hint, the pause honors it (at
    least the hint, rather than a blind exponential guess); every pause
    is jittered +-20% and capped at ``max_backoff`` seconds so a bogus
    or huge hint can never stall a client.  Updates are retried only
    after an ``OVERLOAD`` (the request was never admitted); a
    connection lost mid-update is never replayed, because the server
    may already have applied it.
    """

    def __init__(self, host="127.0.0.1", port=0, timeout=30.0,
                 retries=2, backoff=0.05, backoff_factor=2.0,
                 max_backoff=2.0, faults=None):
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff = float(max_backoff)
        self._jitter = random.Random()
        #: Network fault injection (drop/delay/partition per peer).
        self.faults = faults
        self._peer = "%s:%s" % (host, port)
        #: Bytes received from the server, for transfer-volume accounting.
        self.bytes_received = 0
        #: Retry attempts performed over this client's lifetime.
        self.retries_performed = 0
        #: WAL seq of the last acknowledged update (read-your-writes).
        self.last_write_seq = 0
        self._socket = None
        self._file = None
        self._connect()

    def _connect(self):
        self._socket = socket.create_connection(
            (self._host, self._port), self._timeout
        )
        self._file = self._socket.makefile("rwb")

    def close(self):
        if self._file is not None:
            self._file.close()
            self._socket.close()
            self._file = None
            self._socket = None

    def _reconnect(self):
        try:
            self.close()
        except OSError:
            self._file = None
            self._socket = None
        self._connect()

    def _pause_for(self, failure, delay):
        """Seconds to sleep before the next retry attempt.

        The base is the exponential-backoff ``delay``, raised to the
        server's ``retry_after_ms`` hint when the failure carried one;
        the result is jittered (de-synchronizing a thundering herd of
        shed clients) and hard-capped at ``max_backoff``.
        """
        pause = delay
        hint_ms = getattr(failure, "retry_after_ms", None)
        if hint_ms:
            pause = max(pause, float(hint_ms) / 1000.0)
        pause *= 0.8 + 0.4 * self._jitter.random()
        return min(pause, self.max_backoff)

    def _call(self, request, idempotent=True):
        delay = self.backoff
        failure = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retries_performed += 1
                time.sleep(self._pause_for(failure, delay))
                delay = min(delay * self.backoff_factor, self.max_backoff)
            try:
                if self._file is None:
                    self._connect()
                return self._call_once(request)
            except ConnectionClosedError as error:
                failure = error
                try:
                    self._reconnect()
                except OSError as network:
                    failure = ConnectionClosedError(
                        "reconnect to %s:%s failed: %s"
                        % (self._host, self._port, network)
                    )
                if not idempotent:
                    # the lost request may have been applied server-side
                    raise failure
            except ServerOverloadedError as error:
                failure = error      # shed pre-execution: always safe
            except ReplicaLaggingError as error:
                if not idempotent:
                    raise
                failure = error      # the replica is catching up
            except SciSparqlError:
                raise                # typed server error: not retryable
        raise failure

    def call(self, request, idempotent=True):
        """Send one raw protocol request; returns the response dict.

        The building block the replication stream and the replica-set
        client use for ops without a dedicated helper.  Retry semantics
        follow ``idempotent`` exactly like :meth:`query` /
        :meth:`update`.
        """
        return self._call(request, idempotent=idempotent)

    def _call_once(self, request):
        if self.faults is not None:
            self.faults.on_network(self._peer)
        try:
            self._file.write((json.dumps(request) + "\n").encode("utf-8"))
            self._file.flush()
            line = self._file.readline()
        except OSError as error:
            raise ConnectionClosedError(
                "connection to the server lost: %s" % (error,)
            )
        if not line:
            raise ConnectionClosedError(
                "server closed the connection before responding"
            )
        self.bytes_received += len(line)
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            error = error_from_code(
                response.get("code", "INTERNAL"),
                "server error: %s" % response.get("error"),
            )
            if response.get("retry_after_ms") is not None:
                error.retry_after_ms = response["retry_after_ms"]
            raise error
        return response

    def query(self, text, timeout_ms=None, min_seq=None,
              read_your_writes=False, priority=None, at_seq=None):
        """Run a SELECT/ASK; returns QueryResult or bool.

        ``timeout_ms`` bounds the server-side execution; expiry raises
        :class:`~repro.exceptions.RequestTimeoutError`.  ``min_seq``
        (or ``read_your_writes=True``, which uses the seq of this
        client's last acknowledged update) installs a read barrier: a
        replica that has not applied that WAL position answers
        ``LAGGING`` (retryable — it is catching up).  ``at_seq`` asks
        for the *exact* MVCC version published at that WAL sequence: a
        seq the node has not reached answers ``LAGGING``, one that
        fell out of the bounded retention window answers
        ``SNAPSHOT_GONE`` (non-retryable — re-issue without ``at_seq``
        for the freshest version).  ``priority`` routes the request
        into the server's ``"interactive"`` (default) or ``"batch"``
        admission lane; batch is shed first under overload.
        """
        request = _request("query", text, timeout_ms)
        if read_your_writes:
            min_seq = max(min_seq or 0, self.last_write_seq)
        if min_seq:
            request["min_seq"] = int(min_seq)
        if at_seq is not None:
            request["at_seq"] = int(at_seq)
        if priority is not None:
            request["priority"] = priority
        response = self._call(request)
        if "columns" in response:
            rows = [
                tuple(deserialize_value(v) for v in row)
                for row in response["rows"]
            ]
            return QueryResult(response["columns"], rows)
        if "ntriples" in response:
            return response["ntriples"]
        return response.get("result")

    def update(self, text, timeout_ms=None, epoch=None):
        """Run an update; never replayed after a lost connection.

        ``epoch`` fences the write: a server that has been superseded
        by a newer epoch answers ``FENCED`` instead of accepting it.
        On success the server's WAL seq (when journaled) is recorded
        as ``last_write_seq`` for read-your-writes barriers.
        """
        request = _request("update", text, timeout_ms)
        if epoch is not None:
            request["epoch"] = int(epoch)
        response = self._call(request, idempotent=False)
        seq = response.get("seq")
        if seq:
            self.last_write_seq = max(self.last_write_seq, int(seq))
        return response.get("result")

    def health(self):
        """The server's replication health: role, epoch, seq, lag."""
        return self._call({"op": "health"})["health"]

    def promote(self):
        """Promote the server to primary of a new epoch; returns it."""
        return self._call({"op": "promote"})["epoch"]

    def wal_since(self, since, epoch=None, max_records=512, wait_ms=None,
                  follower_id=None):
        """Fetch journal records past ``since`` (one stream poll)."""
        request = {"op": "wal_since", "since": int(since),
                   "max_records": int(max_records)}
        if epoch is not None:
            request["epoch"] = int(epoch)
        if wait_ms is not None:
            request["wait_ms"] = wait_ms
        if follower_id is not None:
            request["follower_id"] = follower_id
        return self._call(request)

    def stats(self):
        """The server's storage, buffer-pool, and lifecycle counters."""
        return self._call({"op": "stats"})["stats"]

    def metrics(self):
        """The server's process-wide metrics registry snapshot."""
        return self._call({"op": "metrics"})["metrics"]

    def slowlog(self, threshold_ms=None, capacity=None, clear=False):
        """The server's slow-query log (worst traces, slowest first).

        ``threshold_ms`` / ``capacity`` reconfigure the log before the
        snapshot; ``clear=True`` empties it after taking the snapshot.
        """
        request = {"op": "slowlog"}
        if threshold_ms is not None:
            request["threshold_ms"] = threshold_ms
        if capacity is not None:
            request["capacity"] = capacity
        if clear:
            request["clear"] = True
        return self._call(request, idempotent=not clear)["slowlog"]

    def verify(self, repair=False, timeout_ms=None):
        """Run an integrity scan of the server's array store.

        Returns the verify/repair report dict, or None when the server
        has no array store.  With ``repair=True`` damaged chunks are
        quarantined (the request is not retried on connection loss, as
        a repair may have been applied server-side).
        """
        request = {"op": "verify", "repair": bool(repair)}
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        response = self._call(request, idempotent=not repair)
        return response.get("report")

    def explain(self, text, objectlog=False, costs=False):
        """EXPLAIN a query server-side; returns {plan, stats}."""
        response = self._call({
            "op": "explain", "text": text,
            "objectlog": objectlog, "costs": costs,
        })
        return {"plan": response["plan"], "stats": response["stats"]}


def _request(op, text, timeout_ms):
    request = {"op": op, "text": text}
    if timeout_ms is not None:
        request["timeout_ms"] = timeout_ms
    return request

"""WAL-shipping replication: hot standby, read replicas, fenced failover.

The durability layer (:mod:`repro.storage.durability`) gave every SSDM a
CRC-framed, monotonically sequenced write-ahead log whose replay is the
single recovery path.  This module turns that log into a *replication
stream*, so the loss of the primary process no longer means the loss of
the service:

- A **primary** serves the ``wal_since`` op: journal records past a
  given sequence number, long-poll bounded by the request deadline.
- A **follower** runs a :class:`ReplicationClient` that tails the
  stream, durably appends each record to its *own* WAL (so the replica
  is itself crash-recoverable and promotable), and applies it through
  the journal's replay path — invalidating buffer-pool entries for any
  array values the delta touches.  The follower tracks ``(epoch,
  last_seq)``; after a restart it resumes from the last intact record
  of its local log (torn tails are truncated by normal recovery).
- **Epochs fence stale primaries.**  Promotion (the server's
  ``promote`` admin op) bumps the epoch; every replicated exchange
  carries one.  A deposed primary that comes back finds its stream
  refused (``FENCED``) by any follower that has seen the new epoch, and
  itself *steps down* to a read-only replica the moment any request
  carries a newer epoch than its own — so acknowledged writes are never
  silently overwritten and stale-epoch writes are never accepted.
- A :class:`ReplicaSetClient` gives applications one handle over the
  whole set: writes route to the current primary (discovered by health
  probes, re-discovered after failover), reads load-balance across live
  replicas, and a ``min_seq`` read barrier provides read-your-writes
  (a lagging replica answers ``LAGGING``, and the read fails over to a
  caught-up node).

Replication is asynchronous: an acknowledged write is durable on the
primary (fsync'd WAL) but reaches replicas with a lag the ``health`` op
reports.  Promoting a lagging replica can therefore lose the tail of
un-shipped writes — the same tradeoff as asynchronous shipping in
production systems; the deterministic failover tests pin down exactly
which writes survive.

Snapshot compaction (:meth:`~repro.ssdm.SSDM.snapshot`) rewrites the
log with sequence numbers restarting at 1, which a follower detects as
a non-incremental stream (``restart``) and handles by a full resync:
clear the local dataset and log, then re-apply the stream from zero.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager

from repro.exceptions import (
    ConnectionClosedError,
    FencedError,
    ReadOnlyError,
    ReplicaLaggingError,
    SciSparqlError,
    ServerOverloadedError,
)
from repro import observability as obs

#: Server roles.
PRIMARY = "primary"
REPLICA = "replica"

_follower_ids = itertools.count(1)


class ReplicationState:
    """One node's replication identity: ``(role, epoch)``, thread-safe.

    The epoch is a fencing token: it only ever moves forward, a
    :meth:`promote` bumps it, and observing a *newer* epoch on any
    request deposes a primary into a replica (it can no longer accept
    writes its successor would not know about).
    """

    def __init__(self, role=PRIMARY, epoch=1):
        if role not in (PRIMARY, REPLICA):
            raise ValueError("role must be %r or %r" % (PRIMARY, REPLICA))
        self._lock = threading.Lock()
        self.role = role
        self.epoch = int(epoch)
        self.promotions = 0
        self.demotions = 0
        self.fenced_requests = 0

    def is_primary(self):
        with self._lock:
            return self.role == PRIMARY

    def promote(self):
        """Become the primary of a new epoch; returns the new epoch."""
        with self._lock:
            self.epoch += 1
            if self.role != PRIMARY:
                self.role = PRIMARY
            self.promotions += 1
            return self.epoch

    def observe_epoch(self, peer_epoch):
        """Adopt a newer epoch seen on a request.

        Returns True when this node was *stale* (its epoch was older):
        a stale primary steps down to a replica, and the caller must
        refuse the request with ``FENCED`` — its own stream/write
        acceptance is no longer authoritative.
        """
        peer_epoch = int(peer_epoch)
        with self._lock:
            if peer_epoch <= self.epoch:
                return False
            self.epoch = peer_epoch
            self.fenced_requests += 1
            if self.role == PRIMARY:
                self.role = REPLICA
                self.demotions += 1
            return True

    def snapshot(self):
        with self._lock:
            return {
                "role": self.role,
                "epoch": self.epoch,
                "promotions": self.promotions,
                "demotions": self.demotions,
                "fenced_requests": self.fenced_requests,
            }

    def __repr__(self):
        return "ReplicationState(%r)" % (self.snapshot(),)


@contextmanager
def _no_guard():
    yield


class ReplicationClient:
    """Tails a primary's WAL stream into a local (follower) SSDM.

    ``ssdm`` must carry a journal (``SSDM.open``): each streamed record
    is durably appended to the follower's own log *before* it is
    applied to the dataset, so the follower survives its own crashes
    and can be promoted with a complete record sequence.

    ``state`` is the node's :class:`ReplicationState` (shared with the
    node's :class:`~repro.client.SSDMServer` when there is one, so the
    served ``health``/``promote`` ops and the tailing loop agree on the
    epoch).  ``write_guard`` is a callable returning a context manager
    that serializes dataset mutation against other mutators — the
    server passes its single-writer mutex (MVCC snapshot readers never
    take it); standalone use defaults to a no-op.

    Use :meth:`poll_once` for deterministic tests and :meth:`start` for
    a background tailing thread.  ``faults`` threads a
    :class:`~repro.storage.FaultPlan` into the transport so partitions
    and drops on the replication link are injectable.
    """

    def __init__(self, ssdm, host, port, state=None, follower_id=None,
                 poll_interval=0.05, batch=512, wait_ms=0.0,
                 write_guard=None, faults=None, timeout=10.0):
        if ssdm.journal is None:
            raise ValueError(
                "a replication follower needs a journal: open the SSDM "
                "with SSDM.open(path)"
            )
        self.ssdm = ssdm
        self.state = state if state is not None else ReplicationState(REPLICA)
        self.follower_id = follower_id or "follower-%d-%d" % (
            os.getpid(), next(_follower_ids)
        )
        self.poll_interval = float(poll_interval)
        self.batch = int(batch)
        self.wait_ms = float(wait_ms)
        self.write_guard = write_guard or _no_guard
        self.faults = faults
        self._timeout = timeout
        self._host = None
        self._port = None
        self._client = None
        #: Highest upstream sequence number seen in a response.
        self.upstream_seq = 0
        self.records_applied = 0
        self.resyncs = 0
        self.poll_errors = 0
        self.connected = False
        #: Set when the upstream was refused as a stale primary.
        self.fenced = False
        self.last_error = None
        self._stop = threading.Event()
        self._thread = None
        #: Until verified, the first poll re-fetches the last locally
        #: applied record and compares bytes (log matching): a deposed
        #: primary's divergent tail shares sequence numbers with the
        #: new history, so seq tracking alone cannot detect it.
        self._tail_verified = False
        self.retarget(host, port)

    # -- targeting ---------------------------------------------------------------

    def retarget(self, host, port):
        """Point the tail at a (new) upstream, e.g. after a promotion."""
        self._close_client()
        self._host = host
        self._port = int(port)
        self.fenced = False
        self._tail_verified = False

    @property
    def upstream(self):
        return (self._host, self._port)

    @property
    def last_seq(self):
        """Highest sequence number durably applied on this follower."""
        return self.ssdm.journal.last_seq

    def lag(self):
        """Records known to exist upstream but not yet applied here."""
        return max(0, self.upstream_seq - self.last_seq)

    # -- the tailing loop --------------------------------------------------------

    def poll_once(self, wait_ms=None):
        """One stream poll: fetch records past ``last_seq``, apply them.

        Returns the number of records applied.  Connection failures are
        absorbed (counted, ``connected`` drops to False) so the tailing
        loop survives a primary crash and resumes when a reachable
        upstream returns; a :class:`FencedError` — the upstream is a
        deposed primary — is raised to the caller and stops the
        background loop, because following a stale stream can never
        become correct again without operator action.
        """
        verify_from = None
        since = self.last_seq
        if not self._tail_verified and since > 0:
            # log matching: re-fetch our last applied record and compare
            # bytes — same-seq divergence (a deposed primary's tail)
            # must trigger a resync, not a silent split history
            verify_from = since - 1
            since = verify_from
        request = {
            "op": "wal_since",
            "since": since,
            "epoch": self.state.epoch,
            "follower_id": self.follower_id,
            "max_records": self.batch,
        }
        wait = self.wait_ms if wait_ms is None else float(wait_ms)
        if wait:
            request["wait_ms"] = wait
        try:
            response = self._transport().call(request)
        except FencedError as error:
            # the upstream refused us (it is newer) — adopt nothing; or
            # we refused it server-side.  Either way stop following.
            self.fenced = True
            self.last_error = error
            raise
        except (ConnectionClosedError, ServerOverloadedError, OSError) \
                as error:
            self.connected = False
            self.poll_errors += 1
            self.last_error = error
            self._close_client()
            return 0
        self.connected = True
        epoch = response.get("epoch")
        if epoch is not None:
            if epoch < self.state.epoch:
                # A stream from an older epoch is a deposed primary's
                # divergent history: refuse it (stale-primary fencing).
                self.fenced = True
                self.state.fenced_requests += 1
                error = FencedError(
                    "upstream %s:%s serves epoch %d but this follower "
                    "has seen epoch %d; refusing its stale stream"
                    % (self._host, self._port, epoch, self.state.epoch)
                )
                self.last_error = error
                raise error
            self.state.observe_epoch(epoch)
        self.upstream_seq = max(
            self.upstream_seq, int(response.get("last_seq", 0))
        )
        obs.metrics().set_gauge("replication_follower_lag", self.lag())
        if response.get("restart"):
            self._resync()
            return 0
        records = response.get("records", ())
        if verify_from is not None:
            if not self._tail_matches(records):
                self._resync()
                return 0
            self._tail_verified = True
        applied = self._apply_records(records)
        self.records_applied += applied
        return applied

    def _tail_matches(self, records):
        """True when the stream agrees with our last applied record."""
        local_seq = self.ssdm.journal.last_seq
        local = self.ssdm.journal.records_since(local_seq - 1, limit=1)
        if not local:
            return True         # nothing local to contradict
        for seq, payload in records:
            if int(seq) == local_seq:
                return payload.encode("utf-8") == local[0][1]
        # upstream no longer has our seq in its first batch: treat as
        # divergence and resync rather than guessing
        return False

    def _apply_records(self, records):
        journal = self.ssdm.journal
        registry = obs.metrics()
        applied = 0
        with self.write_guard():
            for seq, payload in records:
                seq = int(seq)
                if seq <= journal.last_seq:
                    continue            # duplicate delivery: idempotent
                data = payload.encode("utf-8")
                # WAL-first on the follower too: the record is durable
                # locally before the dataset mutates, so a follower
                # crash mid-apply recovers to a consistent state.
                with registry.timer("replication_apply_seconds"):
                    journal.append_replicated(seq, data)
                    # the upstream seq stamps the MVCC version this
                    # record publishes, so at_seq reads on the replica
                    # line up with the primary's WAL positions
                    journal.apply_record(self.ssdm.dataset, data, seq)
                applied += 1
        if applied:
            registry.inc("replication_records_applied_total", applied)
            registry.set_gauge("replication_follower_lag", self.lag())
        return applied

    def _resync(self):
        """Full resync: the upstream's log is not an extension of ours.

        Happens when the upstream compacted its log (snapshot) or this
        follower is ahead of a freshly recovered upstream.  Clear the
        local dataset and log and re-tail from sequence zero.
        """
        from repro.storage.durability import invalidate_pooled

        dataset = self.ssdm.dataset
        with self.write_guard():
            graphs = [dataset.default_graph]
            graphs.extend(dataset.named_graphs().values())
            for graph in graphs:
                for triple in list(graph.triples()):
                    invalidate_pooled(triple.value)
                graph.clear()
            for name in list(dataset.named_graphs()):
                dataset.drop(name)
            # the upstream's compacted log re-assigns IDs from zero;
            # keeping stale assignments would make the first streamed
            # dict record non-dense (CorruptionError)
            dataset.term_dictionary.clear()
            self.ssdm.journal.reset()
            # publish the emptied dataset at seq 0: the seq *regression*
            # tells the snapshot manager to invalidate every snapshot
            # pinned on the abandoned history
            dataset.publish(0)
        self.resyncs += 1

    # -- background tailing ------------------------------------------------------

    def start(self):
        """Tail the upstream on a daemon thread until :meth:`stop`."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.is_set():
            try:
                applied = self.poll_once()
            except FencedError:
                return          # stale upstream: stop, operator decides
            except SciSparqlError as error:
                self.poll_errors += 1
                self.last_error = error
                applied = 0
            if applied == 0:
                self._stop.wait(self.poll_interval)

    def stop(self, join=True):
        self._stop.set()
        thread = self._thread
        if join and thread is not None and thread is not \
                threading.current_thread():
            thread.join(timeout=5.0)
        self._close_client()

    def running(self):
        return self._thread is not None and self._thread.is_alive()

    # -- reporting ---------------------------------------------------------------

    def status(self):
        return {
            "upstream": "%s:%s" % (self._host, self._port),
            "connected": self.connected,
            "fenced": self.fenced,
            "last_seq": self.last_seq,
            "upstream_seq": self.upstream_seq,
            "lag": self.lag(),
            "records_applied": self.records_applied,
            "resyncs": self.resyncs,
            "poll_errors": self.poll_errors,
        }

    # -- transport ---------------------------------------------------------------

    def _transport(self):
        from repro.client.server import SSDMClient

        if self._client is None:
            self._client = SSDMClient(
                self._host, self._port, timeout=self._timeout,
                retries=0, faults=self.faults,
            )
        return self._client

    def _close_client(self):
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None


class ReplicaSetClient:
    """One client over a replica set: routed writes, balanced reads.

    ``endpoints`` is a list of ``(host, port)`` pairs (or
    ``"host:port"`` strings).  A health probe of every endpoint
    discovers each node's role and epoch; writes go to the primary of
    the *highest* epoch (carrying that epoch, so a deposed primary
    fences itself instead of accepting the write), reads round-robin
    across live replicas and fall back to the primary.

    Failover is probe-driven: a read that hits a dead, lagging, or
    overloaded node moves to the next candidate, and when a whole pass
    fails the set is re-probed before one more pass.  A write refused
    with ``READONLY``/``FENCED`` was rejected *before execution*, so it
    is safely re-routed after a re-probe; a write whose connection died
    mid-flight raises — it is **never replayed** (the old primary may
    have applied and shipped it).

    Read-your-writes: every acknowledged write records the primary's
    WAL sequence; ``query(..., read_your_writes=True)`` (or an explicit
    ``min_seq``) attaches it as a read barrier, and replicas that have
    not caught up answer ``LAGGING``, failing the read over to one that
    has.

    Every endpoint additionally carries a
    :class:`~repro.governor.CircuitBreaker`: ``breaker_threshold``
    consecutive read failures open it and reads route around the node
    for ``breaker_recovery`` seconds, after which a single half-open
    probe read decides whether it closes again — so a node answering
    every request with an error stops burning a failover per read.  As
    a last resort (final round, no other failure recorded) an open
    breaker is overridden rather than failing a read that might have
    succeeded.
    """

    def __init__(self, endpoints, timeout=10.0, probe_interval=0.0,
                 faults=None, rounds=3, backoff=0.05,
                 breaker_threshold=3, breaker_recovery=1.0):
        if not endpoints:
            raise ValueError("a replica set needs at least one endpoint")
        self.endpoints = [self._normalize(e) for e in endpoints]
        self._timeout = float(timeout)
        self.faults = faults
        self.rounds = int(rounds)
        self.backoff = float(backoff)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_recovery = float(breaker_recovery)
        self._clients = {}
        self._breakers = {}
        self._lock = threading.Lock()
        self._rr = 0
        self.epoch = 0
        self.primary = None
        self.health = {}
        #: WAL seq of the last acknowledged write (read-your-writes barrier).
        self.last_write_seq = 0
        self.probes = 0
        self.failovers = 0
        #: Reads that skipped an endpoint because its breaker was open.
        self.breaker_skips = 0

    @staticmethod
    def _normalize(endpoint):
        if isinstance(endpoint, str):
            host, _, port = endpoint.rpartition(":")
            return (host, int(port))
        host, port = endpoint
        return (host, int(port))

    # -- membership --------------------------------------------------------------

    def probe(self):
        """Health-check every endpoint; returns the live-health map.

        Updates the known ``epoch`` (max over responders), the current
        ``primary`` (a responder claiming the primary role at that
        epoch), and the read candidates.
        """
        self.probes += 1
        alive = {}
        for endpoint in self.endpoints:
            client = self._client(endpoint)
            if client is None:
                continue
            try:
                health = client.call({"op": "health"})["health"]
            except (SciSparqlError, OSError):
                self._drop_client(endpoint)
                continue
            alive[endpoint] = health
            self.epoch = max(self.epoch, int(health.get("epoch", 0)))
        primaries = [
            endpoint for endpoint, health in alive.items()
            if health.get("role") == PRIMARY
            and int(health.get("epoch", 0)) == self.epoch
        ]
        self.primary = primaries[0] if primaries else None
        self.health = alive
        return alive

    def _read_candidates(self):
        """Live replicas round-robin, the primary as the last resort."""
        replicas = [
            endpoint for endpoint, health in self.health.items()
            if health.get("role") == REPLICA
        ]
        if replicas:
            with self._lock:
                self._rr = (self._rr + 1) % len(replicas)
                rotation = self._rr
            replicas = replicas[rotation:] + replicas[:rotation]
        candidates = list(replicas)
        if self.primary is not None and self.primary not in candidates:
            candidates.append(self.primary)
        # endpoints that never answered a probe still get one chance at
        # the very end — the set may never have been probed at all
        for endpoint in self.endpoints:
            if endpoint not in candidates:
                candidates.append(endpoint)
        return candidates

    # -- reads -------------------------------------------------------------------

    def query(self, text, timeout_ms=None, min_seq=None,
              read_your_writes=False, priority=None, at_seq=None):
        """Run a read on a live replica (or the primary as fallback).

        ``min_seq`` / ``read_your_writes`` install a read barrier: a
        node whose applied WAL sequence is behind answers ``LAGGING``
        and the read fails over to a caught-up node.  ``at_seq`` asks
        for the exact MVCC version at a WAL sequence instead of "at
        least": a node that has applied *past* it still serves the
        retained version, so read-your-writes via ``at_seq`` does not
        bounce off nodes that moved ahead — only a node that has not
        reached the seq answers ``LAGGING``, and a version evicted
        from retention answers ``SNAPSHOT_GONE`` (non-retryable).
        ``priority`` (``"interactive"`` / ``"batch"``) is forwarded to
        the server's admission queue.  Endpoints whose circuit breaker
        is open are skipped (see the class docstring).
        """
        if read_your_writes:
            min_seq = max(min_seq or 0, self.last_write_seq)
        failure = None
        for round_index in range(self.rounds):
            if round_index:
                self.probe()
                time.sleep(self.backoff * round_index)
            last_round = round_index == self.rounds - 1
            for endpoint in self._read_candidates():
                breaker = self._breaker(endpoint)
                # An open breaker routes the read elsewhere — except on
                # the final round with nothing else to blame, where an
                # attempt is still cheaper than a spurious failure.
                if not breaker.allow() and not (last_round
                                                and failure is None):
                    with self._lock:
                        self.breaker_skips += 1
                    continue
                client = self._client(endpoint)
                if client is None:
                    breaker.on_failure()
                    continue
                try:
                    result = client.query(
                        text, timeout_ms=timeout_ms, min_seq=min_seq,
                        priority=priority, at_seq=at_seq,
                    )
                except (ConnectionClosedError, OSError) as error:
                    breaker.on_failure()
                    failure = error
                    self.failovers += 1
                    self._drop_client(endpoint)
                except (ServerOverloadedError, ReplicaLaggingError,
                        ReadOnlyError, FencedError) as error:
                    breaker.on_failure()
                    failure = error
                    self.failovers += 1
                else:
                    breaker.on_success()
                    return result
        raise failure if failure is not None else ConnectionClosedError(
            "no endpoint of the replica set is reachable"
        )

    # -- writes ------------------------------------------------------------------

    def update(self, text, timeout_ms=None):
        """Run a write on the current primary, fenced by the epoch.

        ``READONLY`` / ``FENCED`` / ``OVERLOAD`` rejections happen
        before execution, so the write is re-routed after a re-probe;
        a connection lost mid-flight raises
        :class:`~repro.exceptions.ConnectionClosedError` and is never
        replayed (the non-idempotent-update guarantee of §9).
        """
        failure = None
        for round_index in range(self.rounds):
            if self.primary is None or round_index:
                self.probe()
            if self.primary is None:
                failure = failure or ConnectionClosedError(
                    "no primary reachable in the replica set"
                )
                time.sleep(self.backoff * (round_index + 1))
                continue
            client = self._client(self.primary)
            if client is None:
                self.primary = None
                continue
            request = {"op": "update", "text": text, "epoch": self.epoch}
            if timeout_ms is not None:
                request["timeout_ms"] = timeout_ms
            try:
                response = client.call(request, idempotent=False)
            except (ReadOnlyError, FencedError,
                    ServerOverloadedError) as error:
                failure = error
                self.failovers += 1
                self.primary = None
                continue
            except (ConnectionClosedError, OSError):
                self._drop_client(self.primary)
                raise       # may have been applied: never replayed
            self.epoch = max(self.epoch, int(response.get("epoch", 0)))
            seq = response.get("seq")
            if seq:
                self.last_write_seq = max(self.last_write_seq, int(seq))
            return response.get("result")
        raise failure

    # -- admin / reporting -------------------------------------------------------

    def promote(self, endpoint):
        """Promote one endpoint to primary of a new epoch."""
        endpoint = self._normalize(endpoint)
        client = self._client(endpoint)
        if client is None:
            raise ConnectionClosedError(
                "cannot reach %s:%s to promote it" % endpoint
            )
        response = client.call({"op": "promote"})
        self.epoch = max(self.epoch, int(response.get("epoch", 0)))
        self.primary = endpoint
        return response.get("epoch")

    def stats(self):
        """Per-endpoint server stats for every reachable node."""
        out = {}
        for endpoint in self.endpoints:
            client = self._client(endpoint)
            if client is None:
                out[endpoint] = None
                continue
            try:
                out[endpoint] = client.stats()
            except (SciSparqlError, OSError):
                self._drop_client(endpoint)
                out[endpoint] = None
        return out

    def breakers(self):
        """Per-endpoint circuit-breaker snapshots (only endpoints that
        have served at least one read appear)."""
        with self._lock:
            items = list(self._breakers.items())
        return {
            "%s:%s" % endpoint: breaker.snapshot()
            for endpoint, breaker in items
        }

    def close(self):
        for endpoint in list(self._clients):
            self._drop_client(endpoint)

    # -- connections -------------------------------------------------------------

    def _breaker(self, endpoint):
        from repro.governor import CircuitBreaker

        with self._lock:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = self._breakers[endpoint] = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    recovery_seconds=self.breaker_recovery,
                )
            return breaker

    def _client(self, endpoint):
        from repro.client.server import SSDMClient

        with self._lock:
            client = self._clients.get(endpoint)
        if client is not None:
            return client
        try:
            client = SSDMClient(
                endpoint[0], endpoint[1], timeout=self._timeout,
                retries=0, faults=self.faults,
            )
        except OSError:
            return None
        with self._lock:
            self._clients[endpoint] = client
        return client

    def _drop_client(self, endpoint):
        with self._lock:
            client = self._clients.pop(endpoint, None)
        if client is not None:
            try:
                client.close()
            except OSError:
                pass


def start_replica(path, upstream_host, upstream_port, host="127.0.0.1",
                  port=0, array_store=None, faults=None, **server_kwargs):
    """Open a follower SSDM and serve it as a read replica.

    Convenience wiring used by ``scripts/run_replica.py`` and the
    failover tests: ``SSDM.open(path)`` (recovering any previous log),
    an :class:`~repro.client.SSDMServer` in the ``replica`` role, and a
    started :class:`ReplicationClient` tailing the upstream primary
    under the server's write mutex.  Returns ``(ssdm, server, tail)``.
    """
    from repro.client.server import SSDMServer
    from repro.ssdm import SSDM

    ssdm = SSDM.open(path, array_store=array_store)
    server = SSDMServer(
        ssdm, host=host, port=port, role=REPLICA, **server_kwargs
    )
    tail = server.attach_replication(
        upstream_host, upstream_port, faults=faults
    )
    server.start()
    tail.start()
    return ssdm, server, tail

"""``wire_rw``: the mix over the wire with writes beside it.

The pinned graph sits behind ``SSDMServer`` (defaults) in a child
process; two ``SSDMClient`` connections work through seed-shuffled
40-operation decks — 3 of each query plus 4 unique single-triple
``INSERT DATA`` (90 % reads, 10 % writes).

Phase A (40 % of ``--seconds``) is an open loop: arrival *i* of one
deck stream is due at ``start + i/20 s``, goes out on whichever
connection is free, and its latency counts from that scheduled arrival,
so a stall shows as queueing instead of quietly throttling the load.
Phase B (60 %) is a closed loop, each connection working through its
own decks back to back, whole decks only, so every run does the same
work mix; its rate is two decks ÷ the median deck time over the decks
that ran while both connections were busy.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

from benchmarks.macro.queries import QUERIES
from benchmarks.suite import harness, wire_server
from benchmarks.suite.recorder import Recorder, per_operation
from repro.client.server import SSDMClient
from repro.exceptions import SciSparqlError
from repro.ssdm import SSDM

CONNECTIONS = 2
ARRIVALS_PER_S = 20.0
READS_OF_EACH_QUERY = 3
WRITES_PER_DECK = 4
DECK_SIZE = READS_OF_EACH_QUERY * len(QUERIES) + WRITES_PER_DECK
LATE_S = 0.010
SLO_S = 0.250
#: the run fails when more than this share of arrivals left late: the
#: generator, not the server, would be what was measured
MAX_LATE_FRACTION = 0.01
#: the two generator threads share one interpreter lock; a short switch
#: interval in this process (never in the server's) keeps a due arrival
#: from waiting behind the other connection's response decoding
GENERATOR_SWITCH_INTERVAL_S = 0.001

WRITE_PREDICATE = "http://sp2b.example.org/bench/suiteWrite"
WRITE_SUBJECT = "http://sp2b.example.org/bench/suite/write/s%d-d%d-n%d"
WRITES_QUERY = "SELECT ?s ?v WHERE { ?s <%s> ?v }" % WRITE_PREDICATE


class _Server:
    """The server child and its line protocol."""

    def __init__(self, options):
        command = [
            sys.executable, os.path.join(harness.SUITE_DIR, "run.py"),
            "--role", "wire-server", "--scale", options.scale,
            "--trace", str(options.trace),
            "--scratch", harness.scratch_root(),
        ]
        os.makedirs(harness.scratch_root(), exist_ok=True)
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        # server and generator each keep to a CPU of their own (the
        # same one when the machine has a single CPU to give)
        harness.keep_to_one_cpu(self.process.pid, 0)
        harness.keep_to_one_cpu()
        self.ready = self._read()

    def _read(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                "the wire server child exited with code %s"
                % self.process.wait()
            )
        return json.loads(line)

    def ask(self, **command):
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._read()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class _Decks:
    """One seeded stream of decks; its writes carry keys no other
    stream or seed uses."""

    def __init__(self, seed, stream):
        self._seed = seed
        self._stream = stream
        self._rng = random.Random(seed * 1000 + stream)
        self._writes = 0

    def deck(self):
        """(class, text, triple written or None) × 40, shuffled."""
        operations = [
            (query.name, query.text, None)
            for query in QUERIES for _ in range(READS_OF_EACH_QUERY)
        ]
        for _ in range(WRITES_PER_DECK):
            subject = WRITE_SUBJECT % (self._seed, self._stream, self._writes)
            operations.append((
                "write", "INSERT DATA { <%s> <%s> %d }" % (
                    subject, WRITE_PREDICATE, self._writes,
                ), (subject, self._writes),
            ))
            self._writes += 1
        self._rng.shuffle(operations)
        return operations


class _Connection:
    """One client connection: sends, checks, remembers what was
    acknowledged."""

    def __init__(self, index, port, seed, expected, checks, recorder):
        self.index = index
        self.client = SSDMClient("127.0.0.1", port)
        self.decks = _Decks(seed, index)
        self.expected = expected
        self.checks = checks
        self.recorder = recorder
        self.acknowledged = []       # (subject uri, value)
        self.sent_bytes = 0

    def send(self, kind, text, written=None):
        """One request; True when it was answered correctly (reads by
        row count, writes by the count applied)."""
        try:
            with self.recorder.request("wire.request"):
                if kind == "write":
                    applied = self.client.update(text)
                else:
                    rows = len(self.client.query(text).rows)
        except (SciSparqlError, OSError) as error:
            return self.checks.record(
                False, "connection %d %s raised %r" % (self.index, kind, error)
            )
        if kind == "write":
            self.sent_bytes += len(text.encode("utf-8"))
            self.acknowledged.append(written)
            return self.checks.record(
                applied == 1, "write applied %r triples" % (applied,)
            )
        return self.checks.record(
            rows == self.expected[kind]["rows"],
            "connection %d %s returned %d rows" % (self.index, kind, rows),
        )


def _in_threads(connections, work):
    """Run ``work(connection)`` on one thread per connection, started
    together; returns the results in connection order."""
    barrier = threading.Barrier(len(connections))
    results = [None] * len(connections)
    errors = []

    def body(connection):
        try:
            barrier.wait()
            results[connection.index] = work(connection)
        except BaseException as error:      # re-raised on the caller
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=body, args=(connection,))
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _open_loop(connections, arrivals):
    """Phase A.  Returns (latencies by class from the scheduled
    arrival, lateness of every send, arrivals that missed: failed or
    slower than the SLO)."""
    start = time.perf_counter() + 0.05
    claim = itertools.count()

    def work(connection):
        latencies, lateness, missed = {}, [], 0
        while True:
            index = next(claim)
            if index >= len(arrivals):
                return latencies, lateness, missed
            kind, text, written = arrivals[index]
            due = start + index / ARRIVALS_PER_S
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness.append(max(0.0, time.perf_counter() - due))
            answered = connection.send(kind, text, written)
            latency = time.perf_counter() - due
            if answered:
                latencies.setdefault(kind, []).append(latency)
            if not answered or latency > SLO_S:
                missed += 1

    merged, lateness, missed = {}, [], 0
    for latencies, late, misses in _in_threads(connections, work):
        for kind, samples in latencies.items():
            merged.setdefault(kind, []).extend(samples)
        lateness.extend(late)
        missed += misses
    return merged, lateness, missed


def _closed_loop(connections, seconds=None, decks=None):
    """Phase B: whole decks back to back for ``seconds`` (or exactly
    ``decks`` of them).  Returns (deck times while both connections
    were busy, requests sent)."""
    deadline = None if seconds is None else time.perf_counter() + seconds

    def work(connection):
        spans = []
        while (len(spans) < decks) if deadline is None \
                else (time.perf_counter() < deadline):
            started = time.perf_counter()
            for kind, text, written in connection.decks.deck():
                connection.send(kind, text, written)
            spans.append((started, time.perf_counter()))
        return spans

    parts = _in_threads(connections, work)
    both_busy_until = min(spans[-1][1] for spans in parts)
    deck_times = [
        end - begin for spans in parts for begin, end in spans
        if end <= both_busy_until
    ]
    return deck_times, sum(len(spans) for spans in parts) * DECK_SIZE


def _check_writes_visible(run_query, acknowledged, checks, where):
    """Every acknowledged write must be readable through ``run_query``."""
    try:
        visible = {
            (subject.value, value) for subject, value in run_query(WRITES_QUERY)
        }
    except (SciSparqlError, OSError) as error:
        checks.record(False, "%s: reading the writes raised %r" % (where, error))
        return
    for write in acknowledged:
        checks.record(
            write in visible,
            "%s: acknowledged write %s is not visible" % (where, write[0]),
        )


def _set_up_again(scale, index):
    server, ssdm, _, _, seconds = wire_server.set_up(
        scale, "wire-again%d" % index
    )
    server.stop()
    ssdm.close()
    return seconds


def run(options, checks):
    expected, source = harness.expected_fingerprints(
        options.scale, options.expected
    )
    info = {"fingerprints": source}
    recorder = Recorder()
    recorder.enabled = bool(options.trace)
    metrics = {}
    server = _Server(options)
    connections = []
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL_S)
    try:
        connections = [
            _Connection(index, server.ready["port"], options.seed, expected,
                        checks, recorder)
            for index in range(CONNECTIONS)
        ]
        for connection in connections:
            harness.check_mix_pass(
                connection.client.query, expected, checks,
                "connection %d warm-up" % connection.index,
            )
        if options.trace:
            _round_trips(server, connections[0], recorder, metrics)
        open_decks = _Decks(options.seed, CONNECTIONS)
        arrivals = [
            operation
            for _ in range(max(1, round(
                0.4 * options.seconds * ARRIVALS_PER_S / DECK_SIZE
            )))
            for operation in open_decks.deck()
        ]
        before = server.ask(cmd="mark")
        open_latencies, lateness, missed = _open_loop(connections, arrivals)
        if options.trace:
            deck_times, closed_requests = _closed_loop(
                connections, decks=max(2, round(0.6 * options.seconds / 1.5))
            )
        else:
            deck_times, closed_requests = _closed_loop(
                connections, seconds=0.6 * options.seconds
            )
        after = server.ask(cmd="mark")

        late_fraction = sum(late > LATE_S for late in lateness) / len(lateness)
        checks.record(
            late_fraction <= MAX_LATE_FRACTION,
            "%.1f%% of open-loop arrivals left more than %.0f ms late"
            % (late_fraction * 100, LATE_S * 1000),
        )
        acknowledged = [
            write for connection in connections
            for write in connection.acknowledged
        ]
        reader = connections[0].client
        _check_writes_visible(reader.query, acknowledged, checks, "over the wire")
        harness.check_mix_pass(reader.query, expected, checks, "final")
        stats = reader.stats()
        for connection in connections:
            connection.client.close()
        stopped = server.ask(cmd="stop")
    finally:
        sys.setswitchinterval(switch_interval)
        for connection in connections:
            connection.client.close()
        server.kill()

    reopened = SSDM.open(server.ready["wal_dir"])
    try:
        _check_writes_visible(
            reopened.execute, acknowledged, checks, "after reopening the WAL"
        )
    finally:
        reopened.close()

    closed_rps = CONNECTIONS * DECK_SIZE / harness.median(deck_times)
    info["late_fraction"] = late_fraction
    info["sched_lag_p99_ms"] = harness.quantile(lateness, 0.99) * 1000.0
    if options.trace:
        metrics.update(_wire_ledger(
            open_latencies, lateness, missed, closed_rps, after, stats
        ))
        _, summary = recorder.analyse()
        metrics.update(_dispatch_ledger(summary))
        harness.write_trace(recorder, summary, "wire_rw", options.seed, metrics)
        return metrics, info

    requests = len(arrivals) + closed_requests
    sent_bytes = server.ready["sent_bytes"] + sum(
        connection.sent_bytes for connection in connections
    )
    info["open_loop_arrivals"] = len(arrivals)
    info["closed_loop_requests"] = closed_requests
    return {
        "setup_s": harness.median_setup(
            server.ready["setup_s"],
            lambda index: _set_up_again(options.scale, index),
        ),
        "op_geomean_ms": harness.class_geomean_ms(open_latencies),
        "throughput_per_s": closed_rps,
        "cpu_ms_per_op":
            (after["cpu_s"] - before["cpu_s"]) * 1000.0 / requests,
        "peak_rss_mb": stopped["peak_rss_mb"],
        "space_amplification": stopped["stored_bytes"] / sent_bytes,
    }, info


# -- the traced run's ledger --------------------------------------------------------


def _round_trips(server, connection, recorder, metrics, passes=3):
    """Before any load: the same 12 queries dispatched in process (in
    the server child) and over one idle connection; the difference per
    query is what socket + JSON cost."""
    probe = server.ask(cmd="probe", passes=passes)
    recorder.absorb(probe["rows"])
    round_trip = {query.name: [] for query in QUERIES}
    received = connection.client.bytes_received
    for turn in range(passes):
        for query in QUERIES:
            started = time.perf_counter()
            connection.send(query.name, query.text)
            round_trip[query.name].append(time.perf_counter() - started)
        if turn == 0:
            metrics["client.response_bytes"] = float(
                connection.client.bytes_received - received
            )
    metrics["client.socket_json_ms"] = sum(
        harness.median(round_trip[name]) * 1000.0 - probe["dispatch_ms"][name]
        for name in round_trip
    ) / len(round_trip)
    metrics["server.serialize_ms"] = (
        sum(probe["serialize_ms"].values()) / len(probe["serialize_ms"])
    )


def _wire_ledger(open_latencies, lateness, missed, closed_rps, mark, stats):
    reads = [
        sample for kind, samples in open_latencies.items()
        if kind != "write" for sample in samples
    ]
    writes = open_latencies["write"]
    admission = stats["server"]["admission"]["counters"]
    journal = stats["durability"]["journal"]
    graph = stats["graph"]
    return {
        "wire.read_p50_ms": harness.median(reads) * 1000.0,
        "wire.read_p90_ms": harness.quantile(reads, 0.9) * 1000.0,
        "wire.write_p50_ms": harness.median(writes) * 1000.0,
        "wire.write_p90_ms": harness.quantile(writes, 0.9) * 1000.0,
        "wire.closed_rps": closed_rps,
        "wire.slo_miss_fraction": missed / len(lateness),
        "wire.sched_lag_p99_ms": harness.quantile(lateness, 0.99) * 1000.0,
        "wire.late_fraction":
            sum(late > LATE_S for late in lateness) / len(lateness),
        "governor.admitted": float(admission["admitted"]),
        "governor.queued": float(admission["queued"]),
        "governor.shed": float(
            admission["shed_interactive"] + admission["shed_batch"]
        ),
        "mvcc.live_snapshots_max": float(mark["live_snapshots_max"]),
        "mvcc.retained_versions": float(stats["mvcc"]["retained_versions"]),
        "rdf.consolidations": float(stats["mvcc"]["consolidations"]),
        "rdf.dictionary_terms": float(graph["dictionary"]["terms"]),
        "rdf.index_bytes_per_triple": graph["index_bytes"] / graph["triples"],
        "durability.wal_records": float(journal["records_appended"]),
        "durability.wal_bytes_per_triple":
            journal["bytes_appended"] / graph["triples"],
    }


def _dispatch_ledger(summary):
    """Per in-process dispatch: the whole call and the engine beneath."""
    per_op = per_operation(summary, "server.dispatch")
    ledger = {
        metric: per_op(span)
        for metric, span in (
            ("server.dispatch_ms", "server.dispatch"),
            ("sparql.parse_ms", "sparql.parse"),
            ("algebra.plan_ms", "algebra.plan"),
            ("engine.exec_ms", "engine.exec"),
            ("engine.bgp_ms", "engine.bgp"),
        )
    }
    ledger["engine.above_bgp_ms"] = (
        ledger["engine.exec_ms"] - ledger["engine.bgp_ms"]
    )
    return ledger

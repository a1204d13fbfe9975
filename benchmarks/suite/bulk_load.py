"""``bulk_load``: the write path, and coming back from it.

A ``--seed``-generated publication graph, sized from ``--seconds``, is
streamed as 400-triple ``INSERT DATA`` batches into
``SSDM.open(fsync=True)``; the store is closed and opened again, which
replays the WAL.  Parser, interning, WAL codec, fsync, batched index
merge, replay and footprint — no reads in the timed part.  The reopened
store must hold the same triples and answer the mix with the same
fingerprints as the live one did.  Closed loop, one thread.
"""

from __future__ import annotations

import gc
import time

from benchmarks.macro import generator as gen
from benchmarks.suite import harness
from benchmarks.suite.recorder import Recorder, per_operation
from repro.exceptions import SciSparqlError
from repro.ssdm import SSDM

BATCH_TRIPLES = 400
#: dataset size per second of ``--seconds``, chosen so that load
#: (≈13k triples/s at this size) plus replay (≈46k triples/s) take
#: about ``--seconds`` at the defining commit
ARTICLES_PER_SECOND = 900
#: the traced run loads its dataset four times over (parse only,
#: un-journaled, WAL without fsync, WAL with fsync), so it takes a
#: smaller one
TRACED_SHARE = 0.4


def _statements(seed, seconds):
    """The whole dataset as ``INSERT DATA`` batches; a function of
    (seed, seconds) only."""
    articles = max(40, int(seconds * ARTICLES_PER_SECOND))
    scale = gen.MacroScale(
        "bulk", articles=articles, persons=max(20, articles * 3 // 10),
        journals=max(5, articles // 350),
    )
    return list(gen.insert_batches(scale, seed, BATCH_TRIPLES))


def _set_up(seed, seconds, name):
    """Generate the dataset and open an empty journaled store.
    Returns (statements, ssdm, wal_dir, seconds)."""
    started = time.perf_counter()
    statements = _statements(seed, seconds)
    wal_dir = harness.make_scratch(name)
    ssdm = SSDM.open(wal_dir, fsync=True)
    return statements, ssdm, wal_dir, time.perf_counter() - started


def _set_up_again(seed, seconds, index):
    _, ssdm, _, elapsed = _set_up(seed, seconds, "bulk-again%d" % index)
    ssdm.close()
    return elapsed


def _insert_all(ssdm, statements, checks, recorder=None):
    """Stream the batches; returns (triples inserted, batch latencies).
    A batch that raises is a failure and leaves no latency."""
    inserted, latencies = 0, []
    for statement in statements:
        started = time.perf_counter()
        try:
            if recorder is None:
                count = ssdm.execute(statement)
            else:
                with recorder.request("bulk.insert") as root:
                    count = ssdm.execute(statement)
                recorder.graft(root.index, ssdm.last_trace, phases=("parse",))
        except SciSparqlError as error:
            checks.record(False, "batch raised %r" % (error,))
            continue
        latencies.append(time.perf_counter() - started)
        checks.record(count > 0, "batch inserted %r triples" % (count,))
        inserted += count
    return inserted, latencies


def _timed(call, *args):
    """(result, wall seconds, CPU seconds) of one call."""
    cpu_started = harness.cpu_seconds()
    started = time.perf_counter()
    result = call(*args)
    return (result, time.perf_counter() - started,
            harness.cpu_seconds() - cpu_started)


def _compare(reopened, inserted, live_triples, live_prints, checks):
    """The reopened store must hold the same triples and answer the
    mix with the same fingerprints as the live one did."""
    checks.record(
        inserted == live_triples == len(reopened.graph),
        "inserted %d, live %d, reopened %d triples"
        % (inserted, live_triples, len(reopened.graph)),
    )
    harness.check_mix_pass(reopened.execute, live_prints, checks, "reopened")


def run(options, checks):
    if options.trace:
        return _traced(options, checks), {}
    statements, ssdm, wal_dir, setup_seconds = _set_up(
        options.seed, options.seconds, "bulk"
    )
    sent_bytes = sum(len(s.encode("utf-8")) for s in statements)
    cpu_started = harness.cpu_seconds()
    inserted, latencies = _insert_all(ssdm, statements, checks)
    cpu = harness.cpu_seconds() - cpu_started
    live_prints = harness.mix_fingerprints(ssdm.execute, checks, "live")
    live_triples = len(ssdm.graph)
    stored = harness.stored_rdf_bytes(ssdm, wal_dir)

    # close, drop the live store so it cannot inflate the reopened
    # one's footprint, open the WAL directory again (replay)
    _, close_seconds, close_cpu = _timed(ssdm.close)
    del ssdm
    gc.collect()
    reopened, reopen_seconds, reopen_cpu = _timed(SSDM.open, wal_dir)
    reopen_seconds += close_seconds
    try:
        _compare(reopened, inserted, live_triples, live_prints, checks)
    finally:
        reopened.close()
    batches = len(latencies)
    metrics = {
        "op_geomean_ms": harness.class_geomean_ms({
            "insert": latencies, "replay": [reopen_seconds / batches],
        }),
        "throughput_per_s": inserted / sum(latencies),
        "cpu_ms_per_op": (cpu + close_cpu + reopen_cpu) * 1000.0 / batches,
        "peak_rss_mb": harness.peak_rss_mib(),
        "space_amplification": stored / sent_bytes,
    }
    metrics["setup_s"] = harness.median_setup(
        setup_seconds,
        lambda index: _set_up_again(options.seed, options.seconds, index),
    )
    return metrics, {"triples": inserted, "batches": batches,
                     "reopen_s": reopen_seconds}


def _traced(options, checks):
    """The write path taken apart by loading the same dataset four
    ways: through the parser only, into an un-journaled store, into a
    WAL without fsync, into a WAL with fsync (recorded); then replay."""
    statements = _statements(
        options.seed, options.seconds * TRACED_SHARE
    )
    scratch = SSDM()
    started = time.perf_counter()
    for statement in statements:
        scratch.parse(statement)
    parse_s = time.perf_counter() - started

    def load_seconds(ssdm):
        return sum(_insert_all(ssdm, statements, checks)[1])

    unjournaled_s = load_seconds(scratch)
    del scratch
    gc.collect()
    relaxed = SSDM.open(harness.make_scratch("bulk-nofsync"), fsync=False)
    relaxed_s = load_seconds(relaxed)
    relaxed.close()
    del relaxed
    gc.collect()

    recorder = Recorder()
    wal_dir = harness.make_scratch("bulk-fsync")
    ssdm = SSDM.open(wal_dir, fsync=True)
    inserted, latencies = _insert_all(ssdm, statements, checks, recorder)
    durable_s = sum(latencies)
    live_prints = harness.mix_fingerprints(ssdm.execute, checks, "live")
    live_triples = len(ssdm.graph)
    stats = ssdm.stats()
    graph, journal = stats["graph"], stats["durability"]["journal"]
    ssdm.close()
    del ssdm
    gc.collect()
    reopened, replay_s, _ = _timed(SSDM.open, wal_dir)
    try:
        _compare(reopened, inserted, live_triples, live_prints, checks)
    finally:
        reopened.close()

    _, summary = recorder.analyse()
    metrics = {
        "sparql.load_parse_s": parse_s,
        "sparql.parse_ms":
            per_operation(summary, "bulk.insert")("sparql.parse"),
        "rdf.insert_s": unjournaled_s - parse_s,
        "rdf.index_bytes_per_triple": graph["index_bytes"] / graph["triples"],
        "rdf.dictionary_terms": float(graph["dictionary"]["terms"]),
        "rdf.consolidations": float(stats["mvcc"]["consolidations"]),
        "durability.wal_append_s": relaxed_s - unjournaled_s,
        "durability.fsync_s": durable_s - relaxed_s,
        "durability.wal_bytes_per_triple":
            journal["bytes_appended"] / graph["triples"],
        "durability.wal_records": float(journal["records_appended"]),
        "durability.replay_s": replay_s,
        "durability.replay_triples_per_s": inserted / replay_s,
        "bulk.insert_p50_ms": harness.median(latencies) * 1000.0,
        "bulk.insert_p90_ms": harness.quantile(latencies, 0.9) * 1000.0,
    }
    harness.write_trace(recorder, summary, "bulk_load", options.seed, metrics)
    return metrics

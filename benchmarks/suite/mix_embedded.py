"""``mix_embedded``: whole passes of the 12-query mix via ``SSDM.execute``.

Parser, planner, engine and ID→term decode do all the work: no socket,
no array storage.  Closed loop, one thread.  The pinned graph is loaded
through ``INSERT DATA`` into ``SSDM.open`` (WAL, fsync); every pass runs
the 12 queries in an order shuffled from ``--seed``.
"""

from __future__ import annotations

import random
import time

from benchmarks.macro.queries import QUERIES
from benchmarks.suite import harness
from benchmarks.suite.recorder import Recorder, per_operation
from repro import observability as obs
from repro.exceptions import SciSparqlError
from repro.governor import get_governor
from repro.mvcc import snapshot_scope

#: single-triple writes that fill the MVCC overlay for the read-penalty
#: measurement; the predicate is one no query of the mix touches
OVERLAY_WRITES = 100
OVERLAY_WRITE = (
    "INSERT DATA { <http://sp2b.example.org/bench/suite/overlay/%d> "
    "<http://sp2b.example.org/bench/suiteOverlay> %d }"
)


def run(options, checks):
    expected, source = harness.expected_fingerprints(
        options.scale, options.expected
    )
    info = {"fingerprints": source}
    ssdm, wal_dir, sent_bytes, setup_seconds = harness.open_pinned_store(
        options.scale, "mix"
    )
    try:
        harness.check_mix_pass(ssdm.execute, expected, checks, "warm-up")
        mix = _Mix(ssdm, expected, checks, random.Random(options.seed))
        if options.trace:
            metrics = _traced(mix, options, info)
        else:
            metrics = _end_to_end(mix, options.seconds)
            metrics["space_amplification"] = (
                harness.stored_rdf_bytes(ssdm, wal_dir) / sent_bytes
            )
            metrics["peak_rss_mb"] = harness.peak_rss_mib()
        harness.check_mix_pass(ssdm.execute, expected, checks, "final")
    finally:
        ssdm.close()
    if not options.trace:
        metrics["setup_s"] = harness.median_setup(
            setup_seconds, lambda index: _set_up_again(options.scale, index)
        )
    return metrics, info


def _set_up_again(scale, index):
    ssdm, _, _, seconds = harness.open_pinned_store(scale, "mix-again%d" % index)
    ssdm.close()
    return seconds


def _no_latencies():
    return {query.name: [] for query in QUERIES}


class _Mix:
    """The query loop both modes share: seed-shuffled whole passes,
    every result checked by row count."""

    def __init__(self, ssdm, expected, checks, rng):
        self.ssdm = ssdm
        self.expected = expected
        self.checks = checks
        self.rng = rng
        self.rows_per_pass = 0

    def run_pass(self, latencies=None, recorder=None, scoped=False):
        """One pass; returns its wall time.  Per-query latencies are
        appended to ``latencies``; a failed query leaves none behind."""
        order = list(QUERIES)
        self.rng.shuffle(order)
        execute = self.ssdm.execute
        governor = get_governor() if scoped else None
        rows = 0
        pass_started = time.perf_counter()
        for query in order:
            started = time.perf_counter()
            try:
                if recorder is not None:
                    count = self._recorded(recorder, query)
                elif scoped:
                    with governor.scope():
                        count = len(execute(query.text).rows)
                else:
                    count = len(execute(query.text).rows)
            except SciSparqlError as error:
                self.checks.record(False, "%s raised %r" % (query.name, error))
                continue
            elapsed = time.perf_counter() - started
            rows += count
            if self.checks.record(
                count == self.expected[query.name]["rows"],
                "%s returned %d rows" % (query.name, count),
            ) and latencies is not None:
                latencies[query.name].append(elapsed)
        self.rows_per_pass = rows
        return time.perf_counter() - pass_started

    def _recorded(self, recorder, query):
        with recorder.request("mix.op"):
            with recorder.span("ssdm.execute") as call:
                result = self.ssdm.execute(query.text)
            recorder.graft(call.index, self.ssdm.last_trace, operators=True)
        return len(result.rows)


def _end_to_end(mix, seconds):
    latencies = _no_latencies()
    cpu_started = harness.cpu_seconds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        mix.run_pass(latencies)
    cpu = harness.cpu_seconds() - cpu_started
    operations = sum(len(samples) for samples in latencies.values())
    busy = sum(sum(samples) for samples in latencies.values())
    return {
        "op_geomean_ms": harness.class_geomean_ms(latencies),
        "throughput_per_s": operations / busy,
        "cpu_ms_per_op": cpu * 1000.0 / operations,
    }


def _interleaved(pairs, treated, control):
    """Whole passes of two configurations, alternating which goes
    first so drift cancels; returns (treated times, control times)."""
    treated_times, control_times = [], []
    for index in range(pairs):
        if index % 2:
            control_times.append(control())
            treated_times.append(treated())
        else:
            treated_times.append(treated())
            control_times.append(control())
    return treated_times, control_times


def _traced(mix, options, info):
    """The per-layer ledger: recorded passes, then the price list of
    the protective layers as interleaved A/B medians of whole passes.
    Pass counts are fixed by ``--seconds``."""
    ssdm = mix.ssdm
    pairs = max(3, int(options.seconds / 2))
    recorder = Recorder()
    latencies = _no_latencies()

    recorded, plain = _interleaved(
        pairs, lambda: mix.run_pass(latencies, recorder), mix.run_pass
    )
    _, summary = recorder.analyse()
    per_op = per_operation(summary, "mix.op")
    metrics = {
        "sparql.parse_ms": per_op("sparql.parse"),
        "algebra.plan_ms": per_op("algebra.plan"),
        "engine.exec_ms": per_op("engine.exec"),
        "engine.bgp_ms": per_op("engine.bgp"),
        "ssdm.overhead_ms": per_op("ssdm.execute", "self_ms"),
        "engine.rows_out": float(mix.rows_per_pass),
        "mix.pass_ms": harness.median(recorded) * 1000.0,
        "mix.op_p90_ms": harness.quantile(
            [s for samples in latencies.values() for s in samples], 0.9
        ) * 1000.0,
        "bench.trace_overhead_pct": harness.percent_over(recorded, plain),
    }
    metrics["engine.above_bgp_ms"] = (
        metrics["engine.exec_ms"] - metrics["engine.bgp_ms"]
    )
    for name, samples in latencies.items():
        metrics["mix.%s_ms" % name[:3]] = harness.median(samples) * 1000.0

    def untraced_pass():
        obs.set_tracing(False)
        try:
            return mix.run_pass()
        finally:
            obs.set_tracing(True)

    metrics["observability.tracing_overhead_pct"] = harness.percent_over(
        *_interleaved(pairs, mix.run_pass, untraced_pass)
    )
    metrics["governor.scope_overhead_pct"] = harness.percent_over(
        *_interleaved(pairs, lambda: mix.run_pass(scoped=True), mix.run_pass)
    )
    metrics["mvcc.pin_us"] = _snapshot_pin_us(ssdm)

    before = [mix.run_pass() for _ in range(pairs)]
    consolidations = ssdm.stats()["mvcc"]["consolidations"]
    for index in range(OVERLAY_WRITES):
        ssdm.execute(OVERLAY_WRITE % (index, index))
    after = [mix.run_pass() for _ in range(pairs)]
    mvcc = ssdm.stats()["mvcc"]
    metrics["mvcc.overlay_read_penalty_pct"] = harness.percent_over(
        after, before
    )
    metrics["mvcc.retained_versions"] = float(mvcc["retained_versions"])
    info["consolidations_during_overlay_writes"] = (
        mvcc["consolidations"] - consolidations
    )
    harness.write_trace(recorder, summary, "mix_embedded", options.seed, metrics)
    return metrics


def _snapshot_pin_us(ssdm, rounds=2000):
    """Median cost of what every read pays before it starts: capture
    the published version, pin it, enter the ambient snapshot scope."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        with ssdm.mvcc.reading(ssdm.dataset.capture()) as snapshot:
            with snapshot_scope(snapshot):
                pass
        samples.append(time.perf_counter() - started)
    return harness.median(samples) * 1e6

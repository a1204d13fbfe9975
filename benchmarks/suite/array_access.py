"""``array_access``: array-proxy resolution over chunked external storage.

The paper's core.  64 BISTAB-style subjects (four rate parameters,
realization, batch) each carry one 256×256 float64 array — 32 MiB in
all — in a file-backed ``SqlArrayStore`` (8 KiB chunks,
``journal_mode=WAL``) with a private ``BufferPool(8 MiB)`` and
``default_strategy="prefetch"``.  One operation is one query selecting
the 1–4 subjects of a batch by metadata with ``?d[...]`` in the SELECT
list, then ``resolved()``.  The BGP is trivial; APR, SPD, ASEI and the
buffer pool do the work.  80 % of operations hit a 12-array hot set
(6 MiB, fits the pool), 20 % go anywhere (32 MiB, 4× the pool).
Closed loop, one thread, untimed warm-up first.

Array contents follow a closed form of (seed, array, row, column), so
every result is checked against the formula — exactly for subscripts,
to 1e-9 relative for ``array_sum`` — without the benchmark holding a
second 32 MiB copy that would drown the store in ``peak_rss_mb``.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import numpy as np

from benchmarks.suite import harness
from benchmarks.suite.recorder import Recorder, per_operation
from repro.arrays.nma import NumericArray
from repro.exceptions import SciSparqlError
from repro.rdf.term import Literal, URI
from repro.ssdm import SSDM
from repro.storage.bufferpool import BufferPool
from repro.storage.sqlstore import SqlArrayStore

ARRAYS = 64
SIDE = 256
CHUNK_BYTES = 8192
POOL_BYTES = 8 << 20
HOT_ARRAYS = 12
HOT_SHARE = 0.8
RAW_BYTES = ARRAYS * SIDE * SIDE * 8
STRIDE = 8
BLOCK = 32
WARM_UP_DECKS = 2
#: the traced loop runs this many decks per second of --seconds (about
#: 40 % of what the end-to-end loop completes), alternating decks with
#: the recorder on and off
TRACED_DECKS_PER_SECOND = 1.5

#: (access pattern, operations per 100-operation deck); 80 % of each
#: pattern's operations go to the hot set
PATTERNS = (
    ("element", 10), ("row", 15), ("column", 25), ("stride", 15),
    ("block", 20), ("aggregate", 15),
)

NS = "http://udbl.uu.se/bistab#"
QUERY = (
    "PREFIX bistab: <" + NS + "> SELECT ?s %s "
    "WHERE { ?s bistab:batch %d . ?s bistab:result ?d }"
)

# every element is offset + scale * _UNIT[row, column]: only exactly
# rounded elementwise operations, so a slice computed here equals the
# stored bytes bit for bit
_UNIT = np.mod(
    np.arange(SIDE * SIDE, dtype=np.float64) * 0.6180339887498949, 1.0
).reshape(SIDE, SIDE)


class TimedStore(SqlArrayStore):
    """``SqlArrayStore`` with a span around each ASEI retrieval call
    (traced runs only).  A fetch handed to a prefetch worker is filed
    under the span that was open where it was submitted."""

    def __init__(self, recorder, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recorder = recorder
        #: (array id, ids or ranges asked for) -> span that asked
        self._causes = {}

    def get_chunks_async(self, array_id, chunk_ids, executor=None):
        chunk_ids = list(chunk_ids)
        if self._recorder.enabled:
            self._causes[array_id, tuple(chunk_ids)] = self._recorder.current()
        return super().get_chunks_async(array_id, chunk_ids, executor)

    def get_chunk_ranges_async(self, array_id, ranges, executor=None):
        ranges = [tuple(r) for r in ranges]
        if self._recorder.enabled:
            self._causes[array_id, tuple(ranges)] = self._recorder.current()
        return super().get_chunk_ranges_async(array_id, ranges, executor)

    def get_chunk(self, array_id, chunk_id):
        with self._recorder.span("asei.get_chunk"):
            return super().get_chunk(array_id, chunk_id)

    def get_chunks(self, array_id, chunk_ids):
        cause = self._causes.pop((array_id, tuple(chunk_ids)), None)
        with self._recorder.span("asei.get_chunks", cause):
            return super().get_chunks(array_id, chunk_ids)

    def get_chunk_ranges(self, array_id, ranges):
        cause = self._causes.pop((array_id, tuple(ranges)), None)
        with self._recorder.span("asei.get_chunk_ranges", cause):
            return super().get_chunk_ranges(array_id, ranges)

    def aggregate(self, array_id, op):
        with self._recorder.span("asei.aggregate"):
            return super().aggregate(array_id, op)


_ASEI_SPANS = ("asei.get_chunk", "asei.get_chunks",
               "asei.get_chunk_ranges", "asei.aggregate")


class _Dataset:
    """What ``--seed`` decides: array contents, which subjects share a
    batch, which batches are hot."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.offsets = [rng.uniform(-50.0, 50.0) for _ in range(ARRAYS)]
        self.scales = [rng.uniform(0.5, 20.0) for _ in range(ARRAYS)]
        self.rates = [
            [rng.uniform(*bounds) for bounds in (
                (15.0, 35.0), (0.4, 1.2), (40.0, 90.0), (2.5, 4.5),
            )]
            for _ in range(ARRAYS)
        ]
        order = rng.sample(range(ARRAYS), ARRAYS)
        hot_sizes = [1, 2, 3, 4, 2]            # HOT_ARRAYS subjects
        cold_sizes = [1, 2, 3, 4] * 5 + [2]    # the other 52
        rng.shuffle(hot_sizes)
        rng.shuffle(cold_sizes)
        #: batch number (1-based) -> subjects, hot batches first
        self.batches = []
        for size in hot_sizes + cold_sizes:
            self.batches.append([order.pop() for _ in range(size)])
        self.hot_batches = len(hot_sizes)
        self.sums = [
            float(np.sum(self.array(subject))) for subject in range(ARRAYS)
        ]

    def array(self, subject):
        return self.offsets[subject] + self.scales[subject] * _UNIT

    def view(self, subject, rows, columns):
        return self.offsets[subject] + self.scales[subject] * _UNIT[rows, columns]


def subject_uri(subject):
    return URI("%stask%d" % (NS, subject))


def _set_up(seed, name, recorder=None):
    """Generate the arrays, store them, describe them in RDF.
    Returns (dataset, ssdm, store, pool, directory, seconds)."""
    started = time.perf_counter()
    dataset = _Dataset(seed)
    directory = harness.make_scratch(name)
    pool = BufferPool(POOL_BYTES)
    settings = dict(
        database=os.path.join(directory, "arrays.db"),
        chunk_bytes=CHUNK_BYTES, buffer_pool=pool,
        default_strategy="prefetch",
    )
    store = (
        SqlArrayStore(**settings) if recorder is None
        else TimedStore(recorder, **settings)
    )
    ssdm = SSDM(array_store=store)
    for number, subjects in enumerate(dataset.batches, start=1):
        for realization, subject in enumerate(subjects, start=1):
            task = subject_uri(subject)
            ssdm.add(task, URI(NS + "batch"), Literal(number))
            ssdm.add(task, URI(NS + "realization"), Literal(realization))
            for rate, value in zip(("k_1", "k_a", "k_d", "k_4"),
                                   dataset.rates[subject]):
                ssdm.add(task, URI(NS + rate), Literal(value))
            ssdm.add(task, URI(NS + "result"),
                     NumericArray(dataset.array(subject)))
    return dataset, ssdm, store, pool, directory, \
        time.perf_counter() - started


def _set_up_again(seed, index):
    _, _, store, _, _, seconds = _set_up(seed, "arrays-again%d" % index)
    store.close()
    return seconds


class _Operations:
    """The seeded operation stream and the check of each result."""

    def __init__(self, dataset, seed):
        self._dataset = dataset
        rng = self._rng = random.Random(seed + 1)
        hot = rng.sample(range(dataset.hot_batches), dataset.hot_batches)
        anywhere = rng.sample(range(len(dataset.batches)),
                              len(dataset.batches))
        self._batches = {True: itertools.cycle(hot),
                         False: itertools.cycle(anywhere)}

    def deck(self):
        """100 operations, shuffled: the same count of every pattern in
        every deck, 80 % of each on the hot set, batches taken in turn
        — so whole decks do the same work mix whatever the seed; the
        seed places the subscripts and orders the deck."""
        operations = [
            self._operation(pattern, index < count * HOT_SHARE)
            for pattern, count in PATTERNS for index in range(count)
        ]
        self._rng.shuffle(operations)
        return operations

    def _operation(self, pattern, hot):
        """(pattern, hot?, query text, rows and columns selected,
        subjects of the batch)."""
        rng, dataset = self._rng, self._dataset
        batch = next(self._batches[hot])
        row, column = rng.randint(1, SIDE), rng.randint(1, SIDE)
        if pattern == "element":
            select = "?d[%d,%d]" % (row, column)
            rows, columns = row - 1, column - 1
        elif pattern == "row":
            select = "?d[%d,:]" % row
            rows, columns = row - 1, slice(None)
        elif pattern == "column":
            select = "?d[:,%d]" % column
            rows, columns = slice(None), column - 1
        elif pattern == "stride":
            first = rng.randint(1, STRIDE)
            select = "?d[%d:%d:%d,:]" % (first, STRIDE, SIDE)
            rows, columns = slice(first - 1, SIDE, STRIDE), slice(None)
        elif pattern == "block":
            top = rng.randint(1, SIDE - BLOCK + 1)
            left = rng.randint(1, SIDE - BLOCK + 1)
            select = "?d[%d:%d,%d:%d]" % (
                top, top + BLOCK - 1, left, left + BLOCK - 1
            )
            rows = slice(top - 1, top - 1 + BLOCK)
            columns = slice(left - 1, left - 1 + BLOCK)
        else:
            select = "(array_sum(?d) AS ?v)"
            rows = columns = None
        return (pattern, hot, QUERY % (select, batch + 1), (rows, columns),
                dataset.batches[batch])

    def check(self, pattern, view, subjects, result):
        """Exactly the batch's subjects came back, each with the value
        the formula gives.  Returns (correct?, bytes handed over)."""
        dataset = self._dataset
        wanted = {subject_uri(subject): subject for subject in subjects}
        if len(result.rows) != len(wanted):
            return False, 0
        handed = 0
        for task, value in result.rows:
            subject = wanted.pop(task, None)
            if subject is None:
                return False, handed
            if pattern == "aggregate":
                handed += 8
                want = dataset.sums[subject]
                if abs(value - want) > 1e-9 * abs(want):
                    return False, handed
                continue
            want = dataset.view(subject, *view)
            if pattern == "element":
                handed += 8
                if value != want:
                    return False, handed
                continue
            got = value.to_numpy()
            handed += got.nbytes
            if not np.array_equal(got, want):
                return False, handed
        return True, handed


class _Loop:
    """Executes operations, timed; both modes share it."""

    def __init__(self, ssdm, operations, checks, recorder):
        self.ssdm = ssdm
        self.operations = operations
        self.checks = checks
        self.recorder = recorder
        self.handed_bytes = 0
        self.check_cpu = 0.0

    def deck(self, sink=None):
        for operation in self.operations.deck():
            self.one(operation, sink)

    def one(self, operation, sink=None):
        """Run one operation; a correct one's latency goes to
        ``sink[pattern]`` and ``sink[hot or cold]``."""
        pattern, hot, text, view, subjects = operation
        recorder = self.recorder
        started = time.perf_counter()
        try:
            with recorder.request("array.op"):
                with recorder.span("ssdm.execute") as call:
                    result = self.ssdm.execute(text)
                recorder.graft(call.index, self.ssdm.last_trace)
                with recorder.span("apr.resolve"):
                    result = result.resolved()
        except SciSparqlError as error:
            self.checks.record(False, "%s raised %r" % (pattern, error))
            return
        elapsed = time.perf_counter() - started
        cpu_started = time.process_time()
        correct, handed = self.operations.check(
            pattern, view, subjects, result
        )
        self.check_cpu += time.process_time() - cpu_started
        self.handed_bytes += handed
        if self.checks.record(correct, "%s returned a wrong result: %s"
                              % (pattern, text)) and sink is not None:
            sink.setdefault(pattern, []).append(elapsed)
            sink.setdefault("hot" if hot else "cold", []).append(elapsed)


def run(options, checks):
    # query thread and APR prefetch workers share one CPU, so where the
    # scheduler would have put the workers cannot show as a mode
    harness.keep_to_one_cpu()
    recorder = Recorder()
    recorder.enabled = False
    dataset, ssdm, store, pool, directory, setup_seconds = _set_up(
        options.seed, "arrays", recorder if options.trace else None
    )
    try:
        loop = _Loop(ssdm, _Operations(dataset, options.seed), checks, recorder)
        # The store builds its default resolver on first use, and only
        # ``resolve()`` honours ``default_strategy``: an ``array_sum``
        # arriving first would leave it on SPD without the pool for the
        # whole run (README, Findings).  One subscript read first makes
        # every seed measure the configured strategy.
        ssdm.execute(QUERY % ("?d[1,1]", 1)).resolved()
        for _ in range(WARM_UP_DECKS):
            loop.deck()
        if options.trace:
            return _traced(loop, store, pool, options), {}
        latencies = {}
        cpu_started = harness.cpu_seconds()
        deadline = time.perf_counter() + options.seconds
        while time.perf_counter() < deadline:
            loop.deck(latencies)
        cpu = harness.cpu_seconds() - cpu_started - loop.check_cpu
        stored = harness.dir_bytes(directory)
        rss = harness.peak_rss_mib()
    finally:
        # speculative fetches nobody waits for may still be in flight
        time.sleep(0.3)
        store.close()
    classes = {name: latencies[name] for name, _ in PATTERNS}
    operations = sum(len(samples) for samples in classes.values())
    return {
        "setup_s": harness.median_setup(
            setup_seconds, lambda index: _set_up_again(options.seed, index)
        ),
        "op_geomean_ms": harness.class_geomean_ms(classes),
        "throughput_per_s":
            operations / sum(sum(samples) for samples in classes.values()),
        "cpu_ms_per_op": cpu * 1000.0 / operations,
        "peak_rss_mb": rss,
        "space_amplification": stored / RAW_BYTES,
    }, {"operations": operations}


def _traced(loop, store, pool, options):
    """A fixed number of decks, alternately with the recorder on and
    off; the recorded decks give the per-layer rows, the gap between
    the two the recorder's own cost."""
    recorder = loop.recorder
    store.stats.reset()
    pool.reset_counters()
    loop.handed_bytes = 0
    recorded, plain = {}, {}
    for deck in range(max(2, int(options.seconds * TRACED_DECKS_PER_SECOND))):
        recorder.enabled = deck % 2 == 0
        loop.deck(recorded if recorder.enabled else plain)
    recorder.enabled = False
    time.sleep(0.3)      # let speculation land before reading counters
    storage = store.stats.snapshot()
    cache = pool.stats()

    _, summary = recorder.analyse()
    per_op = per_operation(summary, "array.op")
    everything = [
        sample for name, _ in PATTERNS for sample in recorded.get(name, [])
    ]
    metrics = {
        "sparql.parse_ms": per_op("sparql.parse"),
        "algebra.plan_ms": per_op("algebra.plan"),
        "engine.array_exec_ms": per_op("engine.exec", "self_ms"),
        "ssdm.overhead_ms": per_op("ssdm.execute", "self_ms"),
        "apr.resolve_ms": per_op("apr.resolve"),
        "apr.assembly_ms": per_op("apr.resolve", "self_ms"),
        "asei.fetch_ms": sum(per_op(name) for name in _ASEI_SPANS),
        "asei.requests": float(storage["requests"]),
        "asei.chunks_fetched": float(storage["chunks_fetched"]),
        "asei.bytes_fetched": float(storage["bytes_fetched"]),
        "asei.read_amplification":
            storage["bytes_fetched"] / loop.handed_bytes,
        "asei.aggregates_delegated": float(storage["aggregates_delegated"]),
        "bufferpool.hit_rate": cache["hits"] / max(1, cache["lookups"]),
        "bufferpool.evictions": float(cache["evictions"]),
        "bufferpool.prefetch_hits": float(cache["prefetch_hits"]),
        "bufferpool.wasted_prefetches": float(cache["wasted_prefetches"]),
        "bufferpool.inflight_waits": float(cache["inflight_waits"]),
        "array.op_p50_ms": harness.median(everything) * 1000.0,
        "array.op_p99_ms": harness.quantile(everything, 0.99) * 1000.0,
        "array.hot_p50_ms": harness.median(recorded["hot"]) * 1000.0,
        "array.cold_p50_ms": harness.median(recorded["cold"]) * 1000.0,
        "bench.trace_overhead_pct": (harness.geomean([
            harness.median(recorded[name]) / harness.median(plain[name])
            for name, _ in PATTERNS
        ]) - 1.0) * 100.0,
    }
    for name, _ in PATTERNS:
        metrics["array.%s_ms" % name] = harness.median(recorded[name]) * 1000.0
    harness.write_trace(
        recorder, summary, "array_access", options.seed, metrics
    )
    return metrics

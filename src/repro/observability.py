"""Query observability: traces, metrics, and the slow-query log.

The dissertation's evaluation chapters (§6.3 mini-benchmark, §6.4
BISTAB) hinge on knowing *where* query time goes — parse, plan, chunk
I/O, join loops.  This module is the zero-dependency substrate the whole
request path reports into:

- **Spans** — every :meth:`SSDM.execute <repro.ssdm.SSDM.execute>`
  builds one :class:`QueryTrace`: a tree of timed :class:`Span` nodes
  (``parse``, ``plan``, ``execute``, per-operator ``bgp``/``join``/
  ``filter``/``aggregate``, and storage spans ``chunk_fetch``/
  ``pool_hit``/``wal_append``) carrying counters such as rows in/out,
  chunks, bytes, and pool hits.  The active trace and span are fields
  of the request context (:mod:`repro.context`), so instrumentation
  sites only say ``with span("parse"):`` — no trace object is threaded
  through signatures.
  Deadline expiries, cancellations, and injected faults are recorded as
  trace *events*.
- **Metrics** — a process-wide :class:`MetricsRegistry` of counters,
  gauges, and fixed-log-bucket :class:`Histogram` s, exported through
  ``SSDM.stats()["metrics"]``, the server's ``metrics`` op, and
  ``scripts/dump_metrics.py``.  The clock is injectable
  (:func:`set_clock`), so tests never depend on wall-clock randomness.
- **Slow-query log** — a bounded :class:`SlowQueryLog` keeping the N
  *worst* finished traces above a latency threshold, surfaced through
  the server's ``slowlog`` op and rendered by
  ``SSDM.explain(text, analyze=True)``.

Threading model: a trace belongs to the thread that opened it, but
helper threads fetching on its behalf (the APR prefetch pool) adopt a
fork of the submitter's request context, and their storage spans
accumulate under the span that was current at submit time.  Aggregate
spans and child creation are guarded by a per-trace lock; the per-row
operator accounting in the engine stays lock-free because only the
query thread touches it.

Everything here must stay import-light: this module is imported by the
lifecycle, storage, and engine layers and must never import them back
(its only package import is the leaf :mod:`repro.context`).
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro import context

__all__ = [
    "Span", "QueryTrace", "MetricsRegistry", "Counter", "Gauge",
    "Histogram", "SlowQueryLog", "span", "observe_span", "tick", "add",
    "event",
    "trace_query", "current_trace", "current_span",
    "set_tracing", "tracing_enabled", "metrics",
    "set_metrics", "slow_query_log", "set_slow_query_log", "set_clock",
]

#: Injectable time sources.  ``_clock`` is the monotonic span timer;
#: ``_wall`` stamps traces for the slow-query log.  Tests swap them via
#: :func:`set_clock` so no assertion ever races real time.
_clock: Callable[[], float] = time.perf_counter
_wall: Callable[[], float] = time.time

#: Hard caps keeping a pathological query from ballooning its trace.
MAX_CHILD_SPANS = 128
MAX_EVENTS = 256
MAX_TEXT_CHARS = 2000


def set_clock(clock=None, wall=None):
    """Install replacement time sources; returns the previous pair.

    ``clock`` feeds span durations (monotonic seconds), ``wall`` feeds
    trace start stamps.  Passing None keeps the current source.
    """
    global _clock, _wall
    previous = (_clock, _wall)
    if clock is not None:
        _clock = clock
    if wall is not None:
        _wall = wall
    return previous


# -- spans --------------------------------------------------------------------------


class Span:
    """One timed node of a query trace.

    ``elapsed`` accumulates across ``calls`` begin/end cycles, so a span
    can describe either a single phase (``parse``) or an *aggregate* of
    many short operations (every ``chunk_fetch`` of a query folds into
    one span, keeping trace size bounded no matter how many chunks
    moved).  ``counters`` holds integers such as ``rows_out`` or
    ``bytes``.
    """

    __slots__ = ("name", "elapsed", "calls", "counters", "children",
                 "_aggregates", "_overflow")

    def __init__(self, name):
        self.name = name
        self.elapsed = 0.0
        self.calls = 0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self._aggregates: Optional[Dict[str, "Span"]] = None
        self._overflow = 0

    def add(self, name, delta=1):
        """Add ``delta`` to one counter (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def child(self, name):
        """Append a fresh child span (bounded; overflow is counted)."""
        if len(self.children) >= MAX_CHILD_SPANS:
            self._overflow += 1
            return self.aggregate_child("(truncated)")
        node = Span(name)
        self.children.append(node)
        return node

    def aggregate_child(self, name):
        """The accumulator child of this name, created on first use."""
        if self._aggregates is None:
            self._aggregates = {}
        node = self._aggregates.get(name)
        if node is None:
            node = Span(name)
            self._aggregates[name] = node
            self.children.append(node)
        return node

    def total(self, counter):
        """This span's counter summed over the whole subtree."""
        value = self.counters.get(counter, 0)
        for child in self.children:
            value += child.total(counter)
        return value

    def to_dict(self):
        payload = {
            "name": self.name,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "calls": self.calls,
        }
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        if self._overflow:
            payload["truncated_children"] = self._overflow
        return payload

    def find(self, name):
        """Depth-first search for the first descendant span by name."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def render(self, indent=0, out=None):
        """Pretty-print the subtree, one line per span."""
        lines = [] if out is None else out
        details = ["%.3fms" % (self.elapsed * 1000.0)]
        if self.calls > 1:
            details.append("calls=%d" % self.calls)
        for key in sorted(self.counters):
            value = self.counters[key]
            if isinstance(value, float):
                details.append("%s=%.3g" % (key, value))
            else:
                details.append("%s=%d" % (key, value))
        lines.append("%s%s  %s" % ("  " * indent, self.name,
                                   " ".join(details)))
        for child in self.children:
            child.render(indent + 1, lines)
        if self._overflow:
            lines.append("%s... %d more spans truncated"
                         % ("  " * (indent + 1), self._overflow))
        if out is None:
            return "\n".join(lines)
        return lines

    def __repr__(self):
        return "Span(%r, %.3fms, %r)" % (
            self.name, self.elapsed * 1000.0, self.counters
        )


class QueryTrace:
    """The span tree, counters, and events of one executed statement."""

    def __init__(self, text=""):
        self.text = str(text)[:MAX_TEXT_CHARS]
        self.root = Span("query")
        self.root.calls = 1
        self.status = "running"
        self.error = None
        self.started_at = _wall()
        self.events: List[dict] = []
        self._started = _clock()
        self._finished = None
        #: Guards child creation, aggregate accumulation, and events —
        #: the paths a worker thread that adopted this trace can hit.
        self._lock = threading.Lock()
        #: id(plan node) -> operator span (engine bookkeeping).
        self._operators: Dict[int, Span] = {}

    @property
    def elapsed(self):
        if self._finished is not None:
            return self._finished - self._started
        return _clock() - self._started

    def finish(self, status="ok", error=None):
        """Seal the trace; idempotent (the first outcome wins)."""
        if self._finished is not None:
            return self
        self._finished = _clock()
        self.root.elapsed = self._finished - self._started
        self.status = status
        if error is not None:
            self.error = "%s: %s" % (type(error).__name__, error)
        return self

    def event(self, name, **data):
        """Record one point event (deadline expiry, injected fault)."""
        with self._lock:
            if len(self.events) >= MAX_EVENTS:
                return
            entry = {"event": name,
                     "at_ms": round((_clock() - self._started) * 1000.0, 3)}
            entry.update(data)
            self.events.append(entry)

    def operator_span(self, node, label, parent):
        """The accumulator span of one plan node, created under
        ``parent`` on first evaluation (re-evaluations of the same node,
        e.g. an OPTIONAL's right side per left row, fold into it)."""
        key = id(node)
        span_ = self._operators.get(key)
        if span_ is None:
            with self._lock:
                span_ = self._operators.get(key)
                if span_ is None:
                    span_ = (parent or self.root).child(label)
                    self._operators[key] = span_
        return span_

    def to_dict(self):
        return {
            "text": self.text,
            "status": self.status,
            "error": self.error,
            "started_at": self.started_at,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "events": list(self.events),
            "spans": self.root.to_dict(),
        }

    def render(self):
        """The EXPLAIN ANALYZE text block for this trace."""
        lines = [
            "-- trace: %s (%.3f ms) --" % (self.status,
                                           self.elapsed * 1000.0),
        ]
        self.root.render(0, lines)
        for entry in self.events:
            extras = " ".join(
                "%s=%s" % (k, v) for k, v in sorted(entry.items())
                if k not in ("event", "at_ms")
            )
            lines.append("  @%.3fms event %s %s"
                         % (entry["at_ms"], entry["event"], extras))
        return "\n".join(lines)

    def __repr__(self):
        return "QueryTrace(status=%r, elapsed_ms=%.3f)" % (
            self.status, self.elapsed * 1000.0
        )


# -- the trace fields of the request context ---------------------------------------

_enabled = True


def set_tracing(enabled):
    """Globally enable/disable trace capture; returns the previous flag.

    Metrics and the slow-query log keep working either way; disabling
    only skips building span trees (the benchmark overhead guard
    compares the two modes).
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def tracing_enabled():
    return _enabled


def _traced():
    """The current request context when it carries a trace, else None
    (a context with a trace always has a ``span`` to report under)."""
    ctx = context.current()
    return ctx if ctx is not None and ctx.trace is not None else None


def current_trace() -> Optional[QueryTrace]:
    """The trace of the current thread's request, or None."""
    ctx = _traced()
    return None if ctx is None else ctx.trace


def current_span() -> Optional[Span]:
    ctx = _traced()
    return None if ctx is None else ctx.span


class _SpanContext:
    """Hand-rolled context manager behind :func:`span`.

    A plain class with ``__slots__`` instead of ``@contextmanager``: the
    generator machinery costs a couple of microseconds per use, which
    the per-operator and per-phase sites on the query hot path cannot
    afford (the benchmark gate holds tracing overhead under 5%).
    """

    __slots__ = ("name", "aggregate", "node", "_ctx", "_previous",
                 "_started")

    def __init__(self, name, aggregate):
        self.name = name
        self.aggregate = aggregate
        self.node = None

    def __enter__(self):
        ctx = self._ctx = _traced()
        if ctx is None:
            return None
        parent = self._previous = ctx.span
        with ctx.trace._lock:
            node = (parent.aggregate_child(self.name) if self.aggregate
                    else parent.child(self.name))
            node.calls += 1
        self.node = ctx.span = node
        self._started = _clock()
        return node

    def __exit__(self, exc_type, exc, tb):
        ctx = self._ctx
        if ctx is None:
            return False
        delta = _clock() - self._started
        if self.aggregate:
            with ctx.trace._lock:
                self.node.elapsed += delta
        else:
            self.node.elapsed += delta
        ctx.span = self._previous
        return False


def span(name, aggregate=False):
    """Open a timed child span under the current one; the ``with``
    target is the span (or None when no trace is active —
    instrumentation sites stay cheap on untraced paths).

    ``aggregate=True`` folds repeated same-named spans under one parent
    into a single accumulator node — mandatory for per-chunk storage
    spans, where one query may perform thousands of operations.
    """
    return _SpanContext(name, aggregate)


def observe_span(name, seconds, **counters):
    """Fold one already-timed operation into an aggregate child span.

    The single-lock fast path for hot leaf spans (per-chunk fetches,
    WAL appends): callers time the operation themselves and report it
    post-hoc, so one lock round-trip replaces the several that
    ``span(name, aggregate=True)`` plus ``add()`` calls would take.
    Only suitable for leaves — the span is never made current, so
    nothing can nest under it.
    """
    ctx = _traced()
    if ctx is None:
        return
    with ctx.trace._lock:
        node = ctx.span.aggregate_child(name)
        node.calls += 1
        node.elapsed += seconds
        for key, delta in counters.items():
            node.counters[key] = node.counters.get(key, 0) + delta


def tick(name, **counters):
    """Record counters on an aggregate child span without timing it.

    Used for instantaneous storage facts (``pool_hit``) where only the
    counts matter; a no-op without an active trace.
    """
    observe_span(name, 0.0, **counters)


def add(name, delta=1):
    """Add to a counter on the current span; no-op when untraced."""
    ctx = _traced()
    if ctx is None:
        return
    with ctx.trace._lock:
        ctx.span.counters[name] = ctx.span.counters.get(name, 0) + delta


def event(name, **data):
    """Record a point event on the active trace; no-op when untraced."""
    ctx = _traced()
    if ctx is not None:
        ctx.trace.event(name, **data)


class _TraceQueryContext(context.scope):
    """The context manager behind :func:`trace_query`: a request-context
    derivation that also opens, seals and files the trace."""

    __slots__ = ("text", "trace", "_started")

    def __init__(self, text, changes):
        context.scope.__init__(self, **changes)
        self.text = text
        self.trace = None

    def __enter__(self):
        if _enabled:
            trace = self.trace = QueryTrace(self.text)
            self._changes.update(trace=trace, span=trace.root)
        else:
            self._started = _clock()
        context.scope.__enter__(self)
        return self.trace

    def __exit__(self, exc_type, exc, tb):
        context.scope.__exit__(self, exc_type, exc, tb)
        registry = metrics()
        trace = self.trace
        if trace is None:
            elapsed = _clock() - self._started
        else:
            trace.finish("error" if exc is not None else "ok", exc)
            elapsed = trace.elapsed
        if exc is not None:
            registry.inc("query_errors_total")
            _count_error_kind(registry, exc)
        registry.inc("queries_total")
        registry.observe("query_latency_seconds", elapsed)
        if trace is not None:
            slow_query_log().observe(trace)
        return False


def trace_query(text, **fields):
    """Open a :class:`QueryTrace` as the trace of a derived request
    context (``fields`` are further context fields entered in the same
    derivation — ``SSDM.execute`` passes its deadline and plan memo).

    On exit the trace is finished (status ``ok`` or ``error``), its
    latency lands in the metrics registry, and it is offered to the
    slow-query log.  The ``with`` target is None when tracing is
    globally disabled — callers must tolerate that.  Nested calls (a
    query executed while another is tracing on the same thread) open an
    inner trace; the outer one is restored afterwards.
    """
    return _TraceQueryContext(text, fields)


def _count_error_kind(registry, error):
    code = getattr(error, "code", None)
    if code in ("TIMEOUT", "CANCELLED"):
        registry.inc("query_timeouts_total")


# -- metrics ------------------------------------------------------------------------


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def snapshot(self):
        return self.value


class Gauge:
    """A value that goes up and down (lag, occupancy)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def snapshot(self):
        return self.value


#: Default histogram buckets: log-spaced latencies from 100µs to ~209s
#: (doubling), a fixed grid so snapshots diff cleanly across processes.
DEFAULT_BUCKETS = tuple(0.0001 * (2 ** k) for k in range(22))


#: The tail quantiles every latency snapshot reports (the load
#: harness's headline numbers).
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class Histogram:
    """Fixed-bucket histogram with running sum/count/min/max.

    Buckets are upper bounds (inclusive); one implicit overflow bucket
    catches everything beyond the last bound.  :meth:`quantile`
    estimates tail latencies from the cumulative bucket counts, and
    :meth:`merge` folds another histogram's state in — the load harness
    combines per-worker histograms this way before computing p50/p99.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q):
        """The estimated value at quantile ``q`` (0..1), or None when
        empty.

        Walks the cumulative bucket counts to the bucket containing the
        target rank, then interpolates linearly inside it; the estimate
        is clamped to the observed ``[min, max]`` range, so single-value
        histograms answer that value exactly and the overflow bucket
        answers ``max``.
        """
        if not self.count:
            return None
        target = min(max(float(q), 0.0), 1.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            below = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index == len(self.bounds):
                    return self.max
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index else 0.0
                fraction = (target - below) / bucket_count
                estimate = lower + (upper - lower) * fraction
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
        return self.max

    def merge(self, other):
        """Fold ``other`` (same bucket bounds) into this histogram."""
        if tuple(other.bounds) != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.sum += other.sum
        self.count += other.count
        if other.min is not None:
            self.min = other.min if self.min is None \
                else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None \
                else max(self.max, other.max)
        return self

    def state(self):
        """A plain-data dump that round-trips via :meth:`from_state`
        (what harness worker processes ship back to the parent)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state):
        instance = cls(bounds=state["bounds"])
        instance.counts = list(state["counts"])
        instance.sum = float(state["sum"])
        instance.count = int(state["count"])
        instance.min = state["min"]
        instance.max = state["max"]
        return instance

    def snapshot(self):
        payload = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": (self.sum / self.count) if self.count else None,
        }
        payload.update(
            (name, self.quantile(q)) for name, q in SNAPSHOT_QUANTILES
        )
        # only the occupied buckets ship, keeping snapshots compact
        payload["buckets"] = {
            ("le_%g" % self.bounds[i]) if i < len(self.bounds)
            else "overflow": count
            for i, count in enumerate(self.counts) if count
        }
        return payload


class MetricsRegistry:
    """Process-wide named counters, gauges, and histograms.

    All mutation goes through one lock; instruments are created on
    first use so call sites never pre-register.  ``clock`` is only
    stored for callers that want a consistent time source (it is not
    read by the registry itself).
    """

    def __init__(self, clock=None):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.clock = clock if clock is not None else (lambda: _clock())

    def inc(self, name, delta=1):
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.value += delta

    def set_gauge(self, name, value):
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            gauge.value = value

    def observe(self, name, value, buckets=None):
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(
                    buckets if buckets is not None else DEFAULT_BUCKETS
                )
            histogram.observe(value)

    @contextmanager
    def timer(self, name):
        """Observe the duration of a block into histogram ``name``."""
        started = _clock()
        try:
            yield
        finally:
            self.observe(name, _clock() - started)

    def counter_value(self, name):
        with self._lock:
            counter = self._counters.get(name)
            return 0 if counter is None else counter.value

    def gauge_value(self, name):
        with self._lock:
            gauge = self._gauges.get(name)
            return 0 if gauge is None else gauge.value

    def histogram_snapshot(self, name):
        with self._lock:
            histogram = self._histograms.get(name)
            return None if histogram is None else histogram.snapshot()

    def snapshot(self):
        """One JSON-ready dict of every instrument."""
        with self._lock:
            return {
                "counters": {
                    name: c.snapshot()
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.snapshot()
                    for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.snapshot()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def reset(self):
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# -- slow-query log -----------------------------------------------------------------


class SlowQueryLog:
    """Bounded log of the worst finished traces above a threshold.

    Keeps at most ``capacity`` entries ordered slowest-first; a new
    trace above ``threshold_ms`` evicts the current fastest entry once
    the log is full.  Entries are plain dicts (the trace's
    :meth:`~QueryTrace.to_dict`), so they serialize over the wire as-is.
    """

    def __init__(self, capacity=32, threshold_ms=100.0):
        self._lock = threading.Lock()
        self.capacity = int(capacity)
        self.threshold_ms = float(threshold_ms)
        self._entries: List[dict] = []
        self.observed = 0
        self.admitted = 0

    def configure(self, capacity=None, threshold_ms=None):
        """Adjust capacity/threshold at runtime; returns self."""
        with self._lock:
            if capacity is not None:
                self.capacity = int(capacity)
                del self._entries[self.capacity:]
            if threshold_ms is not None:
                self.threshold_ms = float(threshold_ms)
        return self

    def observe(self, trace):
        """Offer a finished trace; keeps it when slow enough to rank."""
        elapsed_ms = trace.elapsed * 1000.0
        with self._lock:
            self.observed += 1
            if elapsed_ms < self.threshold_ms or self.capacity <= 0:
                return False
            if len(self._entries) >= self.capacity \
                    and elapsed_ms <= self._entries[-1]["elapsed_ms"]:
                return False
            entry = trace.to_dict()
            position = len(self._entries)
            while position > 0 \
                    and self._entries[position - 1]["elapsed_ms"] \
                    < entry["elapsed_ms"]:
                position -= 1
            self._entries.insert(position, entry)
            del self._entries[self.capacity:]
            self.admitted += 1
            return True

    def snapshot(self):
        """Slowest-first list of entries plus the log's configuration."""
        with self._lock:
            return {
                "threshold_ms": self.threshold_ms,
                "capacity": self.capacity,
                "observed": self.observed,
                "admitted": self.admitted,
                "entries": [dict(entry) for entry in self._entries],
            }

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)


# -- process-wide singletons --------------------------------------------------------

_registry: Optional[MetricsRegistry] = None
_slowlog: Optional[SlowQueryLog] = None
_singleton_lock = threading.Lock()


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    global _registry
    registry = _registry
    if registry is not None:
        # lock-free fast path: rebinding is atomic, and this sits on
        # the per-query hot path
        return registry
    with _singleton_lock:
        if _registry is None:
            _registry = MetricsRegistry()
        return _registry


def set_metrics(registry):
    """Install a replacement registry; returns the previous one."""
    global _registry
    with _singleton_lock:
        previous = _registry
        _registry = registry
        return previous


def slow_query_log() -> SlowQueryLog:
    """The process-wide slow-query log."""
    global _slowlog
    log = _slowlog
    if log is not None:
        return log
    with _singleton_lock:
        if _slowlog is None:
            _slowlog = SlowQueryLog()
        return _slowlog


def set_slow_query_log(log):
    """Install a replacement slow-query log; returns the previous one."""
    global _slowlog
    with _singleton_lock:
        previous = _slowlog
        _slowlog = log
        return previous

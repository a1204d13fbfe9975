"""Query observability: traces, metrics, and the slow-query log."""

import threading

import pytest

from repro import SSDM, MemoryArrayStore
from repro import context
from repro import observability as obs
from repro.client import SSDMClient, SSDMServer
from repro.exceptions import SciSparqlError
from repro.observability import (
    Histogram, MetricsRegistry, QueryTrace, SlowQueryLog, Span,
)

EXP = "PREFIX ex: <http://e/>\n"


@pytest.fixture(autouse=True)
def isolated_observability():
    """Fresh registry + slow-query log per test (they are process-wide)."""
    old_registry = obs.set_metrics(MetricsRegistry())
    old_slowlog = obs.set_slow_query_log(SlowQueryLog())
    yield
    obs.set_metrics(old_registry)
    obs.set_slow_query_log(old_slowlog)


class FakeClock:
    """A deterministic monotonic clock advancing only on demand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    fake = FakeClock()
    previous = obs.set_clock(fake, wall=lambda: 1000.0 + fake.now)
    yield fake
    obs.set_clock(*previous)


class TestSpan:
    def test_counters_accumulate(self):
        s = Span("x")
        s.add("rows")
        s.add("rows", 4)
        assert s.counters == {"rows": 5}

    def test_total_sums_subtree(self):
        root = Span("root")
        root.add("bytes", 1)
        child = root.child("c")
        child.add("bytes", 10)
        child.child("g").add("bytes", 100)
        assert root.total("bytes") == 111

    def test_find_depth_first(self):
        root = Span("root")
        root.child("a").child("target").add("hit")
        assert root.find("target").counters == {"hit": 1}
        assert root.find("missing") is None

    def test_child_overflow_truncates(self):
        root = Span("root")
        for i in range(obs.MAX_CHILD_SPANS + 10):
            root.child("c%d" % i)
        # the cap plus one shared "(truncated)" accumulator
        assert len(root.children) == obs.MAX_CHILD_SPANS + 1
        assert root.to_dict()["truncated_children"] == 10
        assert "truncated" in root.render()

    def test_aggregate_child_reuses_node(self):
        root = Span("root")
        first = root.aggregate_child("fetch")
        second = root.aggregate_child("fetch")
        assert first is second
        assert len(root.children) == 1


class TestQueryTrace:
    def test_finish_is_idempotent(self, clock):
        trace = QueryTrace("SELECT 1")
        clock.advance(0.5)
        trace.finish("ok")
        clock.advance(9.0)
        trace.finish("error", ValueError("late"))
        assert trace.status == "ok"
        assert trace.error is None
        assert trace.elapsed == pytest.approx(0.5)

    def test_events_record_offsets_and_cap(self, clock):
        trace = QueryTrace("q")
        clock.advance(0.25)
        trace.event("deadline_expired", budget_ms=10)
        assert trace.events == [
            {"event": "deadline_expired", "at_ms": 250.0, "budget_ms": 10}
        ]
        for _ in range(obs.MAX_EVENTS * 2):
            trace.event("noise")
        assert len(trace.events) == obs.MAX_EVENTS

    def test_operator_span_folds_reevaluations(self):
        trace = QueryTrace("q")
        node = object()
        first = trace.operator_span(node, "join", None)
        second = trace.operator_span(node, "join", None)
        assert first is second
        assert trace.root.children == [first]

    def test_to_dict_and_render(self, clock):
        trace = QueryTrace("SELECT ?s WHERE { ?s ?p ?o }")
        trace.root.child("parse").elapsed = 0.001
        clock.advance(0.01)
        trace.finish("ok")
        payload = trace.to_dict()
        assert payload["status"] == "ok"
        assert payload["elapsed_ms"] == 10.0
        assert payload["spans"]["children"][0]["name"] == "parse"
        text = trace.render()
        assert "-- trace: ok" in text
        assert "parse" in text

    def test_text_is_capped(self):
        trace = QueryTrace("x" * (obs.MAX_TEXT_CHARS * 2))
        assert len(trace.text) == obs.MAX_TEXT_CHARS


class TestAmbientSpans:
    def test_span_without_trace_is_noop(self):
        with obs.span("anything") as node:
            assert node is None

    def test_trace_query_installs_ambient_trace(self):
        assert obs.current_trace() is None
        with obs.trace_query("q") as trace:
            assert obs.current_trace() is trace
            with obs.span("parse") as node:
                assert obs.current_span() is node
            assert obs.current_span() is trace.root
        assert obs.current_trace() is None
        assert trace.status == "ok"

    def test_nested_traces_restore_outer(self):
        with obs.trace_query("outer") as outer:
            with obs.trace_query("inner") as inner:
                assert obs.current_trace() is inner
            assert obs.current_trace() is outer

    def test_error_marks_trace_and_counts(self):
        with pytest.raises(ValueError):
            with obs.trace_query("q") as trace:
                raise ValueError("boom")
        assert trace.status == "error"
        assert "boom" in trace.error
        registry = obs.metrics()
        assert registry.counter_value("query_errors_total") == 1
        assert registry.counter_value("queries_total") == 1

    def test_disabled_tracing_still_counts(self):
        previous = obs.set_tracing(False)
        try:
            with obs.trace_query("q") as trace:
                assert trace is None
                with obs.span("parse") as node:
                    assert node is None
        finally:
            obs.set_tracing(previous)
        assert obs.metrics().counter_value("queries_total") == 1

    def test_aggregate_span_folds_iterations(self, clock):
        with obs.trace_query("q") as trace:
            for _ in range(5):
                with obs.span("chunk_fetch", aggregate=True):
                    clock.advance(0.001)
                    obs.add("chunks", 2)
        fetch = trace.root.find("chunk_fetch")
        assert fetch.calls == 5
        assert fetch.counters["chunks"] == 10
        assert fetch.elapsed == pytest.approx(0.005)
        assert len(trace.root.children) == 1

    def test_tick_records_counters_without_timing(self):
        with obs.trace_query("q") as trace:
            obs.tick("pool_hit", hits=3, misses=1)
            obs.tick("pool_hit", hits=2)
        node = trace.root.find("pool_hit")
        assert node.counters == {"hits": 5, "misses": 1}
        assert node.elapsed == 0.0

    def test_fork_adopt_carries_trace_across_threads(self):
        with obs.trace_query("q") as trace:
            with obs.span("execute"):
                handed = context.fork()

            def fetch():
                with obs.span("chunk_fetch", aggregate=True):
                    obs.add("chunks", 1)

            def worker():
                assert obs.current_trace() is None
                context.adopt(handed, fetch)
                assert obs.current_trace() is None

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            # the fork was taken under "execute": the worker's spans
            # land there, and never move the submitter's current span
            assert obs.current_span() is trace.root
        execute = trace.root.find("execute")
        assert execute.find("chunk_fetch").counters == {"chunks": 1}

    def test_adopt_none_detaches(self):
        with obs.trace_query("q") as trace:
            def detached():
                assert obs.current_trace() is None
                obs.add("lost", 1)  # silently dropped

            context.adopt(None, detached)
            assert obs.current_trace() is trace
        assert trace.root.counters == {}


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("lag", 7)
        assert registry.counter_value("a") == 5
        assert registry.gauge_value("lag") == 7
        assert registry.counter_value("missing") == 0

    def test_histogram_buckets_and_stats(self):
        h = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.05
        assert snap["max"] == 50.0
        assert snap["buckets"] == {
            "le_0.1": 1, "le_1": 2, "le_10": 1, "overflow": 1,
        }

    def test_histogram_quantiles(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0, 8.0))
        assert h.quantile(0.5) is None
        for value in range(1, 101):
            h.observe(value / 25.0)          # 0.04 .. 4.0
        p50 = h.quantile(0.50)
        assert 1.0 <= p50 <= 3.0             # true p50 = 2.0
        assert h.quantile(0.0) == h.min
        assert h.quantile(1.0) == h.max
        h.observe(100.0)                     # overflow bucket
        assert h.quantile(0.9999) == 100.0

    def test_histogram_single_value_is_exact(self):
        h = Histogram()
        h.observe(0.125)
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert h.quantile(q) == 0.125

    def test_histogram_snapshot_reports_tail_quantiles(self):
        h = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            h.observe(value)
        snap = h.snapshot()
        for key in ("p50", "p99", "p999"):
            assert key in snap
        assert snap["p999"] == 3.0

    def test_histogram_merge_and_state_roundtrip(self):
        a, b = Histogram(bounds=(1.0, 2.0)), Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5):
            a.observe(value)
        b.observe(3.0)
        restored = Histogram.from_state(b.state())
        a.merge(restored)
        assert a.count == 3
        assert a.min == 0.5 and a.max == 3.0
        assert a.counts == [1, 1, 1]
        with pytest.raises(ValueError):
            a.merge(Histogram(bounds=(9.0,)))

    def test_timer_uses_injectable_clock(self, clock):
        registry = MetricsRegistry()
        with registry.timer("op_seconds"):
            clock.advance(0.125)
        snap = registry.histogram_snapshot("op_seconds")
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(0.125)

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1}
        assert snap["histograms"]["h"]["count"] == 1
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestSlowQueryLog:
    def _trace(self, clock, seconds, text="q"):
        trace = QueryTrace(text)
        clock.advance(seconds)
        return trace.finish("ok")

    def test_threshold_filters(self, clock):
        log = SlowQueryLog(capacity=4, threshold_ms=100.0)
        assert log.observe(self._trace(clock, 0.05)) is False
        assert log.observe(self._trace(clock, 0.2)) is True
        snap = log.snapshot()
        assert snap["observed"] == 2
        assert snap["admitted"] == 1
        assert len(snap["entries"]) == 1

    def test_keeps_worst_n_sorted(self, clock):
        log = SlowQueryLog(capacity=2, threshold_ms=0.0)
        for seconds, text in ((0.01, "fast"), (0.5, "slowest"),
                              (0.1, "mid")):
            log.observe(self._trace(clock, seconds, text))
        entries = log.snapshot()["entries"]
        assert [e["text"] for e in entries] == ["slowest", "mid"]

    def test_fast_trace_rejected_when_full(self, clock):
        log = SlowQueryLog(capacity=1, threshold_ms=0.0)
        log.observe(self._trace(clock, 0.5, "slow"))
        assert log.observe(self._trace(clock, 0.1, "fast")) is False
        assert [e["text"] for e in log.snapshot()["entries"]] == ["slow"]

    def test_configure_shrinks_and_clear(self, clock):
        log = SlowQueryLog(capacity=4, threshold_ms=0.0)
        for i in range(4):
            log.observe(self._trace(clock, 0.1 * (i + 1), "q%d" % i))
        log.configure(capacity=2, threshold_ms=50.0)
        assert len(log) == 2
        assert log.snapshot()["threshold_ms"] == 50.0
        log.clear()
        assert len(log) == 0


class TestEndToEndTracing:
    def test_every_execute_yields_a_trace(self, ssdm):
        ssdm.execute("SELECT ?s WHERE { ?s ?p ?o }")
        trace = ssdm.last_trace
        assert trace is not None
        assert trace.status == "ok"
        for phase in ("parse", "plan", "execute"):
            assert trace.root.find(phase) is not None, phase

    def test_plan_span_nests_pipeline_stages(self, ssdm):
        ssdm.execute("SELECT ?s WHERE { ?s ?p ?o }")
        plan = ssdm.last_trace.root.find("plan")
        for stage in ("translate", "rewrite", "optimize"):
            assert plan.find(stage) is not None, stage

    def test_operator_spans_and_row_counters(self, foaf):
        foaf.execute(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT ?n WHERE { ?p foaf:name ?n FILTER(?n != \"Bob\") }"
        )
        trace = foaf.last_trace
        execute = trace.root.find("execute")
        assert execute.counters["rows"] == 3
        bgp = trace.root.find("bgp")
        assert bgp is not None
        assert bgp.counters["rows_out"] == 4
        # correlated evaluation: the filter consumes one unit binding
        # and re-emits whatever of its child's rows pass the predicate
        filter_span = trace.root.find("filter")
        assert filter_span.counters["rows_in"] == 1
        assert filter_span.counters["rows_out"] == 3

    def test_chunked_array_query_has_storage_span(self):
        ssdm = SSDM(array_store=MemoryArrayStore(chunk_bytes=256),
                    externalize_threshold=8)
        ssdm.load_turtle_text("""
            @prefix ex: <http://e/> .
            ex:m ex:val ((1 2 3 4 5 6 7 8) (9 10 11 12 13 14 15 16)) .
        """)
        # subscripting forces a real chunk fetch (a whole-array
        # aggregate would be delegated to the back-end instead)
        result = ssdm.execute(
            EXP + "SELECT ?a[2,1] WHERE { ex:m ex:val ?a }"
        )
        assert result.rows == [(9,)]
        resolve = ssdm.last_trace.root.find("apr_resolve")
        assert resolve is not None
        assert resolve.counters["arrays"] == 1
        fetch = ssdm.last_trace.root.find("chunk_fetch")
        assert fetch is not None
        assert fetch.total("chunks") >= 1
        assert fetch.total("bytes") > 0

    def test_failed_query_trace_has_error_status(self, ssdm):
        with pytest.raises(SciSparqlError):
            ssdm.execute("THIS IS NOT SPARQL")
        assert ssdm.last_trace.status == "error"
        assert ssdm.last_trace.error

    def test_query_metrics_recorded(self, ssdm):
        ssdm.execute("SELECT ?s WHERE { ?s ?p ?o }")
        metrics = ssdm.stats()["metrics"]
        assert metrics["counters"]["queries_total"] == 1
        assert metrics["histograms"]["query_latency_seconds"]["count"] == 1

    def test_slow_queries_land_in_the_log(self, ssdm):
        obs.slow_query_log().configure(threshold_ms=0.0)
        ssdm.execute("SELECT ?s WHERE { ?s ?p ?o }")
        entries = obs.slow_query_log().snapshot()["entries"]
        assert len(entries) == 1
        assert "SELECT ?s" in entries[0]["text"]

    def test_tracing_disabled_end_to_end(self, ssdm):
        previous = obs.set_tracing(False)
        try:
            ssdm.last_trace = None
            result = ssdm.execute("SELECT ?s WHERE { ?s ?p ?o }")
            assert result.rows == []
            assert ssdm.last_trace is None
            assert obs.metrics().counter_value("queries_total") == 1
        finally:
            obs.set_tracing(previous)


class TestExplainAnalyze:
    def test_analyze_appends_trace_and_rowcount(self, foaf):
        text = foaf.explain(
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT ?n WHERE { ?p foaf:name ?n }",
            analyze=True,
        )
        assert "-- trace: ok" in text
        assert "-- 4 row(s) --" in text
        assert "bgp" in text

    def test_analyze_with_tracing_disabled(self, ssdm):
        previous = obs.set_tracing(False)
        try:
            ssdm.last_trace = None
            text = ssdm.explain("SELECT ?s WHERE { ?s ?p ?o }",
                                analyze=True)
            assert "trace unavailable" in text
        finally:
            obs.set_tracing(previous)

    def test_plain_explain_does_not_execute(self, ssdm):
        ssdm.explain("SELECT ?s WHERE { ?s ?p ?o }")
        assert obs.metrics().counter_value("queries_total") == 0


@pytest.fixture
def server():
    ssdm = SSDM()
    ssdm.load_turtle_text("@prefix ex: <http://e/> . ex:m ex:n 7 .")
    server = SSDMServer(ssdm).start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    client = SSDMClient("127.0.0.1", server.server_address[1])
    yield client
    client.close()


class TestServerOps:
    def test_metrics_roundtrip(self, client):
        client.query(EXP + "SELECT ?v WHERE { ex:m ex:n ?v }")
        snapshot = client.metrics()
        assert snapshot["counters"]["queries_total"] >= 1
        assert snapshot["counters"]["server_requests_total"] >= 1
        assert "query_latency_seconds" in snapshot["histograms"]

    def test_slowlog_roundtrip(self, client):
        # lower the threshold so every query ranks, then read it back
        payload = client.slowlog(threshold_ms=0.0)
        assert payload["threshold_ms"] == 0.0
        client.query(EXP + "SELECT ?v WHERE { ex:m ex:n ?v }")
        payload = client.slowlog()
        assert payload["observed"] >= 1
        assert any("SELECT ?v" in e["text"] for e in payload["entries"])

    def test_slowlog_clear(self, client):
        client.slowlog(threshold_ms=0.0)
        client.query(EXP + "ASK { ex:m ex:n 7 }")
        assert len(client.slowlog(clear=True)["entries"]) >= 1
        assert client.slowlog()["entries"] == []

    def test_server_request_latency_histogram(self, client):
        client.query(EXP + "ASK { ex:m ex:n 7 }")
        snapshot = client.metrics()
        assert snapshot["histograms"]["server_request_seconds"]["count"] \
            >= 1

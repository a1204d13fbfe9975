"""The request context (:mod:`repro.context`): one slot per thread that
carries a request's deadline, budget, snapshot, trace, dataset view and
plan memo — entered once per request, adopted wholesale by workers,
and leaving nothing behind on the shared ``SSDM`` / ``QueryEngine``.
"""

import threading
import time

import numpy as np
import pytest

from repro import SSDM, NumericArray, URI
from repro import context
from repro import observability as obs
from repro.arrays import Span
from repro.engine import idjoin
from repro.governor import ResourceGovernor, current_scope
from repro.lifecycle import Deadline, current_deadline, deadline_scope
from repro.mvcc import current_snapshot, snapshot_scope
from repro.storage import APRResolver, MemoryArrayStore
from repro.storage.bufferpool import BufferPool

EXP = "PREFIX ex: <http://e/> "


@pytest.fixture(params=[True, False], ids=["fast", "interpreter"])
def fast_path(request):
    idjoin.set_enabled(request.param)
    try:
        yield request.param
    finally:
        idjoin.set_enabled(True)


# -- the slot itself ---------------------------------------------------------


class TestDerivation:
    def test_scope_derives_one_field_and_restores(self):
        assert context.current() is None
        deadline = Deadline(None)
        with deadline_scope(deadline):
            outer = context.current()
            with snapshot_scope("pinned") as inner:
                # the derived context keeps what it did not replace
                assert inner is context.current() is not outer
                assert inner.deadline is deadline
                assert inner.snapshot == "pinned"
            assert context.current() is outer
            assert outer.snapshot is None
        assert context.current() is None

    def test_fork_is_a_private_copy(self):
        assert context.fork() is None
        with obs.trace_query("q") as trace:
            handed = context.fork()
            assert handed is not context.current()
            assert handed.trace is trace and handed.span is trace.root
            handed.span = None            # a worker moving its span ...
            assert obs.current_span() is trace.root     # ... moves only its

    def test_adopt_installs_and_restores_wholesale(self):
        with deadline_scope(Deadline(None)):
            before = context.current()
            assert context.adopt(None, context.current) is None
            assert context.current() is before


# -- workers see all of their request, speculation none of it ----------------


class SpyStore(MemoryArrayStore):
    """Records the request context each fetch runs under.  Demanded
    contiguous chunks arrive as range reads, speculative ones (claimed
    id by id) as batch reads."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = {"demand": [], "speculative": []}

    def _observe(self, kind):
        ctx = context.current()
        self.seen[kind].append((
            threading.current_thread().name, current_deadline(),
            current_scope(), current_snapshot(), obs.current_trace(),
            None if ctx is None else ctx.span,
        ))

    def get_chunk_ranges(self, array_id, ranges):
        self._observe("demand")
        return super().get_chunk_ranges(array_id, ranges)

    def get_chunks(self, array_id, chunk_ids):
        self._observe("speculative")
        return super().get_chunks(array_id, chunk_ids)


class TestWorkerHandOff:
    def test_prefetch_adopts_everything_speculation_nothing(self):
        store = SpyStore(chunk_bytes=64, buffer_pool=BufferPool(1 << 20))
        proxy = store.put(NumericArray(np.arange(512, dtype=np.float64)))
        resolver = APRResolver(store, strategy="prefetch", speculate=4)
        deadline = Deadline(None)
        snapshot = object()
        governor = ResourceGovernor()
        with governor.scope(deadline=deadline) as budget, \
                snapshot_scope(snapshot), obs.trace_query("q") as trace:
            with obs.span("execute") as execute:
                resolver.resolve([proxy.subscript([Span(1, 128)])])
        for _ in range(100):              # speculation lands asynchronously
            if store.seen["speculative"]:
                break
            time.sleep(0.02)
        assert store.seen["demand"] and store.seen["speculative"]
        for thread, *fields in store.seen["demand"]:
            assert thread.startswith("apr-prefetch")
            assert fields == [deadline, budget, snapshot, trace, execute]
        for thread, *fields in store.seen["speculative"]:
            assert thread.startswith("apr-prefetch")
            assert fields == [None] * 5
        # worker fetches were accounted under the submitter's span
        assert execute.find("chunk_fetch").counters["chunks"] == 16


# -- nested execute derives from its caller ----------------------------------


class TestNestedExecute:
    def test_udf_subquery_inherits_snapshot_and_deadline(self):
        ssdm = SSDM()
        ssdm.execute(EXP + "INSERT DATA { ex:a ex:v 1 }")
        seen = {}

        def probe():
            seen["outer"] = (current_snapshot(), current_deadline(),
                             obs.current_trace())
            # a write lands mid-query; the sub-query must not see it
            writer = threading.Thread(target=ssdm.execute, args=(
                EXP + "INSERT DATA { ex:b ex:v 2 }",))
            writer.start()
            writer.join(timeout=5.0)
            assert not writer.is_alive()
            inner = ssdm.execute(
                EXP + "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:v ?v "
                "FILTER(ex:peek() = 0) }"
            )
            return inner.scalar()

        def peek():
            seen["inner"] = (current_snapshot(), current_deadline(),
                             obs.current_trace())
            return 0

        ssdm.register_function("http://e/probe", probe)
        ssdm.register_function("http://e/peek", peek)
        deadline = Deadline(30.0)
        result = ssdm.execute(
            EXP + "SELECT (ex:probe() AS ?n) WHERE { }", deadline=deadline
        )
        assert result.scalar() == 1       # the pinned version, not the live one
        outer_snapshot, outer_deadline, outer_trace = seen["outer"]
        inner_snapshot, inner_deadline, inner_trace = seen["inner"]
        assert inner_snapshot is outer_snapshot is not None
        assert inner_deadline is outer_deadline is deadline
        assert inner_trace is not outer_trace     # each execute traces itself
        assert context.current() is None
        assert ssdm.mvcc.live_count() == 0
        assert ssdm.execute(EXP + "ASK { ex:b ex:v 2 }") is True

    def test_explain_analyze_renders_its_own_trace(self):
        ssdm = SSDM()
        ssdm.execute(EXP + "INSERT DATA { ex:a ex:v 1 }")

        def interloper():
            # a concurrent request finishing first overwrites last_trace
            thread = threading.Thread(target=ssdm.execute, args=(
                EXP + "ASK { ex:nothing ex:v 404 }",))
            thread.start()
            thread.join(timeout=5.0)
            return 1

        ssdm.register_function("http://e/interloper", interloper)
        text = ssdm.explain(
            EXP + "SELECT (ex:interloper() AS ?x) WHERE { ?s ex:v ?v }",
            analyze=True,
        )
        assert "404" in ssdm.last_trace.text
        assert "-- 1 row(s) --" in text
        assert "extend" in text and "bgp" in text


# -- the plan memo dies with its request -------------------------------------


@pytest.fixture
def pq():
    ssdm = SSDM()
    ssdm.execute(EXP + "INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 . "
                       "ex:a ex:q 0 . ex:b ex:q 0 }")
    return ssdm


class TestPlanMemo:
    EXISTS = EXP + "SELECT ?s WHERE { ?s ex:q 0 FILTER EXISTS { ?s ex:p %d } }"

    def test_alternating_exists_patterns_never_share_a_plan(self, pq,
                                                            fast_path):
        wrong = 0
        for _ in range(200):
            one = pq.execute(self.EXISTS % 1).column("s")
            two = pq.execute(self.EXISTS % 2).column("s")
            wrong += (one != [URI("http://e/a")]) + (two != [URI("http://e/b")])
        assert wrong == 0

    def test_redefined_view_is_retranslated(self, pq, fast_path):
        call = EXP + "SELECT (ex:pick() AS ?v) WHERE { }"
        wrong = 0
        for i in range(40):
            # 1 2 2 1 1 2 2 1 ...: each definition differs from the one
            # two back, whose freed object it is likely allocated over
            value = 1 + ((i + 1) // 2) % 2
            pq.execute(
                EXP + "DEFINE FUNCTION ex:pick() AS "
                "SELECT ?s WHERE { ?s ex:p %d }" % value
            )
            expected = "http://e/a" if value == 1 else "http://e/b"
            wrong += pq.execute(call).scalar().value != expected
        assert wrong == 0

    def test_engine_holds_no_per_request_state(self, pq):
        engine = pq.engine
        assert set(vars(engine)) == {"dataset", "functions"}
        before = dict(vars(engine))
        for i in range(1000):
            pq.execute(self.EXISTS % i)
        pq.execute(EXP + "SELECT ?v FROM NAMED <http://g/x> "
                         "WHERE { GRAPH ?g { ?s ex:p ?v } }")
        assert vars(engine) == before
        assert all(vars(engine)[name] is value
                   for name, value in before.items())
        assert context.current() is None

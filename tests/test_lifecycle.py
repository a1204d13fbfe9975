"""Request-lifecycle unit tests: deadlines, cancellation, fault
injection, the single-writer mutex, and the error taxonomy.

(The old writer-fair read/write lock and its starvation tests are
gone: MVCC snapshot reads — see ``tests/test_mvcc.py`` — removed
readers from the locking picture entirely, so the only lock left to
test is mutual exclusion between mutators.)"""

import threading
import time

import pytest

from repro import SSDM
from repro import context
from repro.client.server import _WriteMutex
from repro.exceptions import (
    ConnectionClosedError,
    EvaluationError,
    ParseError,
    QueryError,
    RequestCancelledError,
    RequestTimeoutError,
    ResourceExhaustedError,
    SciSparqlError,
    ServerOverloadedError,
    StorageError,
    error_code,
    error_from_code,
)
from repro.governor import ResourceGovernor
from repro.lifecycle import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.storage import (
    APRResolver, FaultPlan, MemoryArrayStore, SimulatedCrash,
)
from repro.storage.bufferpool import BufferPool


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        assert deadline.remaining() is None
        deadline.check()          # no raise

    def test_cancel_trips_the_token(self):
        deadline = Deadline(None)
        deadline.cancel()
        assert deadline.expired()
        with pytest.raises(RequestCancelledError):
            deadline.check()

    def test_budget_expires(self):
        deadline = Deadline(0.01)
        assert not deadline.expired()
        time.sleep(0.02)
        assert deadline.expired()
        with pytest.raises(RequestTimeoutError):
            deadline.check()

    def test_after_ms(self):
        assert Deadline.after_ms(None).remaining() is None
        remaining = Deadline.after_ms(5000).remaining()
        assert 4.0 < remaining <= 5.0

    def test_remaining_never_negative(self):
        deadline = Deadline(0.001)
        time.sleep(0.01)
        assert deadline.remaining() == 0.0

    def test_timeout_is_a_cancellation(self):
        # one except-clause catches both forms of lifecycle abort
        assert issubclass(RequestTimeoutError, RequestCancelledError)

    def test_timeout_is_not_suppressible_eval_error(self):
        # FILTER/BIND error suppression must never swallow a timeout
        assert not issubclass(RequestTimeoutError, EvaluationError)

    def test_cooperative_sleep_interrupted(self):
        deadline = Deadline(0.05)
        started = time.monotonic()
        with pytest.raises(RequestTimeoutError):
            deadline.sleep(10.0)
        assert time.monotonic() - started < 1.0

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        outer = Deadline(None)
        inner = Deadline(None)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_scope_of_none_clears(self):
        with deadline_scope(Deadline(None)):
            with deadline_scope(None):
                assert current_deadline() is None

    def test_check_deadline_helper(self):
        check_deadline()          # no ambient deadline: no-op
        expired = Deadline(0.0)
        with deadline_scope(expired):
            with pytest.raises(RequestTimeoutError):
                check_deadline()

    def test_adopt_bridges_threads(self):
        deadline = Deadline(None)
        seen = {}

        def worker():
            seen["deadline"] = current_deadline()

        with deadline_scope(deadline):
            handed = context.fork()
        thread = threading.Thread(
            target=context.adopt, args=(handed, worker)
        )
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen["deadline"] is deadline


class TestErrorTaxonomy:
    def test_codes(self):
        assert error_code(RequestTimeoutError("x")) == "TIMEOUT"
        assert error_code(RequestCancelledError("x")) == "CANCELLED"
        assert error_code(ParseError("x")) == "PARSE"
        assert error_code(QueryError("x")) == "EVAL"
        assert error_code(EvaluationError("x")) == "EVAL"
        assert error_code(StorageError("x")) == "STORAGE"
        assert error_code(ServerOverloadedError("x")) == "OVERLOAD"
        assert error_code(ConnectionClosedError("x")) == "CONNECTION"
        assert error_code(SciSparqlError("x")) == "INTERNAL"
        assert error_code(ValueError("x")) == "INTERNAL"

    def test_retryable_flags(self):
        assert ServerOverloadedError("x").retryable
        assert ConnectionClosedError("x").retryable
        assert not RequestTimeoutError("x").retryable
        assert not StorageError("x").retryable

    def test_round_trip_through_codes(self):
        for error in (RequestTimeoutError("t"), ServerOverloadedError("o"),
                      StorageError("s"), ParseError("p"), QueryError("q")):
            rebuilt = error_from_code(error_code(error), str(error))
            assert type(rebuilt) is type(error)

    def test_unknown_code_degrades_to_base(self):
        rebuilt = error_from_code("SOMETHING_NEW", "msg")
        assert type(rebuilt) is SciSparqlError


class TestFaultPlan:
    def test_error_every_is_deterministic(self):
        plan = FaultPlan(error_every=2)
        plan.on_read()
        with pytest.raises(StorageError):
            plan.on_read()
        plan.on_read()
        with pytest.raises(StorageError):
            plan.on_read()
        assert plan.snapshot()["injected_errors"] == 2

    def test_error_rate_sequence_is_seeded(self):
        def failures(plan):
            out = []
            for _ in range(200):
                try:
                    plan.on_read()
                    out.append(False)
                except StorageError:
                    out.append(True)
            return out

        first = failures(FaultPlan(error_rate=0.3, seed=7))
        second = failures(FaultPlan(error_rate=0.3, seed=7))
        assert first == second
        assert any(first) and not all(first)

    def test_latency_scales_with_chunk_count(self):
        plan = FaultPlan(read_latency=0.01)
        started = time.monotonic()
        plan.on_read(chunk_count=3)
        assert time.monotonic() - started >= 0.03
        assert plan.snapshot()["slept_seconds"] >= 0.03

    def test_latency_is_cooperative_with_deadline(self):
        plan = FaultPlan(read_latency=30.0)
        started = time.monotonic()
        with deadline_scope(Deadline(0.05)):
            with pytest.raises(RequestTimeoutError):
                plan.on_read()
        assert time.monotonic() - started < 1.0

    def test_store_applies_faults(self):
        store = MemoryArrayStore(
            chunk_bytes=64, buffer_pool=BufferPool(1 << 20),
            faults=FaultPlan(error_every=1),
        )
        proxy = store.put(list(range(64)))
        with pytest.raises(StorageError):
            store.get_chunk(proxy.array_id, 0)


class TestWriteMutex:
    def test_exclusive_between_mutators(self):
        mutex = _WriteMutex()
        order = []
        with mutex.writing():
            def second():
                with mutex.writing(Deadline(5.0)):
                    order.append("second")

            thread = threading.Thread(target=second)
            thread.start()
            time.sleep(0.05)
            order.append("first")
        thread.join(5.0)
        assert order == ["first", "second"]

    def test_acquisition_bounded_by_deadline(self):
        mutex = _WriteMutex()
        with mutex.writing():
            started = time.monotonic()
            with pytest.raises(RequestTimeoutError):
                with mutex.writing(Deadline(0.05)):
                    pass                  # pragma: no cover
            assert time.monotonic() - started < 1.0

    def test_expired_deadline_fails_immediately(self):
        mutex = _WriteMutex()
        with mutex.writing():
            with pytest.raises(RequestTimeoutError):
                with mutex.writing(Deadline(0.0)):
                    pass                  # pragma: no cover

    def test_released_on_exit(self):
        mutex = _WriteMutex()
        with mutex.writing(Deadline(None)):
            assert mutex.locked()
        assert not mutex.locked()
        with mutex.writing(Deadline(1.0)):
            assert mutex.locked()
        assert not mutex.locked()


def _slow_array_ssdm(read_latency, pool=None):
    """An SSDM whose externalized array reads sleep per chunk."""

    class NoAggregateStore(MemoryArrayStore):
        supports_aggregates = False       # force chunk streaming

    pool = pool if pool is not None else BufferPool(4 << 20)
    store = NoAggregateStore(
        chunk_bytes=64, buffer_pool=pool,
        faults=FaultPlan(read_latency=read_latency),
    )
    store._default_resolver = APRResolver(store, strategy="prefetch")
    ssdm = SSDM(array_store=store, externalize_threshold=32)
    elements = " ".join(str(i) for i in range(256))
    ssdm.load_turtle_text(
        "@prefix ex: <http://e/> . ex:m ex:val (%s) ; ex:n 7 ." % elements
    )
    return ssdm, store, pool


SLOW_AGGREGATE = (
    "PREFIX ex: <http://e/> "
    "SELECT (array_sum(?a) AS ?s) WHERE { ex:m ex:val ?a }"
)


class TestExecuteDeadline:
    def test_expired_deadline_rejects_before_parse(self):
        ssdm = SSDM()
        with pytest.raises(RequestTimeoutError):
            ssdm.execute("ASK { ?s ?p ?o }", timeout=0.0)

    def test_slow_storage_query_times_out(self):
        ssdm, store, pool = _slow_array_ssdm(read_latency=0.02)
        started = time.monotonic()
        with pytest.raises(RequestTimeoutError):
            ssdm.execute(SLOW_AGGREGATE, timeout=0.2)
        # within 2x the deadline, not the ~5s the fetches would take
        assert time.monotonic() - started < 0.4
        # buffer-pool pins released on the abort path
        assert pool.stats()["pinned"] == 0

    def test_untimed_query_still_succeeds(self):
        ssdm, store, pool = _slow_array_ssdm(read_latency=0.0)
        result = ssdm.execute(SLOW_AGGREGATE)
        assert result.scalar() == pytest.approx(sum(range(256)))

    def test_cancel_aborts_solution_stream(self):
        ssdm = SSDM()
        for i in range(400):
            ssdm.load_turtle_text(
                "@prefix ex: <http://e/> . ex:s%d ex:p %d ." % (i, i)
            )
        deadline = Deadline(None)
        threading.Timer(0.05, deadline.cancel).start()
        started = time.monotonic()
        with pytest.raises(RequestCancelledError):
            # 400 x 400 cross join: far more work than the cancel window
            ssdm.execute(
                "PREFIX ex: <http://e/> SELECT ?a ?b "
                "WHERE { ?a ex:p ?x . ?b ex:p ?y }",
                deadline=deadline,
            )
        assert time.monotonic() - started < 5.0

    def test_storage_fault_surfaces_as_storage_error(self):
        ssdm, store, pool = _slow_array_ssdm(read_latency=0.0)
        store.faults = FaultPlan(error_every=1)
        with pytest.raises(StorageError):
            ssdm.execute(SLOW_AGGREGATE)
        assert pool.stats()["pinned"] == 0

    @pytest.mark.parametrize("outcome, raises", [
        ("ok", None),
        ("timeout", RequestTimeoutError),
        ("resource", ResourceExhaustedError),
        ("fault", StorageError),
        ("crash", SimulatedCrash),
    ])
    def test_nothing_outlives_its_request(self, outcome, raises, tmp_path):
        """However a request ends, its whole context goes with it: the
        thread's slot is empty again, and no pin, snapshot or registered
        budget is left behind."""
        ssdm, store, pool = _slow_array_ssdm(
            read_latency=0.02 if outcome == "timeout" else 0.0
        )
        governor = ResourceGovernor()
        text, timeout, max_bytes = SLOW_AGGREGATE, None, None
        if outcome == "timeout":
            timeout = 0.1
        elif outcome == "resource":
            max_bytes = 256               # < one array working set
        elif outcome == "fault":
            store.faults = FaultPlan(error_every=1)
        elif outcome == "crash":
            ssdm = SSDM.open(str(tmp_path / "wal"), array_store=store,
                             faults=FaultPlan(crash_after_wal=True))
            text = "INSERT DATA { <http://e/s> <http://e/p> 1 }"
        with governor.scope(max_bytes=max_bytes):
            if raises is None:
                ssdm.execute(text, timeout=timeout)
            else:
                with pytest.raises(raises):
                    ssdm.execute(text, timeout=timeout)
        assert context.current() is None
        assert pool.stats()["pinned"] == 0
        assert pool.stats()["pinned_bytes"] == 0
        assert ssdm.mvcc.live_count() == 0
        assert governor.snapshot()["active_scopes"] == 0

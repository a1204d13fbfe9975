"""Resource governor: per-query budgets, cost-based admission queueing,
graceful degradation under pressure, and the replica circuit breaker.

Covers the overload acceptance scenario end to end: over-budget queries
abort with the typed non-retryable ``RESOURCE`` code while cheap queries
keep completing, shed requests carry ``retry_after_ms`` pacing hints,
batch work is shed before interactive work, killed queries leave zero
buffer-pool pins behind, and the ``memory_pressure`` fault knob trips
the degradation ladder deterministically.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro import SSDM
from repro.client import SSDMClient, SSDMServer
from repro.exceptions import (
    ResourceExhaustedError,
    RequestTimeoutError,
    SciSparqlError,
    ServerOverloadedError,
    error_code,
    error_from_code,
)
from repro.governor import (
    BATCH,
    INTERACTIVE,
    AdmissionQueue,
    CircuitBreaker,
    ResourceGovernor,
    ResourceScope,
    current_scope,
    get_governor,
    resource_scope,
    set_governor,
)
from repro.lifecycle import Deadline
from repro.replication import ReplicaSetClient
from repro.storage import APRResolver, FaultPlan, MemoryArrayStore
from repro.storage.bufferpool import BufferPool


@pytest.fixture(autouse=True)
def _clean_global_governor():
    """Every test runs against a fresh process governor and leaves none
    of its forced-pressure state behind."""
    previous = set_governor(ResourceGovernor())
    yield
    set_governor(previous)


# -- per-query budgets (ResourceScope) -----------------------------------------------


class TestResourceScope:
    def test_rows_budget_enforced_cumulatively(self):
        scope = ResourceScope(max_rows=10, max_bytes=None)
        for _ in range(10):
            scope.charge_rows(1, "test")
        with pytest.raises(ResourceExhaustedError) as info:
            scope.charge_rows(1, "test operator")
        assert "rows" in str(info.value)
        assert "test operator" in str(info.value)
        assert scope.exhausted_dimension == "rows"

    def test_bytes_budget_enforced(self):
        scope = ResourceScope(max_rows=None, max_bytes=100)
        scope.charge_bytes(100, "test")
        with pytest.raises(ResourceExhaustedError):
            scope.charge_bytes(1, "test")
        assert scope.exhausted_dimension == "bytes"

    def test_check_rows_precheck_does_not_charge(self):
        scope = ResourceScope(max_rows=10, max_bytes=None)
        scope.charge_rows(5, "test")
        with pytest.raises(ResourceExhaustedError):
            scope.check_rows(6, "bulk")
        assert scope.rows == 5          # the refused bulk was not recorded
        scope.check_rows(5, "bulk")     # exactly at budget is fine

    def test_none_budgets_are_unbounded(self):
        scope = ResourceScope(max_rows=None, max_bytes=None)
        scope.charge_rows(10**9, "test")
        scope.charge_bytes(10**12, "test")
        assert scope.remaining_rows() is None
        assert scope.remaining_bytes() is None

    def test_resource_code_is_typed_and_not_retryable(self):
        error = ResourceExhaustedError("over budget")
        assert error_code(error) == "RESOURCE"
        assert error.retryable is False
        revived = error_from_code("RESOURCE", "over budget")
        assert isinstance(revived, ResourceExhaustedError)
        assert revived.retryable is False

    def test_ambient_scope_installs_nests_and_restores(self):
        assert current_scope() is None
        outer = ResourceScope()
        inner = ResourceScope()
        with resource_scope(outer):
            assert current_scope() is outer
            with resource_scope(inner):
                assert current_scope() is inner
            with resource_scope(None):   # uncharged background work
                assert current_scope() is None
            assert current_scope() is outer
        assert current_scope() is None

    def test_governor_scope_registers_and_unregisters(self):
        governor = ResourceGovernor(max_query_rows=7)
        with governor.scope() as scope:
            assert current_scope() is scope
            assert scope.max_rows == 7
            assert governor.snapshot()["active_scopes"] == 1
        assert current_scope() is None
        assert governor.snapshot()["active_scopes"] == 0
        assert governor.snapshot()["counters"]["queries"] == 1


# -- engine materialization points charge the scope ----------------------------------


def _distinct_dataset(n=64):
    ssdm = SSDM()
    rows = " ".join(
        "ex:s%d ex:p %d ." % (i, i) for i in range(n)
    )
    ssdm.load_turtle_text("@prefix ex: <http://e/> . " + rows)
    return ssdm


DISTINCT_QUERY = (
    "PREFIX ex: <http://e/> SELECT DISTINCT ?s ?v WHERE { ?s ex:p ?v }"
)
CHEAP_QUERY = (
    "PREFIX ex: <http://e/> ASK { ex:s0 ex:p 0 }"
)


class TestEngineBudgets:
    def test_over_budget_distinct_aborts_cheap_query_completes(self):
        ssdm = _distinct_dataset()
        governor = ResourceGovernor(max_query_rows=16)
        with pytest.raises(ResourceExhaustedError):
            with governor.scope():
                ssdm.select(DISTINCT_QUERY)
        # the abort is accounted, and an in-budget query still runs
        assert governor.snapshot()["counters"]["resource_aborts"] == 1
        with governor.scope():
            assert ssdm.ask(CHEAP_QUERY) is True

    def test_within_budget_query_unaffected(self):
        ssdm = _distinct_dataset(8)
        governor = ResourceGovernor()      # default generous budgets
        with governor.scope():
            result = ssdm.select(DISTINCT_QUERY)
        assert len(result.rows) == 8

    def test_byte_budget_kills_wide_materialization(self):
        ssdm = _distinct_dataset()
        governor = ResourceGovernor(max_query_bytes=64)
        with pytest.raises(ResourceExhaustedError):
            with governor.scope():
                ssdm.select(DISTINCT_QUERY)

    def test_cartesian_product_pre_checked_before_allocation(self):
        ssdm = _distinct_dataset(64)
        governor = ResourceGovernor(max_query_rows=200)
        with pytest.raises(ResourceExhaustedError):
            with governor.scope():
                # 64 x 64 cross product: the idjoin fast path knows the
                # cardinality before materializing and must refuse
                ssdm.select(
                    "PREFIX ex: <http://e/> SELECT ?a ?b "
                    "WHERE { ?a ex:p ?x . ?b ex:p ?y }"
                )

    def test_no_ambient_scope_means_no_budget(self):
        ssdm = _distinct_dataset()
        assert current_scope() is None
        result = ssdm.select(DISTINCT_QUERY)   # embedded, ungoverned
        assert len(result.rows) == 64


# -- pressure signal & graceful degradation ------------------------------------------


class TestPressureDegradation:
    def test_forced_pressure_trips_ladder(self):
        governor = ResourceGovernor(pressure_threshold=0.75)
        assert governor.pressure() == 0.0
        assert governor.speculation_allowed() is True
        assert governor.pool_soft_limit(1000) == 1000
        governor.set_forced_pressure(0.9)
        assert governor.under_pressure() is True
        assert governor.speculation_allowed() is False
        assert governor.pool_soft_limit(1000) == 500
        governor.set_forced_pressure(None)
        assert governor.speculation_allowed() is True

    def test_charged_bytes_drive_pressure(self):
        governor = ResourceGovernor(
            capacity_bytes=1000, pressure_threshold=0.75,
            max_query_bytes=None,
        )
        with governor.scope() as scope:
            assert governor.under_pressure() is False
            scope.charge_bytes(800, "test")
            assert governor.pressure() == pytest.approx(0.8)
            assert governor.under_pressure() is True
            assert governor.speculation_allowed() is False
        # the query finished: its charges no longer count
        assert governor.pressure() == 0.0

    def test_fault_plan_memory_pressure_knob(self):
        plan = FaultPlan(memory_pressure=0.95)
        try:
            assert plan.memory_pressure == 0.95
            assert get_governor().pressure() >= 0.95
            assert get_governor().speculation_allowed() is False
            assert get_governor().pool_soft_limit(1 << 20) == (1 << 19)
            assert plan.snapshot()["memory_pressure"] == 0.95
        finally:
            plan.set_memory_pressure(None)
        assert get_governor().pressure() == 0.0

    def test_pool_evicts_to_soft_limit_under_pressure(self):
        pool = BufferPool(max_bytes=4096)
        chunk = np.zeros(128, dtype=np.uint8)     # 128 bytes each
        for i in range(24):                       # 3072 bytes: fits
            pool.put("arr", i, chunk)
        assert pool.stats()["bytes"] == 3072
        get_governor().set_forced_pressure(1.0)
        pool.put("arr", 99, chunk)                # any insert re-evicts
        assert pool.stats()["bytes"] <= 2048      # shrunk soft limit
        get_governor().set_forced_pressure(None)

    def test_snapshot_shape(self):
        snapshot = ResourceGovernor().snapshot()
        for key in ("active_scopes", "charged_rows", "charged_bytes",
                    "pressure", "under_pressure", "counters",
                    "last_exhausted"):
            assert key in snapshot


# -- admission queue -----------------------------------------------------------------


class TestAdmissionQueue:
    def test_admits_under_capacity(self):
        queue = AdmissionQueue(max_active=2, max_queue=4)
        queue.admit(INTERACTIVE)
        queue.admit(BATCH)
        assert queue.active == 2
        queue.release(0.01)
        queue.release(0.01)
        assert queue.active == 0
        assert queue.counters["admitted"] == 2

    def test_binary_shed_when_queue_disabled(self):
        queue = AdmissionQueue(max_active=1, max_queue=0)
        queue.admit(INTERACTIVE)
        with pytest.raises(ServerOverloadedError) as info:
            queue.admit(INTERACTIVE)
        assert info.value.retry_after_ms >= 10
        assert queue.counters["shed_interactive"] == 1

    def test_batch_shed_first_when_queue_full(self):
        queue = AdmissionQueue(max_active=1, max_queue=1, max_wait_ms=5000)
        queue.admit(INTERACTIVE)

        outcomes = {}
        queued = threading.Event()

        def wait_batch():
            queued.set()
            try:
                queue.admit(BATCH)
                outcomes["batch"] = "admitted"
            except ServerOverloadedError:
                outcomes["batch"] = "shed"

        thread = threading.Thread(target=wait_batch)
        thread.start()
        queued.wait()
        for _ in range(100):          # until the waiter is parked
            if queue.depth == 1:
                break
            time.sleep(0.01)
        assert queue.depth == 1

        # queue full: an arriving batch request is shed outright...
        with pytest.raises(ServerOverloadedError):
            queue.admit(BATCH)
        # ...but an interactive request displaces the queued batch one
        admitted = {}

        def wait_interactive():
            queue.admit(INTERACTIVE)
            admitted["interactive"] = True

        inter = threading.Thread(target=wait_interactive)
        inter.start()
        thread.join(5.0)
        assert outcomes["batch"] == "shed"
        assert queue.counters["displaced"] == 1
        queue.release(0.01)           # frees the slot -> interactive in
        inter.join(5.0)
        assert admitted.get("interactive") is True
        assert queue.counters["shed_batch"] >= 2

    def test_wait_bounded_by_max_wait_ms(self):
        queue = AdmissionQueue(max_active=1, max_queue=4, max_wait_ms=80)
        queue.admit(INTERACTIVE)
        started = time.monotonic()
        with pytest.raises(ServerOverloadedError):
            queue.admit(BATCH)
        elapsed = time.monotonic() - started
        assert 0.05 <= elapsed < 1.0
        assert queue.counters["shed_wait_timeout"] == 1

    def test_wait_bounded_by_request_deadline(self):
        queue = AdmissionQueue(max_active=1, max_queue=4, max_wait_ms=5000)
        queue.admit(INTERACTIVE)
        started = time.monotonic()
        with pytest.raises(ServerOverloadedError):
            queue.admit(INTERACTIVE, deadline=Deadline.after_ms(60))
        assert time.monotonic() - started < 1.0

    def test_queued_request_admitted_on_release(self):
        queue = AdmissionQueue(max_active=1, max_queue=4, max_wait_ms=5000)
        queue.admit(INTERACTIVE)
        admitted = threading.Event()

        def waiter():
            queue.admit(INTERACTIVE)
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        queue.release(0.02)
        assert admitted.wait(5.0)
        thread.join(5.0)
        assert queue.counters["queued"] == 1

    def test_retry_after_hint_clamped(self):
        queue = AdmissionQueue(max_active=1, max_queue=4)
        assert 10 <= queue.retry_after_ms() <= 5000
        queue._service_ewma = 10_000.0      # absurd service time
        queue._active = 5
        assert queue.retry_after_ms() == 5000

    def test_snapshot_shape(self):
        queue = AdmissionQueue(max_active=2, max_queue=3)
        snapshot = queue.snapshot()
        assert snapshot["max_active"] == 2
        assert snapshot["max_queue"] == 3
        assert "service_ewma_ms" in snapshot
        assert "counters" in snapshot


# -- circuit breaker -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_seconds=5,
                                 clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.on_failure()
        assert breaker.allow() is True       # still under threshold
        breaker.on_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False
        assert breaker.times_opened == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.on_failure()
        breaker.on_success()
        breaker.on_failure()
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5,
                                 clock=clock)
        breaker.on_failure()
        assert breaker.allow() is False
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow() is True       # the single probe
        assert breaker.allow() is False      # nobody else piles on
        breaker.on_success()
        assert breaker.state == "closed"
        assert breaker.allow() is True

    def test_half_open_probe_failure_rearms(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=5,
                                 clock=clock)
        breaker.on_failure()
        clock.advance(5.0)
        assert breaker.allow() is True
        breaker.on_failure()                 # probe failed
        assert breaker.allow() is False      # re-armed for a new window
        assert breaker.times_opened == 2
        clock.advance(5.0)
        assert breaker.allow() is True       # next probe window


# -- server integration: admission, demotion, RESOURCE over the wire -----------------


def _dataset_turtle(n=64):
    rows = " ".join("ex:s%d ex:p %d ." % (i, i) for i in range(n))
    return "@prefix ex: <http://e/> . " + rows


def _governed_server(**kwargs):
    ssdm = SSDM()
    ssdm.load_turtle_text(_dataset_turtle())
    return SSDMServer(ssdm, **kwargs).start()


class TestServerGovernance:
    def test_resource_abort_over_the_wire(self):
        server = _governed_server(
            governor=ResourceGovernor(max_query_rows=16)
        )
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port)
            with pytest.raises(ResourceExhaustedError):
                client.query(DISTINCT_QUERY)
            assert client.retries_performed == 0     # non-retryable
            # cheap queries keep completing on the same server
            assert client.query(CHEAP_QUERY) is True
            stats = client.stats()
            assert stats["server"]["resource_aborts"] == 1
            assert stats["governor"]["counters"]["resource_aborts"] == 1
            client.close()
        finally:
            server.stop()

    def test_invalid_priority_rejected(self):
        server = _governed_server()
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port)
            with pytest.raises(SciSparqlError) as info:
                client.query(CHEAP_QUERY, priority="urgent")
            assert "priority" in str(info.value)
            assert "urgent" in str(info.value)
            client.close()
        finally:
            server.stop()

    def test_expensive_query_demoted_to_batch_lane(self):
        server = _governed_server(batch_cost_threshold=0.0)
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port)
            client.query(DISTINCT_QUERY)
            stats = client.stats()
            assert stats["server"]["demoted_batch"] >= 1
            client.close()
        finally:
            server.stop()

    def test_stats_expose_admission_and_governor(self):
        server = _governed_server()
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port)
            client.query(CHEAP_QUERY)
            stats = client.stats()
            admission = stats["server"]["admission"]
            assert admission["max_active"] == server.max_concurrent
            assert admission["counters"]["admitted"] >= 1
            assert stats["governor"]["active_scopes"] == 0
            client.close()
        finally:
            server.stop()


def _slow_storm_server(max_concurrent=1, max_queue=2, queue_wait_ms=200.0):
    """A server whose array reads sleep, so capacity is easy to saturate."""

    class NoAggregateStore(MemoryArrayStore):
        supports_aggregates = False

    pool = BufferPool(4 << 20)
    store = NoAggregateStore(
        chunk_bytes=64, buffer_pool=pool,
        faults=FaultPlan(read_latency=0.02),
    )
    store._default_resolver = APRResolver(store, strategy="prefetch")
    ssdm = SSDM(array_store=store, externalize_threshold=32)
    elements = " ".join(str(i) for i in range(256))
    ssdm.load_turtle_text(
        "@prefix ex: <http://e/> . ex:m ex:val (%s) ; ex:n 7 ." % elements
    )
    server = SSDMServer(
        ssdm, max_concurrent=max_concurrent, max_queue=max_queue,
        queue_wait_ms=queue_wait_ms,
    ).start()
    return server, pool


SLOW_AGGREGATE = (
    "PREFIX ex: <http://e/> "
    "SELECT (array_sum(?a) AS ?s) WHERE { ex:m ex:val ?a }"
)
QUICK_ASK = "PREFIX ex: <http://e/> ASK { ex:m ex:n 7 }"


class TestOverloadStorm:
    def test_mixed_priority_storm_sheds_batch_first(self):
        """Overload at 5x capacity with mixed priorities: the queued
        batch requests are displaced (typed OVERLOAD with a pacing
        hint) while every interactive request completes."""
        server, pool = _slow_storm_server(
            max_concurrent=1, max_queue=2, queue_wait_ms=2500.0,
        )
        port = server.server_address[1]
        results = {"completed": [], "shed": [], "other": []}
        lock = threading.Lock()

        def worker(priority):
            client = SSDMClient("127.0.0.1", port, retries=0)
            try:
                client.query(SLOW_AGGREGATE, priority=priority,
                             timeout_ms=10_000)
                with lock:
                    results["completed"].append(priority)
            except ServerOverloadedError as error:
                with lock:
                    results["shed"].append((priority, error.retry_after_ms))
            except SciSparqlError as error:
                with lock:
                    results["other"].append((priority, error_code(error)))
            finally:
                client.close()

        # one interactive occupant takes the single slot...
        threads = [threading.Thread(target=worker, args=(INTERACTIVE,))]
        threads[0].start()
        time.sleep(0.15)
        # ...two batch requests fill the queue...
        for _ in range(2):
            thread = threading.Thread(target=worker, args=(BATCH,))
            threads.append(thread)
            thread.start()
        time.sleep(0.15)
        # ...then two interactive arrivals find the queue full and must
        # displace the queued batch work
        for _ in range(2):
            thread = threading.Thread(target=worker, args=(INTERACTIVE,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(30.0)

        assert results["completed"] == [INTERACTIVE] * 3
        assert sorted(p for p, _ in results["shed"]) == [BATCH, BATCH]
        assert not results["other"], results["other"]
        # every shed response carried a usable pacing hint
        for _, hint in results["shed"]:
            assert hint is not None and 10 <= hint <= 5000
        stats_client = SSDMClient("127.0.0.1", port, retries=0)
        stats = stats_client.stats()
        assert stats["server"]["shed"] == 2
        assert stats["server"]["admission"]["counters"]["displaced"] == 2
        stats_client.close()
        server.stop()

    def test_shed_client_honors_retry_after_and_recovers(self):
        server, pool = _slow_storm_server(
            max_concurrent=1, max_queue=0,
        )
        port = server.server_address[1]
        try:
            slow = SSDMClient("127.0.0.1", port, retries=0)

            def run_slow():
                try:
                    slow.query(SLOW_AGGREGATE, timeout_ms=400)
                except RequestTimeoutError:
                    pass

            thread = threading.Thread(target=run_slow)
            thread.start()
            time.sleep(0.1)
            patient = SSDMClient("127.0.0.1", port, retries=5,
                                 backoff=0.1, max_backoff=0.5)
            assert patient.query(QUICK_ASK) is True
            assert patient.retries_performed >= 1
            patient.close()
            thread.join(5.0)
            slow.close()
        finally:
            server.stop()


# -- pin hygiene: killed queries leave no pins behind --------------------------------


class TestPinRelease:
    def test_governor_kill_releases_all_pins(self):
        """A query aborted mid-flight by its byte budget must drop every
        buffer-pool pin on the way out (acceptance criterion)."""
        server, pool = _slow_storm_server(max_concurrent=4)
        server.governor.max_query_bytes = 256     # < one array working set
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port)
            with pytest.raises(ResourceExhaustedError):
                client.query(SLOW_AGGREGATE, timeout_ms=10_000)
            stats = pool.stats()
            assert stats["pinned"] == 0
            assert stats["pinned_bytes"] == 0
            _assert_nothing_outlived_the_request(server)
            client.close()
        finally:
            server.stop()

    def test_deadline_kill_releases_all_pins(self):
        server, pool = _slow_storm_server(max_concurrent=4)
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port, retries=0)
            with pytest.raises(RequestTimeoutError):
                client.query(SLOW_AGGREGATE, timeout_ms=150)
            for _ in range(100):      # the worker unwinds asynchronously
                stats = pool.stats()
                if stats["pinned"] == 0:
                    break
                time.sleep(0.02)
            assert stats["pinned"] == 0
            assert stats["pinned_bytes"] == 0
            _assert_nothing_outlived_the_request(server)
            client.close()
        finally:
            server.stop()


def _assert_nothing_outlived_the_request(server):
    """The rest of the request context was dropped with the pins: no
    live snapshot, no registered budget, no admission slot."""
    assert server.ssdm.mvcc.live_count() == 0
    assert server.governor.snapshot()["active_scopes"] == 0
    assert server.governor.snapshot()["charged_bytes"] == 0
    assert server._queue.active == 0


# -- client backoff honors the pacing hint -------------------------------------------


class TestClientBackoff:
    def test_pause_honors_hint_but_is_capped(self):
        server = _governed_server()
        port = server.server_address[1]
        try:
            client = SSDMClient("127.0.0.1", port, max_backoff=0.5)
            # a huge (bogus) hint can never stall the client past the cap
            huge = ServerOverloadedError("x", retry_after_ms=60_000)
            assert client._pause_for(huge, 0.05) == 0.5
            # a modest hint raises the pause above the exponential guess
            modest = ServerOverloadedError("x", retry_after_ms=200)
            pause = client._pause_for(modest, 0.05)
            assert 0.16 <= pause <= 0.24          # 200ms +- 20% jitter
            # no hint: plain jittered exponential delay
            bare = ServerOverloadedError("x")
            pause = client._pause_for(bare, 0.1)
            assert 0.08 <= pause <= 0.12
            client.close()
        finally:
            server.stop()


# -- replica-set circuit breaker -----------------------------------------------------


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestReplicaBreaker:
    def test_reads_route_around_dead_endpoint(self):
        ssdm = SSDM()
        ssdm.load_turtle_text(_dataset_turtle(8))
        server = SSDMServer(ssdm).start()
        live = "127.0.0.1:%d" % server.server_address[1]
        dead = "127.0.0.1:%d" % _free_port()
        replicas = ReplicaSetClient(
            [dead, live], breaker_threshold=1, breaker_recovery=60.0,
        )
        try:
            for _ in range(3):
                assert replicas.query(CHEAP_QUERY) is True
            # after the first connect failure the dead endpoint's breaker
            # is open and later reads skip it instead of re-dialing
            assert replicas.breaker_skips >= 1
            snapshots = replicas.breakers()
            assert snapshots[dead]["state"] == "open"
            assert snapshots[live]["state"] == "closed"
        finally:
            replicas.close()
            server.stop()

    def test_breaker_probe_readmits_recovered_endpoint(self):
        ssdm = SSDM()
        ssdm.load_turtle_text(_dataset_turtle(8))
        server = SSDMServer(ssdm).start()
        live = "127.0.0.1:%d" % server.server_address[1]
        replicas = ReplicaSetClient(
            [live], breaker_threshold=1, breaker_recovery=0.05,
        )
        try:
            breaker = replicas._breaker(replicas._normalize(live))
            breaker.on_failure()          # simulate a failed read
            assert breaker.state == "open"
            time.sleep(0.06)              # recovery window elapses
            assert replicas.query(CHEAP_QUERY) is True
            assert breaker.state == "closed"
        finally:
            replicas.close()
            server.stop()

"""Resource governor: per-query budgets, admission queueing, breakers.

The load harness made overload *measurable*; this module makes it
*survivable*.  Four cooperating pieces:

``ResourceScope``
    A per-query row/byte budget carried as the ``budget`` field of the
    request context (:mod:`repro.context`).  Every
    materialization point in the engine — idjoin ID-space result
    arrays, DISTINCT/GROUP BY hash state, ORDER BY buffers, the TopK
    heap, OPTIONAL join output, buffer-pool fetches — charges the
    current scope; blowing the budget raises a non-retryable
    :class:`~repro.exceptions.ResourceExhaustedError` (wire code
    ``RESOURCE``) that unwinds through the engine's ``finally`` blocks,
    releasing every buffer-pool pin on the way out.  Budgets bound
    *cumulative* materialized work: a row buffered by three operators
    costs three row charges, which is exactly the memory-amplification
    the budget exists to cap.

``ResourceGovernor``
    Process-wide policy: default budgets, a registry of active scopes,
    and a *pressure* signal in [0, 1] — the fraction of the configured
    byte capacity currently charged by in-flight queries (or a forced
    value injected by :class:`~repro.storage.faults.FaultPlan`'s
    ``memory_pressure`` knob).  Under pressure the system degrades
    before it kills: APR stops speculating, and the buffer pool shrinks
    its soft limit, so cache churn yields memory back ahead of any
    query being aborted.

``AdmissionQueue``
    Replaces the server's binary ``max_concurrent`` shed with a bounded,
    deadline-aware queue and two priority lanes.  Interactive waiters
    drain before batch waiters; a full queue sheds batch first (an
    arriving interactive request displaces the youngest queued batch
    request); every rejection is a typed ``OVERLOAD`` carrying a
    ``retry_after_ms`` pacing hint derived from an EWMA of observed
    service time.

``CircuitBreaker``
    Per-endpoint closed/open/half-open breaker used by
    :class:`~repro.replication.ReplicaSetClient` so replica reads route
    around a sick node instead of round-robining errors, then probe it
    back in after a recovery window.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from typing import Optional

from repro import context
from repro import observability as obs
from repro.exceptions import ResourceExhaustedError, ServerOverloadedError

#: Priority lanes for the admission queue / request ``priority`` field.
INTERACTIVE = "interactive"
BATCH = "batch"
PRIORITIES = (INTERACTIVE, BATCH)

#: Default per-query budgets.  Generous for the reproduction's scales —
#: the macro benchmark's heaviest query materializes ~100k rows — while
#: still a hard wall against the cross-product / unguarded-DISTINCT
#: class of pathological query.
DEFAULT_MAX_QUERY_ROWS = 2_000_000
DEFAULT_MAX_QUERY_BYTES = 128 << 20

#: Default process capacity against which aggregate charged bytes are
#: normalized into the pressure signal.
DEFAULT_CAPACITY_BYTES = 512 << 20


class ResourceScope:
    """Cumulative row/byte account for one query.

    Either budget may be None (unbounded).  ``charge_*`` raise
    :class:`ResourceExhaustedError` once the cumulative total crosses
    the budget; ``check_rows`` pre-checks a bulk materialization (the
    idjoin fast path knows the exact output cardinality before it
    allocates) without charging.
    """

    __slots__ = (
        "max_rows", "max_bytes", "rows", "bytes", "priority",
        "_governor", "exhausted_dimension",
    )

    def __init__(self, max_rows=DEFAULT_MAX_QUERY_ROWS,
                 max_bytes=DEFAULT_MAX_QUERY_BYTES,
                 priority=INTERACTIVE, governor=None):
        self.max_rows = None if max_rows is None else int(max_rows)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.rows = 0
        self.bytes = 0
        self.priority = priority
        self._governor = governor
        self.exhausted_dimension = None

    def charge_rows(self, n, where):
        self.rows += n
        if self.max_rows is not None and self.rows > self.max_rows:
            self._exhaust("rows", self.rows, self.max_rows, where)

    def charge_bytes(self, n, where):
        self.bytes += n
        if self.max_bytes is not None and self.bytes > self.max_bytes:
            self._exhaust("bytes", self.bytes, self.max_bytes, where)

    def check_rows(self, n, where):
        """Pre-check a bulk charge of ``n`` rows without recording it."""
        if self.max_rows is not None and self.rows + n > self.max_rows:
            self._exhaust("rows", self.rows + n, self.max_rows, where)

    def remaining_rows(self):
        if self.max_rows is None:
            return None
        return max(0, self.max_rows - self.rows)

    def remaining_bytes(self):
        if self.max_bytes is None:
            return None
        return max(0, self.max_bytes - self.bytes)

    def _exhaust(self, dimension, charged, budget, where):
        self.exhausted_dimension = dimension
        if self._governor is not None:
            self._governor.note_exhausted(dimension, where)
        obs.event(
            "resource_exhausted",
            dimension=dimension, where=where,
            charged=int(charged), budget=int(budget),
        )
        obs.metrics().inc("governor_resource_aborts_total")
        raise ResourceExhaustedError(
            "query exceeded its %s budget at %s (%d > %d)"
            % (dimension, where, charged, budget)
        )


# -- the budget field of the request context -----------------------------------------


def current_scope() -> Optional[ResourceScope]:
    """The resource scope governing the current thread's query, or None."""
    ctx = context.current()
    return None if ctx is None else ctx.budget


def resource_scope(scope):
    """Derive the thread's request context with ``scope`` as its budget.

    Scopes nest; the previous context is restored on exit.  Passing None
    clears the budget (background work that must not be charged to a
    request — mirrors ``deadline_scope(None)``).
    """
    return context.scope(budget=scope)


class ResourceGovernor:
    """Process-wide budget policy, active-scope registry, pressure signal."""

    def __init__(self, max_query_rows=DEFAULT_MAX_QUERY_ROWS,
                 max_query_bytes=DEFAULT_MAX_QUERY_BYTES,
                 capacity_bytes=DEFAULT_CAPACITY_BYTES,
                 pressure_threshold=0.75, pool_shrink=0.5):
        self.max_query_rows = max_query_rows
        self.max_query_bytes = max_query_bytes
        self.capacity_bytes = int(capacity_bytes)
        self.pressure_threshold = float(pressure_threshold)
        self.pool_shrink = float(pool_shrink)
        self._lock = threading.Lock()
        self._active = set()
        self._forced_pressure = 0.0
        #: Weak refs to objects with a ``retained_bytes()`` method (the
        #: MVCC snapshot managers of served SSDMs): memory pinned by
        #: retained versions counts toward the pressure signal.
        self._retained_sources = []
        self._counters = {
            "queries": 0,
            "resource_aborts": 0,
            "speculation_suppressed": 0,
            "pool_shrinks": 0,
        }
        self._last_exhausted = None

    @contextmanager
    def scope(self, priority=INTERACTIVE, max_rows=None, max_bytes=None,
              **fields):
        """Open a budgeted scope, install it as the budget of a derived
        request context, account it.

        ``max_rows`` / ``max_bytes`` override the governor defaults for
        this query (None means "use the default"; pass 0 for unbounded
        is *not* supported — use a governor configured with None).
        ``fields`` are further context fields entered in the same
        derivation (the server passes its request ``deadline``).
        """
        scope = ResourceScope(
            max_rows=self.max_query_rows if max_rows is None else max_rows,
            max_bytes=self.max_query_bytes if max_bytes is None else max_bytes,
            priority=priority, governor=self,
        )
        with self._lock:
            self._active.add(scope)
            self._counters["queries"] += 1
        try:
            with context.scope(budget=scope, **fields):
                yield scope
        finally:
            with self._lock:
                self._active.discard(scope)
            obs.metrics().set_gauge("governor_pressure", round(self.pressure(), 4))

    def note_exhausted(self, dimension, where):
        with self._lock:
            self._counters["resource_aborts"] += 1
            self._last_exhausted = {"dimension": dimension, "where": where}

    # -- pressure ---------------------------------------------------------------

    def set_forced_pressure(self, value):
        """Deterministically pin the pressure signal (FaultPlan knob)."""
        with self._lock:
            self._forced_pressure = float(value or 0.0)

    def add_retained_source(self, source):
        """Count ``source.retained_bytes()`` toward the pressure signal.

        Held weakly: a garbage-collected source silently drops out, so
        short-lived test servers cannot accumulate into a leak.
        """
        with self._lock:
            self._retained_sources = [
                ref for ref in self._retained_sources if ref() is not None
            ]
            if not any(ref() is source for ref in self._retained_sources):
                self._retained_sources.append(weakref.ref(source))

    def retained_bytes(self):
        """Bytes pinned by registered MVCC retained versions."""
        with self._lock:
            sources = [ref() for ref in self._retained_sources]
        # call outside the governor lock: a source has its own lock and
        # lock-order inversion here would be an invisible deadlock trap
        return sum(
            int(source.retained_bytes())
            for source in sources if source is not None
        )

    def pressure(self):
        """Max of forced pressure and charged-bytes / capacity, in [0, ~]."""
        with self._lock:
            forced = self._forced_pressure
            used = sum(s.bytes for s in self._active)
        used += self.retained_bytes()
        return max(forced, used / float(self.capacity_bytes))

    def under_pressure(self):
        return self.pressure() >= self.pressure_threshold

    def speculation_allowed(self):
        """Gate for APR speculation/prefetch; counts suppressions."""
        if not self._active and not self._forced_pressure:
            return True
        if self.under_pressure():
            with self._lock:
                self._counters["speculation_suppressed"] += 1
            obs.metrics().inc("governor_speculation_suppressed_total")
            return False
        return True

    def pool_soft_limit(self, max_bytes):
        """Effective buffer-pool byte limit: shrunk under pressure."""
        if not self._active and not self._forced_pressure:
            return max_bytes
        if self.under_pressure():
            with self._lock:
                self._counters["pool_shrinks"] += 1
            return int(max_bytes * self.pool_shrink)
        return max_bytes

    def snapshot(self):
        with self._lock:
            counters = dict(self._counters)
            active = len(self._active)
            charged_rows = sum(s.rows for s in self._active)
            charged_bytes = sum(s.bytes for s in self._active)
            last = dict(self._last_exhausted) if self._last_exhausted else None
        return {
            "active_scopes": active,
            "charged_rows": charged_rows,
            "charged_bytes": charged_bytes,
            "retained_bytes": self.retained_bytes(),
            "pressure": round(self.pressure(), 4),
            "under_pressure": self.under_pressure(),
            "max_query_rows": self.max_query_rows,
            "max_query_bytes": self.max_query_bytes,
            "capacity_bytes": self.capacity_bytes,
            "counters": counters,
            "last_exhausted": last,
        }


# -- process-wide governor singleton -------------------------------------------------

_governor_lock = threading.Lock()
_governor = None


def get_governor() -> ResourceGovernor:
    """The process-wide governor (created on first use).

    The buffer pool and APR consult this singleton for the pressure
    signal, so an :class:`SSDMServer` uses it by default — wiring a
    private governor into a server keeps admission/budgets private but
    leaves the degradation hooks on the shared signal.
    """
    global _governor
    with _governor_lock:
        if _governor is None:
            _governor = ResourceGovernor()
        return _governor


def set_governor(governor):
    """Install (or with None, reset) the process-wide governor."""
    global _governor
    with _governor_lock:
        previous = _governor
        _governor = governor
    return previous


# -- admission queue -----------------------------------------------------------------


class _Waiter:
    __slots__ = ("priority", "shed")

    def __init__(self, priority):
        self.priority = priority
        self.shed = False


class AdmissionQueue:
    """Bounded, deadline-aware admission with two priority lanes.

    ``max_active`` concurrent slots; up to ``max_queue`` requests wait
    (``max_queue=0`` reproduces the old binary shed).  Interactive
    waiters are admitted before batch waiters, FIFO within a lane.
    When the queue is full, an arriving *interactive* request displaces
    the youngest queued *batch* request; an arriving batch request is
    shed immediately.  A waiter is shed once it has waited
    ``max_wait_ms`` or its request deadline, whichever is sooner —
    queueing a request past its own deadline only manufactures a
    guaranteed TIMEOUT.

    Every shed raises :class:`ServerOverloadedError` with a
    ``retry_after_ms`` hint: (queue depth + active) x the EWMA of
    observed service time, normalized by the slot count — i.e. roughly
    when the current backlog should have drained.
    """

    def __init__(self, max_active=64, max_queue=16, max_wait_ms=1000.0,
                 clock=time.monotonic):
        self.max_active = None if max_active is None else int(max_active)
        self.max_queue = max(0, int(max_queue))
        self.max_wait_ms = float(max_wait_ms)
        self._clock = clock
        self._cond = threading.Condition()
        self._active = 0
        self._waiters = []
        self._service_ewma = 0.05
        self.counters = {
            "admitted": 0, "queued": 0,
            "shed_interactive": 0, "shed_batch": 0,
            "displaced": 0, "shed_wait_timeout": 0,
        }

    @property
    def active(self):
        return self._active

    @property
    def depth(self):
        return len(self._waiters)

    def admit(self, priority=INTERACTIVE, deadline=None):
        """Block until admitted; raise ``ServerOverloadedError`` if shed."""
        with self._cond:
            if self.max_active is None or (
                self._active < self.max_active and not self._waiters
            ):
                self._active += 1
                self.counters["admitted"] += 1
                return
            if len(self._waiters) >= self.max_queue:
                victim = None
                if priority == INTERACTIVE:
                    for waiter in reversed(self._waiters):
                        if waiter.priority == BATCH and not waiter.shed:
                            victim = waiter
                            break
                if victim is None:
                    raise self._shed(priority, "admission queue full")
                victim.shed = True
                self._waiters.remove(victim)
                self.counters["displaced"] += 1
                self._cond.notify_all()
            waiter = _Waiter(priority)
            self._waiters.append(waiter)
            self.counters["queued"] += 1
            give_up_at = self._clock() + self.max_wait_ms / 1000.0
            while True:
                if waiter.shed:
                    raise self._shed(
                        priority, "displaced by an interactive request",
                        dequeued=True,
                    )
                if self._active < self.max_active and self._head() is waiter:
                    self._waiters.remove(waiter)
                    self._active += 1
                    self.counters["admitted"] += 1
                    return
                budget = give_up_at - self._clock()
                if deadline is not None:
                    left = deadline.remaining()
                    if left is not None:
                        budget = min(budget, left)
                    if deadline.cancelled:
                        budget = 0.0
                if budget <= 0:
                    self._waiters.remove(waiter)
                    self._cond.notify_all()
                    self.counters["shed_wait_timeout"] += 1
                    raise self._shed(
                        priority, "timed out waiting for admission",
                        dequeued=True,
                    )
                self._cond.wait(budget)

    def release(self, elapsed_seconds=None):
        """Free a slot; feed the service-time EWMA behind the hint."""
        with self._cond:
            self._active -= 1
            if elapsed_seconds is not None and elapsed_seconds >= 0:
                self._service_ewma = (
                    0.8 * self._service_ewma + 0.2 * float(elapsed_seconds)
                )
            self._cond.notify_all()

    def retry_after_ms(self):
        """Pacing hint for a request shed right now (clamped 10..5000)."""
        slots = max(1, self.max_active or 1)
        backlog = len(self._waiters) + self._active
        hint = backlog * self._service_ewma * 1000.0 / slots
        return int(min(5000.0, max(10.0, hint)))

    def _head(self):
        for waiter in self._waiters:
            if waiter.priority == INTERACTIVE:
                return waiter
        return self._waiters[0] if self._waiters else None

    def _shed(self, priority, reason, dequeued=False):
        lane = "shed_batch" if priority == BATCH else "shed_interactive"
        self.counters[lane] += 1
        obs.metrics().inc("admission_shed_total")
        obs.event("admission_shed", priority=priority, reason=reason)
        return ServerOverloadedError(
            "server overloaded (%s)" % reason,
            retry_after_ms=self.retry_after_ms(),
        )

    def snapshot(self):
        with self._cond:
            return {
                "active": self._active,
                "queue_depth": len(self._waiters),
                "max_active": self.max_active,
                "max_queue": self.max_queue,
                "max_wait_ms": self.max_wait_ms,
                "service_ewma_ms": round(self._service_ewma * 1000.0, 3),
                "counters": dict(self.counters),
            }


# -- circuit breaker -----------------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed/open/half-open breaker on consecutive failures.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``recovery_seconds`` one probe is allowed (half-open).  A probe
    success closes the breaker, a probe failure re-opens it for another
    recovery window.  ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, failure_threshold=3, recovery_seconds=1.0,
                 clock=time.monotonic):
        self.failure_threshold = int(failure_threshold)
        self.recovery_seconds = float(recovery_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.times_opened = 0

    @property
    def state(self):
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.recovery_seconds
            ):
                return HALF_OPEN
            return self._state

    def allow(self):
        """Whether a request may be sent to this endpoint right now."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.recovery_seconds:
                    self._state = HALF_OPEN
                    self._probing = True
                    return True
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def on_success(self):
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            self._probing = False

    def on_failure(self):
        with self._lock:
            self._probing = False
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self.times_opened += 1
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._state = OPEN
                self._opened_at = self._clock()
                self.times_opened += 1
                obs.metrics().inc("replica_breaker_opened_total")

    def snapshot(self):
        return {
            "state": self.state,
            "failures": self._failures,
            "times_opened": self.times_opened,
        }

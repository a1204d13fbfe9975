"""Request lifecycle: deadlines and cooperative cancellation.

The server mints one :class:`Deadline` per request (default budget plus a
per-request ``timeout_ms`` override) and installs it as the *ambient*
deadline of the handler thread.  Long-running loops down the stack — the
engine's solution iteration, APR's fetch pipeline, ASEI batched reads —
poll the ambient deadline at their loop boundaries, so a timed-out query
stops consuming CPU, releases its buffer-pool pins, and surfaces a typed
:class:`~repro.exceptions.RequestTimeoutError` instead of holding a
handler thread (and the server's read lock) forever.

Cancellation is cooperative: nothing is interrupted preemptively, which
keeps invariants simple — every ``finally`` block on the unwind path runs
(pins are unpinned, in-flight claims failed, locks released).  The cost is
that a loop which never polls cannot be cancelled; the polling points
cover every loop that does storage I/O or unbounded solution generation.

The deadline is one field of the request context
(:mod:`repro.context`): threads fetching on behalf of a request (the
APR prefetch pool) adopt the submitter's whole context, deadline
included.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import context
from repro.exceptions import RequestCancelledError, RequestTimeoutError
from repro import observability as obs

#: Granularity of cooperative sleeps: how quickly a sleeping worker
#: notices an expired deadline or a cancel() from another thread.
_SLEEP_SLICE_SECONDS = 0.02


class Deadline:
    """A cancellation token with an optional wall-clock budget.

    ``timeout_seconds=None`` makes an unbounded token that can still be
    cancelled explicitly.  All methods are safe to call from any thread;
    ``cancel()`` is typically called by a thread other than the one
    running the request.

    >>> Deadline(60).expired()
    False
    >>> d = Deadline(None); d.cancel(); d.expired()
    True
    """

    __slots__ = ("timeout_seconds", "_expires_at", "_cancelled")

    def __init__(self, timeout_seconds=None):
        self.timeout_seconds = (
            None if timeout_seconds is None else float(timeout_seconds)
        )
        self._expires_at = (
            None if self.timeout_seconds is None
            else time.monotonic() + self.timeout_seconds
        )
        self._cancelled = False

    @classmethod
    def after_ms(cls, timeout_ms):
        """A deadline ``timeout_ms`` milliseconds from now (None = none)."""
        if timeout_ms is None:
            return cls(None)
        return cls(float(timeout_ms) / 1000.0)

    def cancel(self):
        """Trip the token; every subsequent check() raises."""
        self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled

    def expired(self):
        """True once the budget has elapsed or cancel() was called."""
        return self._cancelled or (
            self._expires_at is not None
            and time.monotonic() >= self._expires_at
        )

    def remaining(self):
        """Seconds left (never negative), or None when unbounded."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def check(self):
        """Raise the matching lifecycle error when the token tripped.

        The outcome also lands on the active query trace as a
        ``cancelled`` / ``deadline_expired`` event, so a slow-query-log
        entry shows *where* in the span tree the request died.
        """
        if self._cancelled:
            obs.event("cancelled")
            raise RequestCancelledError("request cancelled")
        if (
            self._expires_at is not None
            and time.monotonic() >= self._expires_at
        ):
            obs.event(
                "deadline_expired",
                budget_ms=round(self.timeout_seconds * 1000.0, 3),
            )
            raise RequestTimeoutError(
                "request exceeded its %.0f ms deadline"
                % (self.timeout_seconds * 1000.0)
            )

    def sleep(self, seconds):
        """Sleep cooperatively: wake and raise when the token trips.

        Used by the fault-injection latency knob so that injected
        back-end latency never outlives the request's budget.
        """
        end = time.monotonic() + float(seconds)
        while True:
            self.check()
            left = end - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(left, _SLEEP_SLICE_SECONDS))


# -- the deadline field of the request context ------------------------------------


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current thread's request, or None."""
    ctx = context.current()
    return None if ctx is None else ctx.deadline


def deadline_scope(deadline):
    """Derive the thread's request context with ``deadline`` installed.

    Scopes nest; the previous context is restored on exit.  Passing
    None clears the deadline (background work that must not inherit a
    request's budget).
    """
    return context.scope(deadline=deadline)


def check_deadline():
    """Poll the current deadline; no-op when none is installed."""
    deadline = current_deadline()
    if deadline is not None:
        deadline.check()

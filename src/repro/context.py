"""The request context: everything one request carries, in one slot.

One :class:`RequestContext` holds a request's deadline, resource
budget, MVCC snapshot, query trace (plus the span instrumentation
currently reports under), FROM / FROM NAMED dataset view and plan memo.
The thread serving the request keeps it in the single thread-local slot
of this module; engine, storage and instrumentation code reads it
through :func:`current` — once per operator or call, then plain
attribute access — so shared objects (``SSDM``, ``QueryEngine``) carry
no per-request state.

Contexts are entered with :class:`scope`, which *derives*: the new
context is a copy of the enclosing one with the named fields replaced,
and the enclosing one is restored on exit.  That one rule gives the
public ``deadline_scope`` / ``resource_scope`` / ``snapshot_scope`` /
``trace_query`` helpers their nest / restore / ``None``-clears
semantics, and makes a nested ``SSDM.execute`` (a UDF issuing a
sub-query) inherit its caller's deadline, budget and snapshot.

Threads working on a request's behalf start with an empty slot; they
take over a :func:`fork` of the submitter's context with :func:`adopt`.
Adopting ``None`` detaches every field at once — speculative prefetches
outlive the request that triggered them and must see none of it.

This module is a leaf: it imports nothing from the package.
"""

from __future__ import annotations

import threading


class RequestContext:
    """The state of one request (all fields optional).

    ``span`` is the only field rewritten while the request runs (the
    engine points it at the operator being pulled); every thread works
    on its own copy, so that is a plain slot write.  ``plans`` memoizes
    sub-plans translated during evaluation, keyed by ``id(node)`` with
    the node kept in the entry so the id stays unique for the memo's
    lifetime.
    """

    __slots__ = ("deadline", "budget", "snapshot", "trace", "span",
                 "dataset_view", "plans")

    def __init__(self, deadline=None, budget=None, snapshot=None,
                 trace=None, span=None, dataset_view=None, plans=None):
        self.deadline = deadline
        self.budget = budget
        self.snapshot = snapshot
        self.trace = trace
        self.span = span
        self.dataset_view = dataset_view
        self.plans = plans

    def derive(self, **changes):
        """A copy of this context with ``changes`` applied."""
        ctx = RequestContext(
            self.deadline, self.budget, self.snapshot, self.trace,
            self.span, self.dataset_view, self.plans,
        )
        for name, value in changes.items():
            setattr(ctx, name, value)
        return ctx


_slot = threading.local()


def current():
    """The calling thread's :class:`RequestContext`, or None."""
    return getattr(_slot, "ctx", None)


def fork():
    """A private copy of the current context for another thread."""
    ctx = getattr(_slot, "ctx", None)
    return None if ctx is None else ctx.derive()


def adopt(ctx, fn, *args):
    """Run ``fn(*args)`` with ``ctx`` (or nothing, for None) as this
    thread's whole request context; restores the previous one."""
    previous = getattr(_slot, "ctx", None)
    _slot.ctx = ctx
    try:
        return fn(*args)
    finally:
        _slot.ctx = previous


class scope:
    """``with scope(field=value, ...) as ctx``: enter a context derived
    from the current one (or a blank one); restore the previous on exit.

    A hand-rolled class, not ``@contextmanager``: this sits on every
    request's path and the generator form costs microseconds.
    """

    __slots__ = ("_changes", "_previous")

    def __init__(self, **changes):
        self._changes = changes

    def __enter__(self):
        previous = self._previous = getattr(_slot, "ctx", None)
        ctx = RequestContext(**self._changes) if previous is None \
            else previous.derive(**self._changes)
        _slot.ctx = ctx
        return ctx

    def __exit__(self, exc_type, exc, tb):
        _slot.ctx = self._previous
        return False

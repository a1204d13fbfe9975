"""The suite's span recorder, used only by ``--trace 1`` runs.

Rows ``[name, start, end, parent, request id, thread]`` are kept in
memory and written out when the run ends.  Spans are opened from the
benchmark's own files, around calls into each layer's public functions;
durations the program already records in ``SSDM.last_trace`` are grafted
beneath the span of the ``execute`` call that produced them.

One request id per operation.  Work handed to another thread (an APR
prefetch worker running a ``TimedStore`` fetch) names the span that
caused it: the one open on the submitting thread.  If that span has
already ended when the work finishes, nobody waited for it (APR
speculation) and the row is filed as *background*: request id 0,
outside every span tree.

Self time is a span's duration minus the part its children cover.
Fetches that workers run side by side share the wall time they cover
together, so the self times of one request add up to its duration.
"""

from __future__ import annotations

import threading
import time

NAME, START, END, PARENT, REQUEST, THREAD = range(6)

#: ``SSDM.last_trace`` phases and the layer each belongs to.
_PHASE_LAYERS = {
    "parse": "sparql.parse",
    "plan": "algebra.plan",
    "execute": "engine.exec",
}
#: Storage spans inside the product's trace; the suite times those
#: layers itself, from outside, so they are not grafted twice.
_PRODUCT_STORAGE_SPANS = {
    "chunk_fetch", "apr_resolve", "pool_hit", "wal_append",
}


class _Scope:
    __slots__ = ("_recorder", "_name", "_cause", "index")

    def __init__(self, recorder, name, cause):
        self._recorder = recorder
        self._name = name
        self._cause = cause
        self.index = None

    def __enter__(self):
        self.index = self._recorder._open(self._name, self._cause)
        return self

    def __exit__(self, *exc):
        self._recorder._close(self.index)
        return False


class _NoScope:
    index = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SCOPE = _NoScope()


_ROOT = -1


class Recorder:
    def __init__(self):
        self.rows = []
        self.enabled = True
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = 0

    # -- recording ----------------------------------------------------------------

    def request(self, name):
        """Root span of one operation; mints its request id."""
        return _Scope(self, name, _ROOT) if self.enabled else _NO_SCOPE

    def span(self, name, cause=None):
        """A span under the one open on this thread, or under ``cause``
        (an index from :meth:`current` taken on the thread that handed
        the work over)."""
        return _Scope(self, name, cause) if self.enabled else _NO_SCOPE

    def current(self):
        """Index of the innermost span open on this thread, or None."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack and self.enabled else None

    def _open(self, name, cause):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if cause is None and stack:
            cause = stack[-1]
        with self._lock:
            if cause == _ROOT:
                self._requests += 1
                parent, request = -1, self._requests
            elif cause is None:
                parent, request = -1, 0
            else:
                parent, request = cause, self.rows[cause][REQUEST]
            index = len(self.rows)
            self.rows.append([
                name, time.perf_counter(), None, parent, request,
                threading.get_ident(),
            ])
        stack.append(index)
        return index

    def _close(self, index):
        row = self.rows[index]
        row[END] = time.perf_counter()
        self._local.stack.pop()
        if row[PARENT] >= 0 and self.rows[row[PARENT]][END] is not None:
            # caused by a span that did not wait for it
            row[PARENT], row[REQUEST] = -1, 0

    def graft(self, parent, trace, phases=("parse", "plan", "execute"),
              operators=False):
        """Hang what ``trace`` (an ``SSDM.last_trace``) recorded under
        row ``parent``, the closed span of the ``execute`` call.

        The product records durations, not positions: phases are laid
        end to end from the parent's start, and the engine phase slides
        right as far as needed to contain the fetches the suite timed
        for itself while the call ran (they become its children, so its
        self time excludes them).  With ``operators`` the per-operator
        spans follow, laid out the same way.
        """
        if parent is None or trace is None:
            return
        rows = self.rows
        _, start, end, _, request, thread = rows[parent]
        cursor = start
        for phase in trace.root.children:
            layer = _PHASE_LAYERS.get(phase.name)
            if layer is None or phase.name not in phases:
                continue
            begin = cursor
            timed = []
            if phase.name == "execute":
                timed = [
                    index for index in range(parent + 1, len(rows))
                    if rows[index][PARENT] == parent
                    and rows[index][END] is not None
                    and rows[index][NAME] not in _PHASE_LAYERS.values()
                ]
                if timed:
                    last = max(rows[index][END] for index in timed)
                    begin = max(begin, last - phase.elapsed)
                begin = max(cursor, min(begin, end - phase.elapsed))
            index = self._append(
                layer, begin, begin + phase.elapsed, parent, request, thread
            )
            for child in timed:
                rows[child][PARENT] = index
            if operators and phase.name == "execute":
                self._graft_operators(index, phase, begin, request, thread)
            cursor = begin + phase.elapsed

    def _graft_operators(self, parent, span, cursor, request, thread):
        for child in span.children:
            if child.name in _PRODUCT_STORAGE_SPANS:
                continue
            index = self._append(
                "engine." + child.name, cursor, cursor + child.elapsed,
                parent, request, thread,
            )
            self._graft_operators(index, child, cursor, request, thread)
            cursor += child.elapsed

    def absorb(self, rows):
        """Take over the rows another process recorded (the clock is
        the machine's monotonic one, so positions compare)."""
        with self._lock:
            shift, first = len(self.rows), self._requests
            for name, start, end, parent, request, thread in rows:
                self.rows.append([
                    name, start, end,
                    parent + shift if parent >= 0 else parent,
                    request + first if request else 0, thread,
                ])
                self._requests = max(self._requests, request + first)

    def _append(self, name, start, end, parent, request, thread):
        with self._lock:
            self.rows.append([name, start, end, parent, request, thread])
            return len(self.rows) - 1

    # -- analysis -----------------------------------------------------------------

    def analyse(self):
        """Self time per row plus the health summary of the recording."""
        return analyse(self.rows)

    def dump(self, summary):
        """The JSON document written to ``out/trace-*.json``."""
        origin = self.origin
        return {
            "summary": summary,
            "columns": ["name", "start_s", "end_s", "parent", "request",
                        "thread"],
            "spans": [
                [row[NAME], round(row[START] - origin, 7),
                 None if row[END] is None else round(row[END] - origin, 7),
                 row[PARENT], row[REQUEST], row[THREAD]]
                for row in self.rows
            ],
        }


def per_operation(summary, root):
    """``lookup(name, field="total_ms")``: a span name's total (or
    ``"self_ms"``) per operation, operations being the ``root`` spans."""
    spans = summary["by_name"]
    operations = spans[root]["count"]

    def lookup(name, field="total_ms"):
        return spans[name][field] / operations if name in spans else 0.0

    return lookup


#: child intervals may stick out of their parent by clock rounding only
_TOLERANCE = 1e-7


def analyse(rows):
    """Returns (self_times, summary).

    ``self_times[i]`` is row i's share of its request's wall time: at
    every instant the time goes to the innermost spans active then,
    split evenly when several run side by side.  ``summary`` counts
    requests, spans, background rows and *detached* spans — rows that
    name a parent or request which does not contain them — and gives
    ``self_time_coverage`` = Σ self ÷ Σ request duration.
    """
    self_times = [0.0] * len(rows)
    groups = {}
    children = {}
    detached = 0
    background = 0
    for index, row in enumerate(rows):
        if row[END] is None:
            detached += 1
            continue
        if row[REQUEST] == 0:
            background += 1
            continue
        groups.setdefault(row[REQUEST], []).append(index)
        parent = row[PARENT]
        if parent < 0:
            continue
        children.setdefault(parent, []).append(index)
        holder = rows[parent]
        if (
            holder[REQUEST] != row[REQUEST] or holder[END] is None
            or row[START] < holder[START] - _TOLERANCE
            or row[END] > holder[END] + _TOLERANCE
        ):
            detached += 1
    request_time = 0.0
    for group in groups.values():
        roots = [index for index in group if rows[index][PARENT] < 0]
        if len(roots) != 1:
            detached += len(group)
            continue
        request_time += rows[roots[0]][END] - rows[roots[0]][START]
        _share_out(rows, group, children, self_times)
    by_name = {}
    for index, row in enumerate(rows):
        if row[END] is None:
            continue
        entry = by_name.setdefault(row[NAME], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += row[END] - row[START]
        entry[2] += self_times[index]
    summary = {
        "requests": len(groups),
        "spans": len(rows),
        "background_spans": background,
        "detached_spans": detached,
        "self_time_coverage": (
            sum(self_times) / request_time if request_time else 0.0
        ),
        "by_name": {
            name: {"count": count, "total_ms": total * 1000.0,
                   "self_ms": own * 1000.0}
            for name, (count, total, own) in sorted(by_name.items())
        },
    }
    return self_times, summary


def _share_out(rows, group, children, self_times):
    bounds = sorted(
        {rows[index][START] for index in group}
        | {rows[index][END] for index in group}
    )
    for low, high in zip(bounds, bounds[1:]):
        middle = (low + high) / 2.0
        innermost = [
            index for index in group
            if rows[index][START] <= middle < rows[index][END]
            and not any(
                rows[child][START] <= middle < rows[child][END]
                for child in children.get(index, ())
            )
        ]
        for index in innermost:
            self_times[index] += (high - low) / len(innermost)

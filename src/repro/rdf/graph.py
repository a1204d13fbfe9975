"""In-memory RDF graph over dictionary-encoded sorted permutation indexes.

Terms are interned into dense integer IDs by a
:class:`~repro.rdf.dictionary.TermDictionary` at add time, and the
triple set is held as three sorted ``int64`` permutation indexes
(SPO / POS / OSP, :mod:`repro.rdf.idindex`) — the representation
full-in-memory RDF engines use to get binary-searchable runs and
merge-joinable columns instead of per-object hash probes.  Any triple
pattern with at least one bound component resolves to one contiguous
run of one index.

Point updates stay cheap through a **pending delta**: single adds and
removes buffer in Python structures and merge into the sorted base in
one vectorized pass once the delta grows past an adaptive threshold.
Consolidation is *publish-then-swap*: the merge builds brand-new
:class:`~repro.rdf.idindex.PermutationIndex` instances and installs
them with one reference assignment, so a concurrent reader holding the
old base mid-``run_bounds`` never observes a half-merged index.

**MVCC versions.**  :meth:`Graph.freeze` captures the current logical
state as an immutable :class:`GraphVersion` — the shared sorted base
plus a copy of the pending overlay and the dictionary watermark — in
O(overlay).  The single writer publishes one per WAL record
(:meth:`~repro.rdf.dataset.Dataset.publish`); lock-free readers resolve
patterns against their pinned version, merging its overlay on the fly.
When the request context carries an MVCC snapshot
(:func:`repro.mvcc.current_snapshot`), the plain read API
(:meth:`triples`, :meth:`count`, containment) routes through the
snapshot's version automatically.

Per-property cardinality statistics — triple counts and distinct
subject/value counts — are maintained *incrementally* on every
add/remove, so :class:`GraphStatistics` is O(1) reads of counters
rather than recomputed set unions (they feed the cost-based optimizer
on every pattern-ordering pass, :mod:`repro.algebra.cost`).
"""

from __future__ import annotations

from math import isqrt
from typing import Dict, Iterator, Set, Tuple

import numpy as np

from repro.exceptions import SciSparqlError
from repro.mvcc import current_snapshot
from repro.rdf.dictionary import TermDictionary
from repro.rdf.idindex import PermutationIndex
from repro.rdf.term import BlankNode, Literal, Triple, URI, is_term

#: Pending-delta floor before a merge; the in-write threshold grows
#: with the base (``max(floor, n/8)``) so bulk loads amortize to
#: O(n log n), while the publish-time cap grows as ``sqrt(n)`` to
#: balance per-publish overlay copies against merge frequency.
FLUSH_FLOOR = 1024


def _choose_run(idx_spo, idx_pos, idx_osp, s, p, o):
    """The (index, prefix) whose run holds every match of the pattern.

    Every bound scalar lands in the prefix, so run membership and
    "matches the bound scalars" coincide — the overlay arithmetic in
    :class:`GraphVersion` relies on that.
    """
    if s is not None:
        if o is not None and p is None:
            return idx_osp, (o, s)
        if p is not None and o is not None:
            return idx_spo, (s, p, o)
        if p is not None:
            return idx_spo, (s, p)
        return idx_spo, (s,)
    if p is not None:
        return idx_pos, (p, o) if o is not None else (p,)
    if o is not None:
        return idx_osp, (o,)
    return idx_spo, ()


def _matches(row, s, p, o):
    return (s is None or row[0] == s) and \
        (p is None or row[1] == p) and \
        (o is None or row[2] == o)


def _ambient_version(graph):
    """The frozen state of ``graph`` pinned by the ambient snapshot.

    None when no snapshot is installed or the snapshot does not cover
    this graph (query-local merged graphs read live).  Raises
    :class:`~repro.exceptions.SnapshotGoneError` when the snapshot was
    reclaimed.
    """
    snapshot = current_snapshot()
    if snapshot is None:
        return None
    return snapshot.version_of(graph)


class GraphStatistics:
    """Cardinality statistics used for query optimization.

    Every read is O(1) off counters the graph maintains incrementally:
    per property URI, the number of triples and the number of distinct
    subjects and values — the selectivity inputs for each access
    direction of a triple-pattern predicate.
    """

    def __init__(self, graph):
        self._graph = graph

    @property
    def triple_count(self):
        return len(self._graph)

    def property_count(self, prop):
        """Number of triples with the given property."""
        pid = self._graph._dict.try_encode(prop)
        if pid is None:
            return 0
        return self._graph._prop_counts.get(pid, 0)

    def distinct_subjects(self, prop=None):
        if prop is None:
            return len(self._graph._subject_counts)
        pid = self._graph._dict.try_encode(prop)
        if pid is None:
            return 0
        return len(self._graph._prop_subjects.get(pid, ()))

    def distinct_values(self, prop=None):
        if prop is None:
            return len(self._graph._value_counts)
        pid = self._graph._dict.try_encode(prop)
        if pid is None:
            return 0
        return len(self._graph._prop_values.get(pid, ()))

    def fanout(self, prop):
        """Average number of values per subject for a property.

        Estimates the cardinality of following the property *forward*
        from a known subject; 1.0 when the property is unknown.
        """
        count = self.property_count(prop)
        subjects = self.distinct_subjects(prop)
        if subjects == 0:
            return 1.0
        return count / subjects

    def fanin(self, prop):
        """Average number of subjects per value (backward direction)."""
        count = self.property_count(prop)
        values = self.distinct_values(prop)
        if values == 0:
            return 1.0
        return count / values


class GraphVersion:
    """One immutable logical state of a :class:`Graph`.

    Shares the sorted permutation indexes with the graph (indexes are
    never mutated in place — consolidation swaps new instances) and
    owns a *copy* of the pending overlay, so the capture cost is
    O(overlay), bounded by the publish cap.  Also pins the dictionary
    reference and its length at capture time: IDs at or above
    ``term_limit`` were interned after this version and are invisible,
    which is what makes dictionary interning append-only-visible-by-seq.
    """

    __slots__ = ("graph", "indexes", "adds_rows", "adds_arr", "adds_set",
                 "dels", "size", "dictionary", "term_limit")

    #: Same engine fast-path marker as Graph — a version answers the
    #: identical ID-space read API.
    supports_id_space = True

    def __init__(self, graph):
        self.graph = graph
        self.indexes = (graph._idx_spo, graph._idx_pos, graph._idx_osp)
        self.adds_rows = tuple(graph._pending_add)
        self.adds_set = frozenset(self.adds_rows)
        self.adds_arr = (
            np.array(self.adds_rows, dtype=np.int64).reshape(-1, 3)
            if self.adds_rows else None
        )
        self.dels = frozenset(graph._pending_del)
        self.size = graph._size
        self.dictionary = graph._dict
        self.term_limit = len(graph._dict)

    def __len__(self):
        return self.size

    def try_encode(self, term):
        """The term's ID when it was interned *before* this version."""
        tid = self.dictionary.try_encode(term)
        if tid is None or tid >= self.term_limit:
            return None
        return tid

    def term_list(self):
        """Decode table; every ID stored in this version is below
        ``term_limit`` and the dictionary is append-only, so indexing
        the live list is race-free."""
        return self.dictionary.term_list()

    # -- ID-space reads (mirror Graph's private API) --------------------

    def _run_arrays(self, s=None, p=None, o=None):
        """Sorted-run column views with the overlay merged in.

        Same contract as :meth:`Graph._run_arrays`: returns
        ``(s_col, p_col, o_col, leading_free)`` where the run is sorted
        by the chosen index's storage order (deleted base rows masked
        out, overlay adds merged in by lexsort), so merge joins keep
        their sortedness invariant on ``leading_free``.
        """
        index, prefix = _choose_run(*self.indexes, s, p, o)
        lo, hi = index.run_bounds(prefix)
        s_col, p_col, o_col = index.logical_columns(lo, hi)
        leading_free = (
            index.perm[len(prefix)] if len(prefix) < 3 else None
        )
        if self.dels and hi > lo:
            keep = None
            for row in self.dels:
                if not _matches(row, s, p, o):
                    continue
                position = index.find_row(row)
                if lo <= position < hi:
                    if keep is None:
                        keep = np.ones(hi - lo, dtype=bool)
                    keep[position - lo] = False
            if keep is not None:
                s_col = s_col[keep]
                p_col = p_col[keep]
                o_col = o_col[keep]
        if self.adds_arr is not None:
            arr = self.adds_arr
            mask = np.ones(len(arr), dtype=bool)
            if s is not None:
                mask &= arr[:, 0] == s
            if p is not None:
                mask &= arr[:, 1] == p
            if o is not None:
                mask &= arr[:, 2] == o
            if mask.any():
                extra = arr[mask]
                logical = (
                    np.concatenate([s_col, extra[:, 0]]),
                    np.concatenate([p_col, extra[:, 1]]),
                    np.concatenate([o_col, extra[:, 2]]),
                )
                p0, p1, p2 = index.perm
                order = np.lexsort(
                    (logical[p2], logical[p1], logical[p0])
                )
                s_col = logical[0][order]
                p_col = logical[1][order]
                o_col = logical[2][order]
        return s_col, p_col, o_col, leading_free

    def _scan_ids(self, s=None, p=None, o=None):
        """Yield matching (s, p, o) ID rows at this version."""
        index, prefix = _choose_run(*self.indexes, s, p, o)
        lo, hi = index.run_bounds(prefix)
        deleted = self.dels
        if deleted:
            for row in index.iter_rows(lo, hi):
                if row not in deleted:
                    yield row
        else:
            yield from index.iter_rows(lo, hi)
        for row in self.adds_rows:
            if _matches(row, s, p, o):
                yield row

    def _count_ids(self, s=None, p=None, o=None):
        index, prefix = _choose_run(*self.indexes, s, p, o)
        lo, hi = index.run_bounds(prefix)
        # adds never duplicate base rows and dels are always base rows,
        # so the run length adjusts by plain overlay arithmetic
        count = hi - lo
        for row in self.dels:
            if _matches(row, s, p, o):
                count -= 1
        for row in self.adds_rows:
            if _matches(row, s, p, o):
                count += 1
        return count

    def _contains_row(self, row):
        if row in self.adds_set:
            return True
        if row in self.dels:
            return False
        return self.indexes[0].find_row(row) >= 0

    def triples(self, subject=None, prop=None, value=None):
        """Iterate term-space triples matching a pattern at this version."""
        ids = []
        for term in (subject, prop, value):
            if term is None:
                ids.append(None)
                continue
            tid = self.try_encode(term)
            if tid is None:
                return
            ids.append(tid)
        terms = self.term_list()
        for s, p, o in self._scan_ids(ids[0], ids[1], ids[2]):
            yield Triple(terms[s], terms[p], terms[o])

    def retained_nbytes(self, seen):
        """Bytes this version pins beyond the graph's live state.

        Index arrays count only when they are no longer the owning
        graph's current base; ``seen`` deduplicates shared instances
        across versions/snapshots.
        """
        graph = self.graph
        current = (graph._idx_spo, graph._idx_pos, graph._idx_osp)
        total = 0
        for index in self.indexes:
            if id(index) in seen:
                continue
            seen.add(id(index))
            if all(index is not live for live in current):
                total += index.nbytes
        if id(self) not in seen:
            seen.add(id(self))
            total += 24 * (len(self.adds_rows) + len(self.dels))
        return total


class Graph:
    """A mutable set of RDF triples in dictionary-encoded ID space.

    Values may be RDF terms, :class:`repro.arrays.NumericArray`
    instances, or :class:`repro.arrays.ArrayProxy` references — the
    *RDF with Arrays* model.

    ``dictionary`` lets graphs share one ID space (every graph of a
    :class:`~repro.rdf.dataset.Dataset` shares the dataset's dictionary
    so the WAL can journal one assignment stream); a standalone graph
    interns into its own.

    >>> g = Graph()
    >>> from repro.rdf import URI, Literal
    >>> _ = g.add(URI("ex:s"), URI("ex:p"), Literal(1))
    >>> len(g)
    1
    """

    #: Marker the engine's ID-space BGP fast path keys on.
    supports_id_space = True

    def __init__(self, name=None, dictionary=None):
        #: Optional graph URI (named graphs in a Dataset).
        self.name = name
        self._dict = dictionary if dictionary is not None \
            else TermDictionary()
        self._idx_spo = PermutationIndex((0, 1, 2))
        self._idx_pos = PermutationIndex((1, 2, 0))
        self._idx_osp = PermutationIndex((2, 0, 1))
        #: Pending delta: adds as an ordered set (dict keys), removes
        #: of base rows as a set; a row is never in both.
        self._pending_add: Dict[Tuple[int, int, int], None] = {}
        self._pending_del: Set[Tuple[int, int, int]] = set()
        self._size = 0
        self._mutations = 0
        self._flushes = 0
        #: Fault-injection plan (set through Dataset.set_faults);
        #: consolidation honors its "consolidate" crash/latency point.
        self.faults = None
        self._frozen_version = None
        self._frozen_key = None
        self.statistics = GraphStatistics(self)
        # incrementally maintained cardinality counters (ID-keyed)
        self._prop_counts: Dict[int, int] = {}
        self._prop_subjects: Dict[int, Dict[int, int]] = {}
        self._prop_values: Dict[int, Dict[int, int]] = {}
        self._subject_counts: Dict[int, int] = {}
        self._value_counts: Dict[int, int] = {}

    @property
    def term_dictionary(self):
        return self._dict

    def term_list(self):
        """Decode table of the live dictionary (see
        :meth:`GraphVersion.term_list` for the snapshot-pinned twin)."""
        return self._dict.term_list()

    def __len__(self):
        version = _ambient_version(self)
        if version is not None:
            return version.size
        return self._size

    def __iter__(self):
        return self.triples()

    def __contains__(self, triple):
        version = _ambient_version(self)
        if version is not None:
            row = tuple(
                version.try_encode(component) for component in
                (triple[0], triple[1], triple[2])
            )
            return None not in row and version._contains_row(row)
        row = self._try_row(triple[0], triple[1], triple[2])
        return row is not None and self._contains_row(row)

    # -- versioning ---------------------------------------------------------------

    def freeze(self):
        """Capture the current logical state as a :class:`GraphVersion`.

        Called by the single writer (or under the dataset's publish
        lock), never concurrently with mutation.  When the overlay has
        outgrown the publish cap it is consolidated first so version
        captures stay O(sqrt(n)); an unchanged graph returns the cached
        version so read-mostly workloads publish for free.
        """
        key = (self._mutations, self._flushes)
        cached = self._frozen_version
        if cached is not None and self._frozen_key == key:
            return cached
        if len(self._pending_add) + len(self._pending_del) >= \
                self._publish_cap():
            self._flush()
        version = GraphVersion(self)
        self._frozen_version = version
        self._frozen_key = (self._mutations, self._flushes)
        return version

    def _publish_cap(self):
        return max(FLUSH_FLOOR, isqrt(len(self._idx_spo)))

    # -- mutation -----------------------------------------------------------------

    def add(self, subject, prop, value):
        """Insert one triple; returns self for chaining.

        Duplicate insertions are silently ignored (a graph is a set).
        """
        self._validate(subject, prop, value)
        before = len(self._dict)
        row = (
            self._dict.encode(subject),
            self._dict.encode(prop),
            self._dict.encode(value),
        )
        if len(self._dict) == before:
            # every term already known: the row may exist
            if row in self._pending_del:
                self._pending_del.remove(row)
                self._row_added(row)
                return self
            if row in self._pending_add or \
                    self._idx_spo.find_row(row) >= 0:
                return self
        self._pending_add[row] = None
        self._row_added(row)
        self._maybe_flush()
        return self

    def add_triple(self, triple):
        return self.add(triple[0], triple[1], triple[2])

    def remove(self, subject, prop, value):
        """Remove one triple; returns True when it was present."""
        row = self._try_row(subject, prop, value)
        if row is None:
            return False
        if row in self._pending_add:
            del self._pending_add[row]
            self._row_removed(row)
            return True
        if row in self._pending_del:
            return False
        if self._idx_spo.find_row(row) < 0:
            return False
        self._pending_del.add(row)
        self._row_removed(row)
        self._maybe_flush()
        return True

    def remove_matching(self, subject=None, prop=None, value=None):
        """Remove every triple matching the pattern; returns the count."""
        doomed = list(self.triples(subject, prop, value))
        for triple in doomed:
            self.remove(*triple)
        return len(doomed)

    def clear(self):
        """Drop every triple (dictionary assignments are append-only
        and survive; compaction reclaims them, see ``Dataset``).

        Swap-in of fresh indexes/overlay containers: pinned versions
        keep the old instances.
        """
        self._idx_spo = PermutationIndex((0, 1, 2))
        self._idx_pos = PermutationIndex((1, 2, 0))
        self._idx_osp = PermutationIndex((2, 0, 1))
        self._pending_add = {}
        self._pending_del = set()
        self._size = 0
        self._mutations += 1
        self._prop_counts.clear()
        self._prop_subjects.clear()
        self._prop_values.clear()
        self._subject_counts.clear()
        self._value_counts.clear()

    # -- reading ------------------------------------------------------------------

    def triples(self, subject=None, prop=None, value=None) -> Iterator[Triple]:
        """Iterate triples matching a pattern (None = wildcard).

        The constants always form a *prefix* of one of the three
        permutation indexes, so every lookup with at least one bound
        component is a binary-searched run, never a full scan.  The
        pending delta is merged on the fly; mutating the graph while
        iterating raises RuntimeError (as dict iteration did before).
        Under an ambient MVCC snapshot the iteration reads the pinned
        immutable version instead of the live structures.
        """
        version = _ambient_version(self)
        if version is not None:
            yield from version.triples(subject, prop, value)
            return
        ids = []
        for term in (subject, prop, value):
            if term is None:
                ids.append(None)
                continue
            tid = self._dict.try_encode(term)
            if tid is None:
                return
            ids.append(tid)
        terms = self._dict.term_list()
        generation = self._mutations
        for s, p, o in self._scan_ids(ids[0], ids[1], ids[2]):
            if self._mutations != generation:
                raise RuntimeError("graph changed size during iteration")
            yield Triple(terms[s], terms[p], terms[o])

    def count(self, subject=None, prop=None, value=None):
        """Number of triples matching the pattern, computed from run
        bounds without listing."""
        version = _ambient_version(self)
        if version is not None:
            if subject is None and prop is None and value is None:
                return version.size
            row = []
            for term in (subject, prop, value):
                if term is None:
                    row.append(None)
                    continue
                tid = version.try_encode(term)
                if tid is None:
                    return 0
                row.append(tid)
            return version._count_ids(row[0], row[1], row[2])
        if subject is None and prop is None and value is None:
            return self._size
        if subject is None and value is None:
            return self.statistics.property_count(prop)
        row = []
        for term in (subject, prop, value):
            if term is None:
                row.append(None)
                continue
            tid = self._dict.try_encode(term)
            if tid is None:
                return 0
            row.append(tid)
        return self._count_ids(row[0], row[1], row[2])

    def pattern_count(self, subject=None, prop=None, value=None):
        """Exact run length of a pattern over ground terms.

        This is the cost model's selectivity source: for any pattern
        whose bound components are constants, the estimate is the true
        cardinality read off the matching index run (O(log n)).
        """
        return self.count(subject, prop, value)

    # -- convenience accessors -------------------------------------------

    def subjects(self, prop=None, value=None):
        seen = set()
        for triple in self.triples(None, prop, value):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def values(self, subject=None, prop=None):
        for triple in self.triples(subject, prop, None):
            yield triple.value

    def value(self, subject, prop, default=None):
        """The single value of (subject, prop), or default when absent."""
        for triple in self.triples(subject, prop, None):
            return triple.value
        return default

    def properties(self, subject):
        seen = set()
        for triple in self.triples(subject, None, None):
            if triple.property not in seen:
                seen.add(triple.property)
                yield triple.property

    def update(self, triples):
        """Bulk-insert an iterable of triples; returns self."""
        for triple in triples:
            self.add(triple[0], triple[1], triple[2])
        return self

    def copy(self):
        clone = Graph(name=self.name)
        clone.update(self.triples())
        return clone

    # -- serialization ----------------------------------------------------

    def to_ntriples(self):
        """Serialize as NTriples text (arrays via their reader syntax)."""
        triples = sorted(self.triples(), key=lambda t: t.n3())
        return "\n".join(t.n3() for t in triples) + \
            ("\n" if triples else "")

    def to_turtle(self, prefixes=None):
        """Serialize as Turtle text; see :func:`repro.rdf.serializer`."""
        from repro.rdf.serializer import serialize_turtle
        return serialize_turtle(self, prefixes=prefixes)

    # -- ID-space access (engine fast path, cost model) ---------------------------

    def _ensure_flushed(self):
        """Merge the pending delta so the sorted base is authoritative."""
        if self._pending_add or self._pending_del:
            self._flush()

    def _flush(self):
        faults = self.faults
        if faults is not None:
            faults.at_point("consolidate")
        add = np.array(list(self._pending_add), dtype=np.int64) \
            .reshape(-1, 3)
        keep = None
        if self._pending_del:
            keep = np.ones(len(self._idx_spo), dtype=bool)
            # pending removes always target base rows (removes of
            # pending adds are dropped from the add buffer directly)
            for row in self._pending_del:
                position = self._idx_spo.find_row(row)
                keep[position] = False
        fresh = []
        for index in (self._idx_spo, self._idx_pos, self._idx_osp):
            if keep is not None and index is not self._idx_spo:
                keep_index = np.ones(len(index), dtype=bool)
                for row in self._pending_del:
                    keep_index[index.find_row(row)] = False
                fresh.append(index.merged(add, keep_index))
            else:
                fresh.append(index.merged(add, keep))
        # publish-then-swap: fresh containers are fully built before
        # the single reference assignments below, so readers holding
        # the old instances keep a consistent sorted base
        self._idx_spo, self._idx_pos, self._idx_osp = fresh
        self._pending_add = {}
        self._pending_del = set()
        self._flushes += 1

    def _maybe_flush(self):
        threshold = max(FLUSH_FLOOR, len(self._idx_spo) >> 3)
        if len(self._pending_add) + len(self._pending_del) >= threshold:
            self._flush()

    def _run_arrays(self, s=None, p=None, o=None):
        """Sorted-run column views for constant-bound components.

        Requires a flushed graph (call :meth:`_ensure_flushed` first).
        Returns ``(s_col, p_col, o_col, leading_free)`` where the
        columns are numpy views over the matching run and
        ``leading_free`` is the SPO position (0/1/2) of the run's
        leading unbound component — that column is sorted within the
        run, which merge joins exploit — or None when fully bound.
        """
        index, prefix = _choose_run(
            self._idx_spo, self._idx_pos, self._idx_osp, s, p, o
        )
        lo, hi = index.run_bounds(prefix)
        s_col, p_col, o_col = index.logical_columns(lo, hi)
        leading_free = (
            index.perm[len(prefix)] if len(prefix) < 3 else None
        )
        return s_col, p_col, o_col, leading_free

    def index_stats(self):
        """Footprint and maintenance counters of the ID-space layout."""
        index_bytes = (
            self._idx_spo.nbytes + self._idx_pos.nbytes
            + self._idx_osp.nbytes
        )
        return {
            "triples": int(self._size),
            "terms": len(self._dict),
            "index_bytes": int(index_bytes),
            "pending": len(self._pending_add) + len(self._pending_del),
            "flushes": int(self._flushes),
        }

    def _remap_ids(self, mapping, dictionary):
        """Rewrite every stored ID through ``mapping`` (compaction).

        Builds remapped index instances and swaps them in; versions
        pinned by live snapshots keep the old indexes *and* the old
        dictionary reference, so they stay internally consistent.
        """
        self._ensure_flushed()
        self._idx_spo = self._idx_spo.remapped(mapping)
        self._idx_pos = self._idx_pos.remapped(mapping)
        self._idx_osp = self._idx_osp.remapped(mapping)
        remap = mapping.__getitem__

        def remap_keys(table):
            return {int(remap(key)): value
                    for key, value in table.items()}

        self._prop_counts = remap_keys(self._prop_counts)
        self._prop_subjects = {
            int(remap(pid)): remap_keys(inner)
            for pid, inner in self._prop_subjects.items()
        }
        self._prop_values = {
            int(remap(pid)): remap_keys(inner)
            for pid, inner in self._prop_values.items()
        }
        self._subject_counts = remap_keys(self._subject_counts)
        self._value_counts = remap_keys(self._value_counts)
        self._dict = dictionary
        self._mutations += 1

    # -- internals ---------------------------------------------------------

    def _try_row(self, subject, prop, value):
        s = self._dict.try_encode(subject)
        if s is None:
            return None
        p = self._dict.try_encode(prop)
        if p is None:
            return None
        o = self._dict.try_encode(value)
        if o is None:
            return None
        return (s, p, o)

    def _contains_row(self, row):
        if row in self._pending_add:
            return True
        if row in self._pending_del:
            return False
        return self._idx_spo.find_row(row) >= 0

    def _scan_ids(self, s=None, p=None, o=None):
        """Yield matching (s, p, o) ID rows, merging the pending delta."""
        index, prefix = _choose_run(
            self._idx_spo, self._idx_pos, self._idx_osp, s, p, o
        )
        lo, hi = index.run_bounds(prefix)
        deleted = self._pending_del
        if deleted:
            for row in index.iter_rows(lo, hi):
                if row not in deleted:
                    yield row
        else:
            yield from index.iter_rows(lo, hi)
        if self._pending_add:
            for row in list(self._pending_add):
                if _matches(row, s, p, o):
                    yield row

    def _count_ids(self, s=None, p=None, o=None):
        if not self._pending_add and not self._pending_del:
            index, prefix = _choose_run(
                self._idx_spo, self._idx_pos, self._idx_osp, s, p, o
            )
            if not prefix:
                return self._size
            lo, hi = index.run_bounds(prefix)
            return hi - lo
        return sum(1 for _ in self._scan_ids(s, p, o))

    def _row_added(self, row):
        s, p, o = row
        self._size += 1
        self._mutations += 1
        self._prop_counts[p] = self._prop_counts.get(p, 0) + 1
        _bump(self._prop_subjects.setdefault(p, {}), s)
        _bump(self._prop_values.setdefault(p, {}), o)
        _bump(self._subject_counts, s)
        _bump(self._value_counts, o)

    def _row_removed(self, row):
        s, p, o = row
        self._size -= 1
        self._mutations += 1
        remaining = self._prop_counts[p] - 1
        if remaining:
            self._prop_counts[p] = remaining
        else:
            del self._prop_counts[p]
        for table, key in ((self._prop_subjects, s),
                           (self._prop_values, o)):
            inner = table[p]
            _drop(inner, key)
            if not inner:
                del table[p]
        _drop(self._subject_counts, s)
        _drop(self._value_counts, o)

    @staticmethod
    def _validate(subject, prop, value):
        if not isinstance(subject, (URI, BlankNode)):
            raise SciSparqlError(
                "triple subject must be URI or BlankNode, got %r" % (subject,)
            )
        if not isinstance(prop, URI):
            raise SciSparqlError(
                "triple property must be URI, got %r" % (prop,)
            )
        if not is_term(value):
            raise SciSparqlError(
                "triple value must be an RDF term or array, got %r" % (value,)
            )


def _bump(table, key):
    table[key] = table.get(key, 0) + 1


def _drop(table, key):
    remaining = table[key] - 1
    if remaining:
        table[key] = remaining
    else:
        del table[key]

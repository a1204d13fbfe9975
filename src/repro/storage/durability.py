"""Durability layer: write-ahead journal and crash recovery for SSDM.

The paper's SSDM keeps the RDF graph in main memory and ships massive
numeric arrays to external ASEI back-ends (section 6.2).  The array
back-ends are durable by construction (files, an RDBMS); the RDF image
is not.  This module closes that gap with a classical write-ahead log:

- Every SPARQL update appends one **CRC-framed, fsync'd, monotonically
  sequenced record** describing its *computed delta* (not the update
  text — a ``DELETE/INSERT WHERE`` is logged as the concrete triples it
  removed and added, so replay never re-evaluates a query against a
  different graph state).
- Triples inside a record use an **N-Triples-based line encoding**:
  RDF terms serialize through their standard ``n3()`` forms; resident
  arrays embed their elements as a typed literal, while externally
  stored arrays are **referenced by store id** — the chunks themselves
  are durable in the ASEI back-end and never duplicated into the log.
- :meth:`DatasetJournal.replay` rebuilds a dataset by applying every
  intact record in sequence and **truncates the log at the first torn
  or CRC-failing record**, so a crash mid-append converges to the
  pre-update state and a crash after the fsync'd append converges to
  the post-update state — never anything in between.
- :meth:`DatasetJournal.snapshot` compacts the log: the current dataset
  is rewritten as a fresh record sequence (clear + per-graph inserts)
  into a temp file that atomically replaces the log.  Snapshot and WAL
  share one format and one replay path.

Record framing (all integers big-endian)::

    +-------+---------+-----------+--------+-----------------+
    | magic |   seq   |  length   |  crc   |     payload     |
    | 2 B   |  8 B    |   4 B     |  4 B   |   length bytes  |
    +-------+---------+-----------+--------+-----------------+

``crc`` covers ``seq || length || payload``.  The checksum is zlib's
CRC-32 — the one CRC the Python standard library computes at C speed;
CRC-32C (Castagnoli) would need either an external package or a
per-byte Python loop on every chunk read (see ``payload_crc``).
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.arrays.nma import ELEMENT_TYPES, NumericArray, dtype_code
from repro.arrays.proxy import ArrayProxy
from repro.exceptions import CorruptionError, StorageError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.term import BlankNode, Literal, URI
from repro import observability as obs

#: Datatype URIs marking array values in the journal's N-Triples lines.
ARRAY_DATATYPE = "urn:x-repro:array"
PROXY_DATATYPE = "urn:x-repro:array-proxy"

_MAGIC = b"WJ"
_HEADER = struct.Struct(">2sQII")      # magic, seq, length, crc
#: Upper bound on one record's payload (a defense against interpreting
#: garbage bytes as a gigantic length and stalling recovery).
MAX_RECORD_BYTES = 1 << 30


def payload_crc(data, crc=0):
    """The 32-bit checksum used for WAL frames and chunk sidecars.

    zlib's CRC-32: detection strength comparable to CRC-32C for the
    single-bit-flip and torn-tail corruptions this layer guards
    against, and computed in C by the standard library.
    """
    return zlib.crc32(data, crc) & 0xFFFFFFFF


def fsync_directory(path):
    """fsync a directory so a rename/create inside it is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return            # platform without directory fds
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path, data, fsync=True):
    """Write a file atomically: temp file in the same dir, fsync, rename.

    Readers never observe a half-written file — they see either the old
    content or the new, which is the invariant every metadata file of
    the durability layer relies on.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temp = "%s.tmp.%d" % (path, os.getpid())
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(temp, path)
    if fsync:
        fsync_directory(directory)


class WriteAheadLog:
    """Append-only, CRC-framed, fsync'd record log on one file.

    ``faults`` (a :class:`~repro.storage.faults.FaultPlan`) lets tests
    tear an append mid-write and crash at either side of it.
    """

    def __init__(self, path, faults=None, fsync=True):
        self.path = str(path)
        self.faults = faults
        self.fsync = bool(fsync)
        self._handle = None
        self._next_seq = 1
        self.records_appended = 0
        self.bytes_appended = 0
        self.truncated_bytes = 0

    # -- appending ---------------------------------------------------------------

    def _open_for_append(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, payload):
        """Durably append one record; returns its sequence number.

        The frame is written and fsync'd before returning, so a caller
        that mutates state only *after* ``append`` returns upholds the
        write-ahead invariant.
        """
        if not isinstance(payload, bytes):
            payload = payload.encode("utf-8")
        if len(payload) > MAX_RECORD_BYTES:
            raise StorageError(
                "WAL record of %d bytes exceeds the %d byte limit"
                % (len(payload), MAX_RECORD_BYTES)
            )
        seq = self._next_seq
        frame = self._frame(seq, payload)
        crash_after = False
        if self.faults is not None:
            frame, crash_after = self.faults.mangle_write(frame)
        started = obs._clock()
        handle = self._open_for_append()
        handle.write(frame)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        elapsed = obs._clock() - started
        obs.observe_span("wal_append", elapsed,
                         records=1, bytes=len(frame))
        registry = obs.metrics()
        registry.inc("wal_appends_total")
        registry.inc("wal_bytes_appended_total", len(frame))
        registry.observe("wal_append_seconds", elapsed)
        if crash_after:
            from repro.storage.faults import SimulatedCrash
            raise SimulatedCrash(
                "injected crash after torn WAL append (seq %d)" % seq
            )
        self._next_seq = seq + 1
        self.records_appended += 1
        self.bytes_appended += len(frame)
        return seq

    @property
    def next_seq(self):
        """Sequence number the next :meth:`append` will use."""
        return self._next_seq

    @property
    def last_seq(self):
        """Highest sequence number durably appended (0 = empty log)."""
        return self._next_seq - 1

    @staticmethod
    def _frame(seq, payload):
        body = struct.pack(">QI", seq, len(payload)) + payload
        header = _HEADER.pack(
            _MAGIC, seq, len(payload), payload_crc(body)
        )
        return header + payload

    # -- scanning / recovery -----------------------------------------------------

    def scan(self):
        """Yield ``(seq, payload, end_offset)`` for every intact record.

        Stops — without raising — at the first torn frame, CRC failure,
        bad magic, or non-monotonic sequence number: everything from
        that point on is unreachable garbage left by a crash.
        """
        if not os.path.exists(self.path):
            return
        last_seq = 0
        with open(self.path, "rb") as handle:
            offset = 0
            while True:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return                      # clean EOF or torn header
                magic, seq, length, crc = _HEADER.unpack(header)
                if magic != _MAGIC or seq <= last_seq \
                        or length > MAX_RECORD_BYTES:
                    return
                payload = handle.read(length)
                if len(payload) < length:
                    return                      # torn payload
                body = struct.pack(">QI", seq, length) + payload
                if payload_crc(body) != crc:
                    return                      # bit rot / torn tail
                offset += _HEADER.size + length
                last_seq = seq
                yield seq, payload, offset

    def recover(self):
        """Replay-scan the log, truncating after the last intact record.

        Returns the list of ``(seq, payload)`` pairs that survived;
        subsequent appends continue the sequence.
        """
        records = []
        good_offset = 0
        for seq, payload, end in self.scan():
            records.append((seq, payload))
            good_offset = end
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size > good_offset:
            self.truncated_bytes += size - good_offset
            with open(self.path, "r+b") as handle:
                handle.truncate(good_offset)
                handle.flush()
                os.fsync(handle.fileno())
        self._next_seq = (records[-1][0] + 1) if records else 1
        return records

    def rewrite(self, payloads):
        """Atomically replace the log with a fresh record sequence.

        Used by snapshot compaction: the new frames are written to a
        temp file, fsync'd, and renamed over the log, so a crash during
        compaction leaves the *old* log intact.
        """
        self.close()
        buffer = io.BytesIO()
        seq = 0
        for payload in payloads:
            if not isinstance(payload, bytes):
                payload = payload.encode("utf-8")
            seq += 1
            buffer.write(self._frame(seq, payload))
        atomic_write_bytes(self.path, buffer.getvalue(), fsync=self.fsync)
        self._next_seq = seq + 1
        return seq

    def reset(self):
        """Empty the log (a follower resynchronizing from scratch)."""
        self.close()
        if os.path.exists(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(0)
                handle.flush()
                os.fsync(handle.fileno())
        self._next_seq = 1

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def stats(self):
        return {
            "path": self.path,
            "next_seq": self._next_seq,
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "truncated_bytes": self.truncated_bytes,
        }


# -- N-Triples-based triple codec ---------------------------------------------------


def encode_term(term):
    """One journal token for an RDF term or array value.

    URIs, blank nodes, and literals use their N-Triples ``n3()`` forms;
    a resident :class:`NumericArray` embeds its elements as a typed
    literal, and an :class:`ArrayProxy` serializes its *descriptor only*
    — the store id plus view geometry — because the chunks are already
    durable behind the ASEI.
    """
    if isinstance(term, (URI, BlankNode, Literal)):
        return term.n3()
    if isinstance(term, ArrayProxy):
        descriptor = {
            "id": term.array_id,
            "et": term.element_type,
            "base": list(term.base_shape),
            "shape": list(term.shape),
            "strides": list(term.strides),
            "offset": term.offset,
        }
        return '"%s"^^<%s>' % (
            _escape(json.dumps(descriptor, sort_keys=True)), PROXY_DATATYPE
        )
    if isinstance(term, NumericArray):
        dense = np.ascontiguousarray(term.to_numpy())
        body = {
            "dtype": dtype_code(dense.dtype),
            "shape": list(dense.shape),
            "data": dense.reshape(-1).tolist(),
        }
        return '"%s"^^<%s>' % (
            _escape(json.dumps(body, sort_keys=True)), ARRAY_DATATYPE
        )
    raise StorageError("cannot journal term %r" % (term,))


def encode_triple(subject, prop, value):
    """One N-Triples-style journal line for a triple."""
    return "%s %s %s ." % (
        encode_term(subject), encode_term(prop), encode_term(value)
    )


def decode_term(token, array_store=None):
    """Parse one journal term token (the dictionary-record codec).

    Accepts exactly what :func:`encode_term` emits for a single term;
    trailing garbage is corruption.
    """
    parser = _LineParser(token)
    term = parser.term(array_store)
    parser._skip_spaces()
    if parser.pos != len(token):
        parser._fail("trailing garbage after term")
    return term


def decode_triple(line, array_store=None):
    """Parse one journal line back into a ``(subject, prop, value)``.

    ``array_store`` resolves proxy references; a line referencing an
    external array without a store configured is a hard error — guessing
    would corrupt query results silently.
    """
    parser = _LineParser(line)
    subject = parser.term(array_store)
    prop = parser.term(array_store)
    value = parser.term(array_store)
    parser.end()
    return subject, prop, value


def _escape(text):
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}

_BLANK_LABEL = re.compile(r"^b(\d+)$")


def _note_blank_label(label):
    """Keep the process-wide blank-node counter ahead of replayed labels.

    Without this, a recovered graph holding ``_:b7`` from a previous
    process could collide with a fresh anonymous node minted as ``b7``
    by this one — silently unifying two distinct nodes.
    """
    match = _BLANK_LABEL.match(label)
    if match:
        value = int(match.group(1))
        if value > BlankNode._counter:
            BlankNode._counter = value


class _LineParser:
    """Recursive-descent reader for one journal triple line."""

    def __init__(self, line):
        self.line = line
        self.pos = 0

    def _skip_spaces(self):
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def _fail(self, why):
        raise CorruptionError(
            "bad journal triple line (%s) at column %d: %r"
            % (why, self.pos + 1, self.line)
        )

    def term(self, array_store=None):
        self._skip_spaces()
        if self.pos >= len(self.line):
            self._fail("unexpected end of line")
        ch = self.line[self.pos]
        if ch == "<":
            return URI(self._angle())
        if ch == "_":
            return self._blank()
        if ch == '"':
            return self._literal(array_store)
        self._fail("unexpected character %r" % ch)

    def _angle(self):
        end = self.line.find(">", self.pos)
        if end < 0:
            self._fail("unterminated <...>")
        text = self.line[self.pos + 1:end]
        self.pos = end + 1
        return text

    def _blank(self):
        if not self.line.startswith("_:", self.pos):
            self._fail("bad blank node")
        end = self.pos + 2
        while end < len(self.line) and self.line[end] not in " \t":
            end += 1
        label = self.line[self.pos + 2:end]
        if not label:
            self._fail("empty blank node label")
        self.pos = end
        _note_blank_label(label)
        return BlankNode(label)

    def _quoted(self):
        assert self.line[self.pos] == '"'
        out = []
        i = self.pos + 1
        while i < len(self.line):
            ch = self.line[i]
            if ch == "\\":
                if i + 1 >= len(self.line):
                    self._fail("dangling escape")
                replacement = _UNESCAPE.get(self.line[i + 1])
                if replacement is None:
                    self._fail("unknown escape \\%s" % self.line[i + 1])
                out.append(replacement)
                i += 2
                continue
            if ch == '"':
                self.pos = i + 1
                return "".join(out)
            out.append(ch)
            i += 1
        self._fail("unterminated string literal")

    def _literal(self, array_store):
        lexical = self._quoted()
        if self.line.startswith("@", self.pos):
            end = self.pos + 1
            while end < len(self.line) and self.line[end] not in " \t":
                end += 1
            lang = self.line[self.pos + 1:end]
            if not lang:
                self._fail("empty language tag")
            self.pos = end
            return Literal(lexical, lang=lang)
        if self.line.startswith("^^<", self.pos):
            self.pos += 2
            datatype = self._angle()
            if datatype == ARRAY_DATATYPE:
                return _decode_array(lexical)
            if datatype == PROXY_DATATYPE:
                return _decode_proxy(lexical, array_store)
            try:
                return Literal.from_lexical(lexical, URI(datatype))
            except ValueError as error:
                self._fail("bad literal: %s" % error)
        return Literal(lexical)

    def end(self):
        self._skip_spaces()
        if not self.line.startswith(".", self.pos):
            self._fail("missing terminating dot")
        self.pos += 1
        self._skip_spaces()
        if self.pos != len(self.line):
            self._fail("trailing garbage")


def _decode_array(lexical):
    try:
        body = json.loads(lexical)
        dtype = ELEMENT_TYPES[body["dtype"]]
        data = np.asarray(body["data"], dtype=dtype).reshape(body["shape"])
    except (ValueError, KeyError, TypeError) as error:
        raise CorruptionError("bad journal array payload: %s" % (error,))
    return NumericArray(data)


def _decode_proxy(lexical, array_store):
    try:
        descriptor = json.loads(lexical)
        array_id = descriptor["id"]
        element_type = descriptor["et"]
        base = tuple(descriptor["base"])
        shape = tuple(descriptor["shape"])
        strides = tuple(descriptor["strides"])
        offset = int(descriptor["offset"])
    except (ValueError, KeyError, TypeError) as error:
        raise CorruptionError("bad journal proxy payload: %s" % (error,))
    if array_store is None:
        raise StorageError(
            "journal references external array %r but the journal was "
            "opened without an array_store" % (array_id,)
        )
    return ArrayProxy(
        array_store, array_id, element_type, base,
        shape=shape, strides=strides, offset=offset,
    )


# -- the dataset journal -------------------------------------------------------------

#: Journal payload format version.
_FORMAT = 1

#: Graph-name token meaning "every graph" (CLEAR ALL).
ALL_GRAPHS = "ALL"


class DatasetJournal:
    """WAL-journaled persistence of one RDF dataset.

    ``directory`` holds the log (``wal.log``); it is created on demand.
    ``array_store`` resolves array references during replay and should
    be the same (persistent) store the owning SSDM externalizes arrays
    into.  ``faults`` threads a :class:`~repro.storage.faults.FaultPlan`
    into the append path for crash testing.
    """

    LOG_NAME = "wal.log"

    def __init__(self, directory, array_store=None, faults=None, fsync=True):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.array_store = array_store
        self.faults = faults
        self.wal = WriteAheadLog(
            os.path.join(self.directory, self.LOG_NAME),
            faults=faults, fsync=fsync,
        )
        self.records_replayed = 0
        self.triples_replayed = 0
        self.snapshots_taken = 0

    # -- logging updates ---------------------------------------------------------

    def log_update(self, kind, graph=None, insert=(), delete=(),
                   dictionary=None):
        """Durably journal one update delta *before* it is applied.

        ``kind`` is ``insert`` / ``delete`` / ``modify`` / ``clear``;
        ``graph`` is None (default graph), a :class:`URI`, or
        ``"ALL"`` for CLEAR ALL; ``insert`` / ``delete`` are iterables
        of ``(subject, prop, value)`` with array values already
        externalized (so proxies carry their final store ids).

        ``dictionary`` is the dataset's :class:`TermDictionary` (or
        None for dictionary-less callers).  Fresh terms among the
        inserted triples are *previewed* — tentatively assigned the
        next dense IDs — and the ``(id, term)`` pairs ride inside the
        record; the assignments commit into the in-memory dictionary
        only after the append returns, so a torn append leaves the
        dictionary exactly as the durable log implies.  Replay and
        replication :meth:`TermDictionary.bind` the same pairs and
        therefore reconstruct a byte-identical ID space.
        """
        entries = ()
        if dictionary is not None and insert:
            entries = dictionary.preview(
                component for triple in insert for component in triple
            )
        payload = self._record(kind, graph, insert, delete, entries)
        if self.faults is not None:
            self.faults.crash_point("before_wal")
        seq = self.wal.append(payload)
        if entries:
            dictionary.commit(entries)
        if self.faults is not None:
            self.faults.crash_point("after_wal")
        return seq

    @staticmethod
    def _record(kind, graph, insert, delete, dict_entries=()):
        record = {"v": _FORMAT, "kind": kind, "graph": _encode_graph(graph)}
        if insert:
            record["insert"] = [encode_triple(*t) for t in insert]
        if delete:
            record["delete"] = [encode_triple(*t) for t in delete]
        if dict_entries:
            record["dict"] = [
                [tid, encode_term(term)] for tid, term in dict_entries
            ]
        return json.dumps(record, sort_keys=True).encode("utf-8")

    # -- replication stream ------------------------------------------------------

    @property
    def last_seq(self):
        """Highest sequence number durably logged (0 = empty log)."""
        return self.wal.last_seq

    def records_since(self, seq, limit=None):
        """Intact ``(seq, payload)`` records with sequence > ``seq``.

        This is the primary side of WAL shipping: a follower asks for
        everything past its applied position.  The scan re-reads the
        log file, which is safe concurrently with appends — appended
        frames only ever extend the intact prefix.
        """
        out = []
        for record_seq, payload, _ in self.wal.scan():
            if record_seq <= seq:
                continue
            out.append((record_seq, payload))
            if limit is not None and len(out) >= limit:
                break
        return out

    def append_replicated(self, seq, payload):
        """Durably append one streamed record on a follower.

        The follower's log must stay a byte-level twin of the
        primary's record sequence, so a gap or replayed duplicate is a
        hard error — the replication client reacts by resynchronizing
        from scratch instead of diverging silently.
        """
        if seq != self.wal.next_seq:
            raise StorageError(
                "replication stream gap: got seq %d, local log expects %d"
                % (seq, self.wal.next_seq)
            )
        return self.wal.append(payload)

    def apply_record(self, dataset, payload, seq=None):
        """Apply one journal record (local or streamed) to ``dataset``.

        The single replay path shared by crash recovery and
        replication: deltas decode through the N-Triples codec, deleted
        or cleared array values drop their buffer-pool entries, and the
        mutation happens triple-by-triple exactly as the original
        update logged it.  ``seq`` stamps the MVCC version published at
        the record boundary (so replica reads see exact-seq snapshots).
        """
        with dataset.writing(seq if seq is not None else self.last_seq):
            self._apply(dataset, payload)

    def reset(self):
        """Empty the journal (follower full resync)."""
        self.wal.reset()

    # -- recovery ----------------------------------------------------------------

    def replay(self, dataset):
        """Rebuild ``dataset`` from the log; returns records applied.

        The log is truncated after the last intact record (see
        :meth:`WriteAheadLog.recover`), so a torn append disappears and
        subsequent updates extend a clean log.
        """
        count = 0
        for seq, payload in self.wal.recover():
            self._apply(dataset, payload)
            count += 1
        self.records_replayed += count
        # one version for the whole recovered state (per-record
        # publication during replay would only churn retired overlays)
        dataset.publish(self.last_seq)
        return count

    def _apply(self, dataset, payload):
        try:
            record = json.loads(payload.decode("utf-8"))
            kind = record["kind"]
            graph_name = record.get("graph")
        except (ValueError, KeyError) as error:
            raise CorruptionError(
                "undecodable journal record: %s" % (error,)
            )
        inserts = [
            decode_triple(line, self.array_store)
            for line in record.get("insert", ())
        ]
        deletes = [
            decode_triple(line, self.array_store)
            for line in record.get("delete", ())
        ]
        entries = record.get("dict", ())
        if entries:
            # replay the primary's exact assignments *before* the
            # triples land, so graph.add interns nothing on its own
            # and the ID space stays byte-identical; a disagreeing
            # bind raises CorruptionError instead of diverging
            for tid, token in entries:
                dataset.term_dictionary.bind(
                    decode_term(token, self.array_store), int(tid)
                )
        if kind == "clear":
            self._apply_clear(dataset, graph_name)
        elif kind in ("insert", "delete", "modify"):
            graph = dataset.graph(_decode_graph(graph_name))
            for triple in deletes:
                if graph.remove(*triple):
                    invalidate_pooled(triple[2])
            for triple in inserts:
                graph.add(*triple)
        else:
            raise CorruptionError(
                "unknown journal record kind %r" % (kind,)
            )
        self.triples_replayed += len(inserts) + len(deletes)

    @staticmethod
    def _apply_clear(dataset, graph_name):
        if graph_name == ALL_GRAPHS:
            graphs = [dataset.default_graph]
            graphs.extend(dataset.named_graphs().values())
        else:
            graph = dataset.graph(_decode_graph(graph_name), create=False)
            graphs = [] if graph is None else [graph]
        for graph in graphs:
            for triple in list(graph.triples()):
                invalidate_pooled(triple.value)
            graph.clear()

    # -- snapshot / compaction ----------------------------------------------------

    def snapshot(self, dataset):
        """Compact the log to the dataset's current state.

        The snapshot *is* a log: one CLEAR ALL record followed by one
        insert record per non-empty graph, atomically renamed over
        ``wal.log``.  Recovery stays a single code path, and a crash
        during compaction leaves the previous log untouched.

        Snapshotting is also when the term dictionary compacts: a
        scratch dictionary interns only the *live* terms (in snapshot
        record order, so replaying the new log reproduces it exactly),
        each insert record carries its fresh assignments, and once the
        rewrite is durable the dataset remaps its indexes onto the
        compacted ID space — dropping IDs whose terms were deleted.
        """
        scratch = TermDictionary()
        payloads = [self._record("clear", ALL_GRAPHS, (), ())]
        graphs = [(None, dataset.default_graph)]
        graphs.extend(
            (name, graph) for name, graph in
            sorted(dataset.named_graphs().items(),
                   key=lambda item: item[0].value)
        )
        for name, graph in graphs:
            triples = list(graph.triples())
            if not triples:
                continue
            entries = scratch.preview(
                component for triple in triples for component in triple
            )
            scratch.commit(entries)
            payloads.append(
                self._record("insert", name, triples, (), entries)
            )
        last_seq = self.wal.rewrite(payloads)
        dataset.compact_dictionary(scratch)
        # the WAL seq just regressed (the rewritten log restarts at 1);
        # publishing here lets the snapshot manager invalidate every
        # live snapshot whose version belongs to the old history
        dataset.publish(last_seq)
        self.snapshots_taken += 1
        return last_seq

    def close(self):
        self.wal.close()

    def stats(self):
        return dict(
            self.wal.stats(),
            records_replayed=self.records_replayed,
            triples_replayed=self.triples_replayed,
            snapshots_taken=self.snapshots_taken,
        )


def invalidate_pooled(value):
    """Drop buffer-pool entries of an array value leaving the dataset.

    A streamed delete (or clear) severs the replica's reference to the
    array; pooled chunks under a recycled id must never be served, same
    as on the primary's direct update path.
    """
    if isinstance(value, ArrayProxy):
        value.store.invalidate_cached(value.array_id)


def _encode_graph(graph):
    if graph is None or graph == ALL_GRAPHS:
        return graph
    if isinstance(graph, URI):
        return graph.value
    if isinstance(graph, str):
        return graph
    raise StorageError("cannot journal graph name %r" % (graph,))


def _decode_graph(graph_name):
    if graph_name is None:
        return None
    return URI(graph_name)

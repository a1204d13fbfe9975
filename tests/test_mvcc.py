"""MVCC snapshot isolation: versioned reads, bounded retention, chaos.

The tentpole guarantee under test: every admitted read pins an immutable
dataset version at its admission seq, writers never block readers (and
vice versa), and what a snapshot observes always equals the
:class:`~repro.rdf.hashgraph.HashIndexGraph` oracle replayed to the same
seq.  Covers:

- the :class:`~repro.mvcc.SnapshotManager` unit surface (acquire /
  release, bounded live snapshots, the exact-seq retention ring, seq
  regressions);
- the publish-then-swap consolidation protocol (a reader holding the
  old sorted base mid-run is never broken by a concurrent merge);
- ``execute(at_seq=...)`` exact-version reads with the
  ``LAGGING`` / ``SNAPSHOT_GONE`` wire contract, embedded and over the
  wire;
- writer/reader non-blocking in both directions (the starvation
  regression the old global read/write lock suffered from);
- a hypothesis property interleaving add/remove batches with snapshot
  reads at random seqs against the hash-graph oracle;
- the deterministic chaos matrix: writers x long snapshot readers x
  injected crashes (``consolidate`` / ``publish`` points) x memory
  pressure, verified against the oracle replayed to each admission seq.
"""

import threading
import time
from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SSDM, Literal, URI
from repro.client import SSDMClient, SSDMServer
from repro.exceptions import (
    QueryError, ReplicaLaggingError, SnapshotGoneError,
)
from repro.governor import get_governor
from repro.mvcc import DatasetVersion, SnapshotManager, snapshot_scope
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.hashgraph import HashIndexGraph
from repro.storage.faults import FaultPlan, SimulatedCrash

P = URI("http://e/p")

SELECT_ALL = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"


def _subject(i):
    return URI("http://e/s%d" % i)


def _triples(graph):
    """The graph's logical state as a comparable set of terms."""
    return {(t.subject, t.property, t.value) for t in graph.triples()}


def _version(seq=1):
    return DatasetVersion(seq, {}, None)


# -- SnapshotManager unit surface -------------------------------------------


class TestSnapshotManager:
    def test_acquire_release_tracks_live(self):
        manager = SnapshotManager()
        snapshot = manager.acquire(_version(3))
        assert manager.live_count() == 1
        assert manager.low_water_seq() == 3
        snapshot.release()
        assert manager.live_count() == 0
        assert manager.low_water_seq() is None
        snapshot.release()          # idempotent

    def test_reading_scope_releases_on_exit(self):
        manager = SnapshotManager()
        with manager.reading(_version(5)) as snapshot:
            assert snapshot.seq == 5
            assert manager.live_count() == 1
        assert manager.live_count() == 0

    def test_low_water_is_oldest_pinned_seq(self):
        manager = SnapshotManager()
        old = manager.acquire(_version(2))
        manager.acquire(_version(9))
        assert manager.low_water_seq() == 2
        old.release()
        assert manager.low_water_seq() == 9

    def test_max_snapshots_reclaims_oldest(self):
        manager = SnapshotManager(max_snapshots=2)
        first = manager.acquire(_version(1))
        second = manager.acquire(_version(2))
        third = manager.acquire(_version(3))
        assert first.gone and not second.gone and not third.gone
        with pytest.raises(SnapshotGoneError):
            first.check()
        second.check()              # survivors unaffected
        stats = manager.stats()
        assert stats["snapshot_gone"] == 1
        assert stats["live_snapshots"] == 2

    def test_retention_ring_is_bounded(self):
        manager = SnapshotManager(retain_versions=3)
        for seq in range(1, 6):
            manager.note_published(_version(seq))
        assert manager.retained(1) is None
        assert manager.retained(2) is None
        for seq in (3, 4, 5):
            assert manager.retained(seq).seq == seq

    def test_seq_regression_invalidates_live_snapshots(self):
        manager = SnapshotManager()
        manager.note_published(_version(7))
        pinned = manager.acquire(manager.retained(7))
        manager.note_published(_version(1))     # compaction / resync
        assert pinned.gone
        with pytest.raises(SnapshotGoneError):
            pinned.version_of(object())
        stats = manager.stats()
        assert stats["regressions"] == 1
        assert manager.retained(7) is None      # old history dropped
        assert manager.retained(1).seq == 1


# -- dataset publication ----------------------------------------------------


class TestDatasetPublication:
    def test_capture_serves_pre_record_state_mid_write(self):
        ds = Dataset()
        ds.publish(0)
        graph = ds.default_graph
        graph.add(_subject(0), P, Literal(0))
        ds.publish(1)
        with ds.writing(2):
            graph.add(_subject(1), P, Literal(1))
            mid = ds.capture()
            assert mid.seq == 1
            assert mid.version_of(graph).size == 1
        after = ds.capture()
        assert after.seq == 2
        assert after.version_of(graph).size == 2

    def test_publish_skips_foreign_graphs(self):
        ds = Dataset()
        foreign = HashIndexGraph(name=URI("http://e/oracle"))
        ds._named[URI("http://e/oracle")] = foreign
        foreign.add(_subject(0), P, Literal(0))
        version = ds.publish(1)
        # unversioned: snapshot readers fall through to the live graph
        assert version.version_of(foreign) is None
        assert version.version_of(ds.default_graph) is not None

    def test_auto_seq_never_regresses(self):
        ds = Dataset()
        ds.publish(5)
        assert ds.publish().seq > 5
        assert ds.published_seq > 5


# -- publish-then-swap consolidation (the flush race) ------------------------


class TestConsolidationRace:
    def test_swapped_out_index_instance_stays_readable(self):
        graph = Graph()
        for i in range(50):
            graph.add(_subject(i), P, Literal(i))
        graph._flush()
        old = graph._idx_spo
        lo, hi = old.run_bounds(())
        before = list(old.iter_rows(lo, hi))
        for i in range(50, 80):
            graph.add(_subject(i), P, Literal(i))
        graph.remove(_subject(0), P, Literal(0))
        graph._flush()
        # consolidation built fresh instances; a reader still holding
        # the old base (mid-run_bounds) sees the exact pre-merge rows
        assert graph._idx_spo is not old
        assert list(old.iter_rows(lo, hi)) == before

    def test_frozen_version_unaffected_by_consolidation(self):
        graph = Graph()
        for i in range(60):
            graph.add(_subject(i), P, Literal(i))
        version = graph.freeze()
        expected = {(t.subject, t.property, t.value)
                    for t in version.triples()}
        for i in range(60, 90):
            graph.add(_subject(i), P, Literal(i))
        graph.remove(_subject(3), P, Literal(3))
        graph._flush()
        assert {(t.subject, t.property, t.value)
                for t in version.triples()} == expected
        assert version._count_ids() == version.size == 60

    def test_reader_consistent_inside_delayed_consolidation_window(self):
        graph = Graph()
        plan = FaultPlan(point_delays={"consolidate": 0.15})
        graph.faults = plan
        for i in range(40):
            graph.add(_subject(i), P, Literal(i))
        version = graph.freeze()
        expected = {(t.subject, t.property, t.value)
                    for t in version.triples()}
        writer = threading.Thread(target=graph._ensure_flushed)
        writer.start()
        try:
            while writer.is_alive():
                assert {(t.subject, t.property, t.value)
                        for t in version.triples()} == expected
                time.sleep(0.01)
        finally:
            writer.join()
        assert graph._flushes == 1
        assert _triples(graph) == expected

    def test_concurrent_version_scans_during_flushes(self):
        ds = Dataset()
        ds.publish(0)
        graph = ds.default_graph
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                version = ds.capture()
                frozen = version.version_of(graph)
                try:
                    scanned = sum(1 for _ in frozen._scan_ids())
                    counted = frozen._count_ids()
                    if scanned != frozen.size or counted != frozen.size:
                        errors.append(
                            "inconsistent version: scan=%d count=%d "
                            "size=%d" % (scanned, counted, frozen.size)
                        )
                except Exception as exc:   # noqa: BLE001 - recorded
                    errors.append(repr(exc))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        try:
            for seq in range(1, 150):
                with ds.writing(seq):
                    graph.add(_subject(seq), P, Literal(seq))
                    if seq % 7 == 0:
                        graph.remove(
                            _subject(seq - 3), P, Literal(seq - 3)
                        )
                    if seq % 11 == 0:
                        graph._flush()
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert errors == []


# -- exact-seq reads (at_seq) ------------------------------------------------


@contextmanager
def _held_snapshot(ssdm):
    """What a long-running read holds: a pin on the published version,
    installed as the thread's snapshot (nested executes inherit it)."""
    with ssdm.mvcc.reading(ssdm.dataset.capture()) as snapshot, \
            snapshot_scope(snapshot):
        yield snapshot


def _insert(ssdm, i):
    ssdm.execute(
        "INSERT DATA { <http://e/s%d> <http://e/p> %d }" % (i, i)
    )
    return ssdm.dataset.published_seq


class TestAtSeq:
    @pytest.fixture
    def loaded(self):
        ssdm = SSDM()
        seqs = [_insert(ssdm, i) for i in (1, 2, 3)]
        return ssdm, seqs

    def test_exact_seq_reads_history(self, loaded):
        ssdm, seqs = loaded
        result = ssdm.execute(SELECT_ALL, at_seq=seqs[0])
        assert {row[2] for row in result.rows} == {1}
        result = ssdm.execute(SELECT_ALL, at_seq=seqs[1])
        assert {row[2] for row in result.rows} == {1, 2}

    def test_at_published_seq_serves_current(self, loaded):
        ssdm, seqs = loaded
        result = ssdm.execute(SELECT_ALL, at_seq=seqs[-1])
        assert len(result.rows) == 3
        assert len(ssdm.execute(SELECT_ALL).rows) == 3

    def test_ahead_of_published_is_lagging(self, loaded):
        ssdm, seqs = loaded
        with pytest.raises(ReplicaLaggingError) as caught:
            ssdm.execute(SELECT_ALL, at_seq=seqs[-1] + 5)
        assert caught.value.retryable is True

    def test_evicted_seq_is_snapshot_gone(self, loaded):
        ssdm, seqs = loaded
        for i in range(4, 16):      # push seq 1 out of the ring
            _insert(ssdm, i)
        with pytest.raises(SnapshotGoneError) as caught:
            ssdm.execute(SELECT_ALL, at_seq=seqs[0])
        assert caught.value.retryable is False
        assert caught.value.code == "SNAPSHOT_GONE"

    def test_update_with_at_seq_rejected(self, loaded):
        ssdm, seqs = loaded
        with pytest.raises(QueryError):
            ssdm.execute(
                "INSERT DATA { <http://e/x> <http://e/p> 9 }",
                at_seq=seqs[0],
            )


# -- writer/reader non-blocking (starvation regression) ----------------------


class TestStarvation:
    def test_long_reader_does_not_block_writer(self):
        ssdm = SSDM()
        _insert(ssdm, 1)
        with _held_snapshot(ssdm):
            finished = threading.Event()

            def write():
                _insert(ssdm, 2)
                finished.set()

            writer = threading.Thread(target=write)
            writer.start()
            writer.join(timeout=5.0)
            # the update committed while the analytical read was live
            assert finished.is_set()
            # ... and the held snapshot still reads its admission state
            assert len(ssdm.execute(SELECT_ALL).rows) == 1
        assert len(ssdm.execute(SELECT_ALL).rows) == 2

    def test_writer_publish_window_does_not_block_readers(self):
        ssdm = SSDM()
        _insert(ssdm, 1)
        plan = FaultPlan(point_delays={"publish": 0.5})
        ssdm.dataset.set_faults(plan)
        entered = threading.Event()

        def write():
            entered.set()
            _insert(ssdm, 2)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            entered.wait(timeout=2.0)
            time.sleep(0.05)        # let the writer reach the window
            started = time.monotonic()
            for _ in range(3):
                result = ssdm.execute(SELECT_ALL)
                assert len(result.rows) in (1, 2)
            elapsed = time.monotonic() - started
        finally:
            ssdm.dataset.set_faults(None)
            writer.join()
        # three reads completed well inside the writer's 0.5s publish
        # window: readers never waited on the write path
        assert elapsed < 0.4
        assert len(ssdm.execute(SELECT_ALL).rows) == 2


# -- property: interleaved batches vs the hash-graph oracle ------------------


_SUBJECTS = [URI("http://e/s%d" % i) for i in range(4)]
_PROPS = [URI("http://e/p%d" % i) for i in range(3)]
_VALUES = [Literal(i) for i in range(4)]
_UNIVERSE = [(s, p, v) for s in _SUBJECTS for p in _PROPS for v in _VALUES]

_BATCHES = st.lists(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, len(_UNIVERSE) - 1)),
        min_size=1, max_size=6,
    ),
    min_size=1, max_size=8,
)


class TestSnapshotOracleProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches=_BATCHES, data=st.data())
    def test_snapshot_reads_match_oracle_at_every_seq(self, batches, data):
        ds = Dataset()
        manager = SnapshotManager(
            max_snapshots=4096, retain_versions=4096
        )
        ds.snapshots = manager
        ds.publish(0)
        graph = ds.default_graph
        oracle = HashIndexGraph()
        expected = {}
        pinned = {}
        for index, batch in enumerate(batches):
            seq = index + 1
            with ds.writing(seq):
                for add, which in batch:
                    s, p, v = _UNIVERSE[which]
                    if add:
                        graph.add(s, p, v)
                        oracle.add(s, p, v)
                    else:
                        graph.remove(s, p, v)
                        oracle.remove(s, p, v)
            expected[seq] = _triples(oracle)
            pinned[seq] = manager.acquire(manager.retained(seq))
            # interleaved read at a random earlier admission seq
            probe = data.draw(
                st.integers(1, seq), label="probe_seq"
            )
            with snapshot_scope(pinned[probe]):
                assert _triples(graph) == expected[probe]
                assert len(graph) == len(expected[probe])
        subject = _SUBJECTS[0]
        for seq, snapshot in pinned.items():
            with snapshot_scope(snapshot):
                assert _triples(graph) == expected[seq]
                assert graph.count(subject=subject) == sum(
                    1 for t in expected[seq] if t[0] == subject
                )
            snapshot.release()
        assert manager.stats()["snapshot_gone"] == 0


# -- deterministic chaos matrix ----------------------------------------------


class TestChaosMatrix:
    def test_crash_at_publish_recovers_to_wal_state(self, tmp_path):
        wal = str(tmp_path / "wal")
        ssdm = SSDM.open(wal)
        oracle = HashIndexGraph()
        for i in (1, 2):
            _insert(ssdm, i)
            oracle.add(_subject(i), P, Literal(i))
        seq_early = 1
        long_reader = ssdm.mvcc.acquire(ssdm.mvcc.retained(seq_early))
        plan = FaultPlan(crash_points={"publish"})
        ssdm.dataset.set_faults(plan)
        with pytest.raises(SimulatedCrash):
            _insert(ssdm, 3)
        assert plan.crashes == 1
        # the WAL record was fsync'd before the mutation, so the crashed
        # batch is part of durable history
        oracle.add(_subject(3), P, Literal(3))
        plan.crash_points.clear()
        # the long snapshot reader on the crashed instance still reads
        # its admission state, even though the publish never landed
        crashed_graph = ssdm.dataset.default_graph
        with snapshot_scope(long_reader):
            assert _triples(crashed_graph) == {(_subject(1), P, Literal(1))}
        ssdm.close()

        recovered = SSDM.open(wal)
        assert _triples(recovered.graph) == _triples(oracle)
        assert recovered.dataset.published_seq == 3
        _insert(recovered, 4)
        oracle.add(_subject(4), P, Literal(4))
        assert _triples(recovered.graph) == _triples(oracle)
        recovered.close()

    def test_crash_at_consolidate_preserves_logical_state(self):
        graph = Graph()
        for i in range(200):
            graph.add(_subject(i), P, Literal(i))
        version = graph.freeze()
        before = _triples(graph)
        plan = FaultPlan(crash_points={"consolidate"})
        graph.faults = plan
        with pytest.raises(SimulatedCrash):
            graph._ensure_flushed()
        # the merge never swapped anything in: live state and the pinned
        # version are both intact
        assert graph._flushes == 0
        assert _triples(graph) == before
        assert version.size == 200
        plan.crash_points.clear()
        graph._ensure_flushed()
        assert graph._flushes == 1
        assert _triples(graph) == before
        assert {(t.subject, t.property, t.value)
                for t in version.triples()} == before

    def test_writers_and_readers_with_latency_windows(self):
        """The core matrix cell: a writer stream with widened publish
        windows, concurrent readers, exact-seq reads and one long
        snapshot reader — every observation must be an oracle prefix
        state, and every retained seq must equal the oracle replayed to
        that seq."""
        ssdm = SSDM()
        batch_count = 20
        # precompute the oracle state after every batch: odd batches
        # insert, every 5th batch deletes the batch-3-earlier subject
        states = {0: frozenset()}
        oracle = HashIndexGraph()
        operations = []
        for seq in range(1, batch_count + 1):
            if seq % 5 == 0 and seq > 3:
                operations.append(("delete", seq - 3))
                oracle.remove(_subject(seq - 3), P, Literal(seq - 3))
            else:
                operations.append(("insert", seq))
                oracle.add(_subject(seq), P, Literal(seq))
            states[seq] = frozenset(_triples(oracle))
        valid_states = set(states.values())

        plan = FaultPlan(point_delays={"publish": 0.004})
        ssdm.dataset.set_faults(plan)
        errors = []
        writer_done = threading.Event()

        def write():
            try:
                for kind, i in operations:
                    if kind == "insert":
                        ssdm.execute(
                            "INSERT DATA { <http://e/s%d> "
                            "<http://e/p> %d }" % (i, i)
                        )
                    else:
                        ssdm.execute(
                            "DELETE DATA { <http://e/s%d> "
                            "<http://e/p> %d }" % (i, i)
                        )
            except Exception as exc:    # noqa: BLE001 - recorded
                errors.append("writer: %r" % (exc,))
            finally:
                writer_done.set()

        def read():
            while not writer_done.is_set():
                try:
                    rows = ssdm.execute(SELECT_ALL).rows
                    observed = frozenset(
                        (row[0], row[1], Literal(row[2]))
                        for row in rows
                    )
                    if observed not in valid_states:
                        errors.append(
                            "non-prefix state observed: %r" % (observed,)
                        )
                    seq = ssdm.dataset.published_seq
                    try:
                        exact = ssdm.execute(SELECT_ALL, at_seq=seq)
                    except SnapshotGoneError:
                        continue    # ring moved on; acceptable
                    observed = frozenset(
                        (row[0], row[1], Literal(row[2]))
                        for row in exact.rows
                    )
                    if observed not in valid_states:
                        errors.append(
                            "non-prefix at_seq state: %r" % (observed,)
                        )
                except Exception as exc:    # noqa: BLE001 - recorded
                    errors.append("reader: %r" % (exc,))
                    return

        with ExitStack() as stack:
            stack.enter_context(_held_snapshot(ssdm))
            admission_seq = ssdm.dataset.published_seq
            writer = threading.Thread(target=write)
            readers = [threading.Thread(target=read) for _ in range(2)]
            try:
                writer.start()
                for thread in readers:
                    thread.start()
            finally:
                writer.join()
                for thread in readers:
                    thread.join()
                ssdm.dataset.set_faults(None)
            # the long reader held its snapshot across the entire
            # writer stream: it still reads its admission state
            held = frozenset(
                (row[0], row[1], Literal(row[2]))
                for row in ssdm.execute(SELECT_ALL).rows
            )
            assert held == states[admission_seq]
        assert errors == []
        # exact-seq replica reads replay to the oracle at each seq
        published = ssdm.dataset.published_seq
        assert published == batch_count
        for seq in range(max(1, published - 7), published + 1):
            rows = ssdm.execute(SELECT_ALL, at_seq=seq).rows
            observed = frozenset(
                (row[0], row[1], Literal(row[2])) for row in rows
            )
            assert observed == states[seq], "divergence at seq %d" % seq

    def test_memory_pressure_reclaims_oldest_snapshot(self):
        ds = Dataset()
        manager = SnapshotManager(max_retained_bytes=1024)
        ds.snapshots = manager
        ds.publish(0)
        graph = ds.default_graph
        with ds.writing(1):
            for i in range(2000):
                graph.add(_subject(i), P, Literal(i))
            graph._ensure_flushed()
        old_version = manager.retained(1)
        older = manager.acquire(old_version)
        newer = manager.acquire(old_version)
        # consolidating again retires the seq-1 index arrays: the two
        # pinned snapshots now hold far more than the byte bound, so the
        # oldest is reclaimed (the newest always survives)
        with ds.writing(2):
            for i in range(2000, 4000):
                graph.add(_subject(i), P, Literal(i))
            graph._ensure_flushed()
        assert older.gone and not newer.gone
        with pytest.raises(SnapshotGoneError):
            older.check()
        assert manager.stats()["snapshot_gone"] == 1
        assert manager.retained_bytes() > 1024
        newer.release()
        assert manager.retained_bytes() == 0

    def test_forced_pressure_degrades_but_reads_stay_correct(self):
        ssdm = SSDM()
        for i in (1, 2, 3):
            _insert(ssdm, i)
        plan = FaultPlan()
        try:
            plan.set_memory_pressure(0.97)
            assert get_governor().pressure() >= 0.97
            rows = ssdm.execute(SELECT_ALL).rows
            assert {row[2] for row in rows} == {1, 2, 3}
            assert {
                row[2]
                for row in ssdm.execute(SELECT_ALL, at_seq=2).rows
            } == {1, 2}
        finally:
            plan.set_memory_pressure(None)

    def test_governor_counts_retained_snapshot_bytes(self):
        ds = Dataset()
        manager = SnapshotManager()
        ds.snapshots = manager
        ds.publish(0)
        graph = ds.default_graph
        with ds.writing(1):
            for i in range(2000):
                graph.add(_subject(i), P, Literal(i))
            graph._ensure_flushed()
        pinned = manager.acquire(manager.retained(1))
        with ds.writing(2):
            for i in range(2000, 4000):
                graph.add(_subject(i), P, Literal(i))
            graph._ensure_flushed()
        governor = get_governor()
        governor.add_retained_source(manager)
        try:
            assert manager.retained_bytes() > 0
            assert governor.retained_bytes() >= manager.retained_bytes()
        finally:
            pinned.release()
        assert manager.retained_bytes() == 0


# -- wire protocol and observability ----------------------------------------


@pytest.fixture
def served():
    ssdm = SSDM()
    server = SSDMServer(ssdm).start()
    client = SSDMClient("127.0.0.1", server.server_address[1])
    yield ssdm, client
    client.close()
    server.stop()


class TestMvccOverWire:
    def test_at_seq_reads_exact_version(self, served):
        ssdm, client = served
        for i in (1, 2, 3):
            client.update(
                "INSERT DATA { <http://e/s%d> <http://e/p> %d }" % (i, i)
            )
        published = ssdm.dataset.published_seq
        result = client.query(SELECT_ALL, at_seq=published - 2)
        assert len(result.rows) == 1
        result = client.query(SELECT_ALL, at_seq=published)
        assert len(result.rows) == 3

    def test_lagging_and_snapshot_gone_codes(self, served):
        ssdm, client = served
        client.update("INSERT DATA { <http://e/s1> <http://e/p> 1 }")
        with pytest.raises(ReplicaLaggingError) as lagging:
            client.query(SELECT_ALL, at_seq=ssdm.dataset.published_seq + 9)
        assert lagging.value.retryable is True
        for i in range(2, 14):      # evict seq 1 from the ring
            client.update(
                "INSERT DATA { <http://e/s%d> <http://e/p> %d }" % (i, i)
            )
        with pytest.raises(SnapshotGoneError) as gone:
            client.query(SELECT_ALL, at_seq=1)
        assert gone.value.retryable is False
        stats = client.stats()
        assert stats["server"]["snapshot_gone"] == 1

    def test_stats_expose_mvcc_block(self, served):
        ssdm, client = served
        client.update("INSERT DATA { <http://e/s1> <http://e/p> 1 }")
        client.query(SELECT_ALL)
        block = client.stats()["mvcc"]
        assert block["published_seq"] == ssdm.dataset.published_seq
        assert block["acquired"] >= 1
        assert block["live_snapshots"] == 0
        assert "consolidations" in block
        assert "retained_bytes" in block


class TestMvccStats:
    def test_ssdm_stats_mvcc_block(self):
        ssdm = SSDM()
        _insert(ssdm, 1)
        ssdm.execute(SELECT_ALL)
        block = ssdm.stats()["mvcc"]
        assert block["published_seq"] == 1
        assert block["last_published_seq"] == 1
        assert block["acquired"] >= 1
        assert block["snapshot_gone"] == 0
        assert block["consolidations"] == 0
        assert block["retained_versions"] >= 1

    def test_dump_metrics_renders_mvcc_first(self):
        import io
        import os
        import sys

        scripts = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "scripts",
        )
        if scripts not in sys.path:
            sys.path.insert(0, scripts)
        import dump_metrics

        ssdm = SSDM()
        _insert(ssdm, 1)
        out = io.StringIO()
        dump_metrics.render_stats(ssdm.stats(), out)
        lines = [line for line in out.getvalue().splitlines() if line]
        assert lines[0].startswith("mvcc.")
        assert any(line.startswith("mvcc.published_seq") for line in lines)

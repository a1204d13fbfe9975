"""The ``wire_rw`` server child: the pinned graph behind ``SSDMServer``.

Started by the ``wire_rw`` worker as ``run.py --role wire-server``.  It
is the process that holds the store, so its CPU and peak RSS are the
workload's.  Talks to the worker in JSON lines: prints one *ready* line
after set-up, then answers each command read from standard input:

``mark``   CPU seconds and peak RSS so far (and, in a traced run, the
           most snapshots seen live at once since the previous mark)
``probe``  traced run only: in-process ``ssdm_dispatch`` and result
           serialization of the 12 queries, no socket
``stop``   stop serving, close the store, report bytes stored, exit
"""

from __future__ import annotations

import json
import sys
import threading
import time

from benchmarks.macro.queries import QUERIES
from benchmarks.suite import harness
from benchmarks.suite.recorder import Recorder
from repro.client.server import SSDMServer, serialize_value


def set_up(scale, name):
    """Load the pinned graph and start serving it, server defaults.
    Returns (server, ssdm, wal_dir, statement bytes, seconds)."""
    started = time.perf_counter()
    ssdm, wal_dir, sent_bytes, _ = harness.open_pinned_store(scale, name)
    server = SSDMServer(ssdm).start()
    return server, ssdm, wal_dir, sent_bytes, time.perf_counter() - started


class _SnapshotSampler(threading.Thread):
    """Polls how many MVCC snapshots are pinned at once (traced runs)."""

    def __init__(self, ssdm):
        super().__init__(daemon=True)
        self._ssdm = ssdm
        self._stop_event = threading.Event()
        self.peak = 0

    def run(self):
        while not self._stop_event.wait(0.005):
            self.peak = max(self.peak, self._ssdm.mvcc.live_count())

    def take_peak(self):
        peak, self.peak = self.peak, 0
        return peak

    def stop(self):
        self._stop_event.set()
        self.join()


def _probe(server, ssdm, passes):
    """Dispatch each query in process (admission, governor scope,
    snapshot pin, engine, serialization — everything but the socket)
    and time result serialization on its own."""
    recorder = Recorder()
    dispatch = {query.name: [] for query in QUERIES}
    serialize = {query.name: [] for query in QUERIES}
    for _ in range(passes):
        for query in QUERIES:
            request = {"op": "query", "text": query.text}
            with recorder.request("server.dispatch") as root:
                started = time.perf_counter()
                response = server.ssdm_dispatch(request)
                dispatch[query.name].append(time.perf_counter() - started)
            recorder.graft(root.index, ssdm.last_trace, operators=True)
            if not response.get("ok"):
                raise RuntimeError("probe dispatch failed: %r" % (response,))
            result = ssdm.execute(query.text)
            started = time.perf_counter()
            json.dumps({
                "ok": True, "columns": result.columns,
                "rows": [[serialize_value(v) for v in row]
                         for row in result.rows],
            })
            serialize[query.name].append(time.perf_counter() - started)
    return {
        "rows": recorder.rows,
        "dispatch_ms": {name: harness.median(samples) * 1000.0
                        for name, samples in dispatch.items()},
        "serialize_ms": {name: harness.median(samples) * 1000.0
                         for name, samples in serialize.items()},
    }


def main(options):
    harness.use_scratch_root(options.scratch)
    server, ssdm, wal_dir, sent_bytes, seconds = set_up(options.scale, "wire")
    sampler = _SnapshotSampler(ssdm) if options.trace else None
    if sampler is not None:
        sampler.start()

    def reply(payload):
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        reply({"port": server.server_address[1], "setup_s": seconds,
               "sent_bytes": sent_bytes, "wal_dir": wal_dir})
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "mark":
                reply({
                    "cpu_s": harness.cpu_seconds(),
                    "peak_rss_mb": harness.peak_rss_mib(),
                    "live_snapshots_max":
                        sampler.take_peak() if sampler else 0,
                })
            elif command["cmd"] == "probe":
                reply(_probe(server, ssdm, command["passes"]))
            elif command["cmd"] == "stop":
                break
    finally:
        if sampler is not None:
            sampler.stop()
        server.stop()
        stored = harness.stored_rdf_bytes(ssdm, wal_dir)
        ssdm.close()
    reply({"stored_bytes": stored, "peak_rss_mb": harness.peak_rss_mib()})
    return 0

"""Plumbing shared by the four workloads: paths, the attempted/failed
ledger, statistics, CPU/RSS readings, the calibration loop, scratch
directories and the mix fingerprint gate."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
OUT_DIR = os.path.join(SUITE_DIR, "out")
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(SUITE_DIR, "expected.json")

#: The graph behind ``mix_embedded`` and ``wire_rw`` is pinned to this
#: generator seed: hub sizes differ per graph seed (188/162/160/157 ms
#: per pass on seeds 42-45), which would hide a 15 % regression.
GRAPH_SEED = 42

WORKLOADS = ("mix_embedded", "wire_rw", "bulk_load", "array_access")


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# -- the attempted / failed ledger ----------------------------------------------


class Checks:
    """Every operation whose result was checked, and how many missed.

    A wrong, refused or raised operation counts in ``failed``; the first
    few reasons are kept for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, note=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


# -- statistics -----------------------------------------------------------------


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return quantile(values, 0.5)


def geomean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


def class_geomean_ms(latencies_by_class):
    """SP²Bench's geometric mean: over the classes, of the per-class
    median latency (seconds in, milliseconds out)."""
    return geomean([
        median(samples) * 1000.0
        for samples in latencies_by_class.values()
    ])


def percent_over(treated, control):
    """How much slower the treated median is than the control's, in %."""
    base = median(control)
    return (median(treated) - base) / base * 100.0


# -- process readings -----------------------------------------------------------


def cpu_seconds():
    """User + system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def keep_to_one_cpu(pid=0, which=-1):
    """Pin a process (default: this one) to one of the CPUs it may use.

    A control on the measurement, never a product setting: with threads
    or a second process in play the scheduler's placement showed up as
    run-to-run modes (``wire_rw`` phase B at 54 or 51 req/s;
    ``array_access`` CPU per operation 11 % apart between two rounds).
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(pid, {cpus[which]})


def calibration_ms():
    """A fixed pure-Python + numpy loop, best of 3, so points taken on
    different machines compare as ratios."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        values = np.arange(1_000_000, dtype=np.float64)
        for _ in range(5):
            values = np.sqrt(values * 1.0001 + 1.0)
        total += float(values.sum())
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


# -- scratch space --------------------------------------------------------------


_scratch_root = None


def scratch_root(pid=None):
    """``out/scratch-<pid>``: everything one worker writes and removes.
    The ``wire_rw`` server child is handed its worker's directory."""
    if pid is None and _scratch_root is not None:
        return _scratch_root
    return os.path.join(OUT_DIR, "scratch-%d" % (pid or os.getpid()))


def use_scratch_root(path):
    global _scratch_root
    _scratch_root = path


def make_scratch(name):
    path = os.path.join(scratch_root(), name)
    os.makedirs(path)
    return path


def remove_scratch(pid=None):
    shutil.rmtree(scratch_root(pid), ignore_errors=True)


def dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
    )


# -- the pinned graph and its fingerprint gate ----------------------------------


def graph_statements(scale):
    """The pinned graph as the ``INSERT DATA`` statements that load it."""
    from benchmarks.macro import generator as gen

    return list(gen.insert_batches(scale, GRAPH_SEED))


def load_statements(ssdm, statements):
    return sum(ssdm.execute(statement) for statement in statements)


def stored_rdf_bytes(ssdm, wal_dir):
    """WAL file plus the three permutation indexes."""
    return dir_bytes(wal_dir) + ssdm.stats()["graph"]["index_bytes"]


def oracle_fingerprints(scale):
    """The mix on the legacy ``HashIndexGraph`` store and the per-row
    interpreter: the independent path the fast engine must agree with."""
    from benchmarks.macro.queries import QUERIES, fingerprint
    from repro.rdf.hashgraph import HashIndexGraph
    from repro.ssdm import SSDM

    oracle = SSDM.with_triple_store(HashIndexGraph())
    load_statements(oracle, graph_statements(scale))
    return {
        query.name: fingerprint(oracle.execute(query.text))
        for query in QUERIES
    }


def expected_fingerprints(scale, path=EXPECTED_PATH):
    """The committed fingerprints when they describe this graph, else
    the oracle's; returns (fingerprints, where they came from)."""
    from benchmarks.macro import generator as gen

    try:
        with open(path) as handle:
            committed = json.load(handle)
    except FileNotFoundError:
        committed = None
    if committed is not None and (
        committed["scale"], committed["seed"],
        committed["generator_version"],
    ) == (scale, GRAPH_SEED, gen.GENERATOR_VERSION):
        return committed["queries"], "committed"
    return oracle_fingerprints(scale), "oracle"


def mix_fingerprints(run_query, checks, where):
    """One pass of the 12 queries through ``run_query(text)``, each
    result fingerprinted in full; a query that raises is a failure."""
    from benchmarks.macro.queries import QUERIES, fingerprint
    from repro.exceptions import SciSparqlError

    seen = {}
    for query in QUERIES:
        try:
            seen[query.name] = fingerprint(run_query(query.text))
        except (SciSparqlError, OSError) as error:
            checks.record(False, "%s %s raised %r" % (where, query.name, error))
    return seen


def check_mix_pass(run_query, expected, checks, where):
    """A fully fingerprinted pass that must match ``expected``."""
    for name, got in mix_fingerprints(run_query, checks, where).items():
        want = expected[name]
        checks.record(
            (got["rows"], got["hash"]) == (want["rows"], want["hash"]),
            "%s %s: expected %s rows/%s, got %s rows/%s" % (
                where, name, want["rows"], want["hash"],
                got["rows"], got["hash"],
            ),
        )


def open_pinned_store(scale, name):
    """One whole set-up of the query workloads: generate the pinned
    graph and load it through ``INSERT DATA`` into a fresh journaled
    ``SSDM.open`` (WAL fsync'd once per statement, the default).

    Returns (ssdm, wal_dir, bytes of the statements sent, seconds).
    """
    from repro.ssdm import SSDM

    started = time.perf_counter()
    statements = graph_statements(scale)
    wal_dir = make_scratch(name)
    ssdm = SSDM.open(wal_dir)
    load_statements(ssdm, statements)
    seconds = time.perf_counter() - started
    return ssdm, wal_dir, sum(len(s.encode("utf-8")) for s in statements), \
        seconds


def median_setup(first_seconds, set_up_again, repeats=2):
    """Set-up time as the median of several set-ups in one run.

    The extra set-ups run after everything else has been measured, so
    their garbage never shows in the run's peak RSS.
    """
    return median(
        [first_seconds] + [set_up_again(index) for index in range(repeats)]
    )


def write_trace(recorder, summary, workload, seed, metrics):
    """Write ``out/trace-<workload>-seed<N>.json`` (summary + spans)
    and report the recording's own health as ``trace.*`` metrics."""
    metrics["trace.self_time_coverage"] = summary["self_time_coverage"]
    metrics["trace.spans"] = float(summary["spans"])
    metrics["trace.requests"] = float(summary["requests"])
    metrics["trace.detached_spans"] = float(summary["detached_spans"])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as handle:
        json.dump(recorder.dump(summary), handle)

"""The SSDM benchmark suite: one command for every metric.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
                                    [--seconds S] [--trace 0|1]

Each workload runs in its own child process.  ``--trace 0`` (the
suite's span recorder off, the product at its defaults — including the
product's own tracing, because that is what users get) gives the
end-to-end metrics; ``--trace 1`` is the separate traced run that gives
the per-layer metrics and writes ``out/trace-<workload>-seed<N>.json``.
Every metric is printed by name with its unit, results are checked, and
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (with several
workloads in one invocation, ``metrics`` is keyed by workload).  Any
incorrect, refused or failed operation makes the exit code non-zero.

``--repeat-check N`` runs every workload on seeds ``seed … seed+N-1``,
gates each end-to-end metric's interquartile spread against its bound
in ``BENCHMARK.json``, then runs each workload traced twice on one seed
and requires the timing-independent counters to repeat exactly; the
summary goes to ``out/repeat-check.json``.

See ``README.md`` beside this file for the workloads, the metric
definitions and how to read a trace dump.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
for _entry in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

RESULT_MARK = "@@suite-result "
#: a worker that has not answered by then is killed (the contract
#: allows one run 180 s)
WORKER_TIMEOUT_S = 170

#: counters of the traced run that depend on (seed, seconds) only
EXACT_COUNTERS = (
    "engine.rows_out", "durability.wal_records",
    "durability.wal_bytes_per_triple", "rdf.index_bytes_per_triple",
    "client.response_bytes", "trace.requests", "asei.aggregates_delegated",
)


def _parser():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="smoke",
                        choices=("tiny", "smoke"),
                        help="size of the pinned graph behind the two "
                             "query workloads (tiny: the self-test)")
    parser.add_argument("--expected", default=None, metavar="PATH",
                        help="fingerprint file to gate the mix against "
                             "(default: expected.json beside this file)")
    parser.add_argument("--repeat-check", type=int, default=0, metavar="N")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute expected.json from the "
                             "HashIndexGraph oracle and exit")
    parser.add_argument("--role", default="driver",
                        choices=("driver", "worker", "wire-server"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None):
    options = _parser().parse_args(argv)
    missing = [
        path for path in (
            "BENCHMARK.json", os.path.join("src", "repro"),
            os.path.join("benchmarks", "macro", "queries.py"),
        ) if not os.path.exists(os.path.join(REPO_ROOT, path))
    ]
    if missing:
        sys.stderr.write(
            "benchmarks/suite/run.py: not a checkout of the repository "
            "(missing %s); refusing to run\n" % ", ".join(missing)
        )
        return 2
    from benchmarks.suite import harness

    spec = harness.load_spec()
    if options.seconds is None:
        options.seconds = float(spec["run_seconds"])
    if options.expected is None:
        options.expected = harness.EXPECTED_PATH
    if options.workload is not None \
            and options.workload not in harness.WORKLOADS:
        sys.stderr.write("unknown workload %r\n" % options.workload)
        return 2
    if options.role == "worker":
        return _worker(options)
    if options.role == "wire-server":
        from benchmarks.suite import wire_server
        return wire_server.main(options)
    if options.write_expected:
        return _write_expected(options)
    if options.repeat_check:
        return _repeat_check(options, spec)
    return _drive(options, spec)


# -- worker: one workload, in this process ------------------------------------------


def _worker(options):
    from benchmarks.suite import harness

    checks = harness.Checks()
    module = importlib.import_module("benchmarks.suite." + options.workload)
    try:
        metrics, info = module.run(options, checks)
    finally:
        harness.remove_scratch()
    info["host.calibration_ms"] = harness.calibration_ms()
    sys.stdout.write(RESULT_MARK + json.dumps({
        "metrics": metrics, "info": info, "attempted": checks.attempted,
        "failed": checks.failed, "notes": checks.notes,
    }) + "\n")
    return 0


def _run_worker(options, workload, seed, trace):
    """Run one workload in a child process; returns its result dict
    (``failed`` ≥ 1 and no metrics when the child died)."""
    from benchmarks.suite import harness

    command = [
        sys.executable, os.path.abspath(__file__), "--role", "worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(options.seconds), "--trace", str(trace),
        "--scale", options.scale, "--expected", options.expected,
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        output, _ = child.communicate()
    finally:
        harness.remove_scratch(child.pid)
    for line in output.splitlines():
        if line.startswith(RESULT_MARK):
            return json.loads(line[len(RESULT_MARK):])
        sys.stdout.write(line + "\n")
    return {
        "metrics": {}, "info": {}, "attempted": 1, "failed": 1,
        "notes": ["worker exited with code %s and no result"
                  % child.returncode],
    }


# -- driver: print, check, summarize ------------------------------------------------


def _declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def _report(spec, workload, seed, trace, result):
    """Print one workload's metrics; returns (metrics for the result
    line, whether every declared metric is present and sound)."""
    out = sys.stdout
    metrics = dict(result["metrics"])
    info = result["info"]
    if trace:
        metrics["host.calibration_ms"] = info.get("host.calibration_ms", 0.0)
    out.write("== %s  seed %d  %s ==\n" % (
        workload, seed, "traced (per-layer)" if trace else "end to end",
    ))
    sound = True
    line = {}
    for metric in _declared(spec, trace):
        name = metric["name"]
        # a layer the workload never enters reports 0
        value = metrics.get(name, 0.0 if trace else None)
        if value is None or not math.isfinite(value) \
                or (not trace and value == 0):
            out.write("  %-40s %16s   MISSING OR UNSOUND\n" % (name, value))
            sound = False
            continue
        line[name] = {"value": value, "unit": metric["unit"]}
        out.write("  %-40s %16.6f %s\n" % (name, value, metric["unit"]))
    undeclared = sorted(set(metrics) - {m["name"] for m in _declared(spec, trace)})
    if undeclared:
        out.write("  UNDECLARED METRICS: %s\n" % ", ".join(undeclared))
        sound = False
    if not trace:
        out.write("  %-40s %16.6f ms\n" % (
            "(host.calibration_ms)", info.get("host.calibration_ms", 0.0),
        ))
    for key in sorted(info):
        if key != "host.calibration_ms":
            out.write("  [%s: %s]\n" % (key, info[key]))
    out.write("  checked %d operations, %d failed\n" % (
        result["attempted"], result["failed"],
    ))
    for note in result["notes"]:
        out.write("    FAILED: %s\n" % note)
    return line, sound


def _drive(options, spec):
    from benchmarks.suite import harness

    workloads = [options.workload] if options.workload else harness.WORKLOADS
    correct, attempted, failed, lines = True, 0, 0, {}
    for workload in workloads:
        result = _run_worker(options, workload, options.seed, options.trace)
        line, sound = _report(
            spec, workload, options.seed, options.trace, result
        )
        lines[workload] = line
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and sound and result["failed"] == 0
    sys.stdout.write(json.dumps({
        "correct": correct, "attempted": max(attempted, 1), "failed": failed,
        "metrics": lines[options.workload] if options.workload else lines,
    }) + "\n")
    return 0 if correct else 1


def _write_expected(options):
    from benchmarks.macro import generator as gen
    from benchmarks.suite import harness

    document = {
        "scale": options.scale, "seed": harness.GRAPH_SEED,
        "generator_version": gen.GENERATOR_VERSION,
        "queries": harness.oracle_fingerprints(options.scale),
    }
    with open(harness.EXPECTED_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %s\n" % harness.EXPECTED_PATH)
    return 0


# -- repeat-check: spreads against bounds, exact counters, isolation ---------------


def _spread(values):
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    first, middle, third = statistics.quantiles(values, n=4)
    return middle, first, third, (third - first) / middle


def _isolation(traced):
    """The workload-isolation shares of the acceptance criteria, from
    one traced run per workload."""
    mix = traced["mix_embedded"]
    array = traced["array_access"]
    foreign = [
        name for name, value in mix.items()
        if value and name.split(".")[0] in (
            "apr", "asei", "bufferpool", "array", "server", "client",
            "wire", "durability", "bulk",
        )
    ]
    return {
        "mix_embedded.engine_share_of_pass":
            mix["engine.exec_ms"] * 12 / mix["mix.pass_ms"],
        "mix_embedded.foreign_layer_metrics_nonzero": foreign,
        "array_access.storage_ms_per_op":
            array["apr.resolve_ms"] + array["asei.fetch_ms"],
        "array_access.query_ms_per_op":
            array["engine.array_exec_ms"] + array["sparql.parse_ms"]
            + array["algebra.plan_ms"],
        "bulk_load.engine.exec_ms": traced["bulk_load"]["engine.exec_ms"],
        "wire_rw.wire.late_fraction": traced["wire_rw"]["wire.late_fraction"],
        "wire_rw.governor.shed": traced["wire_rw"]["governor.shed"],
    }


def _repeat_check(options, spec):
    from benchmarks.suite import harness

    out = sys.stdout
    workloads = [options.workload] if options.workload else harness.WORKLOADS
    seeds = list(range(options.seed, options.seed + options.repeat_check))
    passed = True
    summary = {
        "seeds": seeds, "seconds": options.seconds, "scale": options.scale,
        "end_to_end": {}, "exact_counters": {}, "per_layer": {},
    }
    for workload in workloads:
        samples = {}
        calibrations = []
        for seed in seeds:
            result = _run_worker(options, workload, seed, 0)
            line, sound = _report(spec, workload, seed, 0, result)
            passed = passed and sound and result["failed"] == 0
            for name, entry in line.items():
                samples.setdefault(name, []).append(entry["value"])
            calibrations.append(result["info"].get("host.calibration_ms", 0.0))
        rows = summary["end_to_end"][workload] = {}
        out.write("-- %s: spread over seeds %d..%d --\n" % (
            workload, seeds[0], seeds[-1],
        ))
        for metric in spec["end_to_end"]:
            values = samples.get(metric["name"], [])
            if len(values) < 2:
                continue
            middle, first, third, spread = _spread(values)
            gated = metric["name"] != "setup_s"
            within = spread <= metric["bound"] or not gated
            passed = passed and within
            rows[metric["name"]] = {
                "unit": metric["unit"], "median": middle, "q1": first,
                "q3": third, "spread": spread, "bound": metric["bound"],
                "runs": len(values),
            }
            out.write("  %-22s median %14.6f  q1 %14.6f  q3 %14.6f  "
                      "spread %6.2f%%  bound %4.0f%%  %s\n" % (
                          metric["name"], middle, first, third,
                          spread * 100, metric["bound"] * 100,
                          "ok" if within else "TOO WIDE",
                      ))
        rows["host.calibration_ms"] = {
            "unit": "ms", "median": statistics.median(calibrations),
        }
    traced = {}
    for workload in workloads:
        runs = []
        for _ in range(2):
            result = _run_worker(options, workload, seeds[0], 1)
            line, sound = _report(spec, workload, seeds[0], 1, result)
            passed = passed and sound and result["failed"] == 0
            runs.append({name: entry["value"] for name, entry in line.items()})
        first, second = runs
        counters = summary["exact_counters"][workload] = {}
        for name in EXACT_COUNTERS:
            same = first.get(name) == second.get(name)
            passed = passed and same
            counters[name] = first.get(name)
            out.write("  %-14s %-34s %16s %s\n" % (
                workload, name, first.get(name),
                "repeats" if same else "DIFFERS: %s" % second.get(name),
            ))
        traced[workload] = first
        summary["per_layer"][workload] = first
    if len(traced) == len(harness.WORKLOADS):
        summary["isolation"] = _isolation(traced)
    summary["passed"] = passed
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = os.path.join(harness.OUT_DIR, "repeat-check.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    out.write("repeat-check %s; summary in %s\n" % (
        "passed" if passed else "FAILED", path,
    ))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

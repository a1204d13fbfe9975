"""Self-test of the benchmark suite.

Run by explicit path — ``pyproject.toml`` keeps it out of tier-1:

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Every ``run.py`` invocation here uses ``--scale tiny`` and a fraction of
a second, so the whole file stays well under 30 s.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.suite import array_access, bulk_load, harness, wire_rw
from benchmarks.suite.recorder import END, PARENT, START, Recorder, analyse

RUN = os.path.join(harness.SUITE_DIR, "run.py")
SEED = 7


def _run(*arguments, cwd=None, script=RUN):
    """Run ``run.py``; returns (exit code, last stdout line, stdout)."""
    done = subprocess.run(
        [sys.executable, script, *arguments], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else "", done.stdout


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


@pytest.fixture(scope="module", params=[0, 1], ids=["end-to-end", "traced"])
def all_workloads(request):
    """One invocation without ``--workload``: all four, one mode."""
    code, last, output = _run(
        "--scale", "tiny", "--seconds", "0.5", "--seed", str(SEED),
        "--trace", str(request.param),
    )
    assert code == 0, output
    return request.param, json.loads(last), output


def test_names_match_the_contract(spec, all_workloads):
    trace, result, output = all_workloads
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {w["name"] for w in spec["workloads"]}
    assert set(result["metrics"]) == set(harness.WORKLOADS)
    for workload, metrics in result["metrics"].items():
        assert set(metrics) == {m["name"] for m in declared}, workload
        for metric in declared:
            entry = metrics[metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]), (workload, metric["name"])
            if not trace:
                assert entry["value"] != 0, (workload, metric["name"])
            # printed by name with its unit, not only in the JSON line
            assert metric["name"] in output


def test_isolation_and_trace_health(all_workloads):
    trace, result, _ = all_workloads
    if not trace:
        pytest.skip("per-layer metrics come from the traced run")
    for workload, metrics in result["metrics"].items():
        assert metrics["trace.detached_spans"]["value"] == 0, workload
        assert metrics["trace.requests"]["value"] > 0, workload
        assert abs(metrics["trace.self_time_coverage"]["value"] - 1) < 0.01
    mix = result["metrics"]["mix_embedded"]
    for name, entry in mix.items():
        if name.split(".")[0] in ("apr", "asei", "bufferpool", "array",
                                  "server", "client", "wire", "bulk"):
            assert entry["value"] == 0, name
    assert result["metrics"]["bulk_load"]["engine.exec_ms"]["value"] == 0
    assert result["metrics"]["wire_rw"]["governor.shed"]["value"] == 0


def test_trace_dumps_hold_the_span_tree_invariants(all_workloads):
    trace, _, _ = all_workloads
    if not trace:
        pytest.skip("dumps are written by the traced run")
    for workload in harness.WORKLOADS:
        path = os.path.join(
            harness.OUT_DIR, "trace-%s-seed%d.json" % (workload, SEED)
        )
        with open(path) as handle:
            dump = json.load(handle)
        rows = dump["spans"]
        assert rows and dump["summary"]["requests"] > 0
        for row in rows:
            if row[PARENT] >= 0:
                holder = rows[row[PARENT]]
                assert holder[START] - 1e-6 <= row[START], workload
                assert row[END] <= holder[END] + 1e-6, workload
        _, summary = analyse(rows)
        assert summary["detached_spans"] == 0
        assert abs(summary["self_time_coverage"] - 1.0) < 0.01


# -- the recorder on its own --------------------------------------------------------


def test_parallel_fetches_share_the_wall_time_they_cover():
    #        0         10
    # root   |----------|
    # a         |----|        2..6
    # b           |----|      4..8   (side by side with a over 4..6)
    rows = [
        ["root", 0.0, 10.0, -1, 1, 1],
        ["a", 2.0, 6.0, 0, 1, 2],
        ["b", 4.0, 8.0, 0, 1, 3],
    ]
    self_times, summary = analyse(rows)
    assert self_times == pytest.approx([4.0, 3.0, 3.0])
    assert summary["self_time_coverage"] == pytest.approx(1.0)
    assert summary["detached_spans"] == 0


def test_a_span_outside_its_parent_is_detached_and_breaks_coverage():
    rows = [
        ["root", 0.0, 10.0, -1, 1, 1],
        ["late", 8.0, 12.0, 0, 1, 1],
        ["unclosed", 1.0, None, 0, 1, 1],
    ]
    _, summary = analyse(rows)
    assert summary["detached_spans"] == 2
    assert summary["self_time_coverage"] > 1.01


def test_work_nobody_waited_for_is_background():
    recorder = Recorder()
    with recorder.request("op"):
        with recorder.span("resolve"):
            cause = recorder.current()
    # the fetch ends after the span that submitted it: speculation
    with recorder.span("fetch", cause):
        pass
    _, summary = recorder.analyse()
    assert summary["background_spans"] == 1
    assert summary["detached_spans"] == 0
    assert summary["requests"] == 1


# -- input generators ---------------------------------------------------------------


def _array_inputs(seed):
    dataset = array_access._Dataset(seed)
    deck = array_access._Operations(dataset, seed).deck()
    return json.dumps([
        dataset.offsets, dataset.scales, dataset.batches, dataset.sums,
        [operation[:3] for operation in deck],
    ])


def _wire_inputs(seed):
    decks = wire_rw._Decks(seed, 0)
    return json.dumps([decks.deck(), decks.deck()])


def _bulk_inputs(seed):
    return "\n".join(bulk_load._statements(seed, 0.2))


@pytest.mark.parametrize(
    "inputs", [_array_inputs, _wire_inputs, _bulk_inputs],
    ids=["array_access", "wire_rw", "bulk_load"],
)
def test_inputs_are_a_function_of_the_seed(inputs):
    assert inputs(11).encode() == inputs(11).encode()
    assert inputs(11) != inputs(12)


def test_every_deck_does_the_same_work_mix():
    for seed in (1, 2):
        decks = wire_rw._Decks(seed, 1)
        kinds = sorted(kind for kind, _, _ in decks.deck())
        assert len(kinds) == wire_rw.DECK_SIZE
        assert kinds.count("write") == wire_rw.WRITES_PER_DECK
        operations = array_access._Operations(
            array_access._Dataset(seed), seed
        )
        patterns = sorted(op[0] for op in operations.deck())
        assert patterns == sorted(
            name for name, count in array_access.PATTERNS
            for _ in range(count)
        )


# -- the gates ----------------------------------------------------------------------


def test_a_wrong_fingerprint_fails_the_run():
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = os.path.join(harness.OUT_DIR, "tampered-expected.json")
    from benchmarks.macro import generator as gen

    queries = harness.oracle_fingerprints("tiny")
    queries["q03_chain2"]["hash"] = "0" * 16
    with open(path, "w") as handle:
        json.dump({
            "scale": "tiny", "seed": harness.GRAPH_SEED,
            "generator_version": gen.GENERATOR_VERSION, "queries": queries,
        }, handle)
    try:
        code, last, output = _run(
            "--workload", "mix_embedded", "--scale", "tiny",
            "--seconds", "0.2", "--expected", path,
        )
    finally:
        os.remove(path)
    assert code != 0
    result = json.loads(last)
    assert result["correct"] is False and result["failed"] >= 1
    assert "q03_chain2" in output


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """With nothing but ``BENCHMARK.json`` and the suite's own files —
    and without even that — it exits non-zero and prints no result."""
    suite = tmp_path / "benchmarks" / "suite"
    shutil.copytree(
        harness.SUITE_DIR, suite,
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    script = str(suite / "run.py")
    for with_spec in (False, True):
        if with_spec:
            shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
        code, last, _ = _run(
            "--workload", "mix_embedded", cwd=str(tmp_path), script=script
        )
        assert code != 0
        assert not last.startswith("{")

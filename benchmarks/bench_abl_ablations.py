"""Ablation benchmarks for SSDM's design choices.

- **Cost-based triple-pattern ordering** (§5.4.5): the same query
  evaluated with the optimizer's greedy selectivity ordering vs. the
  textual pattern order, on a graph where the textual order is bad.
- **Chunk cache** (§6.2): repeated overlapping views with and without
  the LRU chunk cache.
- **SPD minimum run length**: how the min_run threshold trades range
  requests against singleton batches on a semi-regular pattern.
- **Vectorised closures**: array_map with a closure body the engine can
  compile to numpy vs. one it must interpret per element.
"""

import numpy as np
import pytest

from repro import SSDM, MemoryArrayStore, NumericArray, SqlArrayStore
from repro.algebra.optimizer import optimize
from repro.algebra.rewriter import rewrite
from repro.algebra.translator import translate
from repro.storage import APRResolver, BufferPool, Strategy


# -- optimizer ablation -------------------------------------------------------

def _skewed_ssdm():
    """1000 'common' triples, 5 'rare' ones; the query names common
    first, so textual order scans 1000 candidates."""
    ssdm = SSDM()
    lines = ["@prefix ex: <http://e/> ."]
    for i in range(1000):
        lines.append("ex:s%d ex:common %d ." % (i, i))
    for i in range(5):
        lines.append("ex:s%d ex:rare %d ." % (i, i))
    ssdm.load_turtle_text("\n".join(lines))
    return ssdm


QUERY = """PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:common ?v . ?s ex:rare ?w }"""


@pytest.fixture(scope="module")
def skewed():
    return _skewed_ssdm()


def test_join_order_optimized(benchmark, skewed):
    def run():
        return len(skewed.execute(QUERY).rows)
    rows = benchmark(run)
    assert rows == 5
    benchmark.extra_info["ordering"] = "cost-based"


def test_join_order_textual(benchmark, skewed):
    parsed = skewed.parse(QUERY)
    plan, columns = translate(parsed)
    plan = rewrite(plan)          # no optimize(): textual pattern order

    def run():
        return sum(1 for _ in skewed.engine.run(plan))
    rows = benchmark(run)
    assert rows == 5
    benchmark.extra_info["ordering"] = "textual"


# -- chunk cache ablation ---------------------------------------------------------

@pytest.fixture(scope="module")
def cached_store():
    store = SqlArrayStore(chunk_bytes=2048)
    data = np.arange(256 * 256, dtype=np.float64).reshape(256, 256)
    proxy = store.put(NumericArray(data))
    return store, proxy


@pytest.mark.parametrize("with_cache", [True, False],
                         ids=["cache", "no-cache"])
def test_repeated_views_cache(benchmark, cached_store, with_cache):
    store, proxy = cached_store
    cache = BufferPool(max_bytes=64 * 1024 * 1024) if with_cache else None
    resolver = APRResolver(store, strategy=Strategy.SPD, cache=cache)
    views = [proxy.subscript([row]) for row in range(0, 64)]

    def run():
        total = 0
        for _ in range(3):                 # overlapping repetition
            for view in views:
                total += resolver.resolve([view])[0].element_count
        return total

    store.stats.reset()
    benchmark(run)
    rounds_executed = max(benchmark.stats.stats.rounds, 1)
    benchmark.extra_info.update({
        "cache": with_cache,
        "requests_per_run": store.stats.requests / rounds_executed,
    })


# -- SPD min_run ablation -------------------------------------------------------------

@pytest.mark.parametrize("min_run", [2, 3, 5, 9])
def test_spd_min_run(benchmark, cached_store, min_run):
    store, proxy = cached_store
    resolver = APRResolver(store, strategy=Strategy.SPD, min_run=min_run)
    # semi-regular: short arithmetic bursts separated by jumps
    view = proxy.subscript([None, 0])

    def run():
        return resolver.resolve([view])[0].element_count

    store.stats.reset()
    benchmark(run)
    rounds_executed = max(benchmark.stats.stats.rounds, 1)
    benchmark.extra_info.update({
        "min_run": min_run,
        "requests_per_run": store.stats.requests / rounds_executed,
    })


# -- closure vectorisation ablation ------------------------------------------------------

@pytest.fixture(scope="module")
def map_ssdm():
    ssdm = SSDM()
    values = " ".join(str(i) for i in range(5000))
    ssdm.load_turtle_text(
        "@prefix ex: <http://e/> . ex:v ex:val (%s) ." % values
    )
    return ssdm


def test_map_vectorizable_closure(benchmark, map_ssdm):
    # pure arithmetic body: compiled to a numpy expression
    query = """PREFIX ex: <http://e/>
        SELECT (array_sum(array_map(FN(?x) ?x * 2 + 1, ?a)) AS ?s)
        WHERE { ex:v ex:val ?a }"""
    result = benchmark(map_ssdm.execute, query)
    assert result.rows[0][0] == sum(i * 2 + 1 for i in range(5000))
    benchmark.extra_info["closure"] = "vectorized"


def test_map_interpreted_closure(benchmark, map_ssdm):
    # the IF() body defeats vectorisation: per-element interpretation
    query = """PREFIX ex: <http://e/>
        SELECT (array_sum(array_map(FN(?x) IF(?x > -1, ?x * 2 + 1, 0),
                                    ?a)) AS ?s)
        WHERE { ex:v ex:val ?a }"""
    result = benchmark(map_ssdm.execute, query)
    assert result.rows[0][0] == sum(i * 2 + 1 for i in range(5000))
    benchmark.extra_info["closure"] = "interpreted"

"""The SSDM benchmark suite: four workloads, six end-to-end metrics,
a per-layer ledger from a traced run.  See ``README.md`` here and
``BENCHMARK.json`` at the repository root; ``run.py`` is the one entry
point."""

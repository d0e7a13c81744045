"""The repo's one benchmark: five workloads, end-to-end and per-layer metrics.

See ``perf/README.md``.  Nothing here is imported by ``src/``; nothing here
imports from ``benchmarks/``.
"""

"""The repo's performance record: four end-to-end workloads, declared in the
root ``BENCHMARK.json``, measured by ``benchmarks/e2e/run.py``.

See ``README.md`` in this directory for the workload and metric tables.
"""

"""Benchmark harness for specbound: seeded workloads, output checks and a per-layer tracer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``;
``README.md`` in this directory describes the workloads and metrics.
"""

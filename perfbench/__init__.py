"""Repository benchmark: open-loop HTTP publish latency, in-process budget
throughput and certified-compile time, with a per-layer traced run.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root (see ``README.md`` in
this directory).
"""

"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload mesh --seed 0 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what each
layer metric is expected to move.
"""

"""System benchmark: end-to-end and per-layer numbers for three workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload cameo_fleet --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
per-layer map.
"""

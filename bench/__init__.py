"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python -m bench`` from the repository root; ``bench/README.md``
describes the workloads, metrics, bounds and modes.
"""

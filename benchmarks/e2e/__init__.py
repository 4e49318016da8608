"""End-to-end benchmark of repro with outside-in per-layer tracing.

``python -m benchmarks.e2e`` runs the workloads ``cold_w1`` and
``warm_w2``; ``README.md`` in this directory describes them, their
metrics and how to compare two sets of runs.
"""

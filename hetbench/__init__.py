"""Benchmark of hetsim: seeded workloads, end-to-end and per-layer metrics."""

"""Benchmark of the nflab package: workloads, tracer and runner."""

"""Benchmark of restcipher: workloads, tracer and runner (see NOTES.md)."""

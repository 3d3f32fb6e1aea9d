"""Benchmark workloads, span recording and metric assembly for ``perfbench/run.py``."""

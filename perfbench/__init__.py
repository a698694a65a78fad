"""Benchmark of the fairavi pipeline; run perfbench/run.py."""

"""Benchmark of truthquad; run ``python3 perfbench/run.py --help`` from the repository root."""

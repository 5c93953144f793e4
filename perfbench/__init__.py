"""Benchmark of the lexid CLI; run it with ``python3 perfbench/run.py --help``."""

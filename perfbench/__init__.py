"""perfbench: the repository's one performance benchmark.

``python3 perfbench/run.py`` is the entry point; ``BENCHMARK.json`` at the
repository root declares the command, workloads and metrics.  See
``perfbench/README.md``.
"""

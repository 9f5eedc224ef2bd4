"""Benchmark of the skillnet package: workloads, tracing and output gates.

Entry point: ``python3 -m bench.run`` (see ``bench/README.md``). Nothing here
imports ``skillnet`` at package import time, so ``bench.run`` can put the
repository's ``src/`` on the path first.
"""

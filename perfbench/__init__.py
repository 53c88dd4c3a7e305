"""End-to-end and per-layer benchmark of the SpMM runtime and service.

Entry points: ``python3 perfbench/run.py`` (one measured run) and
``python3 perfbench/repeat.py`` (N runs with spreads).  See README.md.
"""

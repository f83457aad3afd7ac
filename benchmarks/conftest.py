"""Shared setup for the benchmark suite.

Each benchmark regenerates one table or figure from the paper's evaluation
(Chapter 8); each module's docstring says which.  The pytest-benchmark
timings measure the cost of running the simulation itself; the reproduced
results are the ``ExperimentTable`` rows each benchmark prints.  Their
record is the committed ``results/E*.json``: a plain run asserts the fresh
table equals it, and ``BENCH_RECORD=1`` rewrites it (see ``records.py``).
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table or figure from the paper's evaluation
(Chapter 8); each module's docstring says which, and the recorded outcomes
are the committed ``results/E*.json`` and ``BENCH_*.json``.  The
pytest-benchmark timings measure the cost of running the simulation
itself; the reproduced results are the ``ExperimentTable`` rows each
benchmark prints and saves.  A plain run writes them to a scratch
directory; ``BENCH_RECORD=1`` updates the committed files (see
``output_paths.py``).

Smoke mode: setting ``BENCH_SMOKE=1`` in the environment shrinks the
workload sizes of benchmarks wired to the ``bench_scale`` fixture so the
whole suite finishes in a few seconds (for quick CI loops).  Without the
variable, benchmarks run at full scale and their recorded numbers are the
ones that count.  New benchmarks should take their workload knobs from
``bench_scale(full, smoke)``.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from output_paths import BENCH_DIR, RESULTS_DIR, env_flag

#: True when the suite runs in smoke mode (BENCH_SMOKE=1).
BENCH_SMOKE = env_flag("BENCH_SMOKE")


@pytest.fixture
def results_dir() -> str:
    """Where ``ExperimentTable`` rows land.  Every benchmark that writes a
    ``BENCH_*.json`` record takes this fixture too, so both output
    directories exist by the time a test body runs."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    os.makedirs(BENCH_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_smoke() -> bool:
    """Whether the suite is running in smoke mode."""
    return BENCH_SMOKE


@pytest.fixture(scope="session")
def bench_scale():
    """``bench_scale(full, smoke)`` returns the workload knob for the mode."""

    def scale(full, smoke):
        return smoke if BENCH_SMOKE else full

    return scale

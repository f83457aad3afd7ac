"""Where a benchmark run writes its records.

Running the suite must not rewrite what is committed: ``python -m pytest``
(the Tier-1 command) runs every benchmark at full scale, and noise in the
wall-clock fields used to land in the tracked ``BENCH_*.json`` and
``results/E*.json`` on every run.  So by default both go to a scratch
directory at the repository root (ignored by git); the tracked files are
written only when someone means to record, with ``BENCH_RECORD=1``.
``BENCH_OUTPUT_DIR``/``RESULTS_OUTPUT_DIR`` name a directory outright and
win over both (``check_regression.py`` points them at a temporary one).
"""

from __future__ import annotations

import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH_DIR = os.path.join(REPO_ROOT, ".bench_scratch")

def env_flag(variable: str) -> bool:
    """Whether an on/off environment variable is set to something truthy."""
    return os.environ.get(variable, "").strip().lower() not in ("", "0", "false", "no")


#: True when this run is meant to update the committed records.
BENCH_RECORD = env_flag("BENCH_RECORD")


def _output_dir(variable: str, committed: str) -> str:
    return os.environ.get(variable) or (committed if BENCH_RECORD else SCRATCH_DIR)


#: Directory of the ``BENCH_*.json`` perf records.
BENCH_DIR = _output_dir("BENCH_OUTPUT_DIR", REPO_ROOT)
#: Directory of the ``E*.json`` experiment tables.
RESULTS_DIR = _output_dir("RESULTS_OUTPUT_DIR", os.path.join(REPO_ROOT, "results"))

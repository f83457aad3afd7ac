"""``loss_sweep.py``: a small sweep, a line per (f, loss)."""

from __future__ import annotations

from pathlib import Path

import loss_sweep

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_prints_latency_quantiles_per_group_size_and_loss():
    lines = loss_sweep.sweep(ROOT, seeds=1, clients=2, ops=3)
    assert lines[0].split() == ["f", "loss", "ops", *loss_sweep.COLUMNS]
    rows = [line.split() for line in lines[1:]]
    assert [(f, loss) for f, loss, *_ in rows] == [
        (str(f), f"{loss:.0%}") for f in loss_sweep.FAULTS for loss in loss_sweep.LOSSES]
    for _, _, ops, mean, *quantiles in rows:
        assert int(ops) == 2 * 3
        p50, p90, p99, top = map(float, quantiles)
        assert 0 < p50 <= p90 <= p99 <= top and 0 < float(mean) <= top

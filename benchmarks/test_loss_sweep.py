"""``loss_sweep.py``: a small sweep, a line per (f, loss)."""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import loss_sweep

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_prints_latency_quantiles_per_group_size_and_loss():
    lines = loss_sweep.sweep(ROOT, seeds=1, clients=2, ops=3)
    assert lines[0].split() == ["f", "loss", "ops", *loss_sweep.COLUMNS, "stranded"]
    rows = [line.split() for line in lines[1:]]
    assert [(f, loss) for f, loss, *_ in rows] == [
        (str(f), f"{loss:.0%}") for f in loss_sweep.FAULTS for loss in loss_sweep.LOSSES]
    for _, _, ops, mean, *quantiles, stranded in rows:
        assert int(ops) == 2 * 3
        p50, p90, p99, top = map(float, quantiles)
        assert 0 < p50 <= p90 <= p99 <= top and 0 < float(mean) <= top
        assert int(stranded) in (0, 1)


def test_a_replica_out_of_step_is_stranded():
    """Stranded: inactive, in another view than the highest active one, or
    more than one checkpoint interval behind."""
    def replica(view=0, active_view=True, last_executed=200):
        return SimpleNamespace(view=view, active_view=active_view, last_executed=last_executed)

    def cluster(*odd):
        replicas = [replica() for _ in range(4 - len(odd))] + list(odd)
        return SimpleNamespace(replicas=dict(enumerate(replicas)),
                               config=SimpleNamespace(checkpoint_interval=128))

    assert not loss_sweep.stranded(cluster())
    assert not loss_sweep.stranded(cluster(replica(last_executed=72)))
    assert loss_sweep.stranded(cluster(replica(last_executed=71)))
    assert loss_sweep.stranded(cluster(replica(view=1, active_view=False)))
    assert loss_sweep.stranded(cluster(replica(view=1)))
    assert not loss_sweep.stranded(cluster(*[replica(view=1) for _ in range(4)]))
    assert loss_sweep.stranded(cluster(*[replica(active_view=False) for _ in range(4)]))

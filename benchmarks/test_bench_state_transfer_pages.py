"""E15 — recovery bandwidth of hierarchical page-level state transfer.

A replica is partitioned away while the others execute a mixed read/write
workload (``run_kv_mixed``) over a store preloaded with a large clean
state, so only a bounded fraction of the pages is dirty when the partition
heals.  The healed replica learns of a stable checkpoint beyond its water
mark and fetches state; the experiment measures what that recovery costs —
bytes fetched, fetch/metadata messages, pages fetched and skipped, and
simulated recovery time.

Every one of those is a modeled, machine-independent quantity that repeats
exactly for the fixed scenario, so the committed ``results/E15.json``
pins them.  The whole-snapshot protocol the page side was once compared
against is gone; its last ratios are frozen in ``BASELINES.md``.
"""

from __future__ import annotations

from repro.bench import ExperimentTable, preload_kv_state, run_kv_mixed
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore

from records import check_record

LAGGING = "replica3"


def _recovery_run(
    preload_keys: int,
    value_size: int,
    churn_clients: int,
    churn_ops: int,
    churn_key_space: int,
    read_fraction: float,
    checkpoint_interval: int,
) -> dict:
    """One deterministic partition/churn/heal/recover scenario."""
    cluster = BFTCluster.create(
        f=1,
        service_factory=KeyValueStore,
        checkpoint_interval=checkpoint_interval,
    )
    client = cluster.new_client()
    preload_kv_state(cluster, keys=preload_keys, value_size=value_size)
    for other in ("replica0", "replica1", "replica2", client.id):
        cluster.conditions.partition(LAGGING, other)
    run_kv_mixed(
        cluster,
        churn_clients,
        churn_ops,
        read_fraction=read_fraction,
        key_space=churn_key_space,
        value_size=value_size,
    )
    cluster.conditions.heal_all()
    # Post-heal traffic crosses the next checkpoint interval, whose
    # CHECKPOINT certificate is what tells the healed replica to fetch.
    for index in range(2 * checkpoint_interval):
        client.invoke(b"SET heal%03d done" % index)
    lagging = cluster.replicas[LAGGING]
    reference = cluster.replicas["replica0"]
    for _ in range(20):
        # Run until the healed replica has both completed a transfer and
        # caught up to the cluster's stable checkpoint: the liveness
        # repairs of the batch-execution PR let a replica fetch an older
        # certified checkpoint first (e.g. from an inactive view) and
        # catch the newest one up in a follow-up delta fetch — all of
        # which is recovery cost and belongs in the measured bytes.
        if (
            lagging.state_transfer.metrics.transfers_completed >= 1
            and lagging.stable_checkpoint_seq >= reference.stable_checkpoint_seq
        ):
            break
        cluster.run(duration=2_000_000)

    metrics = lagging.state_transfer.metrics
    digests = {
        replica.checkpoints[replica.stable_checkpoint_seq].state_digest
        for replica in cluster.replicas.values()
        if replica.stable_checkpoint_seq in replica.checkpoints
    }
    populated_pages = len(cluster.replicas["replica0"].service.page_digests())
    return {
        "bytes_fetched": metrics.bytes_fetched,
        "fetch_messages": metrics.fetch_messages,
        "metadata_messages": metrics.metadata_messages,
        "pages_fetched": metrics.pages_fetched,
        "pages_skipped_local": metrics.pages_skipped_local,
        "recovery_sim_us": round(metrics.last_transfer_duration, 3),
        "transfers_completed": metrics.transfers_completed,
        "stable_digest_converged": len(digests) == 1,
        "populated_pages": populated_pages,
    }


WORKLOADS = [
    {
        # ~64 dirty buckets over ~1600 populated: ~4% dirty (headline).
        "name": "f=1 KV recovery, ~4% pages dirty (headline)",
        "preload_keys": 2048,
        "value_size": 1024,
        "churn_clients": 4,
        "churn_ops": 40,
        "churn_key_space": 64,
        "read_fraction": 0.5,
        "checkpoint_interval": 4,
    },
    {
        # ~384 dirty buckets over ~1600 populated: ~20% dirty —
        # shows how the win shrinks as divergence grows.
        "name": "f=1 KV recovery, ~20% pages dirty",
        "preload_keys": 2048,
        "value_size": 1024,
        "churn_clients": 4,
        "churn_ops": 120,
        "churn_key_space": 384,
        "read_fraction": 0.5,
        "checkpoint_interval": 4,
    },
]


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E15", "Recovery bandwidth of page-level state transfer")
    for workload in WORKLOADS:
        workload = dict(workload)
        name = workload.pop("name")
        table.add_row(workload=name, **_recovery_run(**workload))
    return table


def test_state_transfer_page_bandwidth(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)

    for row in table.rows:
        # Every scenario must actually recover, via a transfer that fetches
        # only some pages, to the stable digest the rest of the cluster holds.
        assert row["transfers_completed"] >= 1, row["workload"]
        assert row["stable_digest_converged"], row["workload"]
        assert 0 < row["pages_fetched"] < row["populated_pages"], row["workload"]

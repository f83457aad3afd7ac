"""E16 — sharded KV replica groups: throughput scaling and migration cost.

Two questions, one experiment:

* **Scaling** — aggregate closed-loop throughput of the hash-partitioned
  KV service at 1, 2 and 4 replica groups (same per-group client load,
  same deterministic churn stream).  Groups run independent PBFT
  instances on one shared simulated clock, so the aggregate ops/sec is a
  modeled, machine-independent quantity; the 4-group deployment must
  reach at least ``FULL_SCALING_FLOOR`` times the single-group throughput.
* **Migration** — moving a bucket range between groups (stable-checkpoint
  page export, f+1 digest vote, verified install) must cost only the
  moved buckets' modeled bytes: the benchmark gates the whole-store /
  migration bytes ratio.

Every value in the table is modeled and repeats exactly; the committed
``results/E16.json`` pins them, and the floors below gate the two ratios.
"""

from __future__ import annotations

from repro.bench import (
    ExperimentTable,
    kv_churn_operation,
    preload_sharded_kv_state,
    run_closed_loop,
    run_kv_value_churn,
    zipf_group_load,
    zipf_key_sequences,
)
from repro.sharding import ShardedKVCluster, load_imbalance
from repro.sharding.router import ShardRouter

from records import check_record

#: Required whole-store / migration modeled-bytes ratio on the headline
#: migration workload (the moved range is ~1/10 of the source group's
#: populated buckets).
FULL_MIGRATION_BYTES_RATIO_FLOOR = 5.0

#: Required aggregate-throughput scaling factor at 4 groups vs 1 group.
FULL_SCALING_FLOOR = 2.5

SCALING_WORKLOAD = {
    "clients_per_group": 8,
    "ops_per_client": 30,
    "key_space": 256,
    "value_size": 1024,
    "checkpoint_interval": 16,
}
MIGRATION_WORKLOAD = {
    "preload_keys": 2048,
    "value_size": 1024,
    "churn_clients": 4,
    "churn_ops": 20,
    "migrate_buckets": 100,
    "checkpoint_interval": 8,
}


def _scaling_run(
    groups: int, clients_per_group: int, ops_per_client: int,
    key_space: int, value_size: int, checkpoint_interval: int,
) -> dict:
    """Aggregate throughput of one deterministic churn run at ``groups``."""
    sharded = ShardedKVCluster(
        groups=groups, f=1, checkpoint_interval=checkpoint_interval
    )
    result = run_kv_value_churn(
        sharded,
        num_clients=clients_per_group * groups,
        operations_per_client=ops_per_client,
        key_space=key_space,
        value_size=value_size,
    )
    assert sharded.group_digests_converged()
    # Per-group load balance, read from the router's always-on live
    # counters (repro.sharding.loadstats): how evenly the churn stream's
    # CRC-32 bucket partitioning spread the issued requests over the
    # groups.  The imbalance factor is the shared definition the
    # rebalancer's policy loop uses (1.0 = perfectly balanced); the
    # Zipfian companion stat below shows what a skewed key distribution
    # does to the same partitioning.
    return {
        "metric": round(result.ops_per_second, 2),
        "load_imbalance": round(load_imbalance(sharded.loadstats.group_totals), 3),
    }


def _migration_run(
    preload_keys: int, value_size: int, churn_clients: int, churn_ops: int,
    migrate_buckets: int, checkpoint_interval: int,
) -> dict:
    """One deterministic preload/churn/migrate scenario on two groups."""
    sharded = ShardedKVCluster(
        groups=2, f=1, checkpoint_interval=checkpoint_interval
    )
    preload_sharded_kv_state(sharded, keys=preload_keys, value_size=value_size)
    run_closed_loop(
        sharded,
        churn_clients,
        churn_ops,
        lambda ci, oi: kv_churn_operation(
            ci, oi, key_space=64, value_size=value_size
        ),
    )
    union_before = sharded.state_union()
    moved_range = sharded.router.buckets_owned_by(0)[:migrate_buckets]
    metrics = sharded.migrate_buckets(moved_range, target_group=1)
    union_after = sharded.state_union()
    extra = {
        key for key in union_after if key not in union_before
    }
    assert all(key.startswith(b"__fence:") for key in extra), extra
    assert {k: v for k, v in union_after.items() if k not in extra} == union_before
    assert sharded.group_digests_converged()
    return metrics


def run_experiment() -> ExperimentTable:
    table = ExperimentTable(
        "E16", "Sharded KV: aggregate throughput scaling and migration cost"
    )
    # Per-group load imbalance of a Zipfian (skewed-key) schedule under
    # the same contiguous bucket partitioning, next to the uniform churn
    # stream's imbalance on the 4-group row.  Pure routing arithmetic
    # over the deterministic key schedule — no cluster run.
    router = ShardRouter(num_groups=4)
    sequences = zipf_key_sequences(
        num_clients=32, operations_per_client=30, key_space=256, skew=0.99,
    )
    zipf_load = zipf_group_load(sequences, router.group_of_key, 4)
    zipf_imbalance = round(load_imbalance(zipf_load), 3)

    base = _scaling_run(1, **SCALING_WORKLOAD)
    for groups in (2, 4):
        run = _scaling_run(groups, **SCALING_WORKLOAD)
        table.add_row(
            workload=f"sharded KV churn, groups={groups}",
            metric="aggregate_ops_per_second",
            baseline=base["metric"],
            optimized=run["metric"],
            ratio=round(run["metric"] / max(1e-9, base["metric"]), 3),
            load_imbalance=run["load_imbalance"],
            zipf_load_imbalance=zipf_imbalance if groups == 4 else None,
        )

    migration = _migration_run(**MIGRATION_WORKLOAD)
    table.add_row(
        workload="bucket-range migration vs whole-store (headline)",
        metric="modeled_bytes",
        baseline=migration.whole_store_bytes,
        optimized=migration.bytes_moved,
        ratio=round(migration.whole_store_bytes / max(1, migration.bytes_moved), 2),
        pages_moved=migration.pages_moved,
        pages_rejected=migration.pages_rejected,
    )
    return table


def test_sharded_scaling_and_migration(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)

    migration = table.row_for(metric="modeled_bytes")
    assert migration["pages_moved"] > 0
    assert migration["pages_rejected"] == 0

    scaling = table.row_for(workload="sharded KV churn, groups=4")["ratio"]
    assert scaling >= FULL_SCALING_FLOOR, (
        f"4-group aggregate throughput scaled only {scaling}x "
        f"(floor {FULL_SCALING_FLOOR}x)"
    )
    assert migration["ratio"] >= FULL_MIGRATION_BYTES_RATIO_FLOOR, (
        f"migration moved 1/{migration['ratio']} of the whole-store bytes; "
        f"floor is 1/{FULL_MIGRATION_BYTES_RATIO_FLOOR}"
    )

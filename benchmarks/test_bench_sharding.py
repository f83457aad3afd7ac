"""E16 — sharded KV replica groups: throughput scaling and migration cost.

Two questions, one experiment:

* **Scaling** — aggregate closed-loop throughput of the hash-partitioned
  KV service at 1, 2 and 4 replica groups (same per-group client load,
  same deterministic churn stream).  Groups run independent PBFT
  instances on one shared simulated clock, so the aggregate ops/sec is a
  modeled, machine-independent quantity; the 4-group deployment must
  reach at least ``SCALING_FLOOR`` times the single-group throughput.
* **Migration** — moving a bucket range between groups (stable-checkpoint
  page export, f+1 digest vote, verified install) must cost only the
  moved buckets' modeled bytes: the benchmark gates the whole-store /
  migration bytes ratio.

Results go to ``BENCH_sharding.json`` at the repository root (full-scale
runs only) and a summary table to ``results/E16.json``;
``check_regression.py`` validates the record in ``--smoke`` and gates the
deterministic ratios on full runs.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import (
    ExperimentTable,
    StopWatch,
    kv_churn_operation,
    preload_sharded_kv_state,
    run_sharded_closed_loop,
    run_sharded_kv_churn,
    zipf_group_load,
    zipf_key_sequences,
)
from repro.sharding import ShardedKVCluster, load_imbalance
from repro.sharding.router import ShardRouter

from output_paths import BENCH_DIR

BENCH_PATH = os.path.join(BENCH_DIR, "BENCH_sharding.json")

#: Required whole-store / migration modeled-bytes ratio on the headline
#: migration workload (the moved range is ~1/10 of the source group's
#: populated buckets).
FULL_MIGRATION_BYTES_RATIO_FLOOR = 5.0
#: Smoke stores are tiny, so fixed metadata overheads weigh more.
SMOKE_MIGRATION_BYTES_RATIO_FLOOR = 2.0

#: Required aggregate-throughput scaling factor at 4 groups vs 1 group.
FULL_SCALING_FLOOR = 2.5
SMOKE_SCALING_FLOOR = 2.0


def _scaling_run(
    groups: int, clients_per_group: int, ops_per_client: int,
    key_space: int, value_size: int, checkpoint_interval: int,
) -> dict:
    """Aggregate throughput of one deterministic churn run at ``groups``."""
    sharded = ShardedKVCluster(
        groups=groups, f=1, checkpoint_interval=checkpoint_interval
    )
    watch = StopWatch()
    result = run_sharded_kv_churn(
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
    group_load = list(sharded.loadstats.group_totals)
    return {
        "groups": groups,
        "completed": result.completed,
        "elapsed_us": round(result.elapsed, 3),
        "metric": round(result.ops_per_second, 2),
        "mean_latency_us": round(result.mean_latency, 2),
        "group_load": group_load,
        "load_imbalance": round(load_imbalance(group_load), 3),
        **watch.times(),
    }


def _migration_run(
    preload_keys: int, value_size: int, churn_clients: int, churn_ops: int,
    migrate_buckets: int, checkpoint_interval: int,
) -> dict:
    """One deterministic preload/churn/migrate scenario on two groups."""
    sharded = ShardedKVCluster(
        groups=2, f=1, checkpoint_interval=checkpoint_interval
    )
    watch = StopWatch()
    preload_sharded_kv_state(sharded, keys=preload_keys, value_size=value_size)
    churn = run_sharded_closed_loop(
        sharded,
        churn_clients,
        churn_ops,
        lambda ci, oi: kv_churn_operation(
            ci, oi, key_space=64, value_size=value_size
        ),
    )
    union_before = sharded.state_union()
    moved_range = sharded.router.buckets_owned_by(0)[:migrate_buckets]
    # Wire cost of the migration itself, from the shared net accounting
    # (same counters E20 reads) instead of an ad-hoc tally: snapshot
    # around the migration and record the delta.
    wire_before = sharded.network.stats.wire_totals()
    metrics = sharded.migrate_buckets(moved_range, target_group=1)
    wire_after = sharded.network.stats.wire_totals()
    union_after = sharded.state_union()
    extra = {
        key for key in union_after if key not in union_before
    }
    assert all(key.startswith(b"__fence:") for key in extra), extra
    assert {k: v for k, v in union_after.items() if k not in extra} == union_before
    assert sharded.group_digests_converged()
    return {
        "churn_completed": churn.completed,
        **metrics.modeled_view(),
        "bytes_moved": metrics.bytes_moved,
        "migration_messages_sent": (
            wire_after["messages_sent"] - wire_before["messages_sent"]
        ),
        "migration_payload_bytes": (
            wire_after["payload_bytes"] - wire_before["payload_bytes"]
        ),
        "union_keys": len(union_after),
        **watch.times(),
    }


def run_experiment(smoke: bool, scale) -> dict:
    scaling_workload = {
        "clients_per_group": scale(8, 4),
        "ops_per_client": scale(30, 10),
        "key_space": scale(256, 64),
        "value_size": scale(1024, 256),
        "checkpoint_interval": 16,
    }
    base = _scaling_run(1, **scaling_workload)
    macro = []
    for groups in (2, 4):
        row_run = _scaling_run(groups, **scaling_workload)
        macro.append(
            {
                "workload": f"sharded KV churn, groups={groups}",
                "metric_name": "aggregate_ops_per_second",
                "baseline": base,
                "optimized": row_run,
                "ratio": round(row_run["metric"] / max(1e-9, base["metric"]), 3),
            }
        )

    migration_workload = {
        "preload_keys": scale(2048, 200),
        "value_size": scale(1024, 256),
        "churn_clients": scale(4, 2),
        "churn_ops": scale(20, 6),
        "migrate_buckets": scale(100, 32),
        "checkpoint_interval": 8,
    }
    optimized = _migration_run(**migration_workload)
    migration_row = {
        "workload": "bucket-range migration vs whole-store (headline)",
        "metric_name": "modeled_bytes",
        **migration_workload,
        "baseline": {
            "metric": optimized["whole_store_bytes"],
            "description": "whole-store transfer of the source group",
        },
        "optimized": {"metric": optimized["bytes_moved"], **optimized},
        "ratio": round(
            optimized["whole_store_bytes"] / max(1, optimized["bytes_moved"]), 2
        ),
    }
    macro.append(migration_row)

    # Per-group load imbalance of a Zipfian (skewed-key) schedule under
    # the same contiguous bucket partitioning, next to the uniform churn
    # stream's imbalance measured in the scaling rows.  Pure routing
    # arithmetic over the deterministic key schedule — no cluster run.
    router = ShardRouter(num_groups=4)
    sequences = zipf_key_sequences(
        num_clients=scale(32, 8), operations_per_client=scale(30, 10),
        key_space=scale(256, 64), skew=0.99,
    )
    zipf_load = zipf_group_load(sequences, router.group_of_key, 4)
    zipfian_imbalance = {
        "groups": 4,
        "skew": 0.99,
        "group_load": zipf_load,
        "load_imbalance": round(load_imbalance(zipf_load), 3),
    }

    scaling4 = macro[1]["ratio"]
    return {
        "experiment": "sharding",
        "smoke": smoke,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "headline_workload": migration_row["workload"],
        "headline_migration_bytes_ratio": migration_row["ratio"],
        "scaling_4group_ratio": scaling4,
        "zipfian_imbalance": zipfian_imbalance,
        "macro": macro,
    }


def test_sharded_scaling_and_migration(benchmark, results_dir, bench_smoke, bench_scale):
    report = benchmark.pedantic(
        run_experiment, args=(bench_smoke, bench_scale), rounds=1, iterations=1
    )

    table = ExperimentTable(
        "E16", "Sharded KV: aggregate throughput scaling and migration cost"
    )
    for row in report["macro"]:
        table.add_row(
            workload=row["workload"],
            metric=row["metric_name"],
            baseline=row["baseline"]["metric"],
            optimized=row["optimized"]["metric"],
            ratio=row["ratio"],
        )
    table.print()
    table.save(results_dir)

    if not bench_smoke:
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)

    migration = report["macro"][-1]["optimized"]
    assert migration["pages_moved"] > 0
    assert migration["pages_rejected"] == 0

    scaling_floor = SMOKE_SCALING_FLOOR if bench_smoke else FULL_SCALING_FLOOR
    assert report["scaling_4group_ratio"] >= scaling_floor, (
        f"4-group aggregate throughput scaled only "
        f"{report['scaling_4group_ratio']}x (floor {scaling_floor}x)"
    )
    bytes_floor = (
        SMOKE_MIGRATION_BYTES_RATIO_FLOOR
        if bench_smoke
        else FULL_MIGRATION_BYTES_RATIO_FLOOR
    )
    assert report["headline_migration_bytes_ratio"] >= bytes_floor, (
        f"migration moved 1/{report['headline_migration_bytes_ratio']} of the "
        f"whole-store bytes; floor is 1/{bytes_floor} (see {BENCH_PATH})"
    )

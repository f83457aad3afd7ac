"""E15 — recovery bandwidth of hierarchical page-level state transfer.

A replica is partitioned away while the others execute a mixed read/write
workload (``run_kv_mixed``) over a store preloaded with a large clean
state, so only a bounded fraction of the pages is dirty when the partition
heals.  The healed replica learns of a stable checkpoint beyond its water
mark and fetches state; the experiment measures what that recovery costs —
bytes fetched, fetch/metadata messages, and simulated recovery time — with
the hierarchical page-level protocol against the whole-snapshot protocol
that a service without page support gets (``WholeSnapshotKV``).

Both protocols run the *identical* deterministic workload, so the ratios
are modeled, machine-independent quantities: ``check_regression.py`` gates
on the bytes ratio without any retry slack.

Results go to ``BENCH_statetransfer.json`` at the repository root
(full-scale runs only) and a summary table to ``results/E15.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import ExperimentTable, StopWatch, preload_kv_state, run_kv_mixed
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore

from output_paths import BENCH_DIR

BENCH_PATH = os.path.join(BENCH_DIR, "BENCH_statetransfer.json")

#: Required bytes ratio (whole-snapshot / page-level) on the headline
#: workload, where at most ~10% of the pages are dirty.
FULL_BYTES_RATIO_FLOOR = 5.0
#: Smoke states are tiny, so fixed metadata overheads weigh more.
SMOKE_BYTES_RATIO_FLOOR = 2.0

LAGGING = "replica3"


class WholeSnapshotKV(KeyValueStore):
    """The baseline side: a KV store that offers no page-level export (as
    ``NFSService`` does not), so its replicas fetch one whole-snapshot blob."""
    supports_page_transfer = False


def _recovery_run(
    preload_keys: int,
    value_size: int,
    churn_clients: int,
    churn_ops: int,
    churn_key_space: int,
    read_fraction: float,
    checkpoint_interval: int,
    service_factory=KeyValueStore,
) -> dict:
    """One deterministic partition/churn/heal/recover scenario."""
    cluster = BFTCluster.create(
        f=1,
        service_factory=service_factory,
        checkpoint_interval=checkpoint_interval,
    )
    client = cluster.new_client()
    watch = StopWatch()
    preload_kv_state(cluster, keys=preload_keys, value_size=value_size)
    for other in ("replica0", "replica1", "replica2", client.id):
        cluster.conditions.partition(LAGGING, other)
    churn = run_kv_mixed(
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
        "churn_completed": churn.completed,
        "bytes_fetched": metrics.bytes_fetched,
        "fetch_messages": metrics.fetch_messages,
        "metadata_messages": metrics.metadata_messages,
        "pages_fetched": metrics.pages_fetched,
        "pages_skipped_local": metrics.pages_skipped_local,
        "transfers_completed": metrics.transfers_completed,
        "recovery_sim_us": round(metrics.last_transfer_duration, 3),
        "stable_checkpoint": lagging.stable_checkpoint_seq,
        "stable_digest_converged": len(digests) == 1,
        "populated_pages": populated_pages,
        **watch.times(),
    }


def _workloads(scale, smoke: bool):
    workloads = [
        {
            # ~64 dirty buckets over ~1600 populated: ~4% dirty (headline).
            "name": "f=1 KV recovery, ~4% pages dirty (headline)",
            "preload_keys": scale(2048, 96),
            "value_size": scale(1024, 256),
            "churn_clients": scale(4, 2),
            "churn_ops": scale(40, 8),
            "churn_key_space": scale(64, 8),
            "read_fraction": 0.5,
            "checkpoint_interval": 4,
        },
    ]
    if not smoke:
        workloads.append(
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
            }
        )
    return workloads


def _measure_row(workload: dict) -> dict:
    workload = dict(workload)
    name = workload.pop("name")
    baseline = _recovery_run(**workload, service_factory=WholeSnapshotKV)
    optimized = _recovery_run(**workload)
    return {
        "workload": name,
        **workload,
        "baseline": baseline,
        "optimized": optimized,
        "bytes_ratio": round(
            baseline["bytes_fetched"] / max(1, optimized["bytes_fetched"]), 2
        ),
        "message_ratio": round(
            max(1, baseline["fetch_messages"])
            / max(1, optimized["fetch_messages"] + optimized["metadata_messages"]),
            3,
        ),
        "recovery_time_ratio": round(
            baseline["recovery_sim_us"] / max(1.0, optimized["recovery_sim_us"]), 2
        ),
    }


def run_experiment(smoke: bool, scale) -> dict:
    macro = [_measure_row(workload) for workload in _workloads(scale, smoke)]
    headline = macro[0]
    return {
        "experiment": "state-transfer-pages",
        "smoke": smoke,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "headline_workload": headline["workload"],
        "headline_bytes_ratio": headline["bytes_ratio"],
        "macro": macro,
    }


def test_state_transfer_page_bandwidth(benchmark, results_dir, bench_smoke, bench_scale):
    report = benchmark.pedantic(
        run_experiment, args=(bench_smoke, bench_scale), rounds=1, iterations=1
    )

    table = ExperimentTable(
        "E15", "Recovery bandwidth: page-level vs whole-snapshot state transfer"
    )
    for row in report["macro"]:
        table.add_row(
            workload=row["workload"],
            baseline_bytes=row["baseline"]["bytes_fetched"],
            optimized_bytes=row["optimized"]["bytes_fetched"],
            bytes_ratio=row["bytes_ratio"],
            recovery_time_ratio=row["recovery_time_ratio"],
        )
    table.print()
    table.save(results_dir)

    if not bench_smoke:
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)

    for row in report["macro"]:
        # Every scenario must actually recover, via a transfer, to the same
        # stable digest the rest of the cluster holds.
        for side in ("baseline", "optimized"):
            assert row[side]["transfers_completed"] >= 1, (side, row["workload"])
            assert row[side]["stable_digest_converged"], (side, row["workload"])
        assert row["optimized"]["pages_fetched"] > 0
        assert row["baseline"]["pages_fetched"] == 0

    floor = SMOKE_BYTES_RATIO_FLOOR if bench_smoke else FULL_BYTES_RATIO_FLOOR
    assert report["headline_bytes_ratio"] >= floor, (
        f"page-level transfer bytes ratio {report['headline_bytes_ratio']}x "
        f"below {floor}x (see {BENCH_PATH})"
    )

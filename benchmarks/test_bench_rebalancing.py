"""E19 — load-driven shard rebalancing: skew recovery under live traffic.

A Zipf(0.99) key distribution concentrates most writes on a few CRC-32
buckets, so a statically-partitioned 4-group deployment runs at the pace
of its hottest group.  The experiment measures how much of that lost
throughput the load-driven rebalancer (:mod:`repro.sharding.rebalancer`)
wins back, with three scenarios over identical phase structure — an
*adapt* phase (during which the auto-rebalanced cluster detects the hot
buckets and migrates them under live traffic) followed by a *measured*
phase on a fresh deterministic key schedule:

* **uniform** — the no-skew churn stream on static partitioning: the
  throughput ceiling the rebalancer aims to recover toward;
* **static**  — the Zipf stream on static partitioning: the skew penalty;
* **auto**    — the same Zipf stream with ``auto_rebalance=True``.

The headline is the *recovery ratio*: the auto-rebalanced measured-phase
throughput over the uniform curve (``FULL_RECOVERY_FLOOR`` gates it).
Everything reported is a modeled, machine-independent quantity, and the
closed loop's per-client completion counts prove that
operations redirected around migration freezes are executed exactly once,
never lost or reordered.

The committed ``results/E19.json`` pins every value in the table.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.bench import (
    ExperimentTable,
    kv_churn_operation,
    run_closed_loop,
    zipf_key_sequences,
)
from repro.sharding import (
    LoadStatsConfig,
    RebalancerConfig,
    ShardedKVCluster,
    load_imbalance,
)

from records import check_record

#: The auto-rebalanced measured phase must reach this fraction of the
#: uniform (no-skew) throughput curve.
FULL_RECOVERY_FLOOR = 0.8

GROUPS = 4
NUM_CLIENTS = 64
ADAPT_OPS = 40
MEASURED_OPS = 30
KEY_SPACE = 256
SKEW = 0.99
VALUE_SIZE = 64
CHECKPOINT_INTERVAL = 8
#: Distinct deterministic key schedules for the two phases: the rebalancer
#: adapts on one stream and is scored on another, so the headline measures
#: generalization to fresh traffic with the same skew, not memorization.
ADAPT_SEED = 11
MEASURED_SEED = 13
REBALANCER_CONFIG = RebalancerConfig(
    check_interval=20_000.0,
    trigger_imbalance=1.25,
    min_window_ops=64,
    cooldown=40_000.0,
    max_chunk_buckets=8,
    max_buckets_per_cycle=64,
)


def _zipf_factory(
    num_clients: int, ops_per_client: int, seed: int
) -> Callable[[int, int], Tuple[bytes, bool]]:
    """The Zipf(0.99) SET stream over ``zipfNNNNN`` keys (E16's key form)."""
    sequences = zipf_key_sequences(
        num_clients, ops_per_client, key_space=KEY_SPACE, skew=SKEW, seed=seed
    )

    def factory(client_index: int, op_index: int) -> Tuple[bytes, bool]:
        key = b"zipf%05d" % sequences[client_index][op_index]
        value = bytes([65 + (client_index + op_index) % 26]) * VALUE_SIZE
        return (b"SET " + key + b" " + value, False)

    return factory


def _uniform_factory(
    client_index: int, op_index: int
) -> Tuple[bytes, bool]:
    return kv_churn_operation(
        client_index, op_index, key_space=KEY_SPACE, value_size=VALUE_SIZE
    )


def _scenario(auto: bool, adapt_factory, measured_factory) -> dict:
    """Adapt + measured closed-loop phases on one fresh cluster."""
    sharded = ShardedKVCluster(
        groups=GROUPS,
        f=1,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        auto_rebalance=auto,
        rebalancer_config=REBALANCER_CONFIG if auto else None,
        loadstats_config=LoadStatsConfig(window=20_000.0),
    )
    adapt = run_closed_loop(sharded, NUM_CLIENTS, ADAPT_OPS, adapt_factory)
    adapt_totals = list(sharded.loadstats.group_totals)
    rebalancer = sharded.rebalancer
    migrations_during_adapt = rebalancer.migrations_issued if rebalancer else 0

    measured = run_closed_loop(sharded, NUM_CLIENTS, MEASURED_OPS, measured_factory)
    measured_totals = [
        after - before
        for after, before in zip(sharded.loadstats.group_totals, adapt_totals)
    ]

    # Exactly-once across migration freezes: every client completed every
    # operation exactly once (a redirected op executing twice — or never —
    # breaks the per-client count), and each group's replicas converged.
    assert adapt.per_client == [ADAPT_OPS] * NUM_CLIENTS
    assert measured.per_client == [MEASURED_OPS] * NUM_CLIENTS
    assert sharded.group_digests_converged()
    if rebalancer is not None:
        assert rebalancer.errors == []

    return {
        "measured_ops_per_second": round(measured.ops_per_second, 2),
        # Live-counter imbalance over the measured phase (the shared
        # definition from repro.sharding.loadstats, fed by the router's
        # hot path).
        "measured_imbalance": round(load_imbalance(measured_totals), 3),
        "migrations": rebalancer.migrations_issued if rebalancer else 0,
        "epoch": sharded.router.epoch,
        # Measured-phase throughput over the uniform curve; set by the caller.
        "recovery": None,
        "lost_ops": (NUM_CLIENTS * (ADAPT_OPS + MEASURED_OPS))
        - adapt.completed
        - measured.completed,
        "adapt_migrations": migrations_during_adapt,
        "bytes_moved": rebalancer.bytes_moved if rebalancer else 0,
    }


def run_experiment() -> ExperimentTable:
    zipf_adapt = _zipf_factory(NUM_CLIENTS, ADAPT_OPS, ADAPT_SEED)
    zipf_measured = _zipf_factory(NUM_CLIENTS, MEASURED_OPS, MEASURED_SEED)
    scenarios = {
        "uniform": _scenario(False, _uniform_factory, _uniform_factory),
        "static": _scenario(False, zipf_adapt, zipf_measured),
        "auto": _scenario(True, zipf_adapt, zipf_measured),
    }
    uniform_ops = scenarios["uniform"]["measured_ops_per_second"]

    table = ExperimentTable(
        "E19", "Load-driven rebalancing: Zipf skew recovery at 4 groups"
    )
    for label, run in scenarios.items():
        if label != "uniform":
            run["recovery"] = round(
                run["measured_ops_per_second"] / max(1e-9, uniform_ops), 3
            )
        table.add_row(scenario=label, **run)
    return table


def test_rebalancing_skew_recovery(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)

    static = table.row_for(scenario="static")
    auto = table.row_for(scenario="auto")
    # Zero lost or reordered operations in every scenario (the per-client
    # exactly-once counts are asserted inside _scenario as well).
    assert table.column("lost_ops") == [0, 0, 0]
    # The rebalancer actually moved load during the adapt phase and the
    # router redirected queued operations around the freezes...
    assert auto["migrations"] >= 1
    assert auto["adapt_migrations"] >= 1
    assert auto["bytes_moved"] > 0
    assert auto["epoch"] > 0
    # ...which levels the live measured-phase imbalance below the static
    # deployment's and wins throughput back over static partitioning.
    assert auto["measured_imbalance"] < static["measured_imbalance"]
    assert static["recovery"] < 1.0
    assert auto["measured_ops_per_second"] > static["measured_ops_per_second"]

    assert auto["recovery"] >= FULL_RECOVERY_FLOOR, (
        f"auto-rebalanced throughput recovered only {auto['recovery']}x of "
        f"the uniform curve (floor {FULL_RECOVERY_FLOOR}x)"
    )

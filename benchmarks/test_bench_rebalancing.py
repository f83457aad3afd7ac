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

Results go to ``BENCH_rebalancing.json`` at the repository root
(full-scale runs only) and a summary table to ``results/E19.json``;
``check_regression.py`` validates the record in ``--smoke`` and gates the
deterministic recovery ratio on full runs.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Tuple

from repro.bench import (
    ExperimentTable,
    StopWatch,
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

from output_paths import BENCH_DIR

BENCH_PATH = os.path.join(BENCH_DIR, "BENCH_rebalancing.json")

#: The auto-rebalanced measured phase must reach this fraction of the
#: uniform (no-skew) throughput curve.
FULL_RECOVERY_FLOOR = 0.8
#: Smoke runs are short but fully deterministic too; the lower floor only
#: reflects the coarser amortization of the tiny measured phase.
SMOKE_RECOVERY_FLOOR = 0.85

GROUPS = 4
KEY_SPACE = 256
SKEW = 0.99
VALUE_SIZE = 64
CHECKPOINT_INTERVAL = 8
#: Distinct deterministic key schedules for the two phases: the rebalancer
#: adapts on one stream and is scored on another, so the headline measures
#: generalization to fresh traffic with the same skew, not memorization.
ADAPT_SEED = 11
MEASURED_SEED = 13


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


def _rebalancer_config(smoke: bool) -> RebalancerConfig:
    # Smoke phases are a handful of simulated milliseconds, so the policy
    # tick and the evidence floor shrink with them — otherwise the first
    # migration slips past the adapt phase into the measured window.
    return RebalancerConfig(
        check_interval=5_000.0 if smoke else 20_000.0,
        trigger_imbalance=1.25,
        min_window_ops=16 if smoke else 64,
        cooldown=20_000.0 if smoke else 40_000.0,
        max_chunk_buckets=8,
        max_buckets_per_cycle=64,
    )


def _scenario(
    auto: bool,
    smoke: bool,
    num_clients: int,
    adapt_ops: int,
    measured_ops: int,
    adapt_factory,
    measured_factory,
) -> dict:
    """Adapt + measured closed-loop phases on one fresh cluster."""
    watch = StopWatch()
    sharded = ShardedKVCluster(
        groups=GROUPS,
        f=1,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        auto_rebalance=auto,
        rebalancer_config=_rebalancer_config(smoke) if auto else None,
        loadstats_config=LoadStatsConfig(window=20_000.0),
    )
    adapt = run_closed_loop(sharded, num_clients, adapt_ops, adapt_factory)
    adapt_totals = list(sharded.loadstats.group_totals)
    rebalancer = sharded.rebalancer
    migrations_during_adapt = rebalancer.migrations_issued if rebalancer else 0

    measured = run_closed_loop(
        sharded, num_clients, measured_ops, measured_factory
    )
    measured_totals = [
        after - before
        for after, before in zip(sharded.loadstats.group_totals, adapt_totals)
    ]

    # Exactly-once across migration freezes: every client completed every
    # operation exactly once (a redirected op executing twice — or never —
    # breaks the per-client count), and each group's replicas converged.
    assert adapt.per_client == [adapt_ops] * num_clients
    assert measured.per_client == [measured_ops] * num_clients
    assert sharded.group_digests_converged()
    if rebalancer is not None:
        assert rebalancer.errors == []

    return {
        "auto_rebalance": auto,
        "adapt_completed": adapt.completed,
        "adapt_ops_per_second": round(adapt.ops_per_second, 2),
        "measured_completed": measured.completed,
        "measured_elapsed_us": round(measured.elapsed, 3),
        "ops_per_second": round(measured.ops_per_second, 2),
        "mean_latency_us": round(measured.mean_latency, 2),
        # Live-counter imbalance over each phase (the shared definition
        # from repro.sharding.loadstats, fed by the router's hot path).
        "adapt_imbalance": round(load_imbalance(adapt_totals), 3),
        "measured_imbalance": round(load_imbalance(measured_totals), 3),
        "group_totals": list(sharded.loadstats.group_totals),
        "routing_epoch": sharded.router.epoch,
        "migrations_during_adapt": migrations_during_adapt,
        "rebalancer": rebalancer.modeled_view() if rebalancer else None,
        "lost_ops": (num_clients * (adapt_ops + measured_ops))
        - adapt.completed
        - measured.completed,
        **watch.times(),
    }


def run_experiment(smoke: bool, scale) -> dict:
    workload = {
        "groups": GROUPS,
        "num_clients": scale(64, 16),
        "adapt_ops_per_client": scale(40, 32),
        "measured_ops_per_client": scale(30, 10),
        "key_space": KEY_SPACE,
        "skew": SKEW,
        "value_size": VALUE_SIZE,
        "checkpoint_interval": CHECKPOINT_INTERVAL,
    }
    num_clients = workload["num_clients"]
    adapt_ops = workload["adapt_ops_per_client"]
    measured_ops = workload["measured_ops_per_client"]
    zipf_adapt = _zipf_factory(num_clients, adapt_ops, ADAPT_SEED)
    zipf_measured = _zipf_factory(num_clients, measured_ops, MEASURED_SEED)

    def run_scenario(auto: bool, adapt_factory, measured_factory) -> dict:
        return _scenario(
            auto, smoke, num_clients, adapt_ops, measured_ops,
            adapt_factory, measured_factory,
        )

    uniform = run_scenario(False, _uniform_factory, _uniform_factory)
    static = run_scenario(False, zipf_adapt, zipf_measured)
    auto = run_scenario(True, zipf_adapt, zipf_measured)

    recovery = round(
        auto["ops_per_second"] / max(1e-9, uniform["ops_per_second"]), 3
    )
    static_ratio = round(
        static["ops_per_second"] / max(1e-9, uniform["ops_per_second"]), 3
    )
    macro = [
        {
            "workload": (
                f"Zipf({SKEW}) churn, auto-rebalanced, groups={GROUPS} "
                "(headline)"
            ),
            "metric_name": "measured_phase_ops_per_second",
            "baseline": {
                "scenario": "uniform churn, static partitioning",
                "ops_per_second": uniform["ops_per_second"],
            },
            "optimized": {
                "scenario": "Zipf churn, load-driven rebalancing",
                "ops_per_second": auto["ops_per_second"],
            },
            "recovery_ratio": recovery,
        },
        {
            "workload": f"Zipf({SKEW}) churn, static partitioning (penalty)",
            "metric_name": "measured_phase_ops_per_second",
            "baseline": {
                "scenario": "uniform churn, static partitioning",
                "ops_per_second": uniform["ops_per_second"],
            },
            "optimized": {
                "scenario": "Zipf churn, static partitioning",
                "ops_per_second": static["ops_per_second"],
            },
            "recovery_ratio": static_ratio,
        },
    ]
    rebalancer = auto["rebalancer"]
    return {
        "experiment": "rebalancing",
        "smoke": smoke,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "headline_workload": macro[0]["workload"],
        "headline_recovery_ratio": recovery,
        "static_recovery_ratio": static_ratio,
        "imbalance_before": static["measured_imbalance"],
        "imbalance_after": auto["measured_imbalance"],
        "migrations_issued": rebalancer["migrations_issued"],
        "bytes_moved": rebalancer["bytes_moved"],
        "redirected_ops": rebalancer["redirected_ops"],
        "scenarios": {"uniform": uniform, "static": static, "auto": auto},
        "macro": macro,
    }


def test_rebalancing_skew_recovery(benchmark, results_dir, bench_smoke, bench_scale):
    report = benchmark.pedantic(
        run_experiment, args=(bench_smoke, bench_scale), rounds=1, iterations=1
    )

    table = ExperimentTable(
        "E19", "Load-driven rebalancing: Zipf skew recovery at 4 groups"
    )
    for label in ("uniform", "static", "auto"):
        run = report["scenarios"][label]
        table.add_row(
            scenario=label,
            measured_ops_per_second=run["ops_per_second"],
            measured_imbalance=run["measured_imbalance"],
            migrations=(
                run["rebalancer"]["migrations_issued"]
                if run["rebalancer"]
                else 0
            ),
            epoch=run["routing_epoch"],
            recovery=(
                report["headline_recovery_ratio"]
                if label == "auto"
                else (report["static_recovery_ratio"] if label == "static" else None)
            ),
        )
    table.print()
    table.save(results_dir)

    if not bench_smoke:
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)

    # Zero lost or reordered operations in every scenario (the per-client
    # exactly-once counts are asserted inside _scenario as well).
    for run in report["scenarios"].values():
        assert run["lost_ops"] == 0
    # The rebalancer actually moved load during the adapt phase and the
    # router redirected queued operations around the freezes...
    auto = report["scenarios"]["auto"]
    assert report["migrations_issued"] >= 1
    assert auto["migrations_during_adapt"] >= 1
    assert report["bytes_moved"] > 0
    assert auto["routing_epoch"] > 0
    # ...which levels the live measured-phase imbalance below the static
    # deployment's and wins throughput back over static partitioning.
    assert report["imbalance_after"] < report["imbalance_before"]
    assert report["static_recovery_ratio"] < 1.0
    assert auto["ops_per_second"] > report["scenarios"]["static"]["ops_per_second"]

    floor = SMOKE_RECOVERY_FLOOR if bench_smoke else FULL_RECOVERY_FLOOR
    assert report["headline_recovery_ratio"] >= floor, (
        f"auto-rebalanced throughput recovered only "
        f"{report['headline_recovery_ratio']}x of the uniform curve "
        f"(floor {floor}x, see {BENCH_PATH})"
    )

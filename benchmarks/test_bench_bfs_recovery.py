"""E11 — BFS with proactive recovery (Section 8.6.3).

Runs the Andrew-style workload against BFS while replicas are proactively
recovered at different rates and reports the slowdown relative to BFS
without recovery.  The paper shows modest degradation when recoveries are
spread out (at most one replica recovering at a time) and growing
degradation as they become more frequent.

Recoveries are triggered at scheduled points spread over the run (playing
the role of the watchdog timer), so the recovery rate scales with the
length of the simulated benchmark.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentTable
from repro.core.config import ProtocolOptions
from repro.fs import AndrewBenchmark, BFSClient, build_bfs_cluster
from repro.sim.events import EventKind

from records import check_record

ITERATIONS = 4
#: Recoveries per replica during the run: none, one, and two.
RECOVERY_ROUNDS = [0, 1, 2]
RECOVERY_OPTIONS = ProtocolOptions(
    recovery_reboot_cost=15_000.0, recovery_state_check_cost=5_000.0
)


def schedule_recoveries(cluster, rounds: int, horizon: float) -> None:
    """Spread ``rounds`` recoveries per replica evenly over ``horizon``."""
    replica_ids = cluster.config.replica_ids
    total = rounds * len(replica_ids)
    if total == 0:
        return
    spacing = horizon / (total + 1)
    slot = 1
    for round_index in range(rounds):
        for replica_id in replica_ids:
            replica = cluster.replicas[replica_id]
            cluster.scheduler.schedule_after(
                spacing * slot, EventKind.INTERNAL, replica_id,
                payload=replica.recovery.start_recovery,
            )
            slot += 1


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E11", "Andrew benchmark under proactive recovery")
    benchmark_run = AndrewBenchmark(iterations=ITERATIONS)
    baseline_total = None
    for rounds in RECOVERY_ROUNDS:
        cluster = build_bfs_cluster(f=1, checkpoint_interval=64,
                                    options=RECOVERY_OPTIONS)
        fs = BFSClient(cluster.new_client())
        if rounds and baseline_total is not None:
            schedule_recoveries(cluster, rounds, horizon=baseline_total)
        results = benchmark_run.run(fs, lambda: cluster.now)
        total = sum(r.elapsed for r in results)
        recoveries = sum(len(r.recovery.records) for r in cluster.replicas.values())
        if baseline_total is None:
            baseline_total = total
        table.add_row(
            configuration=(
                "no recovery" if rounds == 0 else f"{rounds} recovery/replica"
            ),
            total_us=round(total, 1),
            recoveries_started=recoveries,
            slowdown_vs_no_recovery=round(total / baseline_total, 3),
        )
    return table


def test_bfs_with_proactive_recovery(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    rows = {row["configuration"]: row for row in table.rows}
    assert rows["no recovery"]["recoveries_started"] == 0
    for label, row in rows.items():
        if label != "no recovery":
            # Recoveries happened and the benchmark still completed, at a
            # modest multiple of the recovery-free time (the paper's
            # qualitative result for reasonable watchdog periods).
            assert row["recoveries_started"] > 0
            assert row["slowdown_vs_no_recovery"] >= 1.0
            assert row["slowdown_vs_no_recovery"] < 4.0

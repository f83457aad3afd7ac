"""E8 — state-transfer cost (Section 8.4.2).

Measures how much data the hierarchical state transfer moves to bring a
lagging replica up to date as a function of how much of the state diverged,
plus an end-to-end run where a partitioned replica catches up through the
replica-level transfer protocol.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentTable
from repro.library import BFTCluster
from repro.services import KeyValueStore
from repro.statetransfer.partition_tree import PartitionTree

from records import check_record

TOTAL_PAGES = 1024
DIVERGENCE = [8, 64, 256, 1024]


def run_partition_tree_experiment() -> ExperimentTable:
    table = ExperimentTable("E8", "State transfer: pages/bytes moved vs divergence")
    for divergent in DIVERGENCE:
        source = PartitionTree()
        follower = PartitionTree()
        for index in range(TOTAL_PAGES):
            value = b"v-%d" % index
            source.write_page(index, value)
            follower.write_page(index, value)
        source.take_checkpoint(1)
        follower.take_checkpoint(1)
        for index in range(divergent):
            source.write_page(index, b"newer-%d" % index)
        source.take_checkpoint(2)
        plan = follower.apply_transfer(source, 2)
        table.add_row(
            divergent_pages=divergent,
            pages_transferred=plan.pages_transferred,
            bytes_transferred=plan.bytes_transferred,
            converged=follower.root_digest() == source.root_digest(2),
        )
    return table


def test_state_transfer_scales_with_divergence(benchmark):
    table = benchmark.pedantic(run_partition_tree_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    assert table.column("pages_transferred") == DIVERGENCE
    assert all(table.column("converged"))
    transferred = table.column("bytes_transferred")
    assert all(b > a for a, b in zip(transferred, transferred[1:]))


def test_lagging_replica_catches_up_end_to_end(benchmark):
    def run() -> ExperimentTable:
        table = ExperimentTable("E8b", "End-to-end catch-up of a partitioned replica")
        cluster = BFTCluster.create(f=1, service_factory=KeyValueStore,
                                    checkpoint_interval=4)
        client = cluster.new_client()
        for other in ("replica0", "replica1", "replica2", "client0"):
            cluster.conditions.partition("replica3", other)
        for i in range(16):
            client.invoke(b"SET key%d value%d" % (i, i))
        behind = cluster.replicas["replica3"].last_executed
        cluster.conditions.heal_all()
        for i in range(6):
            client.invoke(b"SET extra%d value%d" % (i, i))
        cluster.run(duration=30_000_000)
        lagging = cluster.replicas["replica3"]
        table.add_row(
            missed_requests=16 - behind,
            stable_checkpoint_after=lagging.stable_checkpoint_seq,
            transfers_completed=lagging.state_transfer.metrics.transfers_completed,
            bytes_fetched=lagging.state_transfer.metrics.bytes_fetched,
        )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    table.print()
    check_record(table)
    row = table.rows[0]
    assert row["missed_requests"] >= 12
    assert row["stable_checkpoint_after"] >= 12
    assert row["transfers_completed"] >= 1
    assert row["bytes_fetched"] > 0

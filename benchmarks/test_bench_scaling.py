"""E5 — configurations with more replicas (Section 8.3.4).

Reproduces the latency/throughput-versus-f figures: latency grows modestly
with the group size (bigger authenticators, more prepares/commits to
collect) and throughput drops as the primary handles more protocol traffic
per request.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    ExperimentTable,
    measure_latency,
    measure_throughput,
    micro_operation,
)
from repro.library import BFTCluster
from repro.services import NullService

from records import check_record

FAULT_COUNTS = [1, 2, 3]


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E5", "Latency and throughput vs replica-group size")
    for f in FAULT_COUNTS:
        cluster = BFTCluster.create(f=f, service_factory=NullService,
                                    checkpoint_interval=256)
        latency = measure_latency(cluster, micro_operation(0, 0), samples=6)
        tp_cluster = BFTCluster.create(f=f, service_factory=NullService,
                                       checkpoint_interval=256)
        throughput = measure_throughput(tp_cluster, 10, 10, micro_operation(0, 0))
        table.add_row(
            f=f,
            n=3 * f + 1,
            latency_us=round(latency.mean, 1),
            throughput_ops_s=round(throughput.ops_per_second),
        )
    return table


def test_scaling_with_more_replicas(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    latencies = table.column("latency_us")
    throughputs = table.column("throughput_ops_s")
    # Latency grows with f but stays within a small factor of f=1.
    assert all(b > a for a, b in zip(latencies, latencies[1:]))
    assert latencies[-1] < 4 * latencies[0]
    # Throughput decreases as the group grows.
    assert all(b < a for a, b in zip(throughputs, throughputs[1:]))

"""E3 — throughput micro-benchmark (Section 8.3.2).

Reproduces the throughput-versus-number-of-clients figures for the 0/0
operation, read-write and read-only.  The paper shows throughput rising
with offered load until the bottleneck CPU saturates, with read-only
throughput higher than read-write.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentTable, measure_throughput, micro_operation
from repro.library import BFTCluster
from repro.services import NullService

from records import check_record

CLIENT_COUNTS = [1, 4, 10, 20]
OPS_PER_CLIENT = 15


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E3", "Throughput (ops/s) vs number of clients, 0/0 operation")
    for clients in CLIENT_COUNTS:
        rw_cluster = BFTCluster.create(f=1, service_factory=NullService,
                                       checkpoint_interval=256)
        rw = measure_throughput(rw_cluster, clients, OPS_PER_CLIENT,
                                micro_operation(0, 0))
        ro_cluster = BFTCluster.create(f=1, service_factory=NullService,
                                       checkpoint_interval=256)
        ro = measure_throughput(ro_cluster, clients, OPS_PER_CLIENT,
                                micro_operation(0, 0, read_only=True), read_only=True)
        table.add_row(
            clients=clients,
            read_write_ops_s=round(rw.ops_per_second),
            read_only_ops_s=round(ro.ops_per_second),
            rw_mean_latency_us=round(rw.mean_latency, 1),
        )
    return table


def test_throughput_scaling(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    rw = table.column("read_write_ops_s")
    ro = table.column("read_only_ops_s")
    # Throughput grows with offered load (batching amortises protocol cost).
    assert rw[-1] > 2 * rw[0]
    # Read-only throughput is at least as high as read-write at high load.
    assert ro[-1] >= rw[0]

"""E2 — latency versus argument / result size (Section 8.3.1).

Reproduces the figures showing how operation latency grows with the size of
the operation argument (a/0) and of the result (0/b).  The paper's model
predicts near-linear growth with a steeper slope for argument sizes
(the request travels to every replica via the pre-prepare) than for result
sizes when digest replies are enabled (only one replica returns the full
result).
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentTable, measure_latency, micro_operation
from repro.library import BFTCluster
from repro.services import NullService

from records import check_record

SIZES_KB = [0, 1, 2, 4, 8]


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E2", "Latency vs argument/result size (us)")
    cluster_arg = BFTCluster.create(f=1, service_factory=NullService,
                                    checkpoint_interval=256)
    cluster_res = BFTCluster.create(f=1, service_factory=NullService,
                                    checkpoint_interval=256)
    client_arg = cluster_arg.new_client()
    client_res = cluster_res.new_client()
    for size in SIZES_KB:
        arg_latency = measure_latency(
            cluster_arg, micro_operation(size, 0), samples=6, client=client_arg
        )
        result_latency = measure_latency(
            cluster_res, micro_operation(0, size), samples=6, client=client_res
        )
        table.add_row(
            size_kb=size,
            arg_latency_us=round(arg_latency.mean, 1),
            result_latency_us=round(result_latency.mean, 1),
        )
    return table


def test_latency_vs_sizes(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    args = table.column("arg_latency_us")
    results = table.column("result_latency_us")
    # Latency grows monotonically with both argument and result size.
    assert all(b >= a for a, b in zip(args, args[1:]))
    assert all(b >= a for a, b in zip(results, results[1:]))
    # Larger arguments cost more than equally-large results (digest replies
    # keep most of the reply traffic small).
    assert args[-1] > results[-1]

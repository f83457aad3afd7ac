"""E4 — impact of the Chapter-5 optimizations (Section 8.3.3).

Ablation: toggle one mechanism at a time and measure its effect on the
metric it targets — MAC authentication vs signatures (latency), digest
replies (latency of operations with large results), tentative execution
(read-write latency), batching (throughput under load), and the read-only
optimization (read latency).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench import (
    ExperimentTable,
    measure_latency,
    measure_throughput,
    micro_operation,
)
from repro.core.config import ProtocolOptions
from repro.library import BFTCluster
from repro.services import NullService

from records import check_record


def latency_with(options: ProtocolOptions, arg_kb=0, result_kb=0, read_only=False):
    cluster = BFTCluster.create(f=1, service_factory=NullService,
                                options=options, checkpoint_interval=256)
    return measure_latency(
        cluster, micro_operation(arg_kb, result_kb, read_only=read_only),
        samples=6, read_only=read_only,
    ).mean


def throughput_with(options: ProtocolOptions):
    cluster = BFTCluster.create(f=1, service_factory=NullService,
                                options=options, checkpoint_interval=256)
    return measure_throughput(cluster, 12, 12, micro_operation(0, 0)).ops_per_second


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E4", "Impact of optimizations (ablation)")
    base = ProtocolOptions()

    table.add_row(
        optimization="MAC authentication (vs signatures)",
        metric="0/0 read-write latency (us)",
        enabled=round(latency_with(base), 1),
        disabled=round(latency_with(base.as_bft_pk()), 1),
    )
    table.add_row(
        optimization="digest replies",
        metric="0/4 read-write latency (us)",
        enabled=round(latency_with(base, result_kb=4), 1),
        disabled=round(
            latency_with(dataclasses.replace(base, digest_replies=False), result_kb=4), 1
        ),
    )
    table.add_row(
        optimization="tentative execution",
        metric="0/0 read-write latency (us)",
        enabled=round(latency_with(base), 1),
        disabled=round(
            latency_with(dataclasses.replace(base, tentative_execution=False)), 1
        ),
    )
    table.add_row(
        optimization="read-only optimization",
        metric="0/0 read latency (us)",
        enabled=round(latency_with(base, read_only=True), 1),
        disabled=round(
            latency_with(
                dataclasses.replace(base, read_only_optimization=False), read_only=True
            ),
            1,
        ),
    )
    table.add_row(
        optimization="request batching",
        metric="0/0 throughput (ops/s)",
        enabled=round(throughput_with(base)),
        disabled=round(throughput_with(dataclasses.replace(base, max_batch_size=1))),
    )
    for row in table.rows:
        if "latency" in row["metric"]:
            row["improvement"] = round(row["disabled"] / row["enabled"], 2)
        else:
            row["improvement"] = round(row["enabled"] / row["disabled"], 2)
    return table


def test_optimization_ablation(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    improvements = {row["optimization"]: row["improvement"] for row in table.rows}
    # MAC authentication is the dominant optimization, by far.
    assert improvements["MAC authentication (vs signatures)"] > 10
    # Each remaining optimization helps its target metric.
    assert improvements["digest replies"] > 1.0
    assert improvements["tentative execution"] > 1.0
    assert improvements["read-only optimization"] > 1.0
    assert improvements["request batching"] > 1.2

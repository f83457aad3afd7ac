"""E10 — BFS under the Andrew-style benchmark (Section 8.6.2).

Reproduces the BFS vs NFS-std comparison: per-phase and total elapsed time
for the five Andrew phases on the replicated file service and on the
unreplicated baseline, plus a BFS-nr-like configuration (read-only
optimization disabled) to show what the optimizations buy.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.unreplicated import UnreplicatedCluster
from repro.bench import ExperimentTable
from repro.core.config import ProtocolOptions
from repro.fs import AndrewBenchmark, BFSClient, NFSService, build_bfs_cluster

from records import check_record

ITERATIONS = 1


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E10", "Andrew benchmark: BFS vs unreplicated NFS (elapsed us)")
    benchmark_run = AndrewBenchmark(iterations=ITERATIONS)

    bfs_cluster = build_bfs_cluster(f=1, checkpoint_interval=128)
    bfs = BFSClient(bfs_cluster.new_client())
    bfs_results = {r.name: r for r in benchmark_run.run(bfs, lambda: bfs_cluster.now)}

    no_ro_options = dataclasses.replace(ProtocolOptions(), read_only_optimization=False)
    slow_cluster = build_bfs_cluster(f=1, checkpoint_interval=128, options=no_ro_options)
    slow = BFSClient(slow_cluster.new_client(), use_read_only=False)
    slow_results = {r.name: r for r in benchmark_run.run(slow, lambda: slow_cluster.now)}

    nfs_cluster = UnreplicatedCluster(service_factory=NFSService)
    baseline = BFSClient(nfs_cluster.new_client(), use_read_only=False)
    nfs_results = {r.name: r for r in benchmark_run.run(baseline, lambda: nfs_cluster.now)}

    for phase in ("mkdir", "copy", "stat", "read", "compile"):
        table.add_row(
            phase=phase,
            bfs_us=round(bfs_results[phase].elapsed, 1),
            bfs_no_ro_us=round(slow_results[phase].elapsed, 1),
            nfs_std_us=round(nfs_results[phase].elapsed, 1),
            bfs_slowdown=round(bfs_results[phase].elapsed / nfs_results[phase].elapsed, 2),
        )
    total_bfs = sum(r.elapsed for r in bfs_results.values())
    total_slow = sum(r.elapsed for r in slow_results.values())
    total_nfs = sum(r.elapsed for r in nfs_results.values())
    table.add_row(
        phase="total",
        bfs_us=round(total_bfs, 1),
        bfs_no_ro_us=round(total_slow, 1),
        nfs_std_us=round(total_nfs, 1),
        bfs_slowdown=round(total_bfs / total_nfs, 2),
    )
    return table


def test_bfs_andrew_benchmark(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    total = table.row_for(phase="total")
    # BFS is slower than the unreplicated server, by a modest factor (the
    # paper: up to ~1.24x on the real testbed; the simulated baseline has no
    # disk or kernel costs, so the gap is larger but the same order).
    assert 1.0 < total["bfs_slowdown"] < 5.0
    # Disabling the read-only optimization hurts the read-heavy phases.
    read_row = table.row_for(phase="read")
    assert read_row["bfs_no_ro_us"] > read_row["bfs_us"]
    # Read-only phases are closer to the baseline than write-heavy ones.
    copy_row = table.row_for(phase="copy")
    assert read_row["bfs_slowdown"] < copy_row["bfs_slowdown"]

"""E1 — latency micro-benchmark (Section 8.3.1).

Reproduces the latency table for the 0/0, 0/4 and 4/0 operations, read-write
and read-only, comparing BFT, BFT-PK and the unreplicated server.  The paper
reports that BFT is orders of magnitude faster than BFT-PK, that the
read-only optimization roughly halves read latency, and that BFT stays
within a small factor of the unreplicated server.
"""

from __future__ import annotations

import pytest

from repro.baselines.unreplicated import UnreplicatedCluster
from repro.bench import ExperimentTable, measure_latency, micro_operation
from repro.core.config import ProtocolOptions
from repro.library import BFTCluster
from repro.services import NullService

from records import check_record

OPERATIONS = [("0/0", 0, 0), ("4/0", 4, 0), ("0/4", 0, 4)]
SAMPLES = 8


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E1", "Latency micro-benchmark (us): BFT vs BFT-PK vs unreplicated")
    systems = {
        "BFT": ProtocolOptions(),
        "BFT-PK": ProtocolOptions().as_bft_pk(),
    }
    for label, arg_kb, result_kb in OPERATIONS:
        row = {"operation": label}
        for system, options in systems.items():
            cluster = BFTCluster.create(
                f=1, service_factory=NullService, options=options,
                checkpoint_interval=256,
            )
            rw = measure_latency(cluster, micro_operation(arg_kb, result_kb),
                                 samples=SAMPLES)
            ro = measure_latency(
                cluster, micro_operation(arg_kb, result_kb, read_only=True),
                samples=SAMPLES, read_only=True,
            )
            row[f"{system}_rw_us"] = round(rw.mean, 1)
            row[f"{system}_ro_us"] = round(ro.mean, 1)
        baseline = UnreplicatedCluster(service_factory=NullService)
        base = measure_latency(baseline, micro_operation(arg_kb, result_kb),
                               samples=SAMPLES)
        row["unreplicated_us"] = round(base.mean, 1)
        row["bft_vs_unreplicated"] = round(row["BFT_rw_us"] / row["unreplicated_us"], 2)
        row["bftpk_vs_bft"] = round(row["BFT-PK_rw_us"] / row["BFT_rw_us"], 1)
        table.add_row(**row)
    return table


def test_latency_micro_benchmark(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    for row in table.rows:
        # BFT-PK pays the signature cost: at least an order of magnitude slower.
        assert row["bftpk_vs_bft"] > 10
        # Read-only operations are faster than read-write ones.
        assert row["BFT_ro_us"] < row["BFT_rw_us"]
        # Replication costs something, but stays within a small factor of the
        # unreplicated server for small operations.
        assert row["bft_vs_unreplicated"] > 1.0
    zero_zero = table.row_for(operation="0/0")
    assert zero_zero["bft_vs_unreplicated"] < 20

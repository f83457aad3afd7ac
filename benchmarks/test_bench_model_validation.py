"""E6 — analytic model vs simulator (Sections 7.3/7.4 and 8.3.5).

The paper validates the analytic performance model against measurements;
here the same model is validated against the simulator: predictions must
track the measured latency within a modest relative error and preserve the
ordering between configurations.
"""

from __future__ import annotations

import pytest

from repro.bench import ExperimentTable, measure_latency, micro_operation
from repro.core.config import AuthMode, ProtocolOptions
from repro.library import BFTCluster
from repro.perfmodel import LatencyModel
from repro.services import NullService

from records import check_record

CASES = [
    ("BFT 0/0 read-write", ProtocolOptions(), 0, 0, False),
    ("BFT 0/0 read-only", ProtocolOptions(), 0, 0, True),
    ("BFT 4/0 read-write", ProtocolOptions(), 4, 0, False),
    ("BFT 0/4 read-write", ProtocolOptions(), 0, 4, False),
    ("BFT-PK 0/0 read-write", ProtocolOptions().as_bft_pk(), 0, 0, False),
]


def run_experiment() -> ExperimentTable:
    table = ExperimentTable("E6", "Analytic model vs simulator (latency, us)")
    for label, options, arg_kb, result_kb, read_only in CASES:
        cluster = BFTCluster.create(f=1, service_factory=NullService,
                                    options=options, checkpoint_interval=256)
        measured = measure_latency(
            cluster, micro_operation(arg_kb, result_kb, read_only=read_only),
            samples=6, read_only=read_only,
        ).mean
        model = LatencyModel(n=4, auth_mode=options.auth_mode,
                             tentative_execution=options.tentative_execution,
                             digest_replies=options.digest_replies)
        if read_only:
            predicted = model.read_only_latency(arg_kb * 1024, result_kb * 1024)
        else:
            predicted = model.read_write_latency(arg_kb * 1024, result_kb * 1024)
        table.add_row(
            case=label,
            predicted_us=round(predicted, 1),
            measured_us=round(measured, 1),
            error=round(abs(predicted - measured) / measured, 3),
        )
    return table


def test_model_tracks_simulator(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)
    for row in table.rows:
        assert row["error"] < 0.75, f"model off by more than 75% for {row['case']}"
    # The common cases are tracked tightly.
    assert table.row_for(case="BFT 0/0 read-write")["error"] < 0.25
    assert table.row_for(case="BFT 0/0 read-only")["error"] < 0.25
    # The model preserves the ordering of the BFT cases.
    measured = {row["case"]: row["measured_us"] for row in table.rows}
    predicted = {row["case"]: row["predicted_us"] for row in table.rows}
    for metric in (measured, predicted):
        assert metric["BFT 0/0 read-only"] < metric["BFT 0/0 read-write"]
        assert metric["BFT 0/0 read-write"] < metric["BFT-PK 0/0 read-write"]

"""Benchmark harness and workload generators for the evaluation chapter."""

from repro.bench.workloads import (
    micro_operation,
    kv_churn_operation,
    kv_mixed_operation,
    measure_latency,
    measure_throughput,
    preload_kv_state,
    preload_sharded_kv_state,
    run_closed_loop,
    run_kv_mixed,
    run_kv_value_churn,
    zipf_cdf,
    zipf_group_load,
    zipf_key_sequences,
    LatencyResult,
    ThroughputResult,
)
from repro.bench.harness import ExperimentTable

__all__ = [
    "micro_operation",
    "kv_churn_operation",
    "kv_mixed_operation",
    "measure_latency",
    "measure_throughput",
    "preload_kv_state",
    "preload_sharded_kv_state",
    "run_closed_loop",
    "run_kv_mixed",
    "run_kv_value_churn",
    "zipf_cdf",
    "zipf_group_load",
    "zipf_key_sequences",
    "LatencyResult",
    "ThroughputResult",
    "ExperimentTable",
]

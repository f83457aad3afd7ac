"""E18 — batch-execution pipeline wall-clock benchmark (Section 5.1.4).

The paper's throughput case rests on batching: one protocol instance
orders many requests, so per-request cost must be dominated by execution,
not bookkeeping.  This PR rewrites the replica's commit side as a batch
pipeline — one ``Service.execute_batch`` call per committed batch
(memoized operation parsing, one dirty-set pass), a single modular
reduction for the reply-table AdHash delta, bulk reply construction with
memoized result digests, a per-batch point-to-point signer, ``send_many``
delivery trains and train fast-dispatch in the scheduler.

Workloads run closed-loop with enough clients to fill batches
(``pipeline_depth=1`` makes batches form, Section 5.1.4) at
``max_batch_size`` 16 and 64, under KV value churn (headline), a 50%%
read mixed workload, and the new Zipfian skewed-key churn.  Each row is
measured three ways in one process:

* **optimized** — every hot-path switch on;
* **baseline**  — every hot-path switch off (``caches_disabled`` +
  ``batch_execution_disabled``): the per-request execution stack the
  E13/E14 records also baseline against.  The headline is this ratio;
* **pipeline-off** — only ``batch_execution_disabled``: isolates this
  PR's pipeline from the PR-1/2 caches; recorded per row as
  ``pipeline_speedup`` (the commit-side path is ~a third of the whole
  simulator, so Amdahl bounds it well below the headline).

Modeled results (completions, ops/sec, latency, batch sizes, views) must
be bit-identical across every toggle combination — the pipeline only
changes how fast the simulator runs — and that identity is what the test
asserts.  Both speedups are *reported, not gated*: they compare the
current code with twins kept in the tree, so work that speeds up every
side moves them for reasons unrelated to correctness (absolute numbers
live in ``perf/``).  A record run (``BENCH_RECORD=1``, full scale) writes
``BENCH_batchexec.json`` at the repo root and ``results/E18.json``;
``benchmarks/check_regression.py`` validates the record's shape in
``--smoke``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro import hotpath
from repro.bench import (
    ExperimentTable,
    StopWatch,
    preload_kv_state,
    run_kv_mixed,
    run_kv_value_churn,
    run_kv_zipfian,
)
from repro.core.config import DEFAULT_OPTIONS
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore

from output_paths import BENCH_DIR

BENCH_PATH = os.path.join(BENCH_DIR, "BENCH_batchexec.json")


def _run_once(generator: str, f: int, clients: int, ops_per_client: int,
              max_batch_size: int, checkpoint_interval: int,
              key_space: int, value_size: int, preload_keys: int) -> dict:
    """One closed-loop run; returns wall-clock plus modeled numbers."""
    options = dataclasses.replace(
        DEFAULT_OPTIONS, max_batch_size=max_batch_size, pipeline_depth=1
    )
    # Quiescent timers: E18 measures steady-state batched throughput, so
    # the view-change/retransmission machinery must not trigger on the
    # closed loop's queueing delays (E17 measures that regime on purpose).
    cluster = BFTCluster.create(
        f=f,
        service_factory=KeyValueStore,
        checkpoint_interval=checkpoint_interval,
        options=options,
        view_change_timeout=5_000_000.0,
        client_retransmission_timeout=2_000_000.0,
    )
    watch = StopWatch()
    if preload_keys:
        preload_kv_state(cluster, keys=preload_keys, value_size=value_size)
    if generator == "churn":
        result = run_kv_value_churn(
            cluster, clients, ops_per_client,
            key_space=key_space, value_size=value_size,
        )
    elif generator == "mixed":
        result = run_kv_mixed(
            cluster, clients, ops_per_client, read_fraction=0.5,
            key_space=key_space, value_size=value_size,
        )
    else:
        result = run_kv_zipfian(
            cluster, clients, ops_per_client,
            key_space=key_space, value_size=value_size, skew=0.99,
        )
    wall = watch.wall_seconds
    primary = cluster.primary_replica()
    batches = max(1, primary.metrics.batches_committed)
    return {
        "completed": result.completed,
        **watch.times(),
        "wall_ops_per_second": round(result.completed / wall, 1),
        "modeled_ops_per_second": round(result.ops_per_second, 1),
        "modeled_mean_latency_us": round(result.mean_latency, 3),
        "mean_batch_size": round(primary.metrics.requests_executed / batches, 2),
        "views": max(r.view for r in cluster.replicas.values()),
    }


def _best_of(runs: int, **kwargs) -> dict:
    best = None
    for _ in range(runs):
        sample = _run_once(**kwargs)
        if best is None or sample["wall_seconds"] < best["wall_seconds"]:
            best = sample
    return best


def _workloads(scale):
    base = {
        "f": 1,
        "clients": scale(96, 16),
        "ops_per_client": scale(40, 6),
        "checkpoint_interval": 4,
        "key_space": scale(256, 32),
        "value_size": scale(1024, 256),
        "preload_keys": scale(1024, 32),
    }
    return [
        # The headline leans checkpoint-heavy (interval 2 over a preloaded
        # store) so the baseline pays the full pre-optimization stack per
        # batch — re-encoded digests, deep-copy snapshots, per-request
        # execution — the way E14 sizes its churn.
        {"name": "f=1 KV churn, max_batch_size=64 (headline)",
         "generator": "churn", "max_batch_size": 64,
         **{**base, "checkpoint_interval": 2}},
        {"name": "f=1 KV churn, max_batch_size=16",
         "generator": "churn", "max_batch_size": 16,
         **{**base, "ops_per_client": scale(24, 6)}},
        {"name": "f=1 KV mixed 50% reads, max_batch_size=64",
         "generator": "mixed", "max_batch_size": 64,
         **{**base, "ops_per_client": scale(24, 6)}},
        {"name": "f=1 KV Zipfian skew 0.99, max_batch_size=64 (skewed)",
         "generator": "zipfian", "max_batch_size": 64,
         **{**base, "ops_per_client": scale(24, 6)}},
    ]


MODELED_KEYS = ("completed", "modeled_ops_per_second",
                "modeled_mean_latency_us", "mean_batch_size", "views")


def _modeled(run: dict) -> dict:
    return {key: run[key] for key in MODELED_KEYS}


def _measure_row(workload: dict, repeats: int) -> dict:
    workload = dict(workload)
    name = workload.pop("name")
    with hotpath.batch_execution_disabled(), hotpath.caches_disabled():
        baseline = _best_of(repeats, **workload)
    with hotpath.batch_execution_disabled():
        pipeline_off = _best_of(repeats, **workload)
    optimized = _best_of(repeats, **workload)
    return {
        "workload": name,
        **workload,
        "baseline": baseline,
        "pipeline_off": pipeline_off,
        "optimized": optimized,
        "speedup": round(
            optimized["wall_ops_per_second"] / baseline["wall_ops_per_second"], 2
        ),
        "pipeline_speedup": round(
            optimized["wall_ops_per_second"]
            / pipeline_off["wall_ops_per_second"], 2
        ),
    }


def run_experiment(smoke: bool, scale) -> dict:
    repeats = scale(2, 1)
    workloads = _workloads(scale)
    macro = [_measure_row(workload, repeats) for workload in workloads]
    headline = macro[0]
    return {
        "experiment": "batch-execution",
        "smoke": smoke,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "headline_workload": headline["workload"],
        "headline_speedup": headline["speedup"],
        "headline_pipeline_speedup": headline["pipeline_speedup"],
        "macro": macro,
    }


def test_batch_execution_speedup(benchmark, results_dir, bench_smoke, bench_scale):
    report = benchmark.pedantic(run_experiment, args=(bench_smoke, bench_scale),
                                rounds=1, iterations=1)

    table = ExperimentTable(
        "E18", "Batch-execution pipeline wall-clock throughput"
    )
    for row in report["macro"]:
        table.add_row(
            workload=row["workload"],
            baseline_ops_s=row["baseline"]["wall_ops_per_second"],
            optimized_ops_s=row["optimized"]["wall_ops_per_second"],
            speedup=row["speedup"],
            pipeline_speedup=row["pipeline_speedup"],
            mean_batch=row["optimized"]["mean_batch_size"],
        )
    table.print()
    table.save(results_dir)

    if not bench_smoke:
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)

    # The pipeline must never change the modeled protocol results: every
    # toggle combination executes the identical simulation.
    for row in report["macro"]:
        assert _modeled(row["baseline"]) == _modeled(row["optimized"]), row["workload"]
        assert _modeled(row["pipeline_off"]) == _modeled(row["optimized"]), row["workload"]

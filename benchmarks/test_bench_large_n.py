"""E20 — large-n communication mode: flat fan-out vs dissemination trees.

The paper's agreement phases are all-to-all, so one protocol round costs
O(n²) wire messages — the reason an f=10 (n=31) run crawls.  The
tree mode (``ProtocolOptions.dissemination="tree"``, ``net/overlay.py``)
routes PREPARE/COMMIT/CHECKPOINT over deterministic per-(view, sender)
relay trees and bundles entries per next hop, with the sender's
authenticator vector piggybacked (stripped per subtree) so authentication
stays end-to-end.

Two sweeps:

* **Replica-count sweep** — f ∈ {1, 2, 4, 6, 10}, flat vs tree on the
  same closed-loop workload, recording per-round protocol messages,
  authenticator bytes and wall/CPU ops/s from the shared ``net`` wire
  accounting (``NetworkStats.wire_totals``).  The headline gate is the
  f=10 per-round message ratio (flat / tree): a modeled, deterministic
  quantity.  The f=10 wall-clock speedup is *reported, not gated*: it
  hovered at 1.0-1.1x with a floor of 1.0, a coin flip, and work on the
  per-message path shared by both modes moves it for reasons unrelated
  to the trees (absolute costs live in ``perf/``).
* **Adversarial sweep** (NBFT-style) — tree mode under a silent interior
  relay, a tampering interior relay, and a mute primary, recording success
  rate, fallbacks/complaints, and the fallback cost (completion-time
  multiple over the clean tree run).  Every ≤f single-fault configuration
  must complete 100% of its operations.

Results land in ``BENCH_largen.json`` and ``results/E20.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import ExperimentTable, StopWatch, run_closed_loop
from repro.core.config import DEFAULT_OPTIONS
from repro.library import BFTCluster
from repro.services import KeyValueStore, NullService
from repro.sim.faults import FaultSpec, FaultType

from output_paths import BENCH_DIR

BENCH_PATH = os.path.join(BENCH_DIR, "BENCH_largen.json")

#: Required flat/tree per-round protocol-message ratio at f=10 (modeled,
#: deterministic — one run, no retry).
FULL_MESSAGE_RATIO_FLOOR = 3.0
#: Smoke runs stop at f=2 where the trees are shallow; the ratio is small
#: but must already exceed break-even.
SMOKE_MESSAGE_RATIO_FLOOR = 1.2

TREE_OPTIONS = DEFAULT_OPTIONS.with_tree_dissemination()
#: Message types that make up one agreement round on the wire.
AGREEMENT_TYPES = ("PrePrepare", "Prepare", "Commit", "Checkpoint", "Relay")


# ------------------------------------------------------------ replica sweep
def _disjoint_keys(client_index: int, op_index: int):
    # Per-client-disjoint keys so flat and tree runs are comparable
    # operation-for-operation (cross-client interleaving may differ
    # between the two modeled protocols).
    return (b"SET c%dk%d v%d" % (client_index, op_index, op_index), False)


def _sweep_run(f: int, clients: int, ops_per_client: int, options) -> dict:
    """One closed-loop run; wall/CPU plus the shared wire accounting."""
    cluster = BFTCluster.create(
        f=f, service_factory=NullService, checkpoint_interval=256,
        options=options,
    )
    watch = StopWatch()
    result = run_closed_loop(cluster, clients, ops_per_client,
                             operation_factory=_disjoint_keys)
    wall = watch.wall_seconds
    totals = cluster.network.stats.wire_totals()
    rounds = max(r.metrics.batches_committed for r in cluster.replicas.values())
    agreement = sum(totals["per_type"].get(t, 0) for t in AGREEMENT_TYPES)
    fallbacks = sum(d.stats.fallbacks for d in cluster.disseminators.values())
    return {
        "completed": result.completed,
        **watch.times(),
        "wall_ops_per_second": round(result.completed / wall, 1),
        "modeled_ops_per_second": round(result.ops_per_second, 1),
        "modeled_mean_latency_us": round(result.mean_latency, 3),
        "rounds": rounds,
        "agreement_messages": agreement,
        "per_round_messages": round(agreement / max(1, rounds), 1),
        "messages_sent": totals["messages_sent"],
        "payload_bytes": totals["payload_bytes"],
        "auth_bytes": totals["auth_bytes"],
        "fallbacks": fallbacks,
    }


def _measure_sweep_row(workload: dict) -> dict:
    baseline = _sweep_run(workload["f"], workload["clients"], workload["ops"],
                          DEFAULT_OPTIONS)
    optimized = _sweep_run(workload["f"], workload["clients"], workload["ops"],
                           TREE_OPTIONS)
    # Identical service-level outcome is a precondition of the comparison.
    assert baseline["completed"] == optimized["completed"]
    return {
        "workload": workload["name"],
        "f": workload["f"],
        "n": 3 * workload["f"] + 1,
        "clients": workload["clients"],
        "ops_per_client": workload["ops"],
        "baseline": baseline,
        "optimized": optimized,
        "message_ratio": round(
            baseline["per_round_messages"] / optimized["per_round_messages"], 2
        ),
        "auth_bytes_ratio": round(
            baseline["auth_bytes"] / max(1, optimized["auth_bytes"]), 2
        ),
        "wall_speedup": round(
            optimized["wall_ops_per_second"] / baseline["wall_ops_per_second"],
            2,
        ),
    }


def _sweep_workloads(scale, smoke: bool):
    clients = scale(16, 6)
    ops = scale(12, 6)
    workloads = [
        {"name": "f=1 flat vs tree", "f": 1, "clients": clients, "ops": ops},
        {"name": "f=2 flat vs tree", "f": 2, "clients": clients, "ops": ops},
    ]
    if not smoke:
        workloads += [
            {"name": "f=4 flat vs tree", "f": 4, "clients": 12, "ops": 8},
            {"name": "f=6 flat vs tree", "f": 6, "clients": 10, "ops": 8},
            {"name": "f=10 flat vs tree (headline)", "f": 10, "clients": 8,
             "ops": 6},
        ]
    return workloads


# --------------------------------------------------------- adversarial sweep
def _adversary_configs(smoke: bool):
    configs = [
        ("clean tree", None),
        # replica0 is the interior forwarder of every other root's view-0
        # tree (shared ring order), so both relay faults sit on the
        # busiest possible edge.
        ("silent relay", FaultSpec(node="replica0",
                                   fault=FaultType.SILENT_RELAY, start=0.0)),
    ]
    if not smoke:
        configs += [
            ("tampering relay", FaultSpec(node="replica0",
                                          fault=FaultType.TAMPER_RELAY,
                                          start=0.0)),
            ("mute primary", FaultSpec(node="replica0",
                                       fault=FaultType.MUTE_PRIMARY,
                                       start=0.0)),
        ]
    return configs


def _adversarial_run(fault, clients: int, ops_per_client: int) -> dict:
    cluster = BFTCluster.create(
        f=2, service_factory=KeyValueStore, checkpoint_interval=16,
        options=TREE_OPTIONS, view_change_timeout=100_000.0,
    )
    if fault is not None:
        cluster.inject_fault(fault)
    watch = StopWatch()
    result = run_closed_loop(cluster, clients, ops_per_client,
                             operation_factory=_disjoint_keys)
    expected = clients * ops_per_client
    exactly_once = result.per_client == [ops_per_client] * clients
    stats = [d.stats for d in cluster.disseminators.values()]
    return {
        "completed": result.completed,
        "expected": expected,
        "success_rate": round(result.completed / expected, 4),
        "exactly_once": exactly_once,
        **watch.times(),
        "modeled_completion_us": round(cluster.now, 1),
        "complaints": sum(s.complaints_sent for s in stats),
        "fallbacks": sum(s.fallbacks for s in stats),
        "tampered_deliveries": sum(s.tampered_deliveries for s in stats),
        "final_view": cluster.agreement_view(),
    }


def _adversarial_sweep(scale, smoke: bool) -> list:
    clients = scale(6, 4)
    ops = scale(24, 8)
    rows = []
    clean_time = None
    for name, fault in _adversary_configs(smoke):
        row = {"config": name, **_adversarial_run(fault, clients, ops)}
        if clean_time is None:
            clean_time = row["modeled_completion_us"]
        # Fallback cost: how much longer the run took than the clean tree
        # run (watchdog windows + status retransmission until fallback).
        row["slowdown_vs_clean"] = round(
            row["modeled_completion_us"] / clean_time, 2
        )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------- test
def run_experiment(smoke: bool, scale) -> dict:
    macro = [_measure_sweep_row(w) for w in _sweep_workloads(scale, smoke)]
    adversarial = _adversarial_sweep(scale, smoke)
    headline = next(
        (row for row in macro if "headline" in row["workload"]), macro[-1]
    )
    return {
        "experiment": "largen",
        "smoke": smoke,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "headline_workload": headline["workload"],
        "headline_message_ratio": headline["message_ratio"],
        "headline_wall_speedup": headline["wall_speedup"],
        "macro": macro,
        "adversarial": adversarial,
    }


def test_large_n_dissemination(benchmark, results_dir, bench_smoke, bench_scale):
    report = benchmark.pedantic(run_experiment, args=(bench_smoke, bench_scale),
                                rounds=1, iterations=1)

    table = ExperimentTable(
        "E20", "Large-n dissemination: flat vs overlay trees + adversaries"
    )
    for row in report["macro"]:
        table.add_row(
            workload=row["workload"],
            flat_msgs_per_round=row["baseline"]["per_round_messages"],
            tree_msgs_per_round=row["optimized"]["per_round_messages"],
            message_ratio=row["message_ratio"],
            auth_bytes_ratio=row["auth_bytes_ratio"],
            wall_speedup=row["wall_speedup"],
        )
    for row in report["adversarial"]:
        table.add_row(
            workload=f"adversary: {row['config']}",
            success_rate=row["success_rate"],
            fallbacks=row["fallbacks"],
            slowdown=row["slowdown_vs_clean"],
        )
    table.print()
    table.save(results_dir)

    if not bench_smoke:
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)

    # Tree mode must never change the service-level outcome...
    for row in report["macro"]:
        assert row["baseline"]["completed"] == row["optimized"]["completed"]
        # ...and the clean sweeps must not silently degrade to flat.
        assert row["optimized"]["fallbacks"] == 0
    # Every ≤f adversarial configuration completes 100% of its operations.
    for row in report["adversarial"]:
        assert row["success_rate"] == 1.0, row
        assert row["exactly_once"], row

    floor = SMOKE_MESSAGE_RATIO_FLOOR if bench_smoke else FULL_MESSAGE_RATIO_FLOOR
    assert report["headline_message_ratio"] >= floor, (
        f"per-round message ratio {report['headline_message_ratio']}x below "
        f"{floor}x (see {BENCH_PATH})"
    )

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
  same closed-loop workload, recording per-round protocol messages and
  authenticator bytes from the shared ``net`` wire accounting
  (``NetworkStats.wire_totals``).  The headline gate is the f=10
  per-round message ratio (flat / tree): a modeled, deterministic
  quantity.  Wall-clock cost is not recorded here; absolute costs live
  in ``perf/``.
* **Adversarial sweep** (NBFT-style) — tree mode under a silent interior
  relay, a tampering interior relay, and a mute primary, recording success
  rate, fallbacks, and the fallback cost (completion-time multiple over
  the clean tree run).  Every ≤f single-fault configuration must complete
  100% of its operations, each exactly once.

The committed ``results/E20.json`` pins every value in the table.
"""

from __future__ import annotations

from repro.bench import ExperimentTable, run_closed_loop
from repro.core.config import DEFAULT_OPTIONS
from repro.library import BFTCluster
from repro.services import KeyValueStore, NullService
from repro.sim.faults import FaultSpec, FaultType

from records import check_record

#: Required flat/tree per-round protocol-message ratio at f=10 (modeled,
#: deterministic — one run, no retry).
FULL_MESSAGE_RATIO_FLOOR = 3.0

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
    """One closed-loop run through the shared wire accounting."""
    cluster = BFTCluster.create(
        f=f, service_factory=NullService, checkpoint_interval=256,
        options=options,
    )
    result = run_closed_loop(cluster, clients, ops_per_client,
                             operation_factory=_disjoint_keys)
    totals = cluster.network.stats.wire_totals()
    rounds = max(r.metrics.batches_committed for r in cluster.replicas.values())
    agreement = sum(totals["per_type"].get(t, 0) for t in AGREEMENT_TYPES)
    return {
        "completed": result.completed,
        "per_round_messages": round(agreement / max(1, rounds), 1),
        "auth_bytes": totals["auth_bytes"],
        "fallbacks": sum(d.stats.fallbacks for d in cluster.disseminators.values()),
    }


SWEEP = [
    {"name": "f=1 flat vs tree", "f": 1, "clients": 16, "ops": 12},
    {"name": "f=2 flat vs tree", "f": 2, "clients": 16, "ops": 12},
    {"name": "f=4 flat vs tree", "f": 4, "clients": 12, "ops": 8},
    {"name": "f=6 flat vs tree", "f": 6, "clients": 10, "ops": 8},
    {"name": "f=10 flat vs tree (headline)", "f": 10, "clients": 8, "ops": 6},
]


# --------------------------------------------------------- adversarial sweep
ADVERSARIES = [
    ("clean tree", None),
    # replica0 is the interior forwarder of every other root's view-0
    # tree (shared ring order), so both relay faults sit on the
    # busiest possible edge.
    ("silent relay", FaultSpec(node="replica0",
                               fault=FaultType.SILENT_RELAY, start=0.0)),
    ("tampering relay", FaultSpec(node="replica0",
                                  fault=FaultType.TAMPER_RELAY, start=0.0)),
    ("mute primary", FaultSpec(node="replica0",
                               fault=FaultType.MUTE_PRIMARY, start=0.0)),
]
ADVERSARY_CLIENTS = 6
ADVERSARY_OPS = 24


def _adversarial_run(fault) -> dict:
    cluster = BFTCluster.create(
        f=2, service_factory=KeyValueStore, checkpoint_interval=16,
        options=TREE_OPTIONS, view_change_timeout=100_000.0,
    )
    if fault is not None:
        cluster.inject_fault(fault)
    result = run_closed_loop(cluster, ADVERSARY_CLIENTS, ADVERSARY_OPS,
                             operation_factory=_disjoint_keys)
    expected = ADVERSARY_CLIENTS * ADVERSARY_OPS
    return {
        "success_rate": round(result.completed / expected, 4),
        "fallbacks": sum(d.stats.fallbacks for d in cluster.disseminators.values()),
        "modeled_completion_us": round(cluster.now, 1),
        "exactly_once": result.per_client == [ADVERSARY_OPS] * ADVERSARY_CLIENTS,
    }


# ----------------------------------------------------------------------- test
def run_experiment() -> ExperimentTable:
    table = ExperimentTable(
        "E20", "Large-n dissemination: flat vs overlay trees + adversaries"
    )
    for workload in SWEEP:
        flat = _sweep_run(workload["f"], workload["clients"], workload["ops"],
                          DEFAULT_OPTIONS)
        tree = _sweep_run(workload["f"], workload["clients"], workload["ops"],
                          TREE_OPTIONS)
        # Tree mode must never change the service-level outcome.
        assert flat["completed"] == tree["completed"], workload["name"]
        table.add_row(
            workload=workload["name"],
            flat_msgs_per_round=flat["per_round_messages"],
            tree_msgs_per_round=tree["per_round_messages"],
            message_ratio=round(
                flat["per_round_messages"] / tree["per_round_messages"], 2
            ),
            auth_bytes_ratio=round(flat["auth_bytes"] / max(1, tree["auth_bytes"]), 2),
            completed=tree["completed"],
            fallbacks=tree["fallbacks"],
        )
    clean_time = None
    for name, fault in ADVERSARIES:
        run = _adversarial_run(fault)
        if clean_time is None:
            clean_time = run["modeled_completion_us"]
        table.add_row(
            workload=f"adversary: {name}",
            success_rate=run["success_rate"],
            fallbacks=run["fallbacks"],
            # Fallback cost: how much longer the run took than the clean
            # tree run (watchdog windows + status retransmission until
            # fallback).
            slowdown=round(run["modeled_completion_us"] / clean_time, 2),
            exactly_once=run["exactly_once"],
        )
    return table


def test_large_n_dissemination(benchmark):
    table = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table.print()
    check_record(table)

    sweep = [row for row in table.rows if "message_ratio" in row]
    adversarial = [row for row in table.rows if "success_rate" in row]
    # The clean sweeps must not silently degrade to flat.
    for row in sweep:
        assert row["fallbacks"] == 0, row
    # Every ≤f adversarial configuration completes 100% of its operations.
    for row in adversarial:
        assert row["success_rate"] == 1.0, row
        assert row["exactly_once"], row

    headline = table.row_for(workload="f=10 flat vs tree (headline)")
    assert headline["message_ratio"] >= FULL_MESSAGE_RATIO_FLOOR, (
        f"per-round message ratio {headline['message_ratio']}x below "
        f"{FULL_MESSAGE_RATIO_FLOOR}x"
    )

"""E17 — view-change storms under load (ROADMAP standing benchmark).

A closed-loop KV churn runs while the current primary is repeatedly muted
(the classic storm: each mute triggers failure detection, a view change,
and a new primary that is muted in turn).  The benchmark measures the
throughput cost of riding out the storms and stands guard over two
protocol properties:

* **liveness** — every operation completes despite the repeated primary
  failures (the view-change timeout doubling of Section 2.3.5 keeps the
  group live as long as at most f replicas are faulty at a time);
* **safety** — all replicas converge to one state digest afterwards.

The storm/no-storm slowdown is recorded in ``results/E17.json``.
"""

from __future__ import annotations

from repro.bench import ExperimentTable, run_kv_value_churn
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore
from repro.sim.events import EventKind
from repro.sim.faults import FaultSpec, FaultType

from records import check_record

VIEW_CHANGE_TIMEOUT = 120_000.0
RETRANSMISSION_TIMEOUT = 60_000.0
#: The mute window comfortably covers the detection timeout, so an
#: injection while the base timeout applies forces a view change.  The
#: driver never lets two windows overlap: PBFT promises liveness only
#: with at most f replicas faulty *at a time*, and overlapping mutes of
#: successive primaries would breach that assumption (the group then
#: spins through views without progress until the windows lapse).
STORM_WINDOW = 200_000.0
#: The storm driver polls the group at this interval and mutes the
#: *current* primary as soon as the previous view change has resolved —
#: back-to-back primary failures for as long as the churn is in flight.
STORM_TICK = 10_000.0


def _storm_run(
    injections: int,
    num_clients: int,
    ops_per_client: int,
    key_space: int,
    value_size: int,
) -> dict:
    """One deterministic churn run with ``injections`` primary mutes."""
    cluster = BFTCluster.create(
        f=1,
        service_factory=KeyValueStore,
        checkpoint_interval=16,
        view_change_timeout=VIEW_CHANGE_TIMEOUT,
        client_retransmission_timeout=RETRANSMISSION_TIMEOUT,
    )
    expected = num_clients * ops_per_client
    muted = []
    last_injected_view = -1
    last_window_end = 0.0

    def completed() -> int:
        # One request outstanding per client, timestamps 1, 2, ...: the
        # newest completion's timestamp counts the client's completions.
        return sum(
            client.last_completed().timestamp
            for client in cluster.clients.values() if client.last_completed()
        )

    def storm_tick() -> None:
        nonlocal last_injected_view, last_window_end
        if len(muted) >= injections or completed() >= expected:
            return
        view = cluster.agreement_view()
        now = cluster.now
        if view > last_injected_view and now >= last_window_end:
            # The previous storm has resolved AND its mute window has
            # lapsed (at most f=1 replica faulty at a time): mute the
            # primary the group currently depends on.
            primary = cluster.config.primary_of(view)
            cluster.inject_fault(
                FaultSpec(
                    node=primary,
                    fault=FaultType.MUTE_PRIMARY,
                    start=now,
                    end=now + STORM_WINDOW,
                )
            )
            muted.append(primary)
            last_injected_view = view
            last_window_end = now + STORM_WINDOW
        cluster.scheduler.schedule_after(
            STORM_TICK, EventKind.INTERNAL, "storm", callback=storm_tick
        )

    if injections:
        cluster.scheduler.schedule_after(
            STORM_TICK, EventKind.INTERNAL, "storm", callback=storm_tick
        )

    churn = run_kv_value_churn(
        cluster,
        num_clients,
        ops_per_client,
        key_space=key_space,
        value_size=value_size,
    )
    # Let in-flight protocol traffic settle before comparing state.
    cluster.run(duration=4 * VIEW_CHANGE_TIMEOUT)
    digests = {r.service.state_digest() for r in cluster.replicas.values()}
    return {
        "injections": len(muted),
        "muted": tuple(muted),
        "completed": churn.completed,
        "elapsed_us": round(churn.elapsed, 3),
        "ops_per_second": round(churn.ops_per_second, 2),
        "view_changes_completed": sum(
            r.metrics.view_changes_completed for r in cluster.replicas.values()
        ),
        "final_view": cluster.agreement_view(),
        "executed": tuple(sorted(cluster.executed_counts().items())),
        "digests_converged": len(digests) == 1,
    }


def run_experiment() -> dict:
    workload = {
        "num_clients": 4,
        #: Enough that the churn outlasts every planned mute: 300 drained
        #: after five once a busy primary batched all it had queued.
        "ops_per_client": 400,
        "key_space": 64,
        "value_size": 1024,
    }
    injections = 6
    calm = _storm_run(0, **workload)
    storm = _storm_run(injections, **workload)
    return {
        "workload": workload,
        "calm": calm,
        "storm": storm,
        "slowdown": round(
            storm["elapsed_us"] / max(1.0, calm["elapsed_us"]), 2
        ),
        "expected_ops": workload["num_clients"] * workload["ops_per_client"],
        "injections": injections,
    }


def test_view_change_storm_under_load(benchmark):
    report = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = ExperimentTable(
        "E17", "View-change storms under load: liveness and throughput cost"
    )
    for label in ("calm", "storm"):
        run = report[label]
        table.add_row(
            scenario=label,
            injections=run["injections"],
            completed=run["completed"],
            ops_per_second=run["ops_per_second"],
            view_changes=run["view_changes_completed"],
            final_view=run["final_view"],
            slowdown=None if label == "calm" else report["slowdown"],
        )
    table.print()
    check_record(table)

    calm, storm = report["calm"], report["storm"]
    # Liveness: every operation completes, with and without the storm.
    assert calm["completed"] == report["expected_ops"]
    assert storm["completed"] == report["expected_ops"]
    # The storm really stormed: every planned mute fired while the churn
    # was in flight, each on the then-current primary.
    assert storm["injections"] == report["injections"]
    # Each mute hit the primary of a strictly later view, so the group
    # moved through at least one view per injection.
    assert storm["final_view"] >= storm["injections"]
    assert storm["view_changes_completed"] > calm["view_changes_completed"]
    # Safety: one state digest on both sides of the storm.
    assert calm["digests_converged"]
    assert storm["digests_converged"]
    # Storms cost throughput (detection timeouts), never operations.
    assert report["slowdown"] >= 1.0

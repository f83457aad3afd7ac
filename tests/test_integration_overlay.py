"""End-to-end certification of the tree dissemination mode against the
flat protocol: identical client-visible results and final service state
across the fault-injection matrix, end-to-end rejection of tampering
relays, watchdog fallback liveness under a silent interior relay, and the
flat/tree-invariant ordering of per-message fault checks on the batched
send path."""

from __future__ import annotations

import pytest

from repro.bench import run_closed_loop
from repro.core.config import DEFAULT_OPTIONS
from repro.library import BFTCluster
from repro.services import KeyValueStore
from repro.sim.faults import FaultSpec, FaultType
from tests.conftest import record_completions

TREE = DEFAULT_OPTIONS.with_tree_dissemination()


def _disjoint_keys(client_index: int, op_index: int):
    """Per-client-disjoint keys: cross-client interleaving may differ
    between dissemination modes (they are different modeled protocols), so
    the workloads certified for state equality avoid write races."""
    return (b"SET c%dk%d v%d" % (client_index, op_index, op_index), False)


def _run(options, faults=(), clients=4, ops=10, f=2, drain=400_000.0):
    """The cluster, the closed loop's result and every completion record."""
    cluster = BFTCluster.create(f=f, service_factory=KeyValueStore,
                                checkpoint_interval=8, options=options)
    for fault in faults:
        cluster.inject_fault(fault)
    completions = record_completions(cluster)
    result = run_closed_loop(cluster, clients, ops,
                             operation_factory=_disjoint_keys)
    cluster.run(duration=drain)
    return cluster, result, completions


def _state_of(cluster, exclude=()):
    return {
        rid: replica.service.state_digest()
        for rid, replica in cluster.replicas.items()
        if rid not in exclude
    }


#: One fault configuration per row: (label, fault specs, replicas whose
#: state is allowed to diverge).  All are ≤f at f=2.
FAULT_MATRIX = [
    ("clean", (), ()),
    ("corrupt replies", (FaultSpec(node="replica3", fault=FaultType.CORRUPT_REPLY,
                                   start=0.0),), ()),
    ("crashed backup", (FaultSpec(node="replica4", fault=FaultType.CRASH,
                                  start=0.0),), ("replica4",)),
    ("dropping backup", (FaultSpec(node="replica5", fault=FaultType.DROP_MESSAGES,
                                   probability=0.3, start=0.0),), ()),
]


@pytest.mark.parametrize("label,faults,exclude",
                         FAULT_MATRIX, ids=[r[0] for r in FAULT_MATRIX])
def test_tree_matches_flat_across_fault_matrix(label, faults, exclude):
    flat_cluster, flat_result, flat_completions = _run(DEFAULT_OPTIONS, faults)
    tree_cluster, tree_result, tree_completions = _run(TREE, faults)

    assert flat_result.per_client == tree_result.per_client
    flat_results = sorted((c.operation, c.result) for c in flat_completions)
    tree_results = sorted((c.operation, c.result) for c in tree_completions)
    assert flat_results == tree_results

    flat_state = set(_state_of(flat_cluster, exclude).values())
    tree_state = set(_state_of(tree_cluster, exclude).values())
    # Within each mode all non-faulty replicas agree, and both modes agree
    # with each other.
    assert len(flat_state) == 1
    assert flat_state == tree_state


#: ``_run(TREE)``: 4 clients x 10 ops, f = 2 — completion latencies in
#: simulated microseconds, to the bit, and the one state digest all seven
#: replicas end on.
TREE_RUN_LATENCIES = [
    1504.781, 2231.0710000000004, 2246.9590000000003, 2262.847,
    1531.800000000001, 1378.254, 2091.927, 2091.927, 1860.583999999998,
    2000.8719999999998, 1861.703999999998, 1861.703999999998,
    1898.1440000000011, 1892.0759999999964, 2473.1640000000043,
    2473.164000000005, 2494.2040000000025, 2390.4260000000113,
    1825.4330000000045, 2406.6789999999983, 2419.8240000000005,
    2431.4680000000008, 2437.045999999993, 2489.2420000000075,
    2436.7519999999986, 2444.3240000000005, 2408.752000000002,
    2403.8559999999998, 2419.823999999995, 2444.5779999999904,
    2447.8239999999914, 2470.287999999993, 2436.751999999993,
    2425.923999999992, 2408.751999999993, 2398.4059999999845,
    2419.8359999999957, 2430.6639999999934, 2447.835999999992,
    2376.9159999999974,
]
TREE_RUN_STATE_DIGEST = "0385da20aecc05d4ce0ad1ffbc13ec70"


def test_tree_mode_is_bit_identical_across_cache_toggles():
    """A tree-mode run is pinned to the bit: how the simulator computes an
    encoding or a digest must not change any modeled result (the id dates
    from a switch between two such ways; the literal is the reference now)."""
    cluster, result, _ = _run(TREE)
    assert result.per_client == [10, 10, 10, 10]
    assert result.latencies == TREE_RUN_LATENCIES
    assert {rid: d.hex() for rid, d in _state_of(cluster).items()} == {
        f"replica{i}": TREE_RUN_STATE_DIGEST for i in range(7)
    }


def test_tampering_relay_is_rejected_end_to_end():
    """An interior relay that corrupts forwarded payloads is detected by
    every honest downstream receiver (the root's MACs no longer verify),
    reported to the roots, and masked: every operation still completes.
    replica0 is the interior forwarder of every other root's view-0 tree."""
    tamper = FaultSpec(node="replica0", fault=FaultType.TAMPER_RELAY, start=0.0)
    cluster, result, _ = _run(TREE, (tamper,), clients=4, ops=8)

    assert result.per_client == [8] * 4
    rejected = sum(r.metrics.messages_rejected for r in cluster.replicas.values())
    tampered = sum(d.stats.tampered_deliveries
                   for d in cluster.disseminators.values())
    assert rejected > 0 and tampered > 0
    # The victimized roots heard the complaints and went direct.
    assert sum(d.stats.fallbacks for d in cluster.disseminators.values()) > 0
    assert len(set(_state_of(cluster).values())) == 1


def test_watchdog_restores_tree_liveness_under_silent_relay():
    """A silent interior relay stalls relayed delivery; the watchdog
    notices silence-despite-progress, complains, and the roots fall back to
    direct transmission — every operation completes and the group stays
    consistent.  The run is long enough for several watchdog periods."""
    silent = FaultSpec(node="replica0", fault=FaultType.SILENT_RELAY, start=0.0)
    cluster, result, _ = _run(TREE, (silent,), clients=4, ops=24)

    assert result.per_client == [24] * 4
    stats = [d.stats for d in cluster.disseminators.values()]
    assert sum(s.watchdog_firings for s in stats) > 0
    assert sum(s.complaints_sent for s in stats) > 0
    assert sum(s.fallbacks for s in stats) > 0
    assert len(set(_state_of(cluster).values())) == 1


def test_clean_tree_run_never_falls_back():
    """The silence watchdog must not fire spuriously under continuous
    fault-free traffic (a spurious fallback would silently disable the
    optimization and poison the E20 message-ratio record)."""
    cluster, result, _ = _run(TREE, clients=4, ops=32)
    assert result.per_client == [32] * 4
    stats = [d.stats for d in cluster.disseminators.values()]
    assert sum(s.complaints_sent for s in stats) == 0
    assert sum(s.fallbacks for s in stats) == 0


def test_mute_primary_during_tree_mode_recovers_via_view_change():
    """A mute primary while trees are active: backups time out, elect a
    new view, and the trees rotate with it — requests keep completing."""
    mute = FaultSpec(node="replica0", fault=FaultType.MUTE_PRIMARY, start=0.0)
    cluster = BFTCluster.create(f=2, service_factory=KeyValueStore,
                                checkpoint_interval=8, options=TREE,
                                view_change_timeout=100_000.0)
    cluster.inject_fault(mute)
    client = cluster.new_client()
    for i in range(4):
        assert client.invoke(b"SET k%d v%d" % (i, i),
                             timeout=120_000_000) == b"OK"
    assert cluster.agreement_view() > 0


def test_batched_send_path_applies_relay_faults_in_flat_order():
    """Satellite audit: ``ProtocolNode._transmit_many`` must run the
    per-message fault checks in the same order (and with the same RNG
    draws) as sending each copy on its own did, including when the sender
    is a relay flushing bundles.  A probabilistic drop fault on the
    view-0 interior forwarder makes any ordering divergence visible as a
    different drop pattern, hence different modeled results.

    The literals are the run as every handler flush went out copy by copy,
    captured while that path was still selectable and this test showed the
    two agree, and recaptured when a busy primary began to drain its input
    before proposing: the first operation, alone in batch 1, then commits
    only in the 200 ms status round (its COMMITs are relayed through the
    dropping forwarder), 101,188.5 -> 200,691.4 µs; and again when the
    primary began to wait for a backup's PREPARE before its next proposal.
    Since then ``SET c0k6`` waits 3.45 s: its batch commits at 1.50 s, but
    every re-sent reply is rebuilt tentative, and four tentative replies
    are one short of 2f + 1 until the dropping primary's own gets
    through."""
    drop = FaultSpec(node="replica0", fault=FaultType.DROP_MESSAGES,
                     probability=0.4, start=0.0)
    cluster, result, _ = _run(TREE, (drop,), clients=3, ops=8)

    assert result.per_client == [8, 8, 8]
    assert result.latencies == PER_MESSAGE_PATH_LATENCIES
    assert cluster.network.stats.messages_dropped == 0
    # (The run ends with two replicas behind, stuck changing view.)
    assert {
        rid: state.hex() for rid, state in _state_of(cluster).items()
    } == {
        "replica0": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica1": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica2": "48f19c8d9c81f5064a18ff709334527a",
        "replica3": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica4": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica5": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica6": "48f19c8d9c81f5064a18ff709334527a",
    }


PER_MESSAGE_PATH_LATENCIES = [
    200708.13899999994, 200857.03900000005, 200872.92700000005,
    299985.52000000037, 299852.5080000002, 299885.00399999996,
    711.0370000003022, 300141.9490000001, 299511.0719999996,
    100263.87700000044, 450172.752, 399742.18299999833,
    299510.08199999796, 249807.42799999833, 100066.14200000162,
    100243.05100000137, 100243.05100000137, 599902.7439999992,
    599902.7439999992, 450172.75199999986, 499891.4099999999,
    99684.16099999985, 3450172.7520000003, 670.7769999979064,
]

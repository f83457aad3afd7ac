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

TREE = DEFAULT_OPTIONS.with_tree_dissemination()


def _disjoint_keys(client_index: int, op_index: int):
    """Per-client-disjoint keys: cross-client interleaving may differ
    between dissemination modes (they are different modeled protocols), so
    the workloads certified for state equality avoid write races."""
    return (b"SET c%dk%d v%d" % (client_index, op_index, op_index), False)


def _run(options, faults=(), clients=4, ops=10, f=2, drain=400_000.0):
    cluster = BFTCluster.create(f=f, service_factory=KeyValueStore,
                                checkpoint_interval=8, options=options)
    for fault in faults:
        cluster.inject_fault(fault)
    result = run_closed_loop(cluster, clients, ops,
                             operation_factory=_disjoint_keys)
    cluster.run(duration=drain)
    return cluster, result


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
    flat_cluster, flat_result = _run(DEFAULT_OPTIONS, faults)
    tree_cluster, tree_result = _run(TREE, faults)

    assert flat_result.per_client == tree_result.per_client
    flat_results = sorted((c.operation, c.result) for c in flat_cluster.completed)
    tree_results = sorted((c.operation, c.result) for c in tree_cluster.completed)
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
    1789.181, 2972.3990000000003, 2988.2870000000003, 3004.175,
    2003.4440000000027, 1733.9309999999969, 2692.9529999999986,
    2692.9529999999986, 1920.390999999996, 2017.2799999999943,
    1853.2539999999963, 3118.8449999999957, 3118.8449999999966,
    2124.1390000000047, 2197.340000000013, 1945.8100000000086,
    2595.5760000000064, 2602.968000000006, 1734.7709999999952,
    1951.8350000000028, 1739.9180000000051, 2212.6040000000085,
    2212.6040000000085, 1868.6500000000124, 2094.0090000000146,
    1613.9310000000114, 2857.5990000000074, 1970.4279999999999,
    1842.2450000000008, 2250.274999999994, 1726.6239999999998,
    2933.579999999998, 2398.554999999993, 2737.483000000004,
    2017.4660000000003, 1404.3950000000077, 2477.983000000011,
    2314.569000000003, 2857.678999999993, 2263.793999999987,
]
TREE_RUN_STATE_DIGEST = "0385da20aecc05d4ce0ad1ffbc13ec70"


def test_tree_mode_is_bit_identical_across_cache_toggles():
    """A tree-mode run is pinned to the bit: how the simulator computes an
    encoding or a digest must not change any modeled result (the id dates
    from a switch between two such ways; the literal is the reference now)."""
    cluster, result = _run(TREE)
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
    cluster, result = _run(TREE, (tamper,), clients=4, ops=8)

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
    cluster, result = _run(TREE, (silent,), clients=4, ops=24)

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
    cluster, result = _run(TREE, clients=4, ops=32)
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
    draws) as the per-message ``_transmit`` path, including when the sender
    is a relay flushing bundles.  A probabilistic drop fault on the
    view-0 interior forwarder makes any ordering divergence visible as a
    different drop pattern, hence different modeled results.

    The literals are the run as every handler flush went out copy by copy
    through ``_transmit`` (captured at the parent of PR 21, where that was
    still selectable and this test showed the two agree)."""
    drop = FaultSpec(node="replica0", fault=FaultType.DROP_MESSAGES,
                     probability=0.4, start=0.0)
    cluster, result = _run(TREE, (drop,), clients=3, ops=8)

    assert result.per_client == [8, 8, 8]
    assert result.latencies == PER_MESSAGE_PATH_LATENCIES
    assert cluster.network.stats.messages_dropped == 0
    # (The run ends with the replicas spread over three states.)
    assert {
        rid: state.hex() for rid, state in _state_of(cluster).items()
    } == {
        "replica0": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica1": "78968ce33a482bf21e9507861aca91e5",
        "replica2": "a01f550c6dd61f13d463bbf6eeb03dd6",
        "replica3": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica4": "78968ce33a482bf21e9507861aca91e5",
        "replica5": "075a7e3d73d8ffe3612a5b50499e441e",
        "replica6": "075a7e3d73d8ffe3612a5b50499e441e",
    }


PER_MESSAGE_PATH_LATENCIES = [
    101188.53000000006, 200525.554, 200541.442, 199570.50700000013,
    200132.03200000018, 200371.88500000015, 100721.83700000017,
    1696.7470000004978, 99870.44499999977, 100477.41800000024,
    298338.6619999998, 199357.56400000036, 199334.02600000013,
    300603.6649999998, 450189.98400000005, 599350.5979999985,
    449796.0549999983, 1050207.7989999983, 199995.91200000024,
    199995.91200000024, 150025.5910000007, 299879.812000002,
    450172.75199999986, 299896.17700000014,
]

"""Golden determinism fingerprint of twelve small end-to-end runs.

Modeled results are the repo's contract: work on the simulator's own
speed must leave every modeled charge, event sequence number, RNG draw and
wire byte where it was.  The benchmark's bounds (6-12 %) would let a
regrouped float sum or a reordered random draw through; this test does
not.  Each configuration below runs a short closed loop and records

* the sorted client completion times, as exact floats,
* ``NetworkStats.wire_totals()``,
* ``Scheduler.dispatched``,
* every replica node's ``cpu_busy_total``, and
* every replica's final service state digest

(for the sharded configuration, every group's replicas; for the
unreplicated one, the server's),

and ``GOLDEN`` holds the values captured from the commit *before* the
per-message fast path (parent of PR 12) — for ``null_f10``, the n = 31
configuration delivery trains were built for, from the commit before those
(parent of PR 13), and for ``kv_f1_dropping_primary`` from the commit before
the per-request execution twin was deleted (parent of PR 21), where it was
identical under all four ``batch execution x caches`` switch settings, and for
``kv_f1_page_transfer`` from the commit before tree pages became payloads
(parent of PR 22); that one also records the lagging replica's transfer
counters, so the bytes of every META-DATA and DATA message are pinned.
``kv_f1_wide_batches`` (48 closed-loop clients writing 512-byte values, so
every request travels separately and the primary's queue outgrows
``max_batch_size``) was captured while a batch was bounded by its count of
requests, and moved on purpose once it was bounded by what its PRE-PREPARE
carries (last completion 18,127.7 -> 15,627.1 µs, 51 -> 27 PRE-PREPAREs).
``impaired_f1`` (duplication and jitter on every link, a replica corrupting
its replies) was captured at the commit before every send became a delivery
train, when each of its copies still took a heap slot of its own.
``sharded_g2`` (two groups on one clock, a backup of group 1 dropping a
tenth of its sends, so every group node's forked RNG stream is drawn
from) and ``unreplicated_null`` (the one-server baseline) were captured
before the three kinds of deployment shared one assembly path.  Values
have moved on purpose since: ``kv_f1_dropping_primary``'s tenth completion
time, 25,376.527 -> 25,360.639 µs, once a new primary proposed the
requests it already held; and, once read-only replies followed the
digest-replies rule, the completion times, busy totals and (where a read
returns a large value) payload bytes of ``kv_f2_checkpoints``,
``kv_f1_dropping_primary`` and ``sharded_g2``, from the first read whose
designated replier was another replica on (each 18.4 µs earlier); and
every literal but ``unreplicated_null``'s once a busy primary drained its
input before proposing and a status stopped asking for slots still in
flight at its sender, with ``kv_f1_dropping_primary`` moved from seed 25
at drop probability 0.2 (which then wedged) to seed 23 at 0.25; and every
literal but ``kv_f1_page_transfer``'s and ``unreplicated_null``'s once the
primary kept one unacknowledged PRE-PREPARE at a time (``impaired_f1`` 51
-> 36 PRE-PREPAREs, ``null_f10`` 6 -> 8 batches: at n = 31 the first
PREPARE comes back before the backlog that would have filled the batch
drains).  They must match to the bit.  MAC tag bytes are not part of the fingerprint (their
size is, through the wire totals), so swapping the MAC primitive leaves it
unchanged.

A change that means to move modeled results regenerates the literals with
``PYTHONPATH=src python -m tests.test_determinism_fingerprint`` and says
why in its PR.
"""

from __future__ import annotations

import contextlib
import pprint
from typing import Any, Callable, Dict, Iterator, List, Tuple

import pytest

from repro.baselines import UnreplicatedCluster
from repro.bench.workloads import run_closed_loop
from repro.core.config import ProtocolOptions
from repro.core.messages import Reply
from repro.core.replica import Replica
from repro.library import BFTCluster
from repro.library.cluster import SimEnv
from repro.net.conditions import NetworkConditions
from repro.services.interface import Service
from repro.services.kvstore import KeyValueStore
from repro.sharding import ShardedKVCluster
from repro.sim.events import DeliveryTrain, Event, EventKind
from repro.sim.faults import FaultSpec, FaultType
from repro.sim.scheduler import Scheduler
from tests.conftest import record_completions

#: Simulated µs of quiet after the loop, so status traffic, retransmissions
#: and trailing checkpoints are part of the fingerprint too.
SETTLE_US = 300_000.0


def _null_op(client: int, index: int) -> Tuple[bytes, bool]:
    return b"null:0:0:" + b"x" * ((client + index) % 5), False


def _kv_op(client: int, index: int) -> Tuple[bytes, bool]:
    key = b"key%03d" % ((client * 7 + index * 3) % 12)
    if index % 3 == 2:
        return b"GET " + key, True
    return b"SET " + key + b" " + bytes([65 + (client + index) % 26]) * 200, False


def _kv_ordered_op(client: int, index: int) -> Tuple[bytes, bool]:
    """``_kv_op`` with the GETs ordered too: their 200-byte results go
    through ``_execute_batch`` and are stripped by non-designated repliers."""
    return _kv_op(client, index)[0], False


def _null_f1() -> BFTCluster:
    return BFTCluster.create(f=1, seed=11)


def _kv_f2_checkpoints() -> BFTCluster:
    return BFTCluster.create(
        f=2, service_factory=KeyValueStore, seed=12, checkpoint_interval=4
    )


def _send_faults_f1() -> BFTCluster:
    cluster = BFTCluster.create(f=1, seed=13)
    cluster.inject_fault(
        FaultSpec(node="replica2", fault=FaultType.DROP_MESSAGES, probability=0.1)
    )
    cluster.inject_fault(
        FaultSpec(node="replica2", fault=FaultType.DELAY_MESSAGES, delay=300.0)
    )
    return cluster


def _lossy_f1() -> BFTCluster:
    return BFTCluster.create(
        f=1, seed=14, conditions=NetworkConditions(drop_probability=0.05)
    )


def _impaired_f1() -> BFTCluster:
    cluster = BFTCluster.create(
        f=1, seed=27,
        conditions=NetworkConditions(duplicate_probability=0.1, jitter=25.0),
    )
    cluster.inject_fault(FaultSpec(node="replica3", fault=FaultType.CORRUPT_REPLY))
    return cluster


def _null_f10() -> BFTCluster:
    return BFTCluster.create(f=10, seed=16)


def _tree_f2() -> BFTCluster:
    return BFTCluster.create(
        f=2, seed=15, options=ProtocolOptions().with_tree_dissemination()
    )


def _sharded_g2() -> ShardedKVCluster:
    sharded = ShardedKVCluster(groups=2, f=1, seed=28, checkpoint_interval=4)
    sharded.inject_fault(
        1, FaultSpec(node="g1:replica2", fault=FaultType.DROP_MESSAGES, probability=0.1)
    )
    return sharded


def _unreplicated_null() -> UnreplicatedCluster:
    return UnreplicatedCluster(seed=29)


#: When the dropping primary crashes, and the bound on the run: it finishes
#: at ~31 ms, but most neighbouring (seed, probability) pairs never do
#: (ROADMAP: the view-change x tentative-execution wedge; at probability 0.2
#: 48 of seeds 1-60 stop short, seed 25 among them, once the primary
#: drains its input before proposing; 43 before), so the loop must not be
#: ``run_closed_loop``'s simulated hour.  The change that fixes the wedge
#: regenerates this configuration's literal and says why.
DROPPING_PRIMARY_CRASH_US = 6_000.0
DROPPING_PRIMARY_BOUND_US = 1_000_000.0


def _kv_f1_dropping_primary() -> BFTCluster:
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, seed=23, checkpoint_interval=4,
        client_retransmission_timeout=1_500.0, view_change_timeout=20_000.0,
    )
    cluster.inject_fault(
        FaultSpec(node="replica0", fault=FaultType.DROP_MESSAGES, probability=0.25,
                  end=DROPPING_PRIMARY_CRASH_US)
    )
    cluster.inject_fault(
        FaultSpec(node="replica0", fault=FaultType.CRASH,
                  start=DROPPING_PRIMARY_CRASH_US)
    )
    return cluster


@contextlib.contextmanager
def _count_execution_branches(counts: Dict[str, int]) -> Iterator[None]:
    """Count, from outside the replica, the branches of the execution rule
    a run takes: digest replies (5.1.1), cached-reply re-sends (3.1) and
    tentative aborts (5.1.2); and, from outside the service, the rollbacks
    those aborts make (``Service.restore``)."""
    send = SimEnv.send
    execute_batch = Replica._execute_batch
    abort = Replica._abort_tentative_execution
    restore = Service.restore

    def counting_send(self, destination, message):
        if type(message) is Reply and message.result is None:
            counts["stripped_replies"] += 1
        send(self, destination, message)

    def counting_execute_batch(self, requests, nondet, tentative):
        last = self.last_reply_timestamp
        counts["cached_resends"] += sum(
            1 for request in requests
            if not request.is_null and request.timestamp == last.get(request.sender)
        )
        counts["multi_request_batches"] += len(requests) > 1
        execute_batch(self, requests, nondet, tentative)

    def counting_abort(self):
        counts["tentative_aborts"] += self.last_tentative > self.last_executed
        abort(self)

    def counting_restore(self, snapshot):
        counts["restores"] += 1
        restore(self, snapshot)

    SimEnv.send = counting_send
    Replica._execute_batch = counting_execute_batch
    Replica._abort_tentative_execution = counting_abort
    Service.restore = counting_restore
    try:
        yield
    finally:
        SimEnv.send = send
        Replica._execute_batch = execute_batch
        Replica._abort_tentative_execution = abort
        Service.restore = restore


def _drive_dropping_primary(
    cluster: BFTCluster, clients: int, ops_per_client: int, make_op: Callable
) -> List[int]:
    """``run_closed_loop`` with a bounded run, asserting that the run took
    every branch of the execution rule it is here to pin and rolled a
    service back at least once."""
    per_client = [0] * clients
    syncs = []

    def on_complete(index: int) -> Callable:
        def callback(_completed) -> None:
            per_client[index] += 1
            if per_client[index] < ops_per_client:
                operation, read_only = make_op(index, per_client[index])
                syncs[index].protocol.invoke(operation, read_only=read_only)
        return callback

    counts = dict.fromkeys(
        ("stripped_replies", "cached_resends", "multi_request_batches",
         "tentative_aborts", "restores"), 0
    )
    with _count_execution_branches(counts):
        for index in range(clients):
            syncs.append(cluster.new_client(on_complete=on_complete(index)))
            operation, read_only = make_op(index, 0)
            syncs[index].invoke_async(operation, read_only=read_only)
        cluster.run(
            stop_when=lambda: sum(per_client) >= clients * ops_per_client,
            duration=DROPPING_PRIMARY_BOUND_US,
        )
    # 14 / 6 / 45 / 2 / 2 when the literal was captured.
    assert all(counts.values()), counts
    return per_client


def _kv_f1_page_transfer() -> BFTCluster:
    return BFTCluster.create(
        f=1, service_factory=KeyValueStore, seed=26, checkpoint_interval=4
    )


def _kv_f1_wide_batches() -> BFTCluster:
    return BFTCluster.create(
        f=1, service_factory=KeyValueStore, seed=30, checkpoint_interval=4
    )


def _wide_batch_op(client: int, index: int) -> Tuple[bytes, bool]:
    """Ordered SETs of 512-byte values over 32 keys: each request is over
    the separate-transmission threshold, so a PRE-PREPARE carries only its
    digest and a batch may name more requests than ``max_batch_size``."""
    key = b"wide%02d" % ((client * 5 + index) % 32)
    return b"SET " + key + b" " + bytes([65 + (client + index) % 26]) * 512, False


def _page_transfer_op(_client: int, index: int) -> Tuple[bytes, bool]:
    """Ordered 1 KB SETs, every ninth operation a DEL: twelve keys written
    once each, then only the first seven over and over, so a replica that
    saw the first twelve operations already holds five of the pages."""
    key = b"page%02d" % (index if index < 12 else index * 5 % 7)
    if index % 9 == 8:
        return b"DEL " + key, False
    return b"SET " + key + b" " + bytes([97 + index % 26]) * 1024, False


#: Operations before replica3 is cut off, while it is, and after the heal.
PAGE_TRANSFER_PHASES = (12, 24, 6)
PAGE_TRANSFER_BOUND_US = 30_000_000.0


def _drive_page_transfer(cluster: BFTCluster, make_op: Callable) -> List[int]:
    """One client, one operation at a time; replica3 misses the middle
    phase behind a partition and catches up by page-level state transfer.
    Asserts the run fetched some pages and proved others identical."""
    client = cluster.new_client()
    issued = 0
    for phase, count in enumerate(PAGE_TRANSFER_PHASES):
        if phase == 1:
            for other in ("replica0", "replica1", "replica2", client.id):
                cluster.conditions.partition("replica3", other)
        elif phase == 2:
            cluster.conditions.heal_all()
        for _ in range(count):
            client.invoke(make_op(0, issued)[0])
            issued += 1
    lagging, healthy = cluster.replicas["replica3"], cluster.replicas["replica0"]
    cluster.run(
        stop_when=lambda: (
            lagging.stable_checkpoint_seq == healthy.stable_checkpoint_seq
            and not lagging.state_transfer.in_progress
        ),
        duration=PAGE_TRANSFER_BOUND_US,
    )
    metrics = lagging.state_transfer.metrics
    assert lagging.stable_checkpoint_seq == healthy.stable_checkpoint_seq
    assert metrics.transfers_completed and metrics.pages_fetched
    assert metrics.pages_skipped_local
    return [issued]


#: name -> (cluster factory, operation factory, clients, operations per client)
CONFIGURATIONS: Dict[str, Tuple[Callable[[], Any], Callable, int, int]] = {
    "null_f1": (_null_f1, _null_op, 5, 6),
    "kv_f2_checkpoints": (_kv_f2_checkpoints, _kv_op, 6, 9),
    "send_faults_f1": (_send_faults_f1, _null_op, 4, 6),
    "lossy_f1": (_lossy_f1, _null_op, 4, 6),
    "impaired_f1": (_impaired_f1, _null_op, 4, 6),
    "tree_f2": (_tree_f2, _null_op, 4, 5),
    "null_f10": (_null_f10, _null_op, 3, 3),
    "kv_f1_dropping_primary": (_kv_f1_dropping_primary, _kv_ordered_op, 5, 8),
    "kv_f1_page_transfer": (
        _kv_f1_page_transfer, _page_transfer_op, 1, sum(PAGE_TRANSFER_PHASES)
    ),
    "kv_f1_wide_batches": (_kv_f1_wide_batches, _wide_batch_op, 48, 4),
    "sharded_g2": (_sharded_g2, _kv_op, 4, 6),
    "unreplicated_null": (_unreplicated_null, _null_op, 4, 6),
}


def assert_one_slot_per_timer(scheduler: Scheduler) -> None:
    """The heap holds at most one slot per ``Timer`` plus one per train with
    rows still to deliver (internal actions aside): a restarted or stopped
    timer leaves nothing behind."""
    items = [item for _time, _sequence, item in scheduler._queue]
    timers = sum(len(node._timers) for node in scheduler.nodes.values())
    timer_slots = [
        item for item in items if type(item) is Event and item.kind is EventKind.TIMER
    ]
    assert len({id(event) for event in timer_slots}) == len(timer_slots) <= timers
    assert all(
        item.cursor < len(item.times) for item in items if type(item) is DeliveryTrain
    )


def _nodes_and_services(cluster: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The server nodes of any deployment and their services, by name:
    every group's replicas of a sharded cluster, or the one server."""
    if hasattr(cluster, "server_node"):
        return {"server": cluster.server_node}, {"server": cluster.service}
    groups = getattr(cluster, "group_clusters", [cluster])
    nodes = {rid: node for group in groups for rid, node in group.replica_nodes.items()}
    services = {rid: s for group in groups for rid, s in group.services.items()}
    return nodes, services


def settled_run(name: str) -> Tuple[Any, List[Any]]:
    """Run configuration ``name`` to the end of its loop and ``SETTLE_US``
    past it; returns the cluster and every completion, in order."""
    build, make_op, clients, ops_per_client = CONFIGURATIONS[name]
    cluster = build()
    completions = record_completions(cluster)
    if name == "kv_f1_dropping_primary":
        per_client = _drive_dropping_primary(cluster, clients, ops_per_client, make_op)
    elif name == "kv_f1_page_transfer":
        per_client = _drive_page_transfer(cluster, make_op)
    else:
        per_client = run_closed_loop(
            cluster, clients, ops_per_client, make_op
        ).per_client
    assert per_client == [ops_per_client] * clients
    cluster.run(duration=SETTLE_US)
    return cluster, completions


def fingerprint(name: str) -> Dict[str, Any]:
    cluster, completions = settled_run(name)
    assert_one_slot_per_timer(cluster.scheduler)
    nodes, services = _nodes_and_services(cluster)
    result = {
        "completion_times": sorted(c.completed_at for c in completions),
        "wire_totals": cluster.network.stats.wire_totals(),
        "dispatched": cluster.scheduler.dispatched,
        "cpu_busy_total": {rid: node.cpu_busy_total for rid, node in nodes.items()},
        "state_digests": {
            rid: service.state_digest().hex() for rid, service in services.items()
        },
    }
    if name == "kv_f1_page_transfer":
        metrics = cluster.replicas["replica3"].state_transfer.metrics
        result["transfer"] = {
            field: getattr(metrics, field)
            for field in ("bytes_fetched", "pages_fetched", "pages_skipped_local",
                          "metadata_messages", "fetch_messages")
        }
    return result


GOLDEN: Dict[str, Dict[str, Any]] = {}
GOLDEN["null_f1"] = \
{'completion_times': [455.3529999999999, 781.0069999999998, 796.8709999999999,
                      812.7349999999999, 828.5989999999999, 1258.5850000000005,
                      1584.2220000000007, 1600.0860000000007, 1615.9500000000007,
                      1631.8140000000008, 2091.1170000000006, 2416.7370000000014,
                      2432.6010000000015, 2448.4650000000015, 2464.3290000000015,
                      2923.649000000001, 3249.2520000000018, 3265.116000000002,
                      3280.980000000002, 3296.844000000002, 3756.1810000000023,
                      4081.815000000003, 4097.679000000003, 4113.543000000002,
                      4129.407000000003, 4588.132, 4913.881999999999, 4929.745999999998,
                      4945.609999999998, 4961.473999999997],
 'cpu_busy_total': {'replica0': 5446.313999999995,
                    'replica1': 4529.514000000001,
                    'replica2': 4529.514000000001,
                    'replica3': 4529.514000000001},
 'dispatched': 491,
 'state_digests': {'replica0': 'd37d6f9b076d9f0b3014d28f98ca1ef0',
                   'replica1': 'd37d6f9b076d9f0b3014d28f98ca1ef0',
                   'replica2': 'd37d6f9b076d9f0b3014d28f98ca1ef0',
                   'replica3': 'd37d6f9b076d9f0b3014d28f98ca1ef0'},
 'wire_totals': {'auth_bytes': 10656,
                 'messages_sent': 474,
                 'payload_bytes': 42456,
                 'per_type': {'Commit': 144,
                              'PrePrepare': 36,
                              'Prepare': 108,
                              'Reply': 120,
                              'Request': 30,
                              'StatusActive': 36}}}
GOLDEN["kv_f2_checkpoints"] = \
{'completion_times': [715.1690000000002, 1351.7860000000003, 1367.6740000000002,
                      1383.5620000000001, 1399.45, 1415.338, 2012.6549999999997,
                      2341.453, 2738.9779999999987, 2754.8659999999986,
                      2770.7539999999985, 2786.6419999999985, 3322.96, 3403.438,
                      3484.916, 3566.3940000000002, 3874.655, 4206.132000000001,
                      4566.880999999998, 5498.5679999999975, 5514.455999999997,
                      5530.343999999997, 5546.231999999997, 6153.373999999992,
                      6169.2619999999915, 6595.035999999991, 7132.719999999986,
                      7148.607999999986, 7164.4959999999855, 7180.3839999999855,
                      7468.841999999984, 7520.8519999999835, 7572.861999999983,
                      7624.871999999982, 7995.709999999989, 8325.507999999993,
                      8917.921999999988, 9965.064999999993, 9980.952999999994,
                      9996.840999999995, 10012.728999999996, 10028.616999999997,
                      10881.24199999999, 11176.92799999999, 11844.411, 11860.299,
                      11876.187000000002, 11892.075000000003, 11907.963000000003,
                      12167.037000000004, 12248.647000000004, 12300.657000000005,
                      12352.667000000005, 12404.677000000005],
 'cpu_busy_total': {'replica0': 13360.91200000002,
                    'replica1': 11593.887999999986,
                    'replica2': 11579.487999999983,
                    'replica3': 11586.687999999982,
                    'replica4': 11593.88799999998,
                    'replica5': 11579.487999999981,
                    'replica6': 11579.487999999981},
 'dispatched': 1989,
 'state_digests': {'replica0': '09fcc58d70571dad79b3fee055acf80c',
                   'replica1': '09fcc58d70571dad79b3fee055acf80c',
                   'replica2': '09fcc58d70571dad79b3fee055acf80c',
                   'replica3': '09fcc58d70571dad79b3fee055acf80c',
                   'replica4': '09fcc58d70571dad79b3fee055acf80c',
                   'replica5': '09fcc58d70571dad79b3fee055acf80c',
                   'replica6': '09fcc58d70571dad79b3fee055acf80c'},
 'wire_totals': {'auth_bytes': 83664,
                 'messages_sent': 1968,
                 'payload_bytes': 257640,
                 'per_type': {'Checkpoint': 126,
                              'Commit': 588,
                              'PrePrepare': 84,
                              'Prepare': 504,
                              'Reply': 378,
                              'Request': 162,
                              'StatusActive': 126}}}
GOLDEN["send_faults_f1"] = \
{'completion_times': [512.4609999999999, 732.4939999999999, 748.358, 764.222,
                      1292.1240000000005, 1496.1000000000004, 1511.9640000000004,
                      1527.8280000000004, 2071.747, 2286.1300000000006,
                      2301.9940000000006, 2317.8580000000006, 2792.6930000000007,
                      3011.6210000000015, 3027.4850000000015, 3043.3490000000015,
                      3572.198000000002, 3776.1800000000026, 3792.0440000000026,
                      3807.9080000000026, 4351.745000000003, 4566.089000000003,
                      4581.953000000002, 4597.817000000002],
 'cpu_busy_total': {'replica0': 5070.537999999995,
                    'replica1': 4364.490000000002,
                    'replica2': 4236.206000000002,
                    'replica3': 4305.866000000002},
 'dispatched': 451,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 9872,
                 'messages_sent': 434,
                 'payload_bytes': 38456,
                 'per_type': {'Commit': 142,
                              'PrePrepare': 36,
                              'Prepare': 106,
                              'Reply': 92,
                              'Request': 24,
                              'StatusActive': 34}}}
GOLDEN["lossy_f1"] = \
{'completion_times': [455.3529999999999, 773.9699999999998, 790.422, 805.6979999999999,
                      1236.7240000000002, 1517.0450000000003, 1532.9090000000003,
                      1959.108, 2271.126, 2286.9900000000002, 2756.170000000001,
                      2983.8650000000016, 2999.7290000000016, 3498.450000000002,
                      100366.17400000001, 100382.03800000002, 100397.90200000002,
                      100981.86900000006, 100997.73300000007, 151229.26899999997,
                      151756.9249999999, 200410.66499999995, 200894.84999999992,
                      300459.41000000003],
 'cpu_busy_total': {'replica0': 7252.713999999988,
                    'replica1': 6476.961999999992,
                    'replica2': 6285.3979999999965,
                    'replica3': 6469.561999999997},
 'dispatched': 627,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 14416,
                 'messages_sent': 633,
                 'payload_bytes': 55508,
                 'per_type': {'Commit': 220,
                              'PrePrepare': 55,
                              'Prepare': 162,
                              'Reply': 96,
                              'Request': 28,
                              'StatusActive': 72}}}
GOLDEN["impaired_f1"] = \
{'completion_times': [538.6873567745797, 827.9929966052409, 843.9783528456906,
                      847.8690702827175, 1353.6848229893774, 1647.780743983979,
                      1663.1050834875218, 1669.0527154972453, 2191.3241721655736,
                      2501.877231557745, 2520.497745097792, 2522.0076167530265,
                      3036.3036150972575, 3354.896467573635, 3371.091455244547,
                      3396.5025115557155, 3891.520185678188, 4170.154984925698,
                      4187.688755923979, 4198.748597053191, 4697.511812824354,
                      4977.887700269874, 4998.41876287313, 5003.893502331229],
 'cpu_busy_total': {'replica0': 5397.025999999995,
                    'replica1': 4691.278,
                    'replica2': 4603.990000000001,
                    'replica3': 4573.669999999999},
 'dispatched': 507,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 10080,
                 'messages_sent': 444,
                 'payload_bytes': 39424,
                 'per_type': {'Commit': 144,
                              'PrePrepare': 36,
                              'Prepare': 108,
                              'Reply': 96,
                              'Request': 24,
                              'StatusActive': 36}}}
GOLDEN["tree_f2"] = \
{'completion_times': [1504.1370000000004, 2230.3450000000007, 2246.2090000000007,
                      2262.073000000001, 3035.6410000000024, 3608.318000000001,
                      4337.956000000001, 4353.820000000001, 4896.157999999999,
                      5609.267000000001, 6199.572999999998, 6215.436999999997, 6783.491,
                      7443.6879999999965, 8069.946000000001, 8085.81, 8660.411999999997,
                      9329.111999999997, 9942.059999999992, 9957.923999999992],
 'cpu_busy_total': {'replica0': 8821.355999999974,
                    'replica1': 6499.404000000018,
                    'replica2': 5802.876000000011,
                    'replica3': 4734.972000000007,
                    'replica4': 4304.66,
                    'replica5': 4304.66,
                    'replica6': 4350.523999999999},
 'dispatched': 948,
 'state_digests': {'replica0': '488fb1eb2493805ff2b343e106786047',
                   'replica1': '488fb1eb2493805ff2b343e106786047',
                   'replica2': '488fb1eb2493805ff2b343e106786047',
                   'replica3': '488fb1eb2493805ff2b343e106786047',
                   'replica4': '488fb1eb2493805ff2b343e106786047',
                   'replica5': '488fb1eb2493805ff2b343e106786047',
                   'replica6': '488fb1eb2493805ff2b343e106786047'},
 'wire_totals': {'auth_bytes': 39648,
                 'messages_sent': 780,
                 'payload_bytes': 153164,
                 'per_type': {'PrePrepare': 84,
                              'Relay': 410,
                              'Reply': 140,
                              'Request': 20,
                              'StatusActive': 126}}}
GOLDEN["null_f10"] = \
{'completion_times': [2592.629000000003, 5742.862, 5758.726, 8902.519999999982,
                      12046.330999999947, 15190.158999999912, 18333.969999999896,
                      21477.797999999882, 24602.50299999987],
 'cpu_busy_total': {'replica0': 30427.182999999884,
                    'replica1': 29980.098999999875,
                    'replica10': 29980.314999999853,
                    'replica11': 29980.314999999853,
                    'replica12': 29980.314999999853,
                    'replica13': 29980.314999999853,
                    'replica14': 29980.314999999853,
                    'replica15': 29980.314999999853,
                    'replica16': 29980.314999999853,
                    'replica17': 29980.314999999853,
                    'replica18': 29980.314999999853,
                    'replica19': 29980.314999999853,
                    'replica2': 29980.098999999875,
                    'replica20': 29980.314999999853,
                    'replica21': 29980.314999999853,
                    'replica22': 29980.314999999853,
                    'replica23': 29980.314999999853,
                    'replica24': 29980.314999999853,
                    'replica25': 29980.314999999853,
                    'replica26': 29980.314999999853,
                    'replica27': 29980.314999999853,
                    'replica28': 29980.314999999853,
                    'replica29': 29980.314999999853,
                    'replica3': 29980.098999999875,
                    'replica30': 29980.314999999853,
                    'replica4': 29980.098999999875,
                    'replica5': 29980.098999999875,
                    'replica6': 29980.098999999875,
                    'replica7': 29980.098999999875,
                    'replica8': 29980.098999999875,
                    'replica9': 29980.098999999875},
 'dispatched': 18053,
 'state_digests': {'replica0': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica1': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica10': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica11': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica12': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica13': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica14': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica15': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica16': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica17': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica18': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica19': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica2': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica20': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica21': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica22': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica23': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica24': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica25': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica26': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica27': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica28': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica29': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica3': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica30': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica4': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica5': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica6': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica7': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica8': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a',
                   'replica9': 'a8aa6fdfd88d6cfe5224c9eb1d1ace3a'},
 'wire_totals': {'auth_bytes': 4247496,
                 'messages_sent': 17958,
                 'payload_bytes': 5289261,
                 'per_type': {'Commit': 7440,
                              'PrePrepare': 240,
                              'Prepare': 7200,
                              'Reply': 279,
                              'Request': 9,
                              'StatusActive': 2790}}}
GOLDEN["kv_f1_dropping_primary"] = \
{'completion_times': [505.8449999999999, 882.5730000000002, 898.4610000000002,
                      1706.2580000000003, 24038.092999999968, 24551.025999999943,
                      24793.794999999944, 24845.727999999966, 25073.25699999994,
                      25764.43599999996, 25780.139999999963, 26097.00199999996,
                      26112.86599999996, 26128.729999999963, 26708.800999999963,
                      26724.848999999962, 26961.76899999996, 26977.65699999996,
                      26993.54499999996, 27644.45799999996, 27660.345999999958,
                      27897.22699999996, 27913.114999999958, 27929.002999999957,
                      28478.399999999954, 28494.447999999953, 28710.07799999995,
                      28728.34199999995, 28746.60599999995, 29367.01299999996,
                      29383.060999999958, 29619.980999999956, 29635.868999999955,
                      29651.756999999954, 30248.749999999953, 30264.63799999995,
                      30501.518999999953, 30517.406999999952, 30533.29499999995,
                      31040.033999999952],
 'cpu_busy_total': {'replica0': 2499.9779999999996,
                    'replica1': 10462.998000000003,
                    'replica2': 9110.97,
                    'replica3': 8984.182000000004},
 'dispatched': 897,
 'state_digests': {'replica0': 'e8b01324a8e52cbffe07e92d24ddbaed',
                   'replica1': '9a985520f9c69528496910988706a725',
                   'replica2': '9a985520f9c69528496910988706a725',
                   'replica3': '9a985520f9c69528496910988706a725'},
 'wire_totals': {'auth_bytes': 20224,
                 'messages_sent': 854,
                 'payload_bytes': 130784,
                 'per_type': {'Checkpoint': 45,
                              'Commit': 242,
                              'NewView': 3,
                              'PrePrepare': 61,
                              'Prepare': 177,
                              'Reply': 158,
                              'Request': 128,
                              'StatusActive': 27,
                              'ViewChange': 9,
                              'ViewChangeAck': 4}}}
GOLDEN["kv_f1_page_transfer"] = \
{'completion_times': [587.9849999999999, 1248.1620000000003, 1908.3390000000009,
                      2568.5160000000014, 3228.693000000002, 3888.8700000000026,
                      4549.047000000002, 5209.224000000002, 5804.0250000000015,
                      6464.478000000002, 7124.787, 7785.095999999999, 8445.596999999994,
                      9105.905999999994, 9766.214999999993, 10426.523999999992,
                      11086.832999999991, 11614.76099999999, 12274.66199999999,
                      12934.970999999989, 13595.279999999988, 14255.588999999987,
                      14915.897999999986, 15576.206999999986, 16236.515999999985,
                      16896.824999999975, 17424.75299999998, 18084.653999999973,
                      18744.96299999997, 19405.271999999968, 20065.580999999966,
                      20725.889999999963, 21386.19899999996, 22046.507999999958,
                      22706.816999999955, 23234.74499999996, 23894.645999999953,
                      24554.95499999995, 25215.26399999995, 25875.572999999946,
                      26549.297999999948, 27322.90699999994],
 'cpu_busy_total': {'replica0': 15609.838999999947,
                    'replica1': 15423.650999999914,
                    'replica2': 15425.294999999915,
                    'replica3': 8056.597999999993},
 'dispatched': 1139,
 'state_digests': {'replica0': 'da69c0a84f10a3ab6452ff299e47913c',
                   'replica1': 'da69c0a84f10a3ab6452ff299e47913c',
                   'replica2': 'da69c0a84f10a3ab6452ff299e47913c',
                   'replica3': 'da69c0a84f10a3ab6452ff299e47913c'},
 'transfer': {'bytes_fetched': 7204,
              'fetch_messages': 11,
              'metadata_messages': 5,
              'pages_fetched': 6,
              'pages_skipped_local': 4},
 'wire_totals': {'auth_bytes': 31264,
                 'messages_sent': 1309,
                 'payload_bytes': 269076,
                 'per_type': {'Checkpoint': 99,
                              'Commit': 426,
                              'Data': 6,
                              'Fetch': 13,
                              'MetaData': 7,
                              'PrePrepare': 128,
                              'Prepare': 298,
                              'Reply': 140,
                              'Request': 156,
                              'StatusActive': 36}}}
GOLDEN["kv_f1_wide_batches"] = \
{'completion_times': [2435.396999999999, 3140.7319999999995, 3156.6199999999994,
                      3172.5079999999994, 3188.3959999999993, 3204.283999999999,
                      3220.171999999999, 3236.059999999999, 3251.947999999999,
                      3267.835999999999, 3283.723999999999, 3299.6119999999987,
                      3315.4999999999986, 3331.3879999999986, 3347.2759999999985,
                      3363.1639999999984, 3379.0519999999983, 3394.9399999999982,
                      3410.827999999998, 3426.715999999998, 3442.603999999998,
                      3458.491999999998, 3474.379999999998, 3490.2679999999978,
                      3506.1559999999977, 3522.0439999999976, 3537.9319999999975,
                      3553.8199999999974, 3569.7079999999974, 3585.5959999999973,
                      3601.483999999997, 3617.371999999997, 3633.259999999997,
                      3649.147999999997, 3665.035999999997, 3680.923999999997,
                      3696.8119999999967, 3712.6999999999966, 3728.5879999999966,
                      3744.4759999999965, 3760.3639999999964, 3776.2519999999963,
                      3792.1399999999962, 3808.027999999996, 3823.915999999996,
                      3839.803999999996, 3855.691999999996, 3871.579999999996, 6178.993,
                      6896.7480000000005, 6912.636, 6928.524, 6944.412, 6960.3,
                      6976.188, 6992.076, 7007.964, 7023.852, 7039.74, 7055.628,
                      7071.516, 7087.4039999999995, 7103.2919999999995,
                      7119.179999999999, 7135.067999999999, 7150.955999999999,
                      7166.843999999999, 7182.731999999999, 7198.619999999999,
                      7214.507999999999, 7230.395999999999, 7246.283999999999,
                      7262.171999999999, 7278.059999999999, 7293.9479999999985,
                      7309.835999999998, 7325.723999999998, 7341.611999999998,
                      7357.499999999998, 7373.387999999998, 7389.275999999998,
                      7405.163999999998, 7421.051999999998, 7436.939999999998,
                      7452.827999999998, 7468.715999999998, 7484.6039999999975,
                      7500.4919999999975, 7516.379999999997, 7532.267999999997,
                      7548.155999999997, 7564.043999999997, 7579.931999999997,
                      7595.819999999997, 7611.707999999997, 7627.595999999997,
                      10076.45699999996, 10794.394999999962, 10810.282999999963,
                      10826.170999999964, 10842.058999999965, 10857.946999999966,
                      10873.834999999966, 10889.722999999967, 10905.610999999968,
                      10921.498999999969, 10937.38699999997, 10953.27499999997,
                      10969.162999999971, 10985.050999999972, 11000.938999999973,
                      11016.826999999974, 11032.714999999975, 11048.602999999976,
                      11064.490999999976, 11080.378999999977, 11096.266999999978,
                      11112.154999999979, 11128.04299999998, 11143.93099999998,
                      11159.818999999981, 11175.706999999982, 11191.594999999983,
                      11207.482999999984, 11223.370999999985, 11239.258999999985,
                      11255.146999999986, 11271.034999999987, 11286.922999999988,
                      11302.810999999989, 11318.69899999999, 11334.58699999999,
                      11350.474999999991, 11366.362999999992, 11382.250999999993,
                      11398.138999999994, 11414.026999999995, 11429.914999999995,
                      11445.802999999996, 11461.690999999997, 11477.578999999998,
                      11493.466999999999, 11509.355, 11525.243, 13832.65599999996,
                      14554.082999999962, 14569.970999999963, 14585.858999999964,
                      14601.746999999965, 14617.634999999966, 14633.522999999966,
                      14649.410999999967, 14665.298999999968, 14681.186999999969,
                      14697.07499999997, 14712.96299999997, 14728.850999999971,
                      14744.738999999972, 14760.626999999973, 14776.514999999974,
                      14792.402999999975, 14808.290999999976, 14824.178999999976,
                      14840.066999999977, 14855.954999999978, 14871.842999999979,
                      14887.73099999998, 14903.61899999998, 14919.506999999981,
                      14935.394999999982, 14951.282999999983, 14967.170999999984,
                      14983.058999999985, 14998.946999999986, 15014.834999999986,
                      15030.722999999987, 15046.610999999988, 15062.498999999989,
                      15078.38699999999, 15094.27499999999, 15110.162999999991,
                      15126.050999999992, 15141.938999999993, 15157.826999999994,
                      15173.714999999995, 15189.602999999996, 15205.490999999996,
                      15221.378999999997, 15237.266999999998, 15253.154999999999,
                      15269.043, 15284.931],
 'cpu_busy_total': {'replica0': 15746.424,
                    'replica1': 15672.695999999987,
                    'replica2': 15672.695999999987,
                    'replica3': 15672.695999999987},
 'dispatched': 1803,
 'state_digests': {'replica0': '6f127b5261cce0cf4b2f6f53faaf9a72',
                   'replica1': '6f127b5261cce0cf4b2f6f53faaf9a72',
                   'replica2': '6f127b5261cce0cf4b2f6f53faaf9a72',
                   'replica3': '6f127b5261cce0cf4b2f6f53faaf9a72'},
 'wire_totals': {'auth_bytes': 42912,
                 'messages_sent': 1788,
                 'payload_bytes': 548832,
                 'per_type': {'Checkpoint': 24,
                              'Commit': 96,
                              'PrePrepare': 24,
                              'Prepare': 72,
                              'Reply': 768,
                              'Request': 768,
                              'StatusActive': 36}}}
GOLDEN["sharded_g2"] = \
{'completion_times': [503.73299999999983, 506.7449999999999, 827.279, 843.167,
                      1153.6960000000001, 1498.8290000000004, 1553.227,
                      1879.0650000000003, 2021.5870000000004, 2165.6650000000004,
                      2266.067000000001, 2373.3340000000003, 2441.902000000001,
                      2580.9880000000007, 2815.4360000000006, 2916.7830000000017,
                      3133.7400000000007, 3269.577, 3655.9990000000007,
                      3766.6690000000003, 3782.5570000000002, 4055.7349999999988,
                      4457.204999999997, 4765.682999999997],
 'cpu_busy_total': {'g0:replica0': 1535.9529999999988,
                    'g0:replica1': 1414.824999999999,
                    'g0:replica2': 1414.824999999999,
                    'g0:replica3': 1414.824999999999,
                    'g1:replica0': 4666.566999999997,
                    'g1:replica1': 4262.154999999998,
                    'g1:replica2': 4139.4429999999975,
                    'g1:replica3': 4174.002999999997},
 'dispatched': 569,
 'state_digests': {'g0:replica0': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g0:replica1': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g0:replica2': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g0:replica3': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g1:replica0': '7d2e2b746f099bbe7569d1d869cc4b98',
                   'g1:replica1': '7d2e2b746f099bbe7569d1d869cc4b98',
                   'g1:replica2': '7d2e2b746f099bbe7569d1d869cc4b98',
                   'g1:replica3': '7d2e2b746f099bbe7569d1d869cc4b98'},
 'wire_totals': {'auth_bytes': 12680,
                 'messages_sent': 544,
                 'payload_bytes': 59230,
                 'per_type': {'Checkpoint': 24,
                              'Commit': 154,
                              'PrePrepare': 39,
                              'Prepare': 114,
                              'Reply': 95,
                              'Request': 48,
                              'StatusActive': 70}}}
GOLDEN["unreplicated_null"] = \
{'completion_times': [161.149, 211.631, 262.142, 312.68199999999996, 363.16399999999993,
                      413.6749999999999, 464.21499999999986, 514.7839999999999,
                      565.2949999999998, 615.8349999999999, 666.404, 716.857, 767.397,
                      817.9660000000001, 868.4190000000001, 918.9010000000002,
                      969.4700000000003, 1019.9230000000002, 1070.4050000000002,
                      1120.9160000000002, 1171.3690000000001, 1221.851, 1272.362,
                      1322.902],
 'cpu_busy_total': {'server': 1212.2060000000001},
 'dispatched': 48,
 'state_digests': {'server': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 768,
                 'messages_sent': 48,
                 'payload_bytes': 3526,
                 'per_type': {'Reply': 24, 'Request': 24}}}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_fingerprint_matches_golden(name):
    actual = fingerprint(name)
    golden = GOLDEN[name]
    for key in golden:
        assert actual[key] == golden[key], f"{name}: {key} moved"
    assert actual.keys() == golden.keys()


def test_wide_batches_leave_no_orphan_request_bodies():
    """A batch may name up to 256 separately sent requests.  Once the wide
    run has settled past a stable checkpoint, every body a replica's log
    keeps is named by a batch it still holds or is not executed yet, and no
    PRE-PREPARE waits for a body."""
    cluster, completions = settled_run("kv_f1_wide_batches")
    pre_prepares = cluster.network.stats.wire_totals()["per_type"]["PrePrepare"]
    batches = pre_prepares // (len(cluster.replicas) - 1)
    assert batches < len(completions) / ProtocolOptions().max_batch_size
    for replica in cluster.replicas.values():
        assert replica.stable_checkpoint_seq > 0
        named = {
            request_digest
            for batch in replica.log.batches.values()
            for request_digest in batch.all_request_digests()
        }
        executed = replica.last_reply_timestamp
        orphans = [
            request for request_digest, request in replica.log.requests.items()
            if request_digest not in named
            and request.timestamp <= executed.get(request.sender, 0)
        ]
        assert orphans == [], replica.id
        assert replica.pending_pre_prepares == {}, replica.id


if __name__ == "__main__":
    for config_name in CONFIGURATIONS:
        print(f'GOLDEN["{config_name}"] = \\')
        pprint.pprint(fingerprint(config_name), width=88, compact=True)

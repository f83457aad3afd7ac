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
at drop probability 0.2 (which then wedged) to seed 23 at 0.25.  They
must match to the bit.  MAC tag bytes are not part of the fingerprint (their
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
                      812.7349999999999, 828.5989999999999, 1287.8850000000004,
                      1613.5220000000006, 1629.3860000000006, 1645.2500000000007,
                      1661.1140000000007, 2120.4170000000004, 2446.037000000001,
                      2461.901000000001, 2477.7650000000012, 2493.6290000000013,
                      2952.9490000000005, 3278.5520000000015, 3294.4160000000015,
                      3310.2800000000016, 3326.1440000000016, 3785.481000000002,
                      4111.1150000000025, 4126.979000000002, 4142.843000000003,
                      4158.707000000002, 4617.443999999999, 4943.193999999998,
                      4959.057999999997, 4974.921999999997, 4990.785999999996],
 'cpu_busy_total': {'replica0': 5446.313999999994,
                    'replica1': 4529.514000000001,
                    'replica2': 4529.514000000001,
                    'replica3': 4529.514000000001},
 'dispatched': 497,
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
                      1383.5620000000001, 1399.45, 1415.338, 2132.0309999999995,
                      2460.8289999999993, 3097.3959999999993, 3113.283999999999,
                      3129.171999999999, 3145.059999999999, 3160.947999999999,
                      3556.2540000000004, 3716.9680000000008, 3806.828000000003,
                      3888.306000000003, 3963.242000000001, 4300.850999999998,
                      5572.613999999993, 5588.501999999993, 5604.389999999993,
                      5620.277999999993, 5636.165999999993, 6092.494999999992,
                      6610.248999999996, 7025.991999999992, 7041.879999999992,
                      7057.767999999992, 7073.655999999992, 7089.543999999992,
                      7573.025999999994, 7627.435999999994, 7681.845999999994,
                      7736.255999999994, 7820.133999999994, 8262.754999999985,
                      8889.618999999979, 8905.50699999998, 8921.39499999998,
                      8937.282999999981, 9544.592999999975, 9560.480999999976,
                      9864.158999999992, 10812.296999999995, 10828.184999999996,
                      10844.072999999997, 10859.960999999998, 11536.889999999992,
                      11607.139999999992, 11661.549999999992, 11745.571999999991,
                      11799.98199999999, 12220.08399999999],
 'cpu_busy_total': {'replica0': 12799.147999999977,
                    'replica1': 11003.323999999946,
                    'replica2': 11003.323999999946,
                    'replica3': 11012.923999999944,
                    'replica4': 11015.323999999944,
                    'replica5': 11003.323999999944,
                    'replica6': 11003.323999999944},
 'dispatched': 1917,
 'state_digests': {'replica0': '09fcc58d70571dad79b3fee055acf80c',
                   'replica1': '09fcc58d70571dad79b3fee055acf80c',
                   'replica2': '09fcc58d70571dad79b3fee055acf80c',
                   'replica3': '09fcc58d70571dad79b3fee055acf80c',
                   'replica4': '09fcc58d70571dad79b3fee055acf80c',
                   'replica5': '09fcc58d70571dad79b3fee055acf80c',
                   'replica6': '09fcc58d70571dad79b3fee055acf80c'},
 'wire_totals': {'auth_bytes': 79632,
                 'messages_sent': 1884,
                 'payload_bytes': 248652,
                 'per_type': {'Checkpoint': 126,
                              'Commit': 546,
                              'PrePrepare': 78,
                              'Prepare': 468,
                              'Reply': 378,
                              'Request': 162,
                              'StatusActive': 126}}}
GOLDEN["send_faults_f1"] = \
{'completion_times': [484.5729999999999, 732.4939999999999, 748.358, 764.222,
                      1276.2520000000002, 1480.228, 1496.092, 1511.9560000000001,
                      2055.8749999999995, 2259.8409999999994, 2275.7049999999995,
                      2291.5689999999995, 2776.821, 2995.7490000000007,
                      3011.6130000000007, 3027.4770000000008, 3556.3260000000014,
                      3760.308000000002, 3776.172000000002, 3792.036000000002,
                      4335.8730000000005, 4539.893999999999, 4555.757999999999,
                      4571.6219999999985],
 'cpu_busy_total': {'replica0': 5070.537999999994,
                    'replica1': 4364.490000000002,
                    'replica2': 4236.206000000002,
                    'replica3': 4305.866000000002},
 'dispatched': 457,
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
                      1257.7560000000005, 100504.378, 100635.12500000001,
                      100635.22100000002, 101058.88200000003, 101366.52700000007,
                      101624.24300000015, 101930.6490000002, 102599.67100000018,
                      103113.16400000025, 151229.26899999997, 151756.9249999999,
                      152318.0099999998, 152825.12699999977, 153352.30899999972,
                      251531.84300000008, 252016.26500000004, 252524.99999999997,
                      252763.81499999994, 253174.12699999995],
 'cpu_busy_total': {'replica0': 8253.721999999982,
                    'replica1': 7535.297999999992,
                    'replica2': 7513.2619999999915,
                    'replica3': 7601.161999999991},
 'dispatched': 726,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 17008,
                 'messages_sent': 733,
                 'payload_bytes': 63632,
                 'per_type': {'Commit': 267,
                              'PrePrepare': 69,
                              'Prepare': 201,
                              'Reply': 100,
                              'Request': 36,
                              'StatusActive': 60}}}
GOLDEN["impaired_f1"] = \
{'completion_times': [521.3489563344807, 854.0737125617842, 869.7844551072059,
                      891.2784244100403, 1330.1911883029138, 1653.3318655410865,
                      1668.667446383609, 2021.6846688038966, 2429.247499581171,
                      2805.693131461346, 2820.999223608769, 3174.8887952557584,
                      3600.961136449409, 3951.3145813411875, 3975.983786966821,
                      4343.128389381075, 4664.615787801739, 5106.8064773086135,
                      5121.421668115995, 5480.981596965596, 5796.779618772345,
                      6175.754927948861, 6187.424048332091, 6427.177178953685],
 'cpu_busy_total': {'replica0': 6949.357999999985,
                    'replica1': 6155.073999999993,
                    'replica2': 6127.321999999994,
                    'replica3': 6128.425999999998},
 'dispatched': 647,
 'state_digests': {'replica0': 'cf498596ff89a16278ba0f83a00201db',
                   'replica1': 'cf498596ff89a16278ba0f83a00201db',
                   'replica2': 'cf498596ff89a16278ba0f83a00201db',
                   'replica3': 'cf498596ff89a16278ba0f83a00201db'},
 'wire_totals': {'auth_bytes': 12960,
                 'messages_sent': 564,
                 'payload_bytes': 49384,
                 'per_type': {'Commit': 204,
                              'PrePrepare': 51,
                              'Prepare': 153,
                              'Reply': 96,
                              'Request': 24,
                              'StatusActive': 36}}}
GOLDEN["tree_f2"] = \
{'completion_times': [1598.9370000000001, 2865.9030000000007, 2881.7670000000007,
                      2897.6310000000008, 2913.495000000001, 4064.2060000000006,
                      5292.4940000000015, 5308.358000000001, 5324.222000000001,
                      5859.5700000000015, 6536.787000000001, 7805.747999999999,
                      7821.611999999998, 8382.901999999998, 8398.765999999998,
                      8932.219999999994, 9614.698999999991, 10322.325999999994,
                      10338.189999999993, 11407.381999999992],
 'cpu_busy_total': {'replica0': 8975.104000000005,
                    'replica1': 6388.952,
                    'replica2': 5697.9599999999955,
                    'replica3': 4748.800000000002,
                    'replica4': 4416.368000000001,
                    'replica5': 4416.368000000001,
                    'replica6': 4416.368000000001},
 'dispatched': 943,
 'state_digests': {'replica0': '488fb1eb2493805ff2b343e106786047',
                   'replica1': '488fb1eb2493805ff2b343e106786047',
                   'replica2': '488fb1eb2493805ff2b343e106786047',
                   'replica3': '488fb1eb2493805ff2b343e106786047',
                   'replica4': '488fb1eb2493805ff2b343e106786047',
                   'replica5': '488fb1eb2493805ff2b343e106786047',
                   'replica6': '488fb1eb2493805ff2b343e106786047'},
 'wire_totals': {'auth_bytes': 41808,
                 'messages_sent': 770,
                 'payload_bytes': 160832,
                 'per_type': {'PrePrepare': 90,
                              'Relay': 394,
                              'Reply': 140,
                              'Request': 20,
                              'StatusActive': 126}}}
GOLDEN["null_f10"] = \
{'completion_times': [2592.629000000003, 5723.722, 5739.585999999999, 8883.379999999983,
                      12033.646999999948, 12049.510999999948, 15193.321999999913,
                      18343.62299999986, 18359.486999999863],
 'cpu_busy_total': {'replica0': 24148.742999999824,
                    'replica1': 23701.658999999727,
                    'replica10': 23701.874999999727,
                    'replica11': 23701.874999999727,
                    'replica12': 23701.874999999727,
                    'replica13': 23701.874999999727,
                    'replica14': 23701.874999999727,
                    'replica15': 23701.874999999727,
                    'replica16': 23701.874999999727,
                    'replica17': 23701.874999999727,
                    'replica18': 23701.874999999727,
                    'replica19': 23701.874999999727,
                    'replica2': 23701.658999999727,
                    'replica20': 23701.874999999727,
                    'replica21': 23701.874999999727,
                    'replica22': 23701.874999999727,
                    'replica23': 23701.874999999727,
                    'replica24': 23701.874999999727,
                    'replica25': 23701.874999999727,
                    'replica26': 23701.874999999727,
                    'replica27': 23701.874999999727,
                    'replica28': 23701.874999999727,
                    'replica29': 23701.874999999727,
                    'replica3': 23701.658999999727,
                    'replica30': 23701.874999999727,
                    'replica4': 23701.658999999727,
                    'replica5': 23701.658999999727,
                    'replica6': 23701.658999999727,
                    'replica7': 23701.658999999727,
                    'replica8': 23701.658999999727,
                    'replica9': 23701.658999999727},
 'dispatched': 14336,
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
 'wire_totals': {'auth_bytes': 3354696,
                 'messages_sent': 14238,
                 'payload_bytes': 4176981,
                 'per_type': {'Commit': 5580,
                              'PrePrepare': 180,
                              'Prepare': 5400,
                              'Reply': 279,
                              'Request': 9,
                              'StatusActive': 2790}}}
GOLDEN["kv_f1_dropping_primary"] = \
{'completion_times': [505.8449999999999, 862.157, 878.0450000000001, 1691.356, 1744.876,
                      24421.23799999995, 24660.41899999995, 24837.26399999995,
                      25427.689999999973, 25443.577999999972, 25703.735999999975,
                      25719.599999999977, 25735.463999999978, 26237.219999999976,
                      26253.083999999977, 26517.09799999998, 26532.98599999998,
                      26867.838999999978, 27263.172999999977, 27279.060999999976,
                      27572.094999999972, 27587.98299999997, 28044.799999999977,
                      28303.469999999976, 28319.357999999975, 28658.993999999984,
                      28674.857999999986, 29043.93599999999, 29385.29599999999,
                      29401.159999999993, 29699.309999999994, 29715.197999999993,
                      30103.970999999994, 30503.76899999999, 30519.65699999999,
                      30817.64699999999, 30833.53499999999, 31168.387999999988,
                      31422.82199999999, 31438.70999999999],
 'cpu_busy_total': {'replica0': 2164.985999999999,
                    'replica1': 10895.414000000002,
                    'replica2': 9604.525999999989,
                    'replica3': 9515.977999999994},
 'dispatched': 948,
 'state_digests': {'replica0': 'e8b01324a8e52cbffe07e92d24ddbaed',
                   'replica1': '9a985520f9c69528496910988706a725',
                   'replica2': '9a985520f9c69528496910988706a725',
                   'replica3': '9a985520f9c69528496910988706a725'},
 'wire_totals': {'auth_bytes': 21184,
                 'messages_sent': 891,
                 'payload_bytes': 130925,
                 'per_type': {'Checkpoint': 54,
                              'Commit': 263,
                              'NewView': 3,
                              'PrePrepare': 68,
                              'Prepare': 186,
                              'Reply': 149,
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
{'completion_times': [2435.396999999999, 3132.1159999999995, 3148.0039999999995,
                      3163.8919999999994, 3179.7799999999993, 3195.667999999999,
                      3211.555999999999, 3227.443999999999, 3243.331999999999,
                      3259.219999999999, 3275.107999999999, 3290.9959999999987,
                      3306.8839999999987, 3322.7719999999986, 3338.6599999999985,
                      3354.5479999999984, 3370.4359999999983, 3386.3239999999983,
                      3402.211999999998, 3418.099999999998, 3433.987999999998,
                      3449.875999999998, 3465.763999999998, 3481.6519999999978,
                      3497.5399999999977, 3513.4279999999976, 3529.3159999999975,
                      3545.2039999999974, 3561.0919999999974, 3576.9799999999973,
                      3592.867999999997, 3608.755999999997, 3624.643999999997,
                      3640.531999999997, 3656.419999999997, 3672.307999999997,
                      3688.1959999999967, 3704.0839999999966, 3719.9719999999966,
                      3735.8599999999965, 3751.7479999999964, 3767.6359999999963,
                      3783.5239999999962, 3799.411999999996, 3815.299999999996,
                      3831.187999999996, 3847.075999999996, 3862.963999999996, 6475.173,
                      6491.061, 6506.949, 6522.8369999999995, 6538.724999999999,
                      6554.612999999999, 6570.500999999999, 6586.388999999999,
                      6602.276999999999, 6618.164999999999, 6634.052999999999,
                      6649.940999999999, 6665.828999999999, 6681.716999999999,
                      6697.604999999999, 6713.492999999999, 6729.3809999999985,
                      6745.268999999998, 6761.156999999998, 6777.044999999998,
                      6792.932999999998, 6808.820999999998, 6824.708999999998,
                      6840.596999999998, 6856.484999999998, 6872.372999999998,
                      6888.260999999998, 6904.148999999998, 6920.0369999999975,
                      6935.924999999997, 6951.812999999997, 6967.700999999997,
                      6983.588999999997, 8349.327999999996, 8365.215999999997,
                      8381.103999999998, 8396.991999999998, 8412.88, 8428.768, 8444.656,
                      8460.544000000002, 8476.432000000003, 8492.320000000003,
                      8508.208000000004, 8524.096000000005, 8539.984000000006,
                      8555.872000000007, 8571.760000000007, 10380.160999999978,
                      10396.048999999979, 10411.93699999998, 10427.82499999998,
                      10443.712999999982, 10459.600999999982, 10475.488999999983,
                      10491.376999999984, 10507.264999999985, 10523.152999999986,
                      10539.040999999987, 10554.928999999987, 10570.816999999988,
                      10586.704999999989, 10602.59299999999, 10618.48099999999,
                      10634.368999999992, 10650.256999999992, 10666.144999999993,
                      10682.032999999994, 10697.920999999995, 10713.808999999996,
                      10729.696999999996, 10745.584999999997, 10761.472999999998,
                      11202.393999999993, 11218.281999999994, 11234.169999999995,
                      11250.057999999995, 11265.945999999996, 11281.833999999997,
                      11297.721999999998, 11313.609999999999, 11329.498, 11345.386,
                      11361.274000000001, 11377.162000000002, 11393.050000000003,
                      11408.938000000004, 11424.826000000005, 11440.714000000005,
                      11456.602000000006, 12622.087999999994, 12637.975999999995,
                      12653.863999999996, 12669.751999999997, 12685.639999999998,
                      12701.527999999998, 14345.05299999997, 14360.940999999972,
                      14376.828999999972, 14392.716999999973, 14408.604999999974,
                      14424.492999999975, 14440.380999999976, 14456.268999999977,
                      14472.156999999977, 14488.044999999978, 14503.932999999979,
                      14519.82099999998, 14535.70899999998, 14551.596999999982,
                      14567.484999999982, 14583.372999999983, 14599.260999999984,
                      14615.148999999985, 14631.036999999986, 14646.924999999987,
                      14662.812999999987, 14678.700999999988, 14694.588999999989,
                      14710.47699999999, 14726.36499999999, 15277.52799999998,
                      15293.415999999981, 15309.303999999982, 15325.191999999983,
                      15341.079999999984, 15356.967999999984, 15372.855999999985,
                      15388.743999999986, 15404.631999999987, 15420.519999999988,
                      15436.407999999989, 15452.29599999999, 15468.18399999999,
                      15484.071999999991, 15499.959999999992, 15515.847999999993,
                      15531.735999999994, 15547.623999999994, 15563.511999999995,
                      15579.399999999996, 15595.287999999997, 15611.175999999998,
                      15627.063999999998],
 'cpu_busy_total': {'replica0': 16032.680000000015,
                    'replica1': 15958.952000000001,
                    'replica2': 15958.951999999992,
                    'replica3': 15958.951999999992},
 'dispatched': 1832,
 'state_digests': {'replica0': '6f127b5261cce0cf4b2f6f53faaf9a72',
                   'replica1': '6f127b5261cce0cf4b2f6f53faaf9a72',
                   'replica2': '6f127b5261cce0cf4b2f6f53faaf9a72',
                   'replica3': '6f127b5261cce0cf4b2f6f53faaf9a72'},
 'wire_totals': {'auth_bytes': 43488,
                 'messages_sent': 1812,
                 'payload_bytes': 550824,
                 'per_type': {'Checkpoint': 24,
                              'Commit': 108,
                              'PrePrepare': 27,
                              'Prepare': 81,
                              'Reply': 768,
                              'Request': 768,
                              'StatusActive': 36}}}
GOLDEN["sharded_g2"] = \
{'completion_times': [503.73299999999983, 506.7449999999999, 807.0949999999999, 822.983,
                      1186.7080000000003, 1481.2770000000005, 1578.4470000000003,
                      1907.9090000000008, 1988.0790000000006, 2035.4470000000003,
                      2179.5250000000005, 2231.1290000000004, 2462.9600000000014,
                      2609.396, 2919.9249999999997, 3084.277000000001,
                      3201.0819999999994, 3416.9199999999996, 3649.4809999999993,
                      3993.442999999999, 4099.931999999999, 4486.498999999998, 4496.495,
                      4761.804999999999],
 'cpu_busy_total': {'g0:replica0': 1535.9529999999988,
                    'g0:replica1': 1414.824999999999,
                    'g0:replica2': 1414.824999999999,
                    'g0:replica3': 1414.824999999999,
                    'g1:replica0': 4983.214999999996,
                    'g1:replica1': 4519.950999999996,
                    'g1:replica2': 4426.622999999998,
                    'g1:replica3': 4490.578999999997},
 'dispatched': 602,
 'state_digests': {'g0:replica0': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g0:replica1': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g0:replica2': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g0:replica3': 'f4eb6a4c82a78356601e3025f9e925d1',
                   'g1:replica0': '7d2e2b746f099bbe7569d1d869cc4b98',
                   'g1:replica1': '7d2e2b746f099bbe7569d1d869cc4b98',
                   'g1:replica2': '7d2e2b746f099bbe7569d1d869cc4b98',
                   'g1:replica3': '7d2e2b746f099bbe7569d1d869cc4b98'},
 'wire_totals': {'auth_bytes': 13264,
                 'messages_sent': 568,
                 'payload_bytes': 61222,
                 'per_type': {'Checkpoint': 24,
                              'Commit': 165,
                              'PrePrepare': 42,
                              'Prepare': 124,
                              'Reply': 94,
                              'Request': 48,
                              'StatusActive': 71}}}
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

"""What a client costs a simulated world, and what it shares with it.

In MAC mode a client's standing state is one session key per replica in
each direction (Castro & Liskov, Section 3.2.1).  A world builds each
directed key k(a -> b) once and both ends hold that one object; a node
creates its signing key pair only when it first signs with it; and every
node multicasting to one receiver set shares that set's authenticator
position table.  The footprint test measures what those rules leave per
warm client with ``tracemalloc``.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.baselines import UnreplicatedCluster
from repro.core.config import AuthMode, ProtocolOptions
from repro.core.messages import Request
from repro.crypto.keys import SessionKeyTable
from repro.library import BFTCluster
from repro.services.kvstore import KeyValueStore
from repro.sharding import ShardedKVCluster

#: The client pool of the open-loop workloads.
CLIENTS = 256
#: Measured on one f = 1 cluster, 256 clients completing one null
#: operation each: 5,833-5,881 B per client, of which each replica's reply
#: record for it (``Replica.last_reply``: a five-field tuple, its AdHash
#: entry and a table slot) is ~170.  It was 8,269 B while each replica held
#: the last signed ``Reply`` message per client and every checkpoint a copy
#: of that table, and 10,034 B before that, when both ends derived their
#: own copy of every directed key, every node generated a signing key pair
#: and every node kept its own position tables.
BYTES_PER_CLIENT = 6_400


def warm_client_bytes() -> float:
    """Traced bytes ``CLIENTS`` warm clients add to an f = 1 cluster: each
    is created, completes one null operation, and the cluster settles."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = BFTCluster.create(f=1)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        done = []
        clients = [cluster.new_client(on_complete=done.append) for _ in range(CLIENTS)]
        for client in clients:
            client.invoke_async(b"null")
        cluster.run(stop_when=lambda: len(done) == CLIENTS, duration=60_000_000.0)
        assert len(done) == CLIENTS
        cluster.run(duration=300_000.0)
        done.clear()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / CLIENTS


def test_a_warm_client_costs_at_most_its_bound():
    per_client = warm_client_bytes()
    assert per_client <= BYTES_PER_CLIENT, f"{per_client:.0f} B per warm client"


# ---------------------------------------------------------------------------
# One object per directed key
# ---------------------------------------------------------------------------
def assert_one_key_object(a, b) -> None:
    """``a`` and ``b`` (two :class:`Authentication` objects) hold one
    epoch-0 key object per direction between them."""
    for sender, receiver in ((a, b), (b, a)):
        key = sender.keys.outbound[receiver.owner]
        assert receiver.keys.inbound[sender.owner] is key
        assert key == SessionKeyTable.initial_key(sender.owner, receiver.owner, 0)


def assert_group_shares_keys(group: BFTCluster, clients) -> None:
    replicas = [replica.auth for replica in group.replicas.values()]
    for index, replica in enumerate(replicas):
        for other in replicas[index + 1:]:
            assert_one_key_object(replica, other)
        for client in clients:
            assert_one_key_object(client.protocol.auth, replica)


def test_a_replica_group_holds_one_object_per_directed_key():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore)
    clients = [cluster.new_client() for _ in range(3)]
    assert clients[0].invoke(b"SET k v") == b"OK"
    assert_group_shares_keys(cluster, clients)


def test_a_sharded_group_holds_one_object_per_directed_key():
    sharded = ShardedKVCluster(groups=2, f=1, checkpoint_interval=8, seed=5)
    client = sharded.new_client()
    client.invoke(b"SET colour blue")
    group = sharded.group(0)
    assert_group_shares_keys(group, [group.clients[f"{client.name}@g0"]])


def test_the_unreplicated_baseline_holds_one_object_per_directed_key():
    cluster = UnreplicatedCluster(service_factory=KeyValueStore)
    client = cluster.new_client()
    assert client.invoke(b"SET k v") == b"OK"
    assert_one_key_object(client.protocol.auth, cluster.server.auth)


def test_a_client_created_after_a_recovery_gets_epoch_zero_keys_at_both_ends():
    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore, checkpoint_interval=4)
    first = cluster.new_client()
    assert first.invoke(b"SET a 1") == b"OK"
    node, replica = cluster.replica_nodes["replica2"], cluster.replicas["replica2"]
    node.external_call(replica.recovery.start_recovery)
    cluster.run(duration=1_000_000.0)
    assert replica.auth.keys.epoch >= 1
    late = cluster.new_client()
    for group_replica in cluster.replicas.values():
        assert_one_key_object(late.protocol.auth, group_replica.auth)
    assert late.invoke(b"SET b 2") == b"OK"
    assert late.invoke(b"GET b", read_only=True) == b"2"


# ---------------------------------------------------------------------------
# Signing key pairs and position tables
# ---------------------------------------------------------------------------
def test_a_mac_mode_client_owns_no_signing_key():
    cluster = BFTCluster.create(f=1)
    client = cluster.new_client()
    for _ in range(3):
        client.invoke(b"null")
    owners = set(cluster.world.registry._owners.values())
    assert client.id not in owners


def test_request_authenticators_of_two_clients_share_one_position_table():
    cluster = BFTCluster.create(f=1)
    first, second = cluster.new_client(), cluster.new_client()
    first.invoke_async(b"null")
    second.invoke_async(b"null")
    tables = [client.protocol.pending.request.auth.positions for client in (first, second)]
    assert tables[0] is tables[1]
    assert dict(tables[0]) == dict(cluster.config.replica_indexes)
    cluster.run(stop_when=lambda: not (first.protocol.busy or second.protocol.busy),
                duration=10_000_000.0)
    assert not first.protocol.busy and not second.protocol.busy


def test_signature_mode_accepts_a_fresh_client_and_rejects_a_foreign_key_pair():
    options = ProtocolOptions(auth_mode=AuthMode.SIGNATURE)
    cluster = BFTCluster.create(f=1, options=options)
    client = cluster.new_client()
    assert client.invoke(b"null") == b""
    # A node of another world, named like this client, signs a request as
    # it: its key pair is not this world's, so no replica accepts it.
    impostor = BFTCluster.create(f=1, options=options).new_client()
    assert impostor.id == client.id
    forged = impostor.protocol.auth.sign_multicast(
        Request(operation=b"null", timestamp=99, sender=client.id),
        cluster.config.replica_ids,
    )
    for replica_id, replica in cluster.replicas.items():
        rejected = replica.metrics.messages_rejected
        cluster.replica_nodes[replica_id].external_call(lambda: replica.receive(forged))
        assert replica.metrics.messages_rejected == rejected + 1
    cluster.run(duration=1_000_000.0)
    assert all(replica.last_reply_timestamp[client.id] == 1
               for replica in cluster.replicas.values())

"""Reproductions of two identity holes, with real crypto (f = 1, seed 5).

A request is executed for the client it *names*, whoever authenticated it:
a client may claim another client's name under its own keys, and a request
a primary inlines in a PRE-PREPARE is never verified at all.  Each test
asserts the correct outcome: the forged value is stored nowhere, every
correct replica that received the forgery counts a rejection, and the
impersonated client's next SET still completes.
"""

from __future__ import annotations

import pytest

from repro.core.messages import Request
from repro.library import BFTCluster
from repro.services import KeyValueStore

#: Far above any timestamp the real client0 uses: if the forgery executes,
#: every later request of client0 looks old to the replicas.
FORGED_TIMESTAMP = 10**12


def kv_cluster():
    return BFTCluster.create(f=1, service_factory=KeyValueStore, seed=5)


def assert_forgery_refused(cluster, victim, forged_value, correct):
    for replica_id in correct:
        assert cluster.services[replica_id].get(b"k") != forged_value, replica_id
        assert cluster.replicas[replica_id].metrics.messages_rejected >= 1, replica_id
    assert victim.invoke(b"SET k mine", timeout=3_000_000) == b"OK"


@pytest.mark.xfail(strict=True, reason="a replica executes a request for the client it "
                   "names, not for the principal that authenticated it")
def test_request_claiming_another_clients_name_is_rejected():
    cluster = kv_cluster()
    victim = cluster.new_client()
    attacker = cluster.new_client()
    assert (victim.id, attacker.id) == ("client0", "client1")
    victim.invoke(b"SET k v")
    forged = Request(operation=b"SET k forged", timestamp=FORGED_TIMESTAMP,
                     client="client0", sender="client1")
    protocol = attacker.protocol
    replica_ids = cluster.config.replica_ids

    def send_forgery():
        message = protocol.auth.sign_multicast(forged, replica_ids)
        protocol.env.broadcast(replica_ids, message)

    attacker.node.external_call(send_forgery)
    cluster.run(duration=1_000_000)
    assert_forgery_refused(cluster, victim, b"forged", replica_ids)


@pytest.mark.xfail(strict=True, reason="a backup never verifies the requests a primary "
                   "inlines in a PRE-PREPARE")
def test_unauthenticated_request_inlined_by_the_primary_is_rejected():
    cluster = kv_cluster()
    victim = cluster.new_client()
    victim.invoke(b"SET k v")
    primary = cluster.replicas["replica0"]
    evil = Request(operation=b"SET k evil", timestamp=FORGED_TIMESTAMP,
                   client="client0", sender="client0", auth=None)

    def inline_evil():
        primary.request_queue.append(evil)
        primary._try_send_pre_prepare()

    cluster.replica_nodes["replica0"].external_call(inline_evil)
    cluster.run(duration=1_000_000)
    backups = [rid for rid in cluster.config.replica_ids if rid != "replica0"]
    assert_forgery_refused(cluster, victim, b"evil", backups)

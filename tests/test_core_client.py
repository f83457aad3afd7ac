"""Message-level unit tests for the client protocol."""

from __future__ import annotations

import pytest

from repro.core.auth import Authentication, build_session_keys
from repro.core.client import RETRANSMIT_TIMER, Client
from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig
from repro.core.env import RecordingEnv
from repro.core.messages import Reply, Request
from repro.crypto.digests import digest
from repro.crypto.mac import MACKey
from repro.crypto.authenticator import Authenticator
from repro.crypto.signatures import SignatureRegistry


def make_client(options: ProtocolOptions | None = None, real_crypto: bool = False):
    config = ReplicaSetConfig(n=4, checkpoint_interval=4)
    env = RecordingEnv()
    options = options or ProtocolOptions()
    keys = build_session_keys("client0", config.replica_ids)
    auth = Authentication(
        owner="client0",
        mode=options.auth_mode,
        keys=keys,
        registry=SignatureRegistry(),
        env=env,
        real_crypto=real_crypto,
    )
    completions = []
    client = Client("client0", config, env, auth, options=options,
                    on_complete=completions.append)
    return client, env, completions


def reply(replica, timestamp=1, result=b"ok", tentative=True, view=0,
          include_result=True):
    message = Reply(
        view=view,
        timestamp=timestamp,
        client="client0",
        result=result if include_result else None,
        result_digest=digest(result),
        tentative=tentative,
        sender=replica,
    )
    # Attach a structurally valid authentication object; real crypto is off.
    message.auth = Authenticator()
    return message


def test_invoke_sends_to_primary_and_sets_timer():
    client, env, _ = make_client()
    client.invoke(b"op")
    assert len(env.sent) == 1
    assert env.sent[0].destination == "replica0"
    assert isinstance(env.sent[0].message, Request)
    assert env.timers[RETRANSMIT_TIMER] is not None


def test_read_only_requests_are_multicast():
    client, env, _ = make_client()
    client.invoke(b"GET x", read_only=True)
    destinations = {s.destination for s in env.sent}
    assert destinations == {"replica0", "replica1", "replica2", "replica3"}


def test_large_requests_are_multicast_for_separate_transmission():
    client, env, _ = make_client()
    client.invoke(b"x" * 1000)
    assert len(env.sent) == 4


def test_only_one_outstanding_request_allowed():
    client, _, _ = make_client()
    client.invoke(b"one")
    with pytest.raises(RuntimeError):
        client.invoke(b"two")


def test_completion_requires_quorum_of_tentative_replies():
    client, env, completions = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica0"))
    client.receive(reply("replica1"))
    assert not client.is_complete(timestamp)
    client.receive(reply("replica2"))
    assert client.is_complete(timestamp)
    assert completions[0].result == b"ok"
    assert completions[0].timestamp == timestamp


def test_completion_requires_weak_certificate_of_nontentative_replies():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica0", tentative=False))
    assert not client.is_complete(timestamp)
    client.receive(reply("replica1", tentative=False))
    assert client.is_complete(timestamp)


def test_mismatched_results_do_not_complete():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica0", result=b"good"))
    client.receive(reply("replica1", result=b"good"))
    client.receive(reply("replica2", result=b"evil"))
    assert not client.is_complete(timestamp)
    client.receive(reply("replica3", result=b"good"))
    assert client.is_complete(timestamp)
    assert client.result_of(timestamp).result == b"good"


def test_duplicate_replies_from_same_replica_count_once():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    for _ in range(5):
        client.receive(reply("replica0"))
    assert not client.is_complete(timestamp)


def test_digest_replies_wait_for_full_result():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica0", include_result=False))
    client.receive(reply("replica1", include_result=False))
    client.receive(reply("replica2", include_result=False))
    assert not client.is_complete(timestamp)
    client.receive(reply("replica3", include_result=True))
    assert client.is_complete(timestamp)


def test_reply_result_digest_mismatch_is_ignored():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    bad = reply("replica0")
    bad.result = b"tampered"
    client.receive(bad)
    client.receive(reply("replica1"))
    client.receive(reply("replica2"))
    # The tampered reply's vote counted, but its result was discarded; with
    # the genuine result from replica1/2 the request completes.
    assert client.is_complete(timestamp)
    assert client.result_of(timestamp).result == b"ok"


def test_replies_for_other_timestamps_ignored():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica0", timestamp=99))
    client.receive(reply("replica1", timestamp=99))
    client.receive(reply("replica2", timestamp=99))
    assert not client.is_complete(timestamp)


def test_retransmission_broadcasts_and_backs_off():
    client, env, _ = make_client()
    client.invoke(b"op")
    first_timeout = client._timeout
    env.clear()
    client.on_timer(RETRANSMIT_TIMER)
    assert len(env.sent) == 4  # broadcast to every replica
    assert client._timeout == first_timeout * 2
    assert client.pending.retransmissions == 1


def test_read_only_retry_falls_back_to_read_write():
    client, env, _ = make_client()
    client.invoke(b"GET x", read_only=True)
    client.receive(reply("replica0", tentative=False))
    client.receive(reply("replica1", tentative=False, result=b"other"))
    client.on_timer(RETRANSMIT_TIMER)
    assert client.pending.read_only is False
    assert client.pending.request.read_only is False
    # Stale votes from the read-only attempt were discarded.
    assert list(client.pending.votes) == []


def test_view_tracking_from_replies():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica1", view=3))
    client.receive(reply("replica2", view=3))
    client.receive(reply("replica3", view=3))
    assert client.is_complete(timestamp)
    assert client.view == 3
    # The next request goes to the primary of view 3.
    client.invoke(b"next")
    assert env.sent[-1].destination == "replica3"


def test_one_reply_naming_a_view_does_not_redirect_the_client():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica1", view=10**6 + 1))
    client.receive(reply("replica2"))
    client.receive(reply("replica3"))
    assert client.is_complete(timestamp)
    assert client.view == 0
    client.invoke(b"next")
    assert env.sent[-1].destination == "replica0"


def test_f_plus_one_replies_naming_a_view_redirect_the_client():
    client, env, _ = make_client()
    timestamp = client.invoke(b"op")
    client.receive(reply("replica1", view=10**6 + 1))
    assert client.view == 0
    client.receive(reply("replica2", view=10**6 + 1))
    assert client.view == 10**6 + 1
    client.receive(reply("replica3"))
    assert client.is_complete(timestamp)
    client.invoke(b"next")
    assert env.sent[-1].destination == "replica1"


def test_a_replicas_latest_reply_view_replaces_its_earlier_one():
    client, _, _ = make_client()
    client.invoke(b"op")
    client.receive(reply("replica1", view=7, tentative=True))
    client.receive(reply("replica1", view=0, tentative=False))
    client.receive(reply("replica2", view=7))
    assert client.view == 0


def test_a_wrong_full_result_from_the_designated_replier_never_completes_a_read():
    """A read whose designated replier returns a wrong result, with a
    matching digest, gathers a quorum for the right digest but never holds
    the right result: it waits, then retries on the read-write path."""
    client, env, _ = make_client()
    timestamp = client.invoke(b"GET x", read_only=True)
    assert client.pending.request.designated_replier == "replica0"
    client.receive(reply("replica0", tentative=False, result=b"evil" * 10))
    for replica in ("replica1", "replica2", "replica3"):
        client.receive(reply(replica, tentative=False, result=b"good" * 10,
                             include_result=False))
    assert not client.is_complete(timestamp)
    client.on_timer(RETRANSMIT_TIMER)
    assert not client.pending.read_only
    assert client.pending.request.designated_replier is None


def test_the_designated_replier_rotates_among_the_last_results_voters():
    client, _, _ = make_client()
    timestamp = client.invoke(b"op")
    for replica in ("replica0", "replica2", "replica3"):
        client.receive(reply(replica))
    assert client.is_complete(timestamp)
    picks = []
    for _ in range(6):
        timestamp = client.invoke(b"op")
        picks.append(client.pending.request.designated_replier)
        for replica in ("replica0", "replica2", "replica3"):
            client.receive(reply(replica, timestamp=timestamp))
    assert "replica1" not in picks
    assert set(picks) == {"replica0", "replica2", "replica3"}


# ---------------------------------------------------------------------------
# A reply counts for the replica that authenticated it, and no other
# ---------------------------------------------------------------------------
def forged(sender, principal, timestamp=1, result=b"forged"):
    """A tentative reply sent as ``sender``, MAC'd for client0 under the
    session key ``principal`` shares with it."""
    message = reply(sender, timestamp=timestamp, result=result)
    message.auth = None
    keys = build_session_keys(principal, ("client0",))
    signer = Authentication(principal, AuthMode.MAC, keys, SignatureRegistry())
    return signer.sign_point_to_point(message, "client0")


IMPERSONATIONS = {
    # One replica supplies the whole quorum under its peers' names.
    "names-another-replica": [forged(r, "replica3") for r in
                              ("replica0", "replica1", "replica2")],
    # The authenticating principal is not a member of the group.
    "not-a-member": [forged(r, r) for r in ("replica4", "client9", "replica5")],
    # Each authenticated by a member, all sent as another one.
    "sender-is-another-node": [forged("replica3", r) for r in
                               ("replica0", "replica1", "replica2")],
}


@pytest.mark.parametrize("case", sorted(IMPERSONATIONS))
def test_a_reply_counts_only_for_the_replica_that_authenticated_it(case):
    """Real crypto: a reply is checked under its sender's key, so one whose
    key is not its sender's, or a non-member's, earns no vote."""
    client, env, completions = make_client(real_crypto=True)
    timestamp = client.invoke(b"op")
    for message in IMPERSONATIONS[case]:
        client.receive(message)
    assert not client.is_complete(timestamp)
    assert list(client.pending.votes) == []


def test_replies_authenticated_by_their_replicas_still_complete():
    client, env, completions = make_client(real_crypto=True)
    timestamp = client.invoke(b"op")
    for replica in ("replica0", "replica1", "replica2"):
        client.receive(forged(replica, replica, result=b"ok"))
    assert client.is_complete(timestamp)
    assert completions[0].result == b"ok"


@pytest.mark.parametrize("options", [ProtocolOptions(), ProtocolOptions().as_bft_pk()],
                         ids=["mac", "signature"])
def test_one_faulty_replica_cannot_supply_a_clients_reply_quorum(options):
    """f = 1, real crypto.  ``replica3`` answers a ``GET`` with three
    tentative replies sent as ``replica0``-``replica2``, each authenticated
    under its own key.  The client refuses each (one ``reply-rejected``
    apiece) and waits for the honest replies instead of completing with
    the forged result."""
    from repro.library import BFTCluster
    from repro.services.kvstore import KeyValueStore

    cluster = BFTCluster.create(f=1, service_factory=KeyValueStore, seed=5,
                                options=options, record_events=True)
    client = cluster.new_client()
    timestamp = client.invoke_async(b"GET k")
    faulty = cluster.replicas["replica3"]

    def forge() -> None:
        for name in ("replica0", "replica1", "replica2"):
            message = Reply(view=0, timestamp=timestamp, client=client.id,
                            result=b"forged", result_digest=digest(b"forged"),
                            tentative=True, sender=name)
            faulty.env.send(client.id, faulty.auth.sign_point_to_point(message, client.id))

    cluster.replica_nodes["replica3"].external_call(forge)
    cluster.run(stop_when=lambda: client.protocol.is_complete(timestamp),
                duration=10_000_000.0)
    assert client.last_completed().result == b""
    rejected = [e for e in client.node.events if e[1] == "reply-rejected"]
    assert len(rejected) == 3

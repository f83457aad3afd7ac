"""Message-level unit tests for the client protocol."""

from __future__ import annotations

import pytest

from repro.core.auth import Authentication, build_session_keys
from repro.core.client import RETRANSMIT_TIMER, Client
from repro.core.config import ProtocolOptions, ReplicaSetConfig
from repro.core.env import RecordingEnv
from repro.core.messages import Reply, Request
from repro.crypto.digests import digest
from repro.crypto.mac import MACKey
from repro.crypto.signatures import SignatureRegistry


def make_client(options: ProtocolOptions | None = None):
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
        real_crypto=False,
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
        replica=replica,
        result=result if include_result else None,
        result_digest=digest(result),
        tentative=tentative,
        sender=replica,
    )
    # Attach a structurally valid authentication object; real crypto is off.
    from repro.crypto.authenticator import Authenticator

    message.auth = Authenticator(sender=replica)
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
    assert client.pending.votes == {}


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

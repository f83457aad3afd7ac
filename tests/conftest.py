"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.auth import Authentication, build_session_keys
from repro.core.client import CompletedRequest
from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig
from repro.core.env import RecordingEnv
from repro.core.messages import _pack_general
from repro.core.replica import Replica
from repro.crypto.authenticator import Authenticator
from repro.crypto.signatures import SignatureRegistry
from repro.services.kvstore import KeyValueStore
from repro.services.null_service import NullService


@pytest.fixture
def config() -> ReplicaSetConfig:
    """A small configuration (f=1, n=4) with a short checkpoint interval."""
    return ReplicaSetConfig(n=4, checkpoint_interval=4)


@pytest.fixture
def registry() -> SignatureRegistry:
    return SignatureRegistry()


def authed(message):
    """Attach a (structurally valid) authenticator so receive() accepts it."""
    message.auth = Authenticator()
    return message


def general_encoding(*fields) -> bytes:
    """The canonical encoding, one value at a time through the general
    encoder — no shared buffer, no exact-type dispatch.  The tests'
    definition of what ``pack`` and every memoized payload must equal."""
    return b"".join(_pack_general(value) for value in fields)


def snapshot_records(store: KeyValueStore, snapshot) -> dict:
    """The key-value records a snapshot captured, decoded from the pages it
    serves (``snapshot_pages``)."""
    return {
        key: value
        for page in store.snapshot_pages(snapshot).values()
        for key, value in store._decode_payload(page)
    }


def transfer_snapshot(source, snapshot, target) -> None:
    """Copy the state a snapshot captured into another service instance the
    way state transfer does: ``snapshot_pages`` -> ``install_pages``, with
    every page the target holds and the snapshot lacks removed."""
    pages = source.snapshot_pages(snapshot)
    target.install_pages(pages, set(target.page_digests()) - set(pages))


def record_completions(cluster) -> list[CompletedRequest]:
    """Every completion of the clients ``cluster.new_client`` builds from
    now on, in completion order.  A client keeps only its newest record, so
    this listens on ``on_complete``, ahead of the caller's own callback."""
    completions: list[CompletedRequest] = []
    new_client = cluster.new_client

    def recording_new_client(name=None, on_complete=None):
        def callback(completed: CompletedRequest) -> None:
            completions.append(completed)
            if on_complete is not None:
                on_complete(completed)

        return new_client(name, on_complete=callback)

    cluster.new_client = recording_new_client
    return completions


def make_replica(
    config: ReplicaSetConfig,
    registry: SignatureRegistry,
    replica_id: str = "replica1",
    options: ProtocolOptions | None = None,
    service=None,
    env: RecordingEnv | None = None,
    real_crypto: bool = False,
) -> tuple[Replica, RecordingEnv]:
    """A replica wired to a RecordingEnv, for message-level unit tests."""
    if env is None:
        env = RecordingEnv()
    options = options or ProtocolOptions()
    keys = build_session_keys(replica_id, config.replica_ids + ("client0",))
    auth = Authentication(
        owner=replica_id,
        mode=options.auth_mode,
        keys=keys,
        registry=registry,
        env=env,
        real_crypto=real_crypto,
    )
    replica = Replica(
        replica_id, config, service or KeyValueStore(), env, auth, options=options
    )
    return replica, env


@pytest.fixture
def replica_and_env(config, registry):
    """A backup replica (replica1 in view 0) plus its recording environment."""
    return make_replica(config, registry, "replica1")


@pytest.fixture
def primary_and_env(config, registry):
    """The view-0 primary (replica0) plus its recording environment."""
    return make_replica(config, registry, "replica0")

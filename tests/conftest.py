"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.auth import Authentication, build_session_keys
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
    message.auth = Authenticator(sender=message.sender)
    return message


def general_encoding(*fields) -> bytes:
    """The canonical encoding, one value at a time through the general
    encoder — no shared buffer, no exact-type dispatch.  The tests'
    definition of what ``pack`` and every memoized payload must equal."""
    return b"".join(_pack_general(value) for value in fields)


def make_replica(
    config: ReplicaSetConfig,
    registry: SignatureRegistry,
    replica_id: str = "replica1",
    options: ProtocolOptions | None = None,
    service=None,
    env: RecordingEnv | None = None,
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
        real_crypto=False,
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

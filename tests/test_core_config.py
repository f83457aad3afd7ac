"""Tests for quorum arithmetic and replica-set configuration."""

import pytest

from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig
from repro.core.quorum import (
    Certificate,
    max_faulty,
    quorum_size,
    replicas_for,
    weak_size,
)


# ------------------------------------------------------------------ quorums
@pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4), (16, 5)])
def test_max_faulty(n, f):
    assert max_faulty(n) == f


@pytest.mark.parametrize("f,n", [(1, 4), (2, 7), (3, 10), (5, 16)])
def test_replicas_for(f, n):
    assert replicas_for(f) == n


def test_quorum_and_weak_sizes():
    assert quorum_size(4) == 3
    assert weak_size(4) == 2
    assert quorum_size(7) == 5
    assert weak_size(7) == 3


def test_quorum_intersection_property():
    """Any two quorums intersect in at least one correct replica: their
    overlap exceeds f."""
    for f in range(1, 6):
        n = replicas_for(f)
        q = quorum_size(n)
        min_overlap = 2 * q - n
        assert min_overlap >= f + 1


def test_small_groups_rejected():
    with pytest.raises(ValueError):
        max_faulty(3)
    with pytest.raises(ValueError):
        replicas_for(0)


def test_certificate_helpers():
    votes = Certificate()
    for voter in range(3):
        votes.add(voter, b"d")
        assert (votes.winner(weak_size(4)) == b"d") == (voter + 1 >= 2)
        assert (votes.winner(quorum_size(4)) == b"d") == (voter + 1 >= 3)


# ------------------------------------------------------------------- config
def test_config_membership_and_primary_rotation():
    config = ReplicaSetConfig(n=4)
    assert config.f == 1
    assert config.quorum == 3
    assert config.weak == 2
    assert config.replica_ids == ("replica0", "replica1", "replica2", "replica3")
    assert config.primary_of(0) == "replica0"
    assert config.primary_of(1) == "replica1"
    assert config.primary_of(4) == "replica0"
    assert config.is_primary("replica2", 2)
    assert not config.is_primary("replica2", 3)


def test_config_others_excludes_self():
    config = ReplicaSetConfig(n=4)
    assert "replica1" not in config.others("replica1")
    assert len(config.others("replica1")) == 3


def test_config_log_size_is_multiple_of_checkpoint_interval():
    config = ReplicaSetConfig(n=4, checkpoint_interval=10, log_size_multiplier=3)
    assert config.log_size == 30


def test_config_replica_index_validation():
    config = ReplicaSetConfig(n=4)
    assert config.replica_index("replica3") == 3
    with pytest.raises(ValueError):
        config.replica_index("replica9")
    with pytest.raises(ValueError):
        config.replica_index("client0")
    # One cached id -> index map, also for a prefixed group.
    assert config.replica_indexes is config.replica_indexes
    group = ReplicaSetConfig(n=4, replica_prefix="g1:replica")
    assert group.replica_index("g1:replica2") == 2
    assert list(group.replica_indexes) == list(group.replica_ids)
    with pytest.raises(ValueError):
        group.replica_index("replica2")


def test_config_rejects_small_groups_and_bad_views():
    with pytest.raises(ValueError):
        ReplicaSetConfig(n=3)
    config = ReplicaSetConfig(n=4)
    with pytest.raises(ValueError):
        config.primary_of(-1)


def test_for_faults_builds_minimum_group():
    assert ReplicaSetConfig.for_faults(2).n == 7


# ------------------------------------------------------------------ options
def test_default_options_are_fully_optimized():
    options = ProtocolOptions()
    assert options.auth_mode is AuthMode.MAC
    assert options.tentative_execution
    assert options.read_only_optimization
    assert options.max_batch_size > 1
    assert options.digest_replies


def test_without_optimizations_disables_each_mechanism():
    options = ProtocolOptions().without_optimizations()
    assert not options.tentative_execution
    assert not options.read_only_optimization
    assert options.max_batch_size == 1
    assert not options.digest_replies
    assert not options.separate_request_transmission
    # Authentication mode is not an "optimization": it stays MAC.
    assert options.auth_mode is AuthMode.MAC


def test_as_bft_pk_switches_auth_mode_only():
    options = ProtocolOptions().as_bft_pk()
    assert options.auth_mode is AuthMode.SIGNATURE
    assert options.tentative_execution

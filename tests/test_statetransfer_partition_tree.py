"""Tests for the hierarchical partition tree (Section 5.3.1)."""

import pytest

from repro.statetransfer.partition_tree import PartitionTree


def test_root_digest_changes_with_writes():
    tree = PartitionTree()
    tree.write_page(0, b"hello")
    tree.take_checkpoint(1)
    first = tree.root_digest()
    tree.write_page(1, b"world")
    tree.take_checkpoint(2)
    assert tree.root_digest() != first


def test_identical_trees_have_identical_digests():
    a, b = PartitionTree(), PartitionTree()
    for tree in (a, b):
        tree.write_page(3, b"same")
        tree.write_page(7, b"data")
        tree.take_checkpoint(1)
    assert a.root_digest() == b.root_digest()


def test_incremental_digest_matches_replica_with_same_history():
    """Two replicas that apply the same writes at the same checkpoints end
    with the same root digest, even though one of them rewrites a page —
    the AdHash incremental update subtracts the stale page digest."""
    a, b = PartitionTree(), PartitionTree()
    for tree in (a, b):
        tree.write_page(0, b"v1")
        tree.write_page(1, b"other")
        tree.take_checkpoint(1)
        tree.write_page(0, b"v2")
        tree.take_checkpoint(2)
    assert a.root_digest() == b.root_digest()
    # A follower that fetches the final state also converges on the digest.
    follower = PartitionTree()
    follower.apply_transfer(a, 2)
    assert follower.root_digest() == a.root_digest(2)


def test_checkpoint_copy_on_write_records_only_dirty_pages():
    tree = PartitionTree()
    for i in range(10):
        tree.write_page(i, b"page%d" % i)
    first = tree.take_checkpoint(1)
    assert len(first.pages) == 10
    tree.write_page(3, b"changed")
    second = tree.take_checkpoint(2)
    assert set(second.pages) == {3}


def test_page_at_checkpoint_returns_historic_value():
    tree = PartitionTree()
    tree.write_page(0, b"old")
    tree.take_checkpoint(1)
    tree.write_page(0, b"new")
    tree.take_checkpoint(2)
    assert tree.page_at_checkpoint(0, 1).value == b"old"
    assert tree.page_at_checkpoint(0, 2).value == b"new"


def test_pages_written_since_a_checkpoint():
    """The pages a rollback to a checkpoint must put back: the dirty set
    plus every later copy's pages, still whole after the newest copy is
    discarded (its pages return to the dirty set)."""
    tree = PartitionTree()
    tree.write_page(1, b"a")
    tree.write_page(2, b"b")
    tree.take_checkpoint(1)
    tree.write_page(2, b"c")
    tree.take_checkpoint(2)
    tree.write_page(3, b"d")
    tree.take_checkpoint(3)
    tree.write_page(4, b"e")
    assert tree.pages_written_since(1) == {2, 3, 4}
    assert tree.pages_written_since(3) == {4}
    tree.discard_checkpoint(3)
    assert tree.pages_written_since(2) == {3, 4}
    assert tree.pages_written_since(1) == {2, 3, 4}


def test_discard_checkpoints_preserves_page_lookup():
    tree = PartitionTree()
    tree.write_page(0, b"a")
    tree.take_checkpoint(1)
    tree.write_page(1, b"b")
    tree.take_checkpoint(2)
    tree.write_page(2, b"c")
    tree.take_checkpoint(3)
    tree.discard_checkpoint(1)
    tree.discard_checkpoint(2)
    assert tree.checkpoint_seqs() == (3,)
    assert tree.page_at_checkpoint(0, 3).value == b"a"
    assert tree.page_at_checkpoint(1, 3).value == b"b"


def test_checkpoint_sequence_numbers_must_increase():
    tree = PartitionTree()
    tree.write_page(0, b"x")
    tree.take_checkpoint(5)
    with pytest.raises(ValueError):
        tree.take_checkpoint(5)


def test_write_page_bounds_checked():
    tree = PartitionTree(fanout=2, levels=2)
    with pytest.raises(IndexError):
        tree.write_page(5, b"x")


def test_transfer_plan_moves_only_divergent_pages():
    source = PartitionTree()
    target = PartitionTree()
    for i in range(20):
        value = b"common%d" % i
        source.write_page(i, value)
        target.write_page(i, value)
    source.take_checkpoint(1)
    target.take_checkpoint(1)
    # Source advances: 5 pages change.
    for i in range(5):
        source.write_page(i, b"new%d" % i)
    source.take_checkpoint(2)
    plan = target.plan_transfer(source, 2)
    assert plan.pages_transferred == 5
    assert plan.bytes_transferred == sum(len(b"new%d" % i) for i in range(5))


def test_apply_transfer_converges_digests():
    source = PartitionTree()
    target = PartitionTree()
    for i in range(30):
        source.write_page(i, b"s%d" % i)
    for i in range(10):
        target.write_page(i, b"s%d" % i)  # partially up to date
    source.take_checkpoint(1)
    target.take_checkpoint(1)
    target.apply_transfer(source, 1)
    assert target.root_digest() == source.root_digest(1)
    assert target.plan_transfer(source, 1).out_of_date_pages == []


def test_checkpoint_after_a_transfer_holds_the_fetched_pages():
    """A page installed by a transfer is captured by the follower's next
    checkpoint, so that checkpoint's pages agree with its root."""
    source = PartitionTree()
    follower = PartitionTree()
    for tree in (source, follower):
        tree.write_page(0, b"old")
        tree.take_checkpoint(1)
    source.write_page(0, b"new")
    source.take_checkpoint(2)
    follower.apply_transfer(source, 2)
    follower.take_checkpoint(3)
    assert follower.root_digest(3) == source.root_digest(2)
    assert follower.page_at_checkpoint(0, 3).value == b"new"
    assert follower.page_at_checkpoint(0, 1).value == b"old"


def test_verify_against_reports_corrupted_pages():
    source = PartitionTree()
    replica = PartitionTree()
    for i in range(8):
        source.write_page(i, b"good%d" % i)
        replica.write_page(i, b"good%d" % i)
    source.take_checkpoint(1)
    replica.take_checkpoint(1)
    replica.write_page(4, b"corrupted")
    replica.take_checkpoint(2)
    assert replica.plan_transfer(source, 1).out_of_date_pages == [4]


def test_tree_shape_validation():
    with pytest.raises(ValueError):
        PartitionTree(fanout=1)
    with pytest.raises(ValueError):
        PartitionTree(levels=1)
    assert PartitionTree(fanout=4, levels=3).capacity_pages == 16

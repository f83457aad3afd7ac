"""Property-based tests of the partition tree's digest and transfer logic."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.statetransfer.partition_tree import (
    ADHASH_MODULUS,
    PartitionTree,
    content_page_digest,
)


writes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.binary(min_size=0, max_size=64)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=50, deadline=None)
@given(ops=writes)
def test_incremental_root_matches_transfer_and_identical_history(ops):
    """The incrementally-maintained root digest is consistent: a replica
    with the same write/checkpoint history matches it, and a follower that
    fetches the final state over the transfer protocol matches it too."""
    incremental = PartitionTree()
    twin = PartitionTree()
    seq = 0
    for index, value in ops:
        incremental.write_page(index, value)
        twin.write_page(index, value)
        seq += 1
        incremental.take_checkpoint(seq)
        twin.take_checkpoint(seq)
    assert incremental.root_digest() == twin.root_digest()

    follower = PartitionTree()
    follower.apply_transfer(incremental, seq)
    assert follower.root_digest() == incremental.root_digest(seq)


@settings(max_examples=50, deadline=None)
@given(ops=writes, divergent=writes)
def test_transfer_always_converges(ops, divergent):
    """After apply_transfer, the follower reports no mismatching pages."""
    source = PartitionTree()
    follower = PartitionTree()
    seq = 0
    for index, value in ops:
        source.write_page(index, value)
    seq += 1
    source.take_checkpoint(seq)
    for index, value in divergent:
        follower.write_page(index, value)
    follower.take_checkpoint(1)
    plan = follower.apply_transfer(source, seq)
    assert follower.plan_transfer(source, seq).out_of_date_pages == []
    assert plan.pages_transferred <= max(len(ops), len(divergent)) + len(ops)


@settings(max_examples=30, deadline=None)
@given(ops=writes)
def test_unmodified_pages_are_never_transferred(ops):
    source = PartitionTree()
    follower = PartitionTree()
    for index, value in ops:
        source.write_page(index, value)
        follower.write_page(index, value)
    source.take_checkpoint(1)
    follower.take_checkpoint(1)
    plan = follower.plan_transfer(source, 1)
    assert plan.pages_transferred == 0
    assert plan.bytes_transferred == 0


class _FoldIntoSuccessor(PartitionTree):
    """``discard_checkpoint`` as it was before the fold direction depended
    on the sizes: always copy the discarded copy's pages into its successor."""

    def discard_checkpoint(self, seq: int) -> None:
        copy = self._checkpoints.get(seq)
        if copy is None:
            return
        position = self._checkpoint_order.index(seq)
        del self._checkpoint_order[position]
        if position < len(self._checkpoint_order):
            successor = self._checkpoints[self._checkpoint_order[position]]
            for index, record in copy.pages.items():
                successor.pages.setdefault(index, record)
        else:
            self._dirty.update(copy.pages)
        del self._checkpoints[seq]


PAGES = 12

actions = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, PAGES - 1), st.binary(max_size=8)),
        st.tuples(st.just("snapshot")),
        # Release the k-th live snapshot (modulo how many are live).
        st.tuples(st.just("release"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(script=actions, preload=st.integers(0, PAGES))
def test_release_order_never_changes_what_a_snapshot_holds(script, preload):
    """Whatever order snapshots are taken, written under and released in,
    every live snapshot keeps answering ``page_at_checkpoint`` with the
    values a full copy taken at snapshot time holds, its root is the AdHash
    sum of that copy's page digests, and the tree agrees record for record
    and root for root with one that folds a released copy into its
    successor the old way."""
    tree = PartitionTree()
    reference = _FoldIntoSuccessor()
    # A big first copy and small later ones is the case the fold now turns
    # around; a small first copy keeps the other direction covered.
    for index in range(preload):
        tree.write_page(index, b"preloaded")
        reference.write_page(index, b"preloaded")
    full_copies = {}
    seq = 0

    def check():
        assert tree.checkpoint_seqs() == reference.checkpoint_seqs()
        assert tree.root_digest() == reference.root_digest()
        for live, full_copy in full_copies.items():
            assert tree.root_digest(live) == reference.root_digest(live)
            assert tree.root_digest(live) == sum(
                content_page_digest(index, value)
                for index, value in full_copy.items()
            ) % ADHASH_MODULUS
            for index in range(PAGES):
                record = tree.page_at_checkpoint(index, live)
                assert record == reference.page_at_checkpoint(index, live)
                assert (record.value if record else None) == full_copy.get(index)

    for action in script:
        if action[0] == "write":
            tree.write_page(action[1], action[2])
            reference.write_page(action[1], action[2])
        elif action[0] == "snapshot":
            seq += 1
            tree.take_checkpoint(seq)
            reference.take_checkpoint(seq)
            full_copies[seq] = dict(tree.page_items())
        elif full_copies:
            released = sorted(full_copies)[action[1] % len(full_copies)]
            tree.discard_checkpoint(released)
            reference.discard_checkpoint(released)
            del full_copies[released]
        check()

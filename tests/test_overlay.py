"""Unit and property tests for the dissemination-tree layer
(``net/overlay.py``): tree shape, wire-size model, authenticator
stripping, and the per-node wire-accounting API the benchmarks read."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.auth import Authentication, build_session_keys
from repro.core.config import AuthMode, ProtocolOptions, ReplicaSetConfig
from repro.core.messages import GENERIC_HEADER_SIZE, Commit, Prepare
from repro.crypto.authenticator import ENTRY_SIZE, Authenticator, positions_of
from repro.crypto.mac import compute_mac
from repro.crypto.signatures import SignatureRegistry
from repro.net.network import NetworkStats
from repro.net.overlay import (
    RELAY_ENTRY_OVERHEAD,
    RELAY_HEADER_SIZE,
    Relay,
    RelayComplaint,
    RelayEntry,
    TreePlan,
    tree_depth_bound,
    tree_order,
)


# ------------------------------------------------------------------ tree shape
tree_cases = st.tuples(
    st.integers(min_value=0, max_value=200),   # view
    st.integers(min_value=4, max_value=40),    # n
    st.integers(min_value=2, max_value=6),     # fanout
)


@settings(max_examples=200, deadline=None)
@given(case=tree_cases, root=st.integers(min_value=0, max_value=39))
def test_every_tree_spans_all_replicas_once_within_depth_bound(case, root):
    view, n, fanout = case
    root_index = root % n
    plan = TreePlan(view, root_index, n, fanout)

    # Spanning exactly once: the order is a permutation of all indices.
    assert sorted(plan.order) == list(range(n))
    assert plan.order[0] == root_index

    # Walking children from the root reaches every replica exactly once...
    seen = []
    stack = [root_index]
    while stack:
        member = stack.pop()
        seen.append(member)
        stack.extend(plan.children_of(member))
    assert sorted(seen) == list(range(n))

    # ...within the ⌈log_k n⌉ depth bound.
    bound = tree_depth_bound(n, fanout)
    assert all(plan.depth_of(i) <= bound for i in range(n))


@settings(max_examples=100, deadline=None)
@given(case=tree_cases)
def test_subtrees_partition_the_group(case):
    view, n, fanout = case
    plan = TreePlan(view, 0, n, fanout)
    children = plan.children_of(0)
    subtree_union = []
    for child in children:
        subtree_union.extend(plan.subtree_indices(child))
    # The root's children's subtrees partition everything below the root.
    assert sorted(subtree_union + [0]) == list(range(n))
    assert len(set(subtree_union)) == len(subtree_union)


def test_tree_order_rotates_with_the_view():
    n = 7
    orders = {tuple(tree_order(view, 2, n)) for view in range(n)}
    # Distinct rotations (n-1 of them: deleting the root merges the two
    # rotations adjacent to it): a faulty interior node cannot occupy the
    # same position forever.
    assert len(orders) == n - 1
    for view in range(n):
        order = tree_order(view, 2, n)
        assert order[0] == 2
        assert sorted(order) == list(range(n))


def test_interior_order_is_shared_across_roots():
    """For one view, different roots' trees use the same ring order with
    the root spliced out — the overlap that makes relay bundling work."""
    n, view = 9, 4
    base = [i for i in tree_order(view, 0, n) if i != 3]
    other = [i for i in tree_order(view, 3, n) if i != 0]
    assert base[1:] == other[1:]  # identical interior past the two roots


# ------------------------------------------------------------------ wire sizes
def _prepare(replica="replica1", tags=None):
    message = Prepare(view=0, seq=1, digest=b"d" * 16, replica=replica,
                      sender=replica)
    if tags is not None:
        message.auth = Authenticator(replica, b"".join(tags.values()), positions_of(tags))
    return message


def test_relay_wire_size_model():
    tags = {f"replica{i}": b"t" * 8 for i in range(4)}
    inner = _prepare(tags=tags)
    relay = Relay(
        entries=(RelayEntry(view=0, root="replica1", inner=inner),),
        sender="replica2",
    )
    expected_body = (
        RELAY_HEADER_SIZE + RELAY_ENTRY_OVERHEAD + GENERIC_HEADER_SIZE
        + inner.body_size()
    )
    assert relay.body_size() == expected_body
    # The envelope's authentication bytes are the piggybacked vectors.
    assert relay.auth_size() == inner.auth_size()
    assert relay.wire_size() == GENERIC_HEADER_SIZE + expected_body + relay.auth_size()


def test_relay_complaint_is_small_and_unauthenticated():
    complaint = RelayComplaint(root="replica0", view=3, reason="silent",
                               reporter="replica5", sender="replica5")
    assert complaint.body_size() == 32
    assert complaint.auth is None


# ------------------------------------------------------- authenticator stripping
class _FakeNode:
    def __init__(self, name):
        self.name = name
        self.protocol = None


def test_origination_strips_authenticators_to_each_subtree():
    config = ReplicaSetConfig(n=13)
    options = ProtocolOptions().with_tree_dissemination()
    from repro.net.overlay import OverlayDisseminator

    def node_auth(owner):
        return Authentication(owner, AuthMode.MAC,
                              build_session_keys(owner, config.replica_ids),
                              SignatureRegistry())

    disseminator = OverlayDisseminator(_FakeNode("replica0"), config, options)
    plan = disseminator._plan(0, 0)
    sender = node_auth("replica0")
    message = sender.sign_multicast(_prepare(replica="replica0"),
                                    config.others("replica0"))
    signed = message.payload_digest()
    original = (message.auth.vector, dict(message.auth.positions))
    assert len(message.auth.vector) == ENTRY_SIZE * 12

    served = []
    for child in plan.children_of(0):
        stripped = disseminator._strip_for(message, plan, child)
        subtree = {config.replica_ids[i] for i in plan.subtree_indices(child)}
        # Exactly the entries the subtree needs survive; none are invented:
        # each is the MAC of the digest under that receiver's pair key.
        assert set(stripped.auth.positions) == subtree
        assert len(stripped.auth.vector) == ENTRY_SIZE * len(subtree)
        assert stripped.auth.size_bytes() == ENTRY_SIZE * len(subtree)
        for receiver in config.others("replica0"):
            entry = stripped.auth.entry(receiver)
            if receiver in subtree:
                assert entry == compute_mac(sender.keys.outbound[receiver], signed)
                assert entry == message.auth.entry(receiver)
            else:
                assert entry is None
            assert node_auth(receiver).verify(stripped) == (receiver in subtree)
        assert stripped.auth.sender == "replica0"
        # Every copy to one subtree shares one position table.
        assert (disseminator._strip_for(message, plan, child).auth.positions
                is stripped.auth.positions)
        # The original is untouched (the flat copies still need the full vector).
        assert (message.auth.vector, message.auth.positions) == original
        served.extend(subtree)
    assert sorted(served) == sorted(config.others("replica0"))
    # Stripping shrinks the modeled authenticator bytes.
    child = plan.children_of(0)[0]
    assert disseminator._strip_for(message, plan, child).auth_size() < message.auth_size()


def test_stripping_keeps_sizes_when_entries_were_never_computed():
    """``real_crypto`` off: the vector is empty, the wire size is not."""
    config = ReplicaSetConfig(n=13)
    options = ProtocolOptions().with_tree_dissemination()
    from repro.net.overlay import OverlayDisseminator

    disseminator = OverlayDisseminator(_FakeNode("replica0"), config, options)
    plan = disseminator._plan(0, 0)
    sender = Authentication("replica0", AuthMode.MAC,
                            build_session_keys("replica0", config.replica_ids),
                            SignatureRegistry(), real_crypto=False)
    message = sender.sign_multicast(_prepare(replica="replica0"),
                                    config.others("replica0"))
    assert message.auth.vector == b"" and message.auth_size() == ENTRY_SIZE * 12
    sizes = [disseminator._strip_for(message, plan, child).auth_size()
             for child in plan.children_of(0)]
    assert sum(sizes) == ENTRY_SIZE * 12 and all(sizes)


def test_stripping_disabled_forwards_the_original_object():
    config = ReplicaSetConfig(n=13)
    options = ProtocolOptions().with_tree_dissemination(relay_strip_auth=False)
    from repro.net.overlay import OverlayDisseminator

    disseminator = OverlayDisseminator(_FakeNode("replica0"), config, options)
    plan = disseminator._plan(0, 0)
    message = _prepare(replica="replica0",
                       tags={r: b"t" * 8 for r in config.others("replica0")})
    child = plan.children_of(0)[0]
    assert disseminator._strip_for(message, plan, child) is message


# ------------------------------------------------------------- wire accounting
def test_network_stats_per_node_and_auth_accounting():
    stats = NetworkStats()
    message = _prepare(tags={"replica0": b"t" * 8, "replica2": b"t" * 8})
    stats.record("Prepare", 100, "replica1", message.auth_size())
    stats.record("Prepare", 60, "replica1", 0)
    stats.record("Commit", 40, "replica2", 8)

    totals = stats.wire_totals()
    assert totals["messages_sent"] == 3
    assert totals["payload_bytes"] == 200
    assert totals["auth_bytes"] == message.auth_size() + 8
    assert totals["per_type"] == {"Prepare": 2, "Commit": 1}
    assert stats.per_node["replica1"].messages_sent == 2
    assert stats.per_node["replica1"].bytes_sent == 160
    assert stats.per_node["replica2"].auth_bytes_sent == 8
    # The snapshot is detached from the live counters.
    totals["per_type"]["Prepare"] = 0
    assert stats.per_type["Prepare"] == 2

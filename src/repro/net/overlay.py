"""Overlay dissemination trees for the agreement phase (large-n mode).

The paper's agreement phases are all-to-all: every replica multicasts
PREPARE/COMMIT/CHECKPOINT to every other replica, so one protocol round
costs O(n²) wire messages — which is why large groups (f=10, n=31) crawl.
This module implements the optional ``dissemination="tree"`` communication
mode (``ProtocolOptions.dissemination``): for each (view, sender) a
deterministic k-ary relay tree over the replica set carries the sender's
agreement-phase multicasts, in the spirit of FlexCast's overlay-based
atomic multicast (PAPERS.md).

**Authentication is end-to-end and unchanged.**  The sender's per-receiver
authenticator vector (Section 3.2.1) rides piggybacked on the relayed
message: each receiver verifies only its own MAC entry under the *root's*
session key, so an interior relay can forward tags but cannot forge them,
and a tampered payload fails MAC verification at every honest receiver
exactly like a forged flat-mode message.  The root *strips* the vector
down to each first-hop subtree's entries — removal is not forgery — which
shrinks authenticator bytes on the wire from O(n) per delivered copy to
O(subtree).

**Bundling is what reduces the message count.**  Routing a multicast over
a tree alone does not change the total number of wire messages (every
replica must still receive every PREPARE/COMMIT, so a tree spends exactly
n-1 edge crossings per multicast — the same n-1 sends flat mode makes); it
only moves the fan-out off the sender.  The reduction comes from relay
aggregation: all entries a node owes the same next hop within one hold
window (``relay_hold_us``) travel in a single :class:`Relay` envelope.
The per-view interior ordering is deliberately shared across roots (see
:func:`tree_order`), so one node's forwarding duties for *different*
senders' trees concentrate on a few overlay neighbours and bundles stay
fat.

**Failure handling is watchdog + fallback, never silence.**  A per-edge
watchdog at each receiver notices when relayed traffic from one root goes
quiet while other tree traffic keeps flowing (a silent interior node), and
end-to-end MAC failures on relayed deliveries expose a tampering interior
node; either way the receiver complains to the root, which falls back to
direct flat transmission for the rest of the view.  Trees are rotated by
construction at the next view (the ordering is view-keyed), and the
Section 5.2 status/retransmission machinery — which always runs flat —
backstops any window the watchdog has not closed yet, so liveness under
≤f faults is exactly the base protocol's.  A forged complaint can at worst
disable the optimization for one sender for one view: fallback *is* the
certified flat protocol, so the watchdog path is safe to trigger spuriously.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import ceil, log
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.messages import (
    GENERIC_HEADER_SIZE,
    Checkpoint,
    Commit,
    Message,
    Prepare,
)
from repro.crypto.authenticator import Authenticator, positions_of
from repro.sim.events import EventKind

#: Fixed overhead of a relay envelope and of each bundled entry (routing
#: metadata: the tree view and the root's identity).
RELAY_HEADER_SIZE = 16
RELAY_ENTRY_OVERHEAD = 12

#: Message types that ride dissemination trees.  Pre-prepares, view
#: changes, client traffic and status/retransmissions always go flat: the
#: tree only carries the symmetric agreement-phase storms that dominate
#: the O(n²) cost.
TREE_TYPES = (Prepare, Commit, Checkpoint)


# ---------------------------------------------------------------------------
# Deterministic tree construction (pure functions — property-tested)
# ---------------------------------------------------------------------------


def tree_order(view: int, root_index: int, n: int) -> List[int]:
    """Heap ordering of replica indices for the (view, root) relay tree.

    Position 0 is the root; the interior is the view-rotated ring of the
    remaining indices.  Two properties matter:

    * **Rotation** — the ordering is keyed on the view, so a tree whose
      interior contains a faulty relay is replaced wholesale at the next
      view change (watchdog fallback only ever needs to bridge one view).
    * **Shared interior order** — for a fixed view, every root's tree uses
      the *same* ring order with the root spliced out, so a node occupies
      nearly the same heap position (q or q+1) in all n trees and its
      children across roots overlap heavily.  That concentration is what
      lets the relay bundle forwards for many roots into few envelopes.
    """
    shift = view % n
    order = [root_index]
    for i in range(n):
        index = (shift + i) % n
        if index != root_index:
            order.append(index)
    return order


def tree_depth_bound(n: int, fanout: int) -> int:
    """Upper bound on the depth of any (view, root) tree: ⌈log_k n⌉."""
    if n <= 1:
        return 0
    return max(1, ceil(log(n) / log(max(2, fanout))))


class TreePlan:
    """The materialized (view, root) relay tree: children and subtrees.

    Built once per (view, root) and cached by the disseminator — tree
    construction is pure arithmetic over the replica indices, so every
    node derives the identical plan independently.
    """

    __slots__ = ("view", "root_index", "n", "fanout", "order", "_position",
                 "_subtree_positions")

    def __init__(self, view: int, root_index: int, n: int, fanout: int) -> None:
        self.view = view
        self.root_index = root_index
        self.n = n
        self.fanout = fanout
        self.order = tree_order(view, root_index, n)
        self._position = {index: pos for pos, index in enumerate(self.order)}
        self._subtree_positions: Dict[int, Mapping[str, int]] = {}

    def children_of(self, member_index: int) -> List[int]:
        """Replica indices of ``member_index``'s children in this tree."""
        position = self._position.get(member_index)
        if position is None:
            return []
        start = self.fanout * position + 1
        end = min(start + self.fanout, self.n)
        return [self.order[c] for c in range(start, end)]

    def subtree_indices(self, member_index: int) -> List[int]:
        """All replica indices in the subtree rooted at ``member_index``
        (inclusive)."""
        position = self._position.get(member_index)
        if position is None:
            return []
        out: List[int] = []
        stack = [position]
        fanout = self.fanout
        while stack:
            pos = stack.pop()
            out.append(self.order[pos])
            start = fanout * pos + 1
            stack.extend(range(start, min(start + fanout, self.n)))
        return out

    def subtree_positions(
        self, member_index: int, replica_ids: Tuple[str, ...]
    ) -> Mapping[str, int]:
        """The authenticator position table (receiver -> position) of the
        subtree under ``member_index``; one per subtree, shared by every
        vector stripped down to it."""
        cached = self._subtree_positions.get(member_index)
        if cached is None:
            cached = positions_of(
                replica_ids[i] for i in self.subtree_indices(member_index)
            )
            self._subtree_positions[member_index] = cached
        return cached

    def depth_of(self, member_index: int) -> int:
        position = self._position[member_index]
        depth = 0
        fanout = self.fanout
        while position > 0:
            position = (position - 1) // fanout
            depth += 1
        return depth


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelayEntry:
    """One relayed multicast: the tree it travels on plus the original,
    root-authenticated message."""

    view: int
    root: str
    inner: Message


@dataclass
class Relay(Message):
    """A bundle of relayed agreement messages sharing one wire envelope.

    The envelope itself carries no authentication: each bundled ``inner``
    message keeps its root's authenticator vector, which is the only thing
    receivers trust.  Tampering with the routing metadata can only misroute
    (equivalent to a silent relay, which the watchdog covers)."""

    entries: Tuple[RelayEntry, ...] = ()

    def payload_fields(self) -> Tuple[Any, ...]:
        # Relays are never signed or digested on the protocol path; the
        # canonical encoding exists only for completeness.
        return tuple(
            (e.view, e.root, e.inner.payload_digest()) for e in self.entries
        )

    def body_size(self) -> int:
        total = RELAY_HEADER_SIZE
        for entry in self.entries:
            total += (
                RELAY_ENTRY_OVERHEAD
                + GENERIC_HEADER_SIZE
                + entry.inner.body_size()
            )
        return total

    def auth_size(self) -> int:
        # The piggybacked (possibly stripped) authenticator vectors of the
        # bundled originals — counted so the wire accounting sees the same
        # authenticator bytes a flat send would report.
        return sum(entry.inner.auth_size() for entry in self.entries)


@dataclass
class RelayComplaint(Message):
    """Watchdog notice from a receiver to a root: relayed traffic from
    ``root`` went silent or arrived tampered.

    Node-layer control traffic, deliberately unauthenticated: the only
    effect of a complaint (forged or not) is that the root transmits
    directly — the certified base protocol — for the rest of the view."""

    root: str = ""
    view: int = 0
    reason: str = ""  # "silent" | "tamper"
    reporter: str = ""

    def payload_fields(self) -> Tuple[Any, ...]:
        return (self.root, self.view, self.reason, self.reporter)

    def body_size(self) -> int:
        return 32


# ---------------------------------------------------------------------------
# The per-node disseminator
# ---------------------------------------------------------------------------


@dataclass
class DisseminationStats:
    """Per-node overlay counters (benchmarks and tests read these)."""

    entries_originated: int = 0
    entries_forwarded: int = 0
    bundles_sent: int = 0
    complaints_sent: int = 0
    complaints_received: int = 0
    fallbacks: int = 0
    tampered_deliveries: int = 0
    watchdog_firings: int = 0


class OverlayDisseminator:
    """Tree-mode send/receive logic bolted onto one ``ProtocolNode``.

    Send side: agreement multicasts become relay entries addressed to the
    node's children in its own (view, self) tree.  Receive side: bundled
    entries are forwarded to the node's children in each entry's
    (view, root) tree, then delivered to the local protocol.  All outgoing
    entries buffer in a per-destination hold queue flushed ``hold_us``
    later in one :class:`Relay` envelope per next hop; the flush runs as a
    normal internal event, so CPU accounting, per-message fault injection
    and delivery-train coalescing apply exactly as they do to flat sends.
    """

    def __init__(self, node: Any, config: Any, options: Any) -> None:
        self.node = node
        self.config = config
        self.fanout = max(2, options.relay_fanout)
        self.hold_us = max(0.0, options.relay_hold_us)
        self.watchdog_period = options.relay_watchdog_period
        self.strip_auth = options.relay_strip_auth
        self.stats = DisseminationStats()
        self._self_index = config.replica_index(node.name)
        self._plans: Dict[Tuple[int, int], TreePlan] = {}
        self._pending: Dict[str, List[RelayEntry]] = {}
        self._flush_scheduled = False
        #: View in which this node (as a root) fell back to flat sends.
        self._fallback_view = -1
        #: Roots already complained about, per view (complaint cooldown).
        self._complained: Dict[str, int] = {}
        self._last_arrival: Dict[str, float] = {}
        self._last_any_arrival = -1.0
        self._watchdog_mark = -1.0
        self._watchdog_committed = 0

    # ------------------------------------------------------------- membership
    def current_view(self) -> int:
        return getattr(self.node.protocol, "view", 0)

    def in_fallback(self) -> bool:
        return self._fallback_view == self.current_view()

    def _plan(self, view: int, root_index: int) -> TreePlan:
        key = (view, root_index)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) > 4 * self.config.n:
                # Plans are per (view, root); old views never come back.
                self._plans.clear()
            plan = TreePlan(view, root_index, self.config.n, self.fanout)
            self._plans[key] = plan
        return plan

    # -------------------------------------------------------------- send side
    def handles(self, message: Any, destinations: Tuple[str, ...]) -> bool:
        """Whether this multicast should ride the tree instead of flat."""
        return (
            type(message) in TREE_TYPES
            and len(destinations) == self.config.n - 1
            and not self.in_fallback()
        )

    def disseminate(self, message: Message, destinations: Tuple[str, ...]) -> None:
        """Queue ``message`` for this node's own (view, self) relay tree."""
        view = getattr(message, "view", None)
        if view is None:  # checkpoints carry no view field
            view = self.current_view()
        plan = self._plan(view, self._self_index)
        self.stats.entries_originated += 1
        replica_ids = self.config.replica_ids
        for child_index in plan.children_of(self._self_index):
            inner = self._strip_for(message, plan, child_index)
            self._enqueue(
                replica_ids[child_index],
                RelayEntry(view=view, root=self.node.name, inner=inner),
            )

    def _strip_for(self, message: Message, plan: TreePlan, child_index: int) -> Message:
        """A copy of ``message`` whose authenticator vector keeps only the
        entries the subtree under ``child_index`` needs.  Stripping slices
        MAC entries out; it can never fabricate one, so end-to-end
        verification is untouched.  Signature-mode auth (one object for
        everyone) and already-minimal vectors pass through unchanged."""
        auth = message.auth
        if not self.strip_auth or not isinstance(auth, Authenticator):
            return message
        needed = plan.subtree_positions(child_index, self.config.replica_ids)
        if not needed.keys() <= auth.positions.keys():
            # The sender had no key for someone down there: no entry to keep.
            needed = positions_of(r for r in needed if r in auth.positions)
        if len(needed) == len(auth.positions):
            return message
        stripped = copy.copy(message)
        stripped.auth = auth.restricted_to(needed)
        return stripped

    def _enqueue(self, destination: str, entry: RelayEntry) -> None:
        self._pending.setdefault(destination, []).append(entry)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.node.scheduler.schedule_after(
                self.hold_us, EventKind.INTERNAL, self.node.name,
                payload=self._flush,
            )

    def _flush(self) -> None:
        """Drain the hold queue: one Relay envelope per next hop.  Runs as
        an internal event on the owning node, so the envelopes pass through
        the node's outbox — CPU charges, fault injection and network
        delivery trains behave exactly as for flat sends."""
        self._flush_scheduled = False
        pending, self._pending = self._pending, {}
        if not pending:
            return
        pairs: List[Tuple[str, Any]] = []
        for destination, entries in pending.items():
            pairs.append(
                (destination, Relay(entries=tuple(entries), sender=self.node.name))
            )
        self.stats.bundles_sent += len(pairs)
        self.node.queue_send_many(pairs)

    # ----------------------------------------------------------- receive side
    def on_wire(self, message: Any) -> None:
        """Handle overlay control traffic delivered to this node."""
        if type(message) is RelayComplaint:
            self._on_complaint(message)
            return
        now = self.node.now
        self._last_any_arrival = now
        protocol = self.node.protocol
        metrics = getattr(protocol, "metrics", None)
        replica_ids = self.config.replica_ids
        for entry in message.entries:
            root = entry.root
            if root == self.node.name:
                # A faulty relay bounced our own traffic back: forwarding it
                # would re-flood our whole tree on the adversary's behalf.
                continue
            try:
                root_index = self.config.replica_index(root)
            except ValueError:
                continue  # malformed routing metadata
            self._last_arrival[root] = now
            plan = self._plan(entry.view, root_index)
            for child_index in plan.children_of(self._self_index):
                # Forward the entry as received.  The root already stripped
                # the authenticator vector down to our whole subtree at
                # origination; re-stripping per hop would shave a few more
                # bytes but costs a message copy on the simulator hot path
                # for every edge crossing of every multicast.
                self._enqueue(replica_ids[child_index], entry)
                self.stats.entries_forwarded += 1
            rejected_before = metrics.messages_rejected if metrics else 0
            protocol.receive(entry.inner)
            if metrics is not None and metrics.messages_rejected > rejected_before:
                # The end-to-end MAC failed on a relayed delivery: either
                # the root is faulty or an interior relay tampered.  The
                # response is the same — ask the root to go direct.
                self.stats.tampered_deliveries += 1
                self._complain(root, "tamper")

    def _on_complaint(self, message: RelayComplaint) -> None:
        self.stats.complaints_received += 1
        view = self.current_view()
        if self._fallback_view != view:
            self._fallback_view = view
            self.stats.fallbacks += 1

    def _complain(self, root: str, reason: str) -> None:
        view = self.current_view()
        if self._complained.get(root) == view:
            return
        self._complained[root] = view
        self.stats.complaints_sent += 1
        self.node.queue_send(
            root,
            RelayComplaint(
                root=root, view=view, reason=reason,
                reporter=self.node.name, sender=self.node.name,
            ),
        )

    # -------------------------------------------------------------- watchdog
    def watchdog_tick(self) -> None:
        """Per-edge silence detection, run periodically on the node.

        The activity signal is relay traffic *or* agreement progress: if
        either happened during the last window, every root whose relayed
        messages did not arrive in that window is behind a silent interior
        node on our path (or has itself gone flat, quiet or Byzantine —
        complaining to it is then harmless, because fallback *is* the base
        protocol).  Progress counts as activity so that a victim whose
        entire relay intake passes through the silent node — and therefore
        sees no tree traffic at all while the group commits merrily — still
        complains instead of mistaking the silence for an idle group.
        Complaints make roots transmit directly for the rest of the view;
        the view-keyed rotation repairs the trees at the next view change,
        and the per-(root, view) cooldown bounds the complaint traffic."""
        now = self.node.now
        mark = self._watchdog_mark
        self._watchdog_mark = now
        protocol = self.node.protocol
        metrics = getattr(protocol, "metrics", None)
        committed = metrics.batches_committed if metrics is not None else 0
        progressed = committed > self._watchdog_committed
        self._watchdog_committed = committed
        if mark < 0:
            return  # first tick: no window to compare against yet
        if self._last_any_arrival <= mark and not progressed:
            return  # no tree traffic and no progress: the group is idle
        for root in self.config.replica_ids:
            if root == self.node.name:
                continue
            if self._last_arrival.get(root, -1.0) <= mark:
                self.stats.watchdog_firings += 1
                self._complain(root, "silent")


__all__ = [
    "TREE_TYPES",
    "RELAY_ENTRY_OVERHEAD",
    "RELAY_HEADER_SIZE",
    "DisseminationStats",
    "OverlayDisseminator",
    "Relay",
    "RelayComplaint",
    "RelayEntry",
    "TreePlan",
    "tree_depth_bound",
    "tree_order",
]

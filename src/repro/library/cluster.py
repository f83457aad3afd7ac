"""Cluster assembly: wiring protocol objects to the simulator.

``BFTCluster`` plays the role of the deployment scripts plus the physical
testbed in the paper's evaluation: it instantiates ``n = 3f + 1`` replicas
running the protocol over the simulated network, charges CPU time for
cryptography, execution and message handling according to the Chapter-7
cost model, and lets tests and benchmarks inject Byzantine faults.
``SimWorld`` is the one place a simulated world and its nodes are built,
for replica groups, sharded deployments and the unreplicated baseline.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.auth import Authentication, Layout
from repro.core.client import Client, CompletedRequest
from repro.core.config import (
    DEFAULT_OPTIONS, AuthMode, ProtocolOptions, ReplicaSetConfig,
)
from repro.core.env import Env
from repro.core.messages import PrePrepare, Reply, Request
from repro.core.replica import Replica
from repro.crypto.keys import SessionKeyTable
from repro.crypto.signatures import SignatureRegistry
from repro.net.conditions import NetworkConditions
from repro.net.network import Network, Run
from repro.net.overlay import OverlayDisseminator, Relay, RelayComplaint
from repro.perfmodel.params import ModelParameters, PAPER_PARAMETERS
from repro.recovery.manager import RecoveryManager
from repro.services.interface import Service
from repro.services.null_service import NullService
from repro.sim.events import EventKind
from repro.sim.faults import FaultInjector, FaultSpec, FaultType
from repro.sim.node import Node, Timer
from repro.sim.rng import SimRandom
from repro.sim.scheduler import Scheduler
from repro.statetransfer.transfer import StateTransferManager


class SimEnv(Env):
    """Environment implementation backed by a :class:`ProtocolNode`."""

    def __init__(self, node: "ProtocolNode") -> None:
        self._node = node

    def now(self) -> float:
        return self._node.scheduler.clock.now

    def send(self, destination: str, message: Any) -> None:
        self._node.queue_send(destination, message)

    def broadcast(self, destinations: Tuple[str, ...], message: Any) -> None:
        self._node.queue_broadcast(destinations, message)

    def set_timer(self, label: str, delay: float) -> None:
        self._node.set_timer(label, delay)

    def cancel_timer(self, label: str) -> None:
        self._node.cancel_timer(label)

    def timer_running(self, label: str) -> bool:
        return self._node.timer_running(label)

    def charge(self, micros: float) -> None:
        self._node.pending_charge += micros

    def cpu_backlog(self) -> float:
        node = self._node
        backlog = node.cpu_available_at - node.scheduler.clock.now
        return backlog if backlog > 0.0 else 0.0

    def record(self, event: str, **details: Any) -> None:
        self._node.record(event, details)


class ProtocolNode(Node):
    """Bridges a protocol object (replica or client) to the simulator.

    Responsible for CPU-time accounting: message handling starts when both
    the message has arrived and the node's CPU is free; any time charged by
    the protocol (crypto, execution) extends the node's busy period; and
    outgoing messages enter the network no earlier than the end of that
    busy period, plus their own per-message send cost.
    """

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        network: Network,
        params: ModelParameters,
        fault_injector: FaultInjector,
        rng: SimRandom,
        record_events: bool = False,
    ) -> None:
        super().__init__(name, scheduler)
        self.network = network
        self.params = params
        self.fault_injector = fault_injector
        #: The injector's live spec table: falsy while no fault is registered.
        self._fault_specs = fault_injector.specs
        self._receive_cpu = params.communication.receive_cpu
        self.rng = rng
        self.protocol: Any = None
        #: Tree-mode dissemination logic (``net/overlay.py``); ``None`` in
        #: the default flat mode and on client nodes.
        self.disseminator: Optional[OverlayDisseminator] = None
        self.pending_charge = 0.0
        self.cpu_available_at = 0.0
        self.cpu_busy_total = 0.0
        #: What the running handler has sent so far: ``(destinations,
        #: message)`` entries, a multicast being one entry.
        self._outbox: List[Tuple[Tuple[str, ...], Any]] = []
        self._in_handler = False
        self._timers: Dict[str, Timer] = {}
        self.record_events = record_events
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    # ----------------------------------------------------------------- events
    def on_message(self, message: Any, arrival_time: float, size_bytes: int) -> None:
        """Handle one delivery.  On the path of every protocol message, so
        :meth:`_begin_handling`/:meth:`_finish_handling` are written out
        here, the crash check consults the injector only when it holds a
        fault, and an empty outbox skips the flush."""
        if self.crashed or (self._fault_specs and self._is_crashed()):
            return
        available = self.cpu_available_at
        busy_start = arrival_time if arrival_time > available else available
        self.pending_charge = self._receive_cpu(size_bytes)
        self._outbox = []
        self._in_handler = True
        disseminator = self.disseminator
        if disseminator is not None and type(message) in (Relay, RelayComplaint):
            # Overlay traffic: unbundle, forward down the tree, and deliver
            # the inner (root-authenticated) messages to the protocol.
            disseminator.on_wire(message)
        else:
            self.protocol.receive(message)
        self._in_handler = False
        charged = self.pending_charge
        self.cpu_available_at = busy_start + charged
        self.cpu_busy_total += charged
        self.pending_charge = 0.0
        outbox = self._outbox
        if outbox:
            self._outbox = []
            self._transmit_many(outbox)

    def on_timer(self, label: str) -> None:
        if self._is_crashed():
            return
        busy_start = max(self.now, self.cpu_available_at)
        self._begin_handling(0.0)
        self.protocol.on_timer(label)
        self._finish_handling(busy_start)

    def on_internal(self, payload: Any) -> None:
        if self._is_crashed():
            return
        busy_start = max(self.now, self.cpu_available_at)
        self._begin_handling(0.0)
        callback = payload
        if callable(callback):
            callback()
        self._finish_handling(busy_start)

    def external_call(self, action: Callable[[], Any]) -> Any:
        """Run protocol code from outside the simulation (e.g. a test or a
        synchronous client issuing a request) with full CPU accounting and
        outbox flushing, as if it were an event handler."""
        busy_start = max(self.now, self.cpu_available_at)
        self._begin_handling(0.0)
        try:
            return action()
        finally:
            self._finish_handling(busy_start)

    def _begin_handling(self, initial_charge: float) -> None:
        self.pending_charge = initial_charge
        self._outbox = []
        self._in_handler = True

    def _finish_handling(self, busy_start: float) -> None:
        self._in_handler = False
        self.cpu_available_at = busy_start + self.pending_charge
        self.cpu_busy_total += self.pending_charge
        self.pending_charge = 0.0
        outbox, self._outbox = self._outbox, []
        if outbox:
            self._transmit_many(outbox)

    # ------------------------------------------------------------------ sends
    def queue_send(self, destination: str, message: Any) -> None:
        if self._in_handler:
            self._outbox.append(((destination,), message))
        else:
            # Called from outside any handler (e.g. protocol set-up code):
            # a flush of its own.
            self._transmit_many([((destination,), message)])

    def queue_broadcast(self, destinations: Tuple[str, ...], message: Any) -> None:
        """Multicast ``message`` to ``destinations``: flat fan-out by
        default — one outbox entry, whatever the number of destinations —
        or over this node's relay tree when the tree mode claims the
        message type (``OverlayDisseminator.handles``)."""
        disseminator = self.disseminator
        if disseminator is not None and disseminator.handles(message, destinations):
            disseminator.disseminate(message, destinations)
            return
        name = self.name
        others = destinations
        if name in others:
            others = tuple([d for d in destinations if d != name])
        if not others:
            return
        if self._in_handler:
            self._outbox.append((others, message))
        else:
            self._transmit_many([(others, message)])

    def _transmit_many(self, outbox: List[Tuple[Tuple[str, ...], Any]]) -> None:
        """Send a flush: everything one handler sent, or one send made
        outside any handler.  Each outbox entry becomes one run — wire size
        and send cost once, then the busy-time chain, one addition per
        destination in outbox order, whose running values are the copies'
        departure times — and the network gets every run in one call
        (``Network.send_many``), hence at most one delivery train per flush.

        A node with a fault registered first passes every copy through
        :meth:`_apply_send_faults`, in outbox order (:meth:`_faulty_outbox`):
        a dropped copy leaves its run and takes no CPU, a changed copy
        becomes a run of its own, and DELAY_MESSAGES moves every departure
        of the flush back by its delay."""
        delay = 0.0
        if self.name in self._fault_specs:
            outbox = self._faulty_outbox(outbox)
            delay_fault = self.fault_injector.get(
                self.name, FaultType.DELAY_MESSAGES, self.now
            )
            if delay_fault is not None:
                delay = delay_fault.delay
        send_cpu_of = self.params.communication.send_cpu
        available = self.cpu_available_at
        busy = self.cpu_busy_total
        runs: List[Run] = []
        for destinations, message in outbox:
            size = message.wire_size() if hasattr(message, "wire_size") else 64
            send_cpu = send_cpu_of(size)
            departures = []
            for _ in destinations:
                available += send_cpu
                busy += send_cpu
                departures.append(available)
            if delay:
                departures = [depart + delay for depart in departures]
            runs.append((destinations, message, size, departures))
        self.cpu_available_at = available
        self.cpu_busy_total = busy
        self.network.send_many(self.name, runs)

    def _faulty_outbox(
        self, outbox: List[Tuple[Tuple[str, ...], Any]]
    ) -> List[Tuple[List[str], Any]]:
        """The outbox as this faulty node sends it: every copy through
        :meth:`_apply_send_faults` (and its random draws), in order.
        Consecutive copies that are the same object share an entry; a
        changed copy is a new object, hence an entry of its own."""
        sent: List[Tuple[List[str], Any]] = []
        for destinations, message in outbox:
            for destination in destinations:
                copy = self._apply_send_faults(destination, message)
                if copy is None:
                    continue
                if sent and sent[-1][1] is copy:
                    sent[-1][0].append(destination)
                else:
                    sent.append(([destination], copy))
        return sent

    def _apply_send_faults(self, destination: str, message: Any) -> Optional[Any]:
        injector = self.fault_injector
        if injector.empty():
            return message
        now = self.now
        if injector.has_fault(self.name, FaultType.MUTE_PRIMARY, now):
            if isinstance(message, PrePrepare):
                return None
        drop = injector.get(self.name, FaultType.DROP_MESSAGES, now)
        if drop is not None and self.rng.chance(drop.probability):
            return None
        if injector.has_fault(self.name, FaultType.EQUIVOCATE, now):
            if isinstance(message, PrePrepare):
                # Send a conflicting batch to this destination by perturbing
                # the non-deterministic value, which changes the batch digest.
                mutated = dataclasses.replace(
                    message, nondet=message.nondet + destination.encode()
                )
                mutated.auth = message.auth
                return mutated
        if injector.has_fault(self.name, FaultType.CORRUPT_REPLY, now):
            if isinstance(message, Reply):
                corrupted = dataclasses.replace(
                    message, result=b"corrupt", result_digest=b"\xff" * 16
                )
                corrupted.auth = message.auth
                return corrupted
        if injector.has_fault(self.name, FaultType.BAD_AUTHENTICATOR, now):
            if isinstance(message, Request) and message.auth is not None:
                if hasattr(message.auth, "corrupt_for"):
                    corrupt_for = frozenset({destination})
                    message = dataclasses.replace(message)
                    message.auth = dataclasses.replace(
                        message.auth, corrupt_for=corrupt_for
                    )
        if isinstance(message, Relay):
            if injector.has_fault(self.name, FaultType.SILENT_RELAY, now):
                # A silent interior node: drop every entry we merely relay
                # for another root, but keep sending our own multicasts.
                kept = tuple(e for e in message.entries if e.root == self.name)
                if not kept:
                    return None
                if len(kept) < len(message.entries):
                    mutated = dataclasses.replace(message, entries=kept)
                    mutated.auth = message.auth
                    message = mutated
            if injector.has_fault(self.name, FaultType.TAMPER_RELAY, now):
                # A tampering interior node: corrupt the relayed payloads
                # before forwarding.  The roots' MACs cover the payload
                # digests, so every honest receiver downstream rejects the
                # forgeries end-to-end.
                message = self._tamper_relay(message)
        return message

    def _tamper_relay(self, message: "Relay") -> "Relay":
        entries = []
        for entry in message.entries:
            if entry.root == self.name:
                entries.append(entry)  # its own traffic stays authentic
                continue
            inner = entry.inner
            if hasattr(inner, "digest"):
                tampered = dataclasses.replace(inner, digest=b"\xde\xad" * 8)
            elif hasattr(inner, "state_digest"):
                tampered = dataclasses.replace(inner, state_digest=b"\xde\xad" * 8)
            else:
                tampered = dataclasses.replace(inner, sender=inner.sender + "?")
            tampered.auth = inner.auth
            entries.append(dataclasses.replace(entry, inner=tampered))
        mutated = dataclasses.replace(message, entries=tuple(entries))
        mutated.auth = message.auth
        return mutated

    def _is_crashed(self) -> bool:
        return self.crashed or self.fault_injector.has_fault(
            self.name, FaultType.CRASH, self.now
        )

    # ------------------------------------------------------------------ timers
    def set_timer(self, label: str, delay: float) -> None:
        timer = self._timers.get(label)
        if timer is None:
            timer = self.new_timer(label, delay)
            self._timers[label] = timer
        timer.start(delay)

    def cancel_timer(self, label: str) -> None:
        timer = self._timers.get(label)
        if timer is not None:
            timer.stop()

    def timer_running(self, label: str) -> bool:
        timer = self._timers.get(label)
        return timer is not None and timer.running

    def armed_timers(self) -> List[str]:
        """The labels of the timers that are running, sorted."""
        return sorted(label for label, timer in self._timers.items() if timer.running)

    # ----------------------------------------------------------------- metrics
    def record(self, event: str, details: Dict[str, Any]) -> None:
        if self.record_events:
            self.events.append((self.now, event, details))


class SyncClient:
    """A convenience wrapper that drives the simulation until a request
    completes, giving examples and tests a blocking ``invoke``.

    ``cluster`` is a :class:`BFTCluster` or the unreplicated baseline's
    cluster (anything with a ``scheduler``) and ``client`` its protocol
    client.  Like the client, it keeps O(1) completion state:
    :meth:`last_completed` is the newest record, and a caller that wants
    every record passes ``on_complete`` to ``new_client``.
    """

    def __init__(self, cluster, client, node: ProtocolNode) -> None:
        self.cluster = cluster
        self.protocol = client
        self.node = node

    @property
    def id(self) -> str:
        return self.protocol.id

    def invoke(
        self, operation: bytes, read_only: bool = False, timeout: float = 60_000_000.0
    ) -> bytes:
        timestamp = self.node.external_call(
            lambda: self.protocol.invoke(operation, read_only=read_only)
        )
        deadline = self.cluster.scheduler.clock.now + timeout
        self.cluster.scheduler.run(
            until=deadline, stop_when=lambda: self.protocol.is_complete(timestamp)
        )
        completed = self.protocol.result_of(timestamp)
        if completed is None:
            message = (
                f"request {timestamp} from {self.id} did not complete within "
                f"{timeout} simulated microseconds"
            )
            for side in (self.protocol, self.cluster):
                stall_report = getattr(side, "stall_report", None)
                if stall_report is not None:
                    message += "\n" + stall_report()
            raise TimeoutError(message)
        return completed.result

    def invoke_async(self, operation: bytes, read_only: bool = False) -> int:
        return self.node.external_call(
            lambda: self.protocol.invoke(operation, read_only=read_only)
        )

    def last_completed(self) -> Optional[CompletedRequest]:
        return self.protocol.last_completed


class SimWorld:
    """The simulated world a deployment runs in: one seeded RNG, scheduler
    (and its clock), network and signature registry, and the one place a
    node is built (:meth:`node`).

    A multi-group deployment runs every group in one world; each group
    sees it through :meth:`fork`, which shares the clock, network,
    registry, session-key tables and authenticator layouts and derives the
    group's node RNG streams under its label.
    """

    def __init__(
        self,
        seed: int = 0,
        params: ModelParameters = PAPER_PARAMETERS,
        conditions: Optional[NetworkConditions] = None,
    ) -> None:
        self.rng = SimRandom(seed)
        self.scheduler = Scheduler()
        self.conditions = conditions or params.communication.network_conditions()
        self.network = Network(self.scheduler, self.conditions, self.rng.fork("net"))
        self.registry = SignatureRegistry()
        #: Each built node's session keys, by node name.
        self.session_keys: Dict[str, SessionKeyTable] = {}
        #: One authenticator layout per receiver set, for every node.
        self.layouts: Dict[Tuple[str, ...], Layout] = {}

    def fork(self, label: str) -> "SimWorld":
        """This world with node RNG streams derived under ``label``."""
        forked = copy.copy(self)
        forked.rng = self.rng.fork(label)
        return forked

    def node(
        self,
        name: str,
        peers: Iterable[str],
        params: ModelParameters,
        fault_injector: FaultInjector,
        auth_mode: AuthMode,
        real_crypto: bool = True,
        record_events: bool = False,
    ) -> Tuple[ProtocolNode, SimEnv, Authentication]:
        """Place node ``name`` on the network, with session keys shared
        with each of ``peers`` already built.  The caller builds its
        protocol object on the returned environment and authentication and
        sets ``node.protocol``.

        Each directed key k(a -> b) is derived once, and that one object is
        a's outbound key for b and b's inbound key from a; a peer built
        later pairs with this node the same way.  Keys are always the
        epoch-0 derivation: a replica's own epoch advances with every
        proactive recovery, but keys shared with clients are refreshed only
        by the clients' own new-key messages, which are not modeled, so a
        client built after a recovery still shares epoch-0 keys with it."""
        node = ProtocolNode(
            name, self.scheduler, self.network, params, fault_injector,
            self.rng.fork(name), record_events=record_events,
        )
        self.network.register(name)
        env = SimEnv(node)
        keys = SessionKeyTable(owner=name)
        built = self.session_keys
        initial_key = SessionKeyTable.initial_key
        for peer in peers:
            other = built.get(peer)
            if other is not None:
                keys.outbound[peer] = other.inbound[name] = initial_key(name, peer, 0)
                keys.inbound[peer] = other.outbound[name] = initial_key(peer, name, 0)
        built[name] = keys
        auth = Authentication(
            owner=name,
            mode=auth_mode,
            keys=keys,
            registry=self.registry,
            crypto_costs=params.crypto,
            env=env,
            real_crypto=real_crypto,
            layouts=self.layouts,
        )
        return node, env, auth

    def run(
        self,
        duration: Optional[float] = None,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if duration is not None:
            until = self.scheduler.clock.now + duration
        self.scheduler.run(until=until, max_events=max_events, stop_when=stop_when)

    @property
    def now(self) -> float:
        return self.scheduler.clock.now


class BFTCluster:
    """A complete simulated BFT deployment: the replicas of one group and
    their clients, placed in a :class:`SimWorld`.

    A cluster built by :meth:`create` has a world of its own.  Multi-group
    deployments (:mod:`repro.sharding`) give each group a fork of one
    shared world, so the groups advance on one clock and exchange
    messages over one network; each group then needs a distinct
    ``config.replica_prefix`` and ``client_prefix`` so node names stay
    unique in the world.
    """

    #: The world's run loop and clock, read through ``self.scheduler``.
    run = SimWorld.run
    now = SimWorld.now

    def __init__(
        self,
        config: ReplicaSetConfig,
        world: SimWorld,
        service_factory: Callable[[], Service] = NullService,
        options: ProtocolOptions = DEFAULT_OPTIONS,
        params: ModelParameters = PAPER_PARAMETERS,
        record_events: bool = False,
        client_prefix: str = "",
    ) -> None:
        self.config = config
        self.options = options
        self.params = params
        self.world = world
        self.scheduler = world.scheduler
        self.network = world.network
        self.conditions = world.conditions
        self.fault_injector = FaultInjector()
        self.client_prefix = client_prefix
        self.record_events = record_events

        self.replicas: Dict[str, Replica] = {}
        self.replica_nodes: Dict[str, ProtocolNode] = {}
        self.services: Dict[str, Service] = {}
        self.clients: Dict[str, SyncClient] = {}
        self.disseminators: Dict[str, OverlayDisseminator] = {}
        self._client_counter = 0

        for replica_id in config.replica_ids:
            self._build_replica(replica_id, service_factory)

        if options.dissemination == "tree":
            self._enable_tree_dissemination()
        elif options.dissemination != "flat":
            raise ValueError(
                f"unknown dissemination mode: {options.dissemination!r}"
            )

        if options.proactive_recovery:
            self._schedule_recoveries()

    # ----------------------------------------------------------------- set-up
    @classmethod
    def create(
        cls,
        f: int = 1,
        n: Optional[int] = None,
        service_factory: Callable[[], Service] = NullService,
        options: ProtocolOptions = DEFAULT_OPTIONS,
        params: ModelParameters = PAPER_PARAMETERS,
        conditions: Optional[NetworkConditions] = None,
        seed: int = 0,
        checkpoint_interval: int = 128,
        record_events: bool = False,
        **config_overrides,
    ) -> "BFTCluster":
        if n is None:
            config = ReplicaSetConfig.for_faults(
                f, checkpoint_interval=checkpoint_interval, **config_overrides
            )
        else:
            config = ReplicaSetConfig(
                n=n, checkpoint_interval=checkpoint_interval, **config_overrides
            )
        return cls(
            config,
            SimWorld(seed, params, conditions),
            service_factory=service_factory,
            options=options,
            params=params,
            record_events=record_events,
        )

    def _node(self, name: str) -> Tuple[ProtocolNode, SimEnv, Authentication]:
        """A replica or client node of this group (:meth:`SimWorld.node`)."""
        return self.world.node(
            name, self.config.replica_ids, self.params, self.fault_injector,
            self.options.auth_mode, self.options.real_crypto, self.record_events,
        )

    def _build_replica(
        self, replica_id: str, service_factory: Callable[[], Service]
    ) -> None:
        service = service_factory()
        node, env, auth = self._node(replica_id)
        replica = Replica(
            replica_id,
            self.config,
            service,
            env,
            auth,
            options=self.options,
            params=self.params,
        )
        replica.state_transfer = StateTransferManager(replica)
        replica.recovery = RecoveryManager(
            replica,
            reboot_cost=self.options.recovery_reboot_cost,
            state_check_cost=self.options.recovery_state_check_cost,
        )
        node.protocol = replica
        self.replicas[replica_id] = replica
        self.replica_nodes[replica_id] = node
        self.services[replica_id] = service

    def new_client(
        self,
        name: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> SyncClient:
        if name is None:
            name = f"{self.client_prefix}client{self._client_counter}"
            self._client_counter += 1
        node, env, auth = self._node(name)
        client = Client(
            name,
            self.config,
            env,
            auth,
            options=self.options,
            on_complete=on_complete,
        )
        node.protocol = client
        sync = SyncClient(self, client, node)
        self.clients[name] = sync
        return sync

    def _enable_tree_dissemination(self) -> None:
        """Attach an :class:`OverlayDisseminator` to every replica node and
        stagger their silence watchdogs across the period (so complaint
        bursts don't synchronize)."""
        period = self.options.relay_watchdog_period
        stagger = period / max(1, self.config.n)
        for index, replica_id in enumerate(self.config.replica_ids):
            node = self.replica_nodes[replica_id]
            disseminator = OverlayDisseminator(node, self.config, self.options)
            node.disseminator = disseminator
            self.disseminators[replica_id] = disseminator
            self._schedule_periodic(
                node, period + stagger * index, period,
                disseminator.watchdog_tick,
            )

    def _schedule_recoveries(self) -> None:
        """Stagger proactive recoveries so at most one replica recovers at a
        time (Section 4.3.3)."""
        period = self.options.watchdog_period
        stagger = period / max(1, self.config.n)
        for index, replica_id in enumerate(self.config.replica_ids):
            node = self.replica_nodes[replica_id]
            replica = self.replicas[replica_id]
            first = stagger * (index + 1)

            def make_callback(r: Replica) -> Callable[[], None]:
                def recover() -> None:
                    r.recovery.start_recovery()
                return recover

            self._schedule_periodic(node, first, period, make_callback(replica))

    def _schedule_periodic(
        self, node: ProtocolNode, first: float, period: float, callback: Callable[[], None]
    ) -> None:
        def fire() -> None:
            callback()
            self.scheduler.schedule_after(
                period, EventKind.INTERNAL, node.name, payload=fire
            )

        self.scheduler.schedule_after(first, EventKind.INTERNAL, node.name, payload=fire)

    # ---------------------------------------------------------------- faults
    def inject_fault(self, spec: FaultSpec) -> None:
        self.fault_injector.add(spec)

    def crash_replica(self, replica_id: str, at: Optional[float] = None) -> None:
        self.inject_fault(
            FaultSpec(node=replica_id, fault=FaultType.CRASH, start=at or self.now)
        )

    def corrupt_replica_state(self, replica_id: str) -> None:
        self.services[replica_id].corrupt()

    def primary_replica(self, view: int = 0) -> Replica:
        return self.replicas[self.config.primary_of(view)]

    def agreement_view(self) -> int:
        """The highest view any replica is currently in."""
        return max(r.view for r in self.replicas.values())

    def executed_counts(self) -> Dict[str, int]:
        return {rid: r.last_executed for rid, r in self.replicas.items()}

    def stall_report(self) -> str:
        """One line per replica of where it stands: its view and whether
        that view is active, its water marks, the last batch it executed,
        the requests waiting for a sequence number and its armed timers.
        It reads state only, so a stalled run can explain itself."""
        lines = []
        for replica_id, replica in self.replicas.items():
            node = self.replica_nodes[replica_id]
            lines.append(
                f"{replica_id} view {replica.view} "
                f"{'active' if replica.active_view else 'changing'} "
                f"watermarks {replica.log.low_water_mark}-{replica.log.high_water_mark} "
                f"last_executed {replica.last_executed} "
                f"queued {len(replica.request_queue)} "
                f"timers {','.join(node.armed_timers()) or '-'}"
                + (" crashed" if node._is_crashed() else "")
            )
        return "\n".join(lines)

"""Cluster assembly: wiring protocol objects to the simulator.

``BFTCluster`` plays the role of the deployment scripts plus the physical
testbed in the paper's evaluation: it instantiates ``n = 3f + 1`` replicas
running the protocol over the simulated network, charges CPU time for
cryptography, execution and message handling according to the Chapter-7
cost model, and lets tests and benchmarks inject Byzantine faults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.auth import Authentication, build_session_keys
from repro.core.client import Client, CompletedRequest
from repro.core.config import DEFAULT_OPTIONS, ProtocolOptions, ReplicaSetConfig
from repro.core.env import Env
from repro.core.messages import Message, PrePrepare, Reply, Request
from repro.core.replica import Replica
from repro.crypto.signatures import SignatureRegistry
from repro.net.conditions import NetworkConditions
from repro.net.network import Network, Run
from repro.net.overlay import OverlayDisseminator, Relay, RelayComplaint
from repro.perfmodel.params import ModelParameters, PAPER_PARAMETERS
from repro.recovery.manager import RecoveryManager
from repro.services.interface import Service
from repro.services.null_service import NullService
from repro.sim.events import Event, EventKind
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

    def send_many(self, pairs: List[Tuple[str, Any]]) -> None:
        self._node.queue_send_many(pairs)

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
            self._flush(outbox)

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
            self._flush(outbox)

    def _flush(self, outbox: List[Tuple[Tuple[str, ...], Any]]) -> None:
        """Transmit what a handler sent.  A flush of several copies goes to
        the network as runs; a lone message and a node with a fault
        registered (whose checks and random draws are per destination)
        transmit copy by copy."""
        if (
            len(outbox) > 1 or len(outbox[0][0]) > 1
        ) and self.name not in self._fault_specs:
            self._transmit_many(outbox)
        else:
            for destinations, message in outbox:
                for destination in destinations:
                    self._transmit(destination, message)

    # ------------------------------------------------------------------ sends
    def queue_send(self, destination: str, message: Any) -> None:
        if self._in_handler:
            self._outbox.append(((destination,), message))
        else:
            # Called from outside any handler (e.g. protocol set-up code):
            # transmit immediately.
            self._transmit(destination, message)

    def queue_send_many(self, pairs: List[Tuple[str, Any]]) -> None:
        if self._in_handler:
            self._outbox.extend(
                [((destination,), message) for destination, message in pairs]
            )
        else:
            for destination, message in pairs:
                self._transmit(destination, message)

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
            for destination in others:
                self._transmit(destination, message)

    def _transmit(self, destination: str, message: Any) -> None:
        message = self._apply_send_faults(destination, message)
        if message is None:
            return
        size = message.wire_size() if hasattr(message, "wire_size") else 64
        send_cpu = self.params.communication.send_cpu(size)
        self.cpu_available_at += send_cpu
        self.cpu_busy_total += send_cpu
        not_before = self.cpu_available_at
        delay_fault = self.fault_injector.get(self.name, FaultType.DELAY_MESSAGES, self.now)
        if delay_fault is not None:
            not_before += delay_fault.delay
        self.network.send(self.name, destination, message, size, not_before=not_before)

    def _transmit_many(self, outbox: List[Tuple[Tuple[str, ...], Any]]) -> None:
        """:meth:`_transmit` for a whole flush of a fault-free node: each
        outbox entry becomes one run — wire size and send cost once, then
        the busy-time chain, one addition per destination in outbox order
        exactly as :meth:`_transmit` makes them, whose running values are
        the copies' departure times — and the network gets every run in one
        call (``Network.send_many``)."""
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
            runs.append((destinations, message, size, departures))
        self.cpu_available_at = available
        self.cpu_busy_total = busy
        self.network.send_many(self.name, runs)

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

    # ----------------------------------------------------------------- metrics
    def record(self, event: str, details: Dict[str, Any]) -> None:
        if self.record_events:
            self.events.append((self.now, event, details))


@dataclass
class ClusterStats:
    """Aggregate statistics collected from a cluster run."""

    completed_requests: int = 0
    latencies: List[float] = field(default_factory=list)
    simulated_duration: float = 0.0

    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    def throughput_ops_per_second(self) -> float:
        if self.simulated_duration <= 0:
            return 0.0
        return self.completed_requests / (self.simulated_duration / 1_000_000.0)


class SyncClient:
    """A convenience wrapper that drives the simulation until a request
    completes, giving examples and tests a blocking ``invoke``."""

    def __init__(self, cluster: "BFTCluster", client: Client, node: ProtocolNode) -> None:
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
            raise TimeoutError(
                f"request {timestamp} from {self.id} did not complete within "
                f"{timeout} simulated microseconds"
            )
        return completed.result

    def invoke_async(self, operation: bytes, read_only: bool = False) -> int:
        return self.node.external_call(
            lambda: self.protocol.invoke(operation, read_only=read_only)
        )

    def last_completed(self) -> Optional[CompletedRequest]:
        if not self.protocol.completed:
            return None
        return self.protocol.completed[max(self.protocol.completed)]


class BFTCluster:
    """A complete simulated BFT deployment.

    A cluster normally owns its whole simulated world — scheduler, network
    and RNG.  Multi-group deployments (:mod:`repro.sharding`) instead pass
    shared ``scheduler``/``network``/``rng``/``registry`` instances so that
    several independent replica groups advance on one clock and exchange
    messages over one network; each group then needs a distinct
    ``config.replica_prefix`` and ``client_prefix`` so node names stay
    unique across the shared fabric.
    """

    def __init__(
        self,
        config: ReplicaSetConfig,
        service_factory: Callable[[], Service] = NullService,
        options: ProtocolOptions = DEFAULT_OPTIONS,
        params: ModelParameters = PAPER_PARAMETERS,
        conditions: Optional[NetworkConditions] = None,
        seed: int = 0,
        record_events: bool = False,
        scheduler: Optional[Scheduler] = None,
        network: Optional[Network] = None,
        rng: Optional[SimRandom] = None,
        registry: Optional[SignatureRegistry] = None,
        client_prefix: str = "",
    ) -> None:
        self.config = config
        self.options = options
        self.params = params
        self.rng = rng or SimRandom(seed)
        self.scheduler = scheduler or Scheduler()
        if network is not None:
            self.network = network
            self.conditions = network.conditions
        else:
            self.conditions = conditions or params.communication.network_conditions()
            self.network = Network(
                self.scheduler, self.conditions, self.rng.fork("net")
            )
        self.fault_injector = FaultInjector()
        self.registry = registry or SignatureRegistry()
        self.client_prefix = client_prefix
        self.record_events = record_events

        self.replicas: Dict[str, Replica] = {}
        self.replica_nodes: Dict[str, ProtocolNode] = {}
        self.services: Dict[str, Service] = {}
        self.clients: Dict[str, SyncClient] = {}
        self.disseminators: Dict[str, OverlayDisseminator] = {}
        self._client_counter = 0
        self.completed: List[CompletedRequest] = []

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
            service_factory=service_factory,
            options=options,
            params=params,
            conditions=conditions,
            seed=seed,
            record_events=record_events,
        )

    def _build_replica(
        self, replica_id: str, service_factory: Callable[[], Service]
    ) -> None:
        node = ProtocolNode(
            replica_id,
            self.scheduler,
            self.network,
            self.params,
            self.fault_injector,
            self.rng.fork(replica_id),
            record_events=self.record_events,
        )
        self.network.register(replica_id)
        env = SimEnv(node)
        service = service_factory()
        keys = build_session_keys(replica_id, self.config.replica_ids)
        auth = Authentication(
            owner=replica_id,
            mode=self.options.auth_mode,
            keys=keys,
            registry=self.registry,
            crypto_costs=self.params.crypto,
            env=env,
            real_crypto=self.options.real_crypto,
        )
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
        node = ProtocolNode(
            name,
            self.scheduler,
            self.network,
            self.params,
            self.fault_injector,
            self.rng.fork(name),
            record_events=self.record_events,
        )
        self.network.register(name)
        env = SimEnv(node)
        keys = build_session_keys(name, self.config.replica_ids)
        auth = Authentication(
            owner=name,
            mode=self.options.auth_mode,
            keys=keys,
            registry=self.registry,
            crypto_costs=self.params.crypto,
            env=env,
            real_crypto=self.options.real_crypto,
        )

        def _on_complete(completed: CompletedRequest) -> None:
            self.completed.append(completed)
            if on_complete is not None:
                on_complete(completed)

        client = Client(
            name,
            self.config,
            env,
            auth,
            options=self.options,
            on_complete=_on_complete,
        )
        node.protocol = client
        # Install the client's session keys at every replica so they can
        # authenticate its requests (and it their replies).  Pin epoch 0:
        # the client built its table with the initial-key derivation, while
        # a replica's own epoch counter advances with every proactive
        # recovery — a client created after a recovery would otherwise get
        # mismatched keys and every request silently rejected until a view
        # change (client keys are refreshed only by the clients' own
        # new-key messages, which the simulation does not model).
        for replica in self.replicas.values():
            replica.auth.keys.install_pair(name, epoch=0)
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

    # -------------------------------------------------------------------- run
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

    # ---------------------------------------------------------------- faults
    def inject_fault(self, spec: FaultSpec) -> None:
        self.fault_injector.add(spec)

    def crash_replica(self, replica_id: str, at: Optional[float] = None) -> None:
        self.inject_fault(
            FaultSpec(node=replica_id, fault=FaultType.CRASH, start=at or self.now)
        )

    def corrupt_replica_state(self, replica_id: str) -> None:
        self.services[replica_id].corrupt()

    # --------------------------------------------------------------- metrics
    def stats(self) -> ClusterStats:
        return ClusterStats(
            completed_requests=len(self.completed),
            latencies=[c.latency for c in self.completed],
            simulated_duration=self.now,
        )

    def replica(self, replica_id: str) -> Replica:
        return self.replicas[replica_id]

    def primary_replica(self, view: int = 0) -> Replica:
        return self.replicas[self.config.primary_of(view)]

    def agreement_view(self) -> int:
        """The highest view any replica is currently in."""
        return max(r.view for r in self.replicas.values())

    def executed_counts(self) -> Dict[str, int]:
        return {rid: r.last_executed for rid, r in self.replicas.items()}

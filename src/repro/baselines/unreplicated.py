"""The unreplicated client/server baseline.

One server executes operations directly and replies; clients wait for the
single reply.  Messages carry a MAC each way, and the same CPU and network
cost model applies, so comparisons against BFT isolate the cost of the
replication protocol itself (the paper's NFS-std and NO-REP baselines).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.auth import Authentication
from repro.core.client import Client, CompletedRequest
from repro.core.config import AuthMode
from repro.core.env import Env
from repro.core.messages import Message, Reply, Request
from repro.crypto.digests import digest
from repro.library.cluster import SimWorld, SyncClient
from repro.net.conditions import NetworkConditions
from repro.perfmodel.params import ModelParameters, PAPER_PARAMETERS
from repro.services.interface import Service
from repro.services.null_service import NullService
from repro.sim.faults import FaultInjector

SERVER_NAME = "server"
RETRANSMIT_TIMER = "retransmit"


class UnreplicatedServer:
    """A single server executing operations as they arrive."""

    def __init__(
        self, service: Service, env: Env, auth: Authentication, params: ModelParameters
    ) -> None:
        self.service = service
        self.env = env
        self.auth = auth
        self.auth.bind_env(env)
        self.params = params
        #: client -> the result of its last request, whose timestamp is
        #: ``last_timestamp[client]``: a retransmission rebuilds the reply.
        self.last_result: Dict[str, bytes] = {}
        self.last_timestamp: Dict[str, int] = {}
        self.requests_executed = 0

    def receive(self, message: Message) -> None:
        if not isinstance(message, Request):
            return
        if not self.auth.verify(message):
            return
        client = message.sender
        last = self.last_timestamp.get(client, 0)
        if message.timestamp < last:
            return
        if message.timestamp == last and client in self.last_result:
            self._reply(client, last, self.last_result[client])
            return
        result = self.service.execute(message.operation, client)
        self.env.charge(
            self.params.execution_cost(len(message.operation), len(result))
        )
        self.requests_executed += 1
        self.last_timestamp[client] = message.timestamp
        self.last_result[client] = result
        self._reply(client, message.timestamp, result)

    def _reply(self, client: str, timestamp: int, result: bytes) -> None:
        reply = Reply(
            view=0,
            timestamp=timestamp,
            client=client,
            result=result,
            result_digest=digest(result),
            tentative=False,
            sender=SERVER_NAME,
        )
        self.env.send(client, self.auth.sign_point_to_point(reply, client))

    def on_timer(self, label: str) -> None:  # pragma: no cover - no timers
        pass


class UnreplicatedClient:
    """Client protocol: one outstanding request, one reply expected.

    Keeps O(1) completion state, as :class:`~repro.core.client.Client`
    does: ``last_completed`` only; ``on_complete`` gets every record.
    """

    def __init__(
        self,
        client_id: str,
        env: Env,
        auth: Authentication,
        retransmission_timeout: float = 150_000.0,
        on_complete: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> None:
        self.id = client_id
        self.env = env
        self.auth = auth
        self.auth.bind_env(env)
        self.timeout = retransmission_timeout
        self.on_complete = on_complete
        self.last_timestamp = 0
        self.pending: Optional[Request] = None
        self.sent_at = 0.0
        self.retransmissions = 0
        self.last_completed: Optional[CompletedRequest] = None

    def invoke(self, operation: bytes, read_only: bool = False) -> int:
        if self.pending is not None:
            raise RuntimeError(f"client {self.id} already has an outstanding request")
        self.last_timestamp += 1
        request = Request(
            operation=operation,
            timestamp=self.last_timestamp,
            read_only=read_only,
            sender=self.id,
        )
        self.pending = request
        self.sent_at = self.env.now()
        self.retransmissions = 0
        self._transmit()
        return request.timestamp

    def _transmit(self) -> None:
        assert self.pending is not None
        self.auth.sign_point_to_point(self.pending, SERVER_NAME)
        self.env.send(SERVER_NAME, self.pending)
        self.env.set_timer(RETRANSMIT_TIMER, self.timeout)

    def receive(self, message: Message) -> None:
        if not isinstance(message, Reply) or self.pending is None:
            return
        if message.timestamp != self.pending.timestamp:
            return
        if not self.auth.verify(message):
            return
        now = self.env.now()
        completed = CompletedRequest(
            operation=self.pending.operation,
            timestamp=self.pending.timestamp,
            result=message.result or b"",
            latency=now - self.sent_at,
            sent_at=self.sent_at,
            completed_at=now,
            read_only=self.pending.read_only,
            retransmissions=self.retransmissions,
            view=0,
        )
        self.last_completed = completed
        self.pending = None
        self.env.cancel_timer(RETRANSMIT_TIMER)
        if self.on_complete is not None:
            self.on_complete(completed)

    is_complete = Client.is_complete
    result_of = Client.result_of

    def on_timer(self, label: str) -> None:
        if label == RETRANSMIT_TIMER and self.pending is not None:
            self.retransmissions += 1
            self._transmit()


class UnreplicatedCluster:
    """A one-server deployment in a :class:`SimWorld` of its own."""

    #: The world's run loop and clock, read through ``self.scheduler``.
    run = SimWorld.run
    now = SimWorld.now

    def __init__(
        self,
        service_factory: Callable[[], Service] = NullService,
        params: ModelParameters = PAPER_PARAMETERS,
        conditions: Optional[NetworkConditions] = None,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.world = SimWorld(seed, params, conditions)
        self.scheduler = self.world.scheduler
        self.network = self.world.network
        self.conditions = self.world.conditions
        self.fault_injector = FaultInjector()
        self._client_counter = 0

        node, env, auth = self.world.node(
            SERVER_NAME, (), params, self.fault_injector, AuthMode.MAC
        )
        self.service = service_factory()
        self.server = UnreplicatedServer(self.service, env, auth, params)
        node.protocol = self.server
        self.server_node = node
        self.clients: Dict[str, SyncClient] = {}

    def new_client(
        self, name: Optional[str] = None,
        on_complete: Optional[Callable[[CompletedRequest], None]] = None,
    ) -> SyncClient:
        if name is None:
            name = f"client{self._client_counter}"
            self._client_counter += 1
        node, env, auth = self.world.node(
            name, (SERVER_NAME,), self.params, self.fault_injector, AuthMode.MAC
        )
        client = UnreplicatedClient(name, env, auth, on_complete=on_complete)
        node.protocol = client
        sync = SyncClient(self, client, node)
        self.clients[name] = sync
        return sync

"""Property tests for batch execution.

A replica executes a committed batch through ``Service.execute_batch`` plus
bulk reply construction/signing/sending.  The contract under test:

* ``Service.execute_batch`` equals ``Service.execute`` per entry: results,
  final state, state digests and ``state_version``;
* ``Replica._execute_batch`` does what a Section 3.1 *sequential reference
  model* (``SequentialModel`` below) does one request at a time on a shadow
  store: the reply trace (including cached-reply re-sends for
  retransmissions that were ordered into a batch, and digest replies), the
  ordered list of modeled charges, the reply table with its incremental
  AdHash digest, the store, every digest, and the tentative rollback that
  unwinds it all.  The model shares no code with the replica;
* everything a replica sends while batches commit carries the general
  encoding of its payload fields, whatever route built the bytes.

Also covered: the bulk reply encoder produces exactly ``pack(...)``'s
bytes, the operation-parse cache returns what a fresh parse would, and
the two liveness repairs that heavy batching load surfaced (status
messages are sent even when a replica believes it has nothing
outstanding; a stable-checkpoint certificate at or beyond the high water
mark — or in an inactive view — triggers state transfer).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.config import DEFAULT_OPTIONS, ReplicaSetConfig
from repro.core.env import RecordingEnv
from repro.core.messages import (
    Checkpoint,
    Commit,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StatusActive,
)
from repro.core.replica import Replica
from repro.crypto.digests import digest
from repro.crypto.signatures import SignatureRegistry
from repro.perfmodel.params import PAPER_PARAMETERS, CryptoCosts
from repro.services.counter import CounterService
from repro.services.kvstore import KeyValueStore, _parse_operation
from repro.services.null_service import NullService, encode_null_op
from repro.statetransfer.partition_tree import ADHASH_MODULUS
from repro.statetransfer.transfer import combined_state_digest, reply_entry_digest

from tests.conftest import authed, general_encoding, make_replica


# ======================================================================
# Service level: execute_batch == per-op execute
# ======================================================================
KEYS = [b"k1", b"k2", b"longer-key", b"zz"]
VALUES = [b"v", b"value-two", b"x" * 40]

kv_op = st.one_of(
    st.tuples(st.just(b"SET"), st.sampled_from(KEYS), st.sampled_from(VALUES)),
    st.tuples(st.just(b"set"), st.sampled_from(KEYS), st.sampled_from(VALUES)),
    st.tuples(st.just(b"DEL"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"GET"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"KEYS"),),
    st.tuples(st.just(b"CAS"), st.sampled_from(KEYS), st.sampled_from(VALUES + [b"-"]),
              st.sampled_from(VALUES)),
    # Malformed / unknown operations must take the same error paths.
    st.tuples(st.just(b"SET"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"CAS"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"NOPE"), st.sampled_from(KEYS)),
    st.tuples(st.just(b""),),
)

kv_batch = st.lists(
    st.tuples(kv_op, st.sampled_from(["alice", "bob", "mallory"])),
    min_size=0, max_size=24,
)


def _seed_store(writers):
    store = KeyValueStore(writers=writers)
    store.execute(b"SET k1 seeded", "alice")
    store.execute(b"SET zz zeta", "alice")
    return store


@settings(max_examples=60, deadline=None)
@given(batch=kv_batch, restrict=st.booleans())
def test_kvstore_execute_batch_matches_per_op(batch, restrict):
    writers = {"alice", "bob"} if restrict else None
    ops = [(b" ".join(parts), client) for parts, client in batch]
    reference = _seed_store(writers)
    expected = [
        reference.execute(operation, client)
        for operation, client in ops
    ]
    batched = _seed_store(writers)
    got = batched.execute_batch(ops)
    assert got == expected
    assert batched._export_state() == reference._export_state()
    assert batched.state_version == reference.state_version
    assert batched.state_digest() == reference.state_digest()
    # A second pass over the same operations stays identical.
    rerun = batched.execute_batch(ops)
    rerun_reference = [
        reference.execute(operation, client)
        for operation, client in ops
    ]
    assert rerun == rerun_reference
    assert batched._export_state() == reference._export_state()


def test_parse_operation_reuse_is_pure():
    store = KeyValueStore()
    ops = [(b"SET a 1", "c"), (b"GET a", "c")]
    first = store.execute_batch(ops)
    second = store.execute_batch(ops)
    assert [r.result for r in first] == [b"OK", b"1"]
    assert [r.result for r in second] == [b"OK", b"1"]
    assert _parse_operation(b"set  double-space v") == _parse_operation(
        b"set  double-space v"
    )


@settings(max_examples=40, deadline=None)
@given(
    batch=st.lists(
        st.tuples(
            st.sampled_from([b"INC", b"DEC", b"READ", b"INC 5", b"DEC 3",
                             b"INC -1", b"INC x", b"BAD"]),
            st.sampled_from(["alice", "mallory"]),
        ),
        min_size=0, max_size=16,
    )
)
def test_counter_execute_batch_matches_per_op(batch):
    ops = list(batch)
    reference = CounterService(allowed_clients={"alice"})
    reference.execute(b"INC 10", "alice")
    batched = CounterService(allowed_clients={"alice"})
    batched.execute(b"INC 10", "alice")
    expected = [reference.execute(op, client) for op, client in ops]
    assert batched.execute_batch(ops) == expected
    assert batched.value == reference.value
    assert batched.state_version == reference.state_version
    assert batched.state_digest() == reference.state_digest()


def test_null_service_execute_batch_matches_per_op():
    ops = [
        (encode_null_op(result_size=size, arg_size=8), "c")
        for size in (0, 4, 64)
    ]
    reference = NullService()
    batched = NullService()
    expected = [reference.execute(op, client) for op, client in ops]
    assert batched.execute_batch(ops) == expected
    assert batched.operations_executed == reference.operations_executed
    assert batched.state_version == reference.state_version
    assert batched.state_digest() == reference.state_digest()


# ======================================================================
# Replica level: _execute_batch against the sequential model
# ======================================================================
OPS = [b"SET a 1", b"SET b 2", b"DEL a", b"CAS a 1 2", b"GET a",
       b"SET a " + b"w" * 40]


def _store_with_large_value() -> KeyValueStore:
    """``GET a`` starts out past ``digest_replies_threshold`` (32 bytes), so
    replicas other than the designated replier answer it with a digest."""
    store = KeyValueStore()
    store.execute(b"SET a " + b"v" * 48, "seeder")
    return store


#: One request spec: (client index, timestamp, operation index, separate?,
#: designated replier).  The replica under test is ``replica1``.
request_spec = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=len(OPS) - 1),
    st.booleans(),
    st.sampled_from([None, "replica1", "replica2"]),
)

batches_spec = st.lists(
    st.lists(
        st.one_of(request_spec, st.just("null")),
        min_size=0, max_size=6,
    ),
    min_size=1, max_size=4,
)


def _build_request(spec):
    client_index, timestamp, op_index, separate, designated = spec
    client = f"client{client_index}"
    return (
        Request(
            operation=OPS[op_index],
            timestamp=timestamp,
            client=client,
            designated_replier=designated,
            sender=client,
        ),
        separate,
    )


class SequentialModel:
    """The paper's execution rule, one request at a time on a shadow store.

    A replica executes a request at most once and answers a retransmission
    of the last one from its reply cache (Section 3.1); only the designated
    replier sends a large result in full, the others its digest (5.1.1); a
    tentative execution can be undone until the batch commits (5.1.2); a
    batch is its requests in order (5.1.4).  Shares with the replica only
    the message classes, the service and the AdHash entry formula —
    ``Replica._recompute_reply_digest`` stays the independent check of that
    sum."""

    def __init__(self, replica_id: str) -> None:
        # ``make_replica``'s defaults; every batch here executes in view 0.
        self.id, self.view = replica_id, 0
        self.options, self.params, self.crypto = (
            DEFAULT_OPTIONS, PAPER_PARAMETERS, CryptoCosts()
        )
        self.store = _store_with_large_value()
        self.executed: List[Tuple[bytes, str, bytes]] = []  # replayed by abort()
        self.requests_executed = 0
        self.last_reply_timestamp: Dict[str, int] = {}
        self.last_reply: Dict[str, Reply] = {}
        self.reply_digest = 0
        self.undo: List[Tuple[str, Optional[int], Optional[Reply]]] = []

    def execute(self, requests, nondet: bytes, tentative: bool):
        """One batch -> ([(destination, type, payload, result)], [charges])."""
        sent, charges = [], []

        def send(reply: Reply) -> None:
            payload = reply.payload_bytes()
            charges.extend([self.crypto.digest_cost(len(payload)), self.crypto.mac])
            sent.append((reply.client, "Reply", payload, reply.result))

        # A batch executes only once every earlier one has committed.
        self.undo.clear()
        for request in requests:
            if request.is_null:
                continue
            client, timestamp = request.client, request.timestamp
            previous = self.last_reply_timestamp.get(client)
            if timestamp <= (previous or 0):
                if timestamp == previous:
                    send(self.last_reply[client])  # the cached *full* reply
                continue
            result = self.store.execute(request.operation, client, nondet=nondet).result
            charges.append(
                self.params.execution_cost(len(request.operation), len(result))
            )
            self.executed.append((request.operation, client, nondet))
            self.requests_executed += 1
            if tentative:
                self.undo.append((client, previous, self.last_reply.get(client)))
            self.last_reply_timestamp[client] = timestamp
            self.reply_digest += reply_entry_digest(client, timestamp)
            if previous is not None:
                self.reply_digest -= reply_entry_digest(client, previous)
            self.reply_digest %= ADHASH_MODULUS
            full = Reply(
                view=self.view, timestamp=timestamp, client=client, replica=self.id,
                result=result, result_digest=digest(result), tentative=tentative,
                sender=self.id,
            )
            self.last_reply[client] = full
            stripped = (
                self.options.digest_replies
                and len(result) >= self.options.digest_replies_threshold
                and request.designated_replier not in (None, self.id)
            )
            send(dataclasses.replace(full, result=None) if stripped else full)
        return sent, charges

    def abort(self) -> None:
        """A view change undoes the tentative batch: replay the committed
        prefix on a fresh store, put the reply table back."""
        for client, timestamp, reply in reversed(self.undo):
            for table, value in ((self.last_reply_timestamp, timestamp),
                                 (self.last_reply, reply)):
                if value is None:
                    table.pop(client, None)
                else:
                    table[client] = value
        del self.executed[len(self.executed) - len(self.undo):]
        self.undo.clear()
        self.store = _store_with_large_value()
        for operation, client, nondet in self.executed:
            self.store.execute(operation, client, nondet=nondet)
        self.reply_digest = sum(
            reply_entry_digest(client, timestamp)
            for client, timestamp in self.last_reply_timestamp.items()
        ) % ADHASH_MODULUS

    def state(self) -> dict:
        return {
            "last_reply_timestamp": self.last_reply_timestamp,
            "reply_digest": self.reply_digest,
            "state": self.store._export_state(),
            "state_digest": combined_state_digest(
                self.store.state_digest(), self.reply_digest
            ),
            "executed": self.requests_executed,
            "replies": _reply_table(self.last_reply),
        }


def _reply_table(last_reply: Dict[str, Reply]) -> dict:
    return {
        client: (reply.timestamp, reply.result, reply.result_digest, reply.tentative)
        for client, reply in last_reply.items()
    }


def _replica_state(replica: Replica) -> dict:
    """What ``SequentialModel.state`` predicts, read off the replica."""
    return {
        "last_reply_timestamp": dict(replica.last_reply_timestamp),
        "reply_digest": replica._reply_digest % ADHASH_MODULUS,
        "state": replica.service._export_state(),
        "state_digest": replica._state_digest(),
        "executed": replica.metrics.requests_executed,
        "replies": _reply_table(replica.last_reply),
    }


@dataclasses.dataclass
class ChargeLogEnv(RecordingEnv):
    """Logs each charge, not just the total: the model predicts the order."""

    charges: List[float] = dataclasses.field(default_factory=list)

    def charge(self, micros: float) -> None:
        super().charge(micros)
        self.charges.append(micros)


def _record_executions(replica: Replica, env: ChargeLogEnv) -> list:
    """Log every batch the replica executes and what executing it sent and
    charged: ``(requests, nondet, tentative, sent, charges)``."""
    executions = []
    execute_batch = replica._execute_batch

    def recording(requests, nondet, tentative):
        sent, charges = len(env.sent), len(env.charges)
        execute_batch(requests, nondet, tentative)
        executions.append((
            list(requests), nondet, tentative,
            [(s.destination, type(s.message).__name__, s.message.payload_bytes(),
              s.message.result) for s in env.sent[sent:]],
            env.charges[charges:],
        ))

    replica._execute_batch = recording
    return executions


def _assert_matches_model(replica: Replica, executions: list, aborted=False) -> None:
    model = SequentialModel(replica.id)
    for requests, nondet, tentative, sent, charges in executions:
        assert (sent, charges) == model.execute(requests, nondet, tentative)
    if aborted:
        model.abort()
    assert _replica_state(replica) == model.state()
    assert replica._reply_digest % ADHASH_MODULUS == replica._recompute_reply_digest()


def _model_replica():
    """A backup (``replica1``) whose executions are logged for the model."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=64)
    env = ChargeLogEnv()
    replica, _ = make_replica(config, SignatureRegistry(), "replica1",
                              service=_store_with_large_value(), env=env)
    return replica, env, _record_executions(replica, env)


def _drive_batches(batches):
    """Feed a backup replica the given committed batches, check every
    execution and the final state against the model and every sent
    message's payload against the general encoder."""
    replica, env, executions = _model_replica()
    for seq, batch in enumerate(batches, start=1):
        inline = []
        separate = []
        for spec in batch:
            if spec == "null":
                inline.append(Request.null_request())
                continue
            request, is_separate = _build_request(spec)
            if is_separate:
                replica.receive(authed(dataclasses.replace(request)))
                separate.append(request.request_digest())
            else:
                inline.append(request)
        pre_prepare = authed(PrePrepare(
            view=0, seq=seq, requests=tuple(inline),
            separate_digests=tuple(separate), sender="replica0",
        ))
        replica.receive(pre_prepare)
        digest_value = pre_prepare.batch_digest()
        for other in ("replica2", "replica3"):
            replica.receive(authed(Prepare(
                view=0, seq=seq, digest=digest_value, replica=other,
                sender=other,
            )))
        for other in ("replica0", "replica2"):
            replica.receive(authed(Commit(
                view=0, seq=seq, digest=digest_value, replica=other,
                sender=other,
            )))
    _assert_matches_model(replica, executions)
    # Whatever route built them (bulk reply encoder, prefilled memos), the
    # bytes on the wire are the general encoding of the payload fields.
    for sent in env.sent:
        message = sent.message
        assert message.payload_bytes() == general_encoding(
            type(message).__name__, message.sender, *message.payload_fields()
        )


@settings(max_examples=40, deadline=None)
@given(batches=batches_spec)
def test_batch_pipeline_is_bit_identical_across_all_toggles(batches):
    """The replica matches the model, execution by execution and on every
    charge, and the whole trace (agreement messages and request-path
    re-sends included) is the general encoding of what was sent — all
    checked inside ``_drive_batches``."""
    _drive_batches(batches)


@settings(max_examples=25, deadline=None)
@given(batches=batches_spec)
def test_tentative_rollback_is_bit_identical_across_toggles(batches):
    """Prepared-but-uncommitted batches execute tentatively; a view change
    aborts them.  The rollback (state restore + reply-table undo log) must
    leave the state the model reaches by replaying the committed prefix."""
    replica, env, executions = _model_replica()
    for seq, batch in enumerate(batches, start=1):
        inline = [
            _build_request(spec)[0] for spec in batch
            if spec != "null"
        ] or [Request.null_request()]
        pre_prepare = authed(PrePrepare(
            view=0, seq=seq, requests=tuple(inline), sender="replica0",
        ))
        replica.receive(pre_prepare)
        digest_value = pre_prepare.batch_digest()
        for other in ("replica2", "replica3"):
            replica.receive(authed(Prepare(
                view=0, seq=seq, digest=digest_value, replica=other,
                sender=other,
            )))
        # All but the last batch commit, so there is a pre-abort
        # reply table; the last is tentative only.
        if seq < len(batches):
            for other in ("replica0", "replica2"):
                replica.receive(authed(Commit(
                    view=0, seq=seq, digest=digest_value,
                    replica=other, sender=other,
                )))
    assert executions[-1][2], "the last batch must have run tentatively"
    replica.start_view_change(1)
    _assert_matches_model(replica, executions, aborted=True)
    assert replica.last_tentative == replica.last_executed == len(batches) - 1


# ======================================================================
# Bulk reply encoder
# ======================================================================
def test_bulk_reply_encoding_matches_pack():
    """The batch pipeline's hand-assembled reply payloads (and prefilled
    caches) are exactly what ``pack`` produces."""
    batches = [[(0, 1, 0, False, None), (1, 1, 1, False, "replica2")],
               [(2, 2, 3, True, None)]]
    config = ReplicaSetConfig(n=4, checkpoint_interval=64)
    registry = SignatureRegistry()
    replica, env = make_replica(config, registry, "replica1",
                                service=KeyValueStore())
    for seq, batch in enumerate(batches, start=1):
        inline = []
        for spec in batch:
            request, separate = _build_request(spec)
            if separate:
                replica.receive(authed(dataclasses.replace(request)))
            inline.append(request)
        pre_prepare = authed(PrePrepare(
            view=0, seq=seq, requests=tuple(inline), sender="replica0",
        ))
        replica.receive(pre_prepare)
        digest_value = pre_prepare.batch_digest()
        for other in ("replica2", "replica3"):
            replica.receive(authed(Prepare(
                view=0, seq=seq, digest=digest_value, replica=other,
                sender=other,
            )))
    replies = env.messages_of_type(Reply)
    assert replies
    for reply in replies:
        cached = reply.__dict__.get("_payload_bytes_cache")
        expected = general_encoding(
            "Reply", reply.sender, reply.view, reply.timestamp,
            reply.client, reply.replica, reply.result_digest,
            reply.tentative,
        )
        assert reply.payload_bytes() == expected
        if cached is not None:
            assert cached == expected


# ======================================================================
# Regression: retransmission ordered into a batch re-sends the reply
# ======================================================================
def _committed_batch(replica, seq, requests):
    pre_prepare = authed(PrePrepare(
        view=0, seq=seq, requests=tuple(requests), sender="replica0",
    ))
    replica.receive(pre_prepare)
    digest_value = pre_prepare.batch_digest()
    for other in ("replica2", "replica3"):
        replica.receive(authed(Prepare(
            view=0, seq=seq, digest=digest_value, replica=other, sender=other,
        )))
    for other in ("replica0", "replica2"):
        replica.receive(authed(Commit(
            view=0, seq=seq, digest=digest_value, replica=other, sender=other,
        )))


def _retransmission_replies(alone: bool):
    replica, env, executions = _model_replica()
    original = Request(operation=b"SET a 1", timestamp=1,
                       client="client0", sender="client0")
    _committed_batch(replica, 1, [original])
    env.clear()
    # The client's retransmission got ordered into the next batch
    # (e.g. its replies were lost and the primary re-proposed it).
    retransmission = Request(operation=b"SET a 1", timestamp=1,
                             client="client0", sender="client0")
    fresh = Request(operation=b"SET b 2", timestamp=1,
                    client="client1", sender="client1")
    if alone:
        _committed_batch(replica, 2, [retransmission])
        _committed_batch(replica, 3, [fresh])
    else:
        _committed_batch(replica, 2, [retransmission, fresh])
    _assert_matches_model(replica, executions)
    replies = [m for m in env.messages_of_type(Reply) if m.client == "client0"]
    assert replies, (
        "a retransmitted request ordered into a batch must re-send the "
        "cached reply (Section 3.1), not be dropped silently"
    )
    assert replies[0].timestamp == 1
    assert replies[0].result == b"OK"
    # The re-execution was skipped: the store holds the first write only.
    assert replica.metrics.requests_executed == 2  # a=1 and b=2


def test_ordered_retransmission_resends_cached_reply_per_op_path():
    """The retransmission is a batch of its own (the id dates from a
    per-request execution twin; the sequential model is that reference)."""
    _retransmission_replies(alone=True)


def test_ordered_retransmission_resends_cached_reply_batch_path():
    _retransmission_replies(alone=False)


def test_stale_request_in_batch_is_still_dropped():
    """Only an exact retransmission re-sends; an older timestamp stays
    silent (the client has already moved on)."""
    replica, env, executions = _model_replica()
    fresh = Request(operation=b"SET a 2", timestamp=2,
                    client="client0", sender="client0")
    _committed_batch(replica, 1, [fresh])
    env.clear()
    stale = Request(operation=b"SET a 1", timestamp=1,
                    client="client0", sender="client0")
    _committed_batch(replica, 2, [stale])
    _assert_matches_model(replica, executions)
    assert [m for m in env.messages_of_type(Reply)
            if m.client == "client0"] == []


# ======================================================================
# Regression: liveness repairs surfaced by batching load
# ======================================================================
def test_status_is_sent_even_with_nothing_outstanding():
    """A replica that missed a pre-prepare entirely has no record it
    exists; only its periodic status reveals the gap.  The old "skip when
    idle" fast-out silenced exactly those replicas and wedged the group."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=4)
    registry = SignatureRegistry()
    replica, env = make_replica(config, registry, "replica1")
    replica.on_timer("status")
    statuses = env.messages_of_type(StatusActive)
    assert statuses, "status must go out even when nothing is outstanding"
    assert statuses[0].last_executed == 0


class _TransferStub:
    def __init__(self):
        self.calls = []

    def start(self, seq, digest):
        self.calls.append((seq, digest))


def _stable_certificate(replica, seq, digest_value):
    for other in ("replica0", "replica2", "replica3"):
        replica.receive(authed(Checkpoint(
            seq=seq, state_digest=digest_value, replica=other, sender=other,
        )))


def test_certificate_at_high_water_mark_triggers_state_transfer():
    """Peers that made ``seq`` stable garbage-collected every slot up to
    it; waiting for retransmission at ``seq == high_water_mark`` (the old
    strict ``>``) deadlocks, so the certificate must trigger a fetch."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=4)
    registry = SignatureRegistry()
    replica, env = make_replica(config, registry, "replica1")
    replica.state_transfer = _TransferStub()
    seq = replica.log.high_water_mark  # exactly at the boundary
    _stable_certificate(replica, seq, b"\x11" * 16)
    assert replica.state_transfer.calls == [(seq, b"\x11" * 16)]


def test_certificate_in_inactive_view_triggers_state_transfer():
    """A replica stuck in a view change cannot commit forward through the
    normal case, so any certified checkpoint it does not hold must be
    fetchable even inside its window."""
    config = ReplicaSetConfig(n=4, checkpoint_interval=4)
    registry = SignatureRegistry()
    replica, env = make_replica(config, registry, "replica1")
    replica.state_transfer = _TransferStub()
    replica.start_view_change(1)
    seq = 4  # inside the window
    _stable_certificate(replica, seq, b"\x22" * 16)
    assert replica.state_transfer.calls == [(seq, b"\x22" * 16)]

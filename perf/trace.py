"""Outside-in tracer: wraps each layer's public entry points at run time.

Nothing under ``src/`` knows about this file.  ``Tracer.install`` replaces
the functions named in ``TARGETS`` with timing wrappers (class attributes
for methods; every ``repro.*`` module binding for plain functions, because
``from m import f`` copies the binding), and ``Tracer.uninstall`` puts the
originals back.  Wrappers are installed *before* a cluster is built — the
program captures bound methods in closures at construction — and only
record while ``Tracer.active`` is set, i.e. inside a measured span.

A span is one call of a wrapped function.  Its self time is its duration
minus the part covered by child spans; a layer's self time is the sum over
its spans.  Span clocks are ``time.perf_counter_ns`` (a vDSO read, ~50 ns):
the process is single-threaded and CPU-bound, so wall and CPU time agree,
and ``process_time`` costs a system call per read.  The wrapper's own
bookkeeping falls outside its span and therefore lands in the *parent's*
self time (or in ``unattributed`` at top level) — see the README.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:Class" or "module", attribute names).  Layer names are
#: the module names of the program; ``statetransfer`` is split in two
#: because the partition tree works on every checkpoint while the transfer
#: manager works only when a replica has fallen behind.  A name ending in
#: ``()`` is a factory: the callable it *returns* is what gets the span
#: (``point_to_point_signer`` hands the replica a per-batch signing closure
#: that does the work of ``sign_point_to_point``, and is counted as such).
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim.scheduler", "repro.sim.scheduler:Scheduler",
     ("run", "schedule", "schedule_at", "schedule_after")),
    ("library.cluster", "repro.library.cluster:ProtocolNode",
     ("on_message", "on_timer", "on_internal", "external_call")),
    ("core.replica", "repro.core.replica:Replica", ("receive", "on_timer")),
    ("core.client", "repro.core.client:Client", ("invoke", "receive", "on_timer")),
    ("core.auth", "repro.core.auth:Authentication",
     ("sign_multicast", "sign_point_to_point", "sign_with_private_key", "verify",
      "point_to_point_signer()")),
    ("crypto", "repro.crypto.digests", ("digest",)),
    ("crypto", "repro.crypto.mac", ("compute_mac", "verify_mac")),
    ("crypto", "repro.crypto.authenticator", ("make_authenticator",)),
    ("core.messages", "repro.core.messages", ("pack",)),
    ("core.messages", "repro.core.messages:Message",
     ("payload_bytes", "payload_digest", "wire_size")),
    ("core.messages", "repro.core.messages:Request", ("request_digest",)),
    ("core.messages", "repro.core.messages:PrePrepare", ("batch_digest",)),
    ("net.network", "repro.net.network:Network", ("send", "send_many", "multicast")),
    ("services", "repro.services.null_service:NullService",
     ("execute", "execute_batch", "state_digest", "snapshot", "restore")),
    ("services", "repro.services.kvstore:KeyValueStore",
     ("execute", "execute_batch", "state_digest", "snapshot", "restore")),
    ("statetransfer.tree", "repro.statetransfer.partition_tree:PartitionTree",
     ("write_page", "take_checkpoint", "root_digest", "plan_transfer",
      "apply_transfer")),
    ("statetransfer.transfer", "repro.statetransfer.transfer:StateTransferManager",
     ("start", "handle", "tick", "build_metadata", "build_data")),
    ("sharding", "repro.sharding.cluster:ShardClient", ("submit",)),
    ("sharding", "repro.sharding.router:ShardRouter",
     ("bucket_of_key", "group_of_bucket", "group_of_key", "is_frozen_bucket")),
    ("sharding", "repro.sharding.loadstats:LoadStats", ("record",)),
    ("core.viewchange", "repro.core.viewchange",
     ("compute_view_change_sets", "compute_decision", "verify_new_view")),
    ("core.viewchange", "repro.core.replica:Replica",
     ("start_view_change", "handle_view_change", "handle_view_change_ack",
      "handle_new_view")),
    ("loadgen", "perf.loadgen:ClosedLoop", ("_arrive", "_on_complete")),
    ("loadgen", "perf.loadgen:OpenLoop", ("_arrive", "_on_complete")),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: What the closure a factory returns is counted as.
_FACTORY_PRODUCT = {"point_to_point_signer()": "sign_point_to_point"}

#: The replica's status timer calls ``StateTransferManager.tick`` every
#: 100 simulated ms on every workload; an idle tick returns at once.  Only
#: ticks of a manager that is fetching open a span, so the transfer layer
#: reads zero wherever no replica falls behind.
_SPAN_ONLY_WHEN = {"StateTransferManager.tick": lambda manager: manager.target_seq is not None}


class Tracer:
    """Aggregates span self times per layer and call counts per function.
    With ``keep_spans`` it also keeps the individual spans up to the first
    ``take`` — one whole round, which is what ``--trace-out`` writes."""

    def __init__(
        self, keep_spans: bool = False, clock: Callable[[], int] = time.perf_counter_ns
    ) -> None:
        self.active = False
        self.keep_spans = keep_spans
        self._clock = clock
        #: Set by the workload once its cluster exists; span records take
        #: the ordinal of the scheduler event being dispatched from it.
        self.scheduler: Any = None
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.spans: List[Tuple[str, int, int, int, int, Optional[Tuple[str, int]]]] = []
        self.reset()

    def reset(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        self.false_results: Dict[str, int] = {}
        #: Time covered by top-level spans (those with no parent span).
        self.covered_ns = 0

    def take(self) -> Dict[str, Any]:
        """The totals since the last ``take``/``reset``, then reset."""
        totals = {
            "self_ns": self.self_ns,
            "calls": self.calls,
            "false_results": self.false_results,
            "covered_ns": self.covered_ns,
        }
        self.reset()
        self.keep_spans = False
        return totals

    # ------------------------------------------------------------- wrapping
    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self
        stack = self._stack
        clock = self._clock
        only_when = _SPAN_ONLY_WHEN.get(name)
        count_false = name == "Authentication.verify"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active or (only_when is not None and not only_when(args[0])):
                return fn(*args, **kwargs)
            frame = [0, len(tracer.spans)]  # child time covered; own span index
            if tracer.keep_spans:
                tracer.spans.append(None)  # placeholder keeps start order
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                tracer.self_ns[layer] += duration - frame[0]
                calls = tracer.calls
                calls[name] = calls.get(name, 0) + 1
                if count_false and not result:
                    tracer.false_results[name] = tracer.false_results.get(name, 0) + 1
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.covered_ns += duration
                if tracer.keep_spans:
                    tracer.spans[frame[1]] = (
                        name, start, end,
                        stack[-1][1] if stack else -1,
                        tracer.scheduler.dispatched if tracer.scheduler else -1,
                        _request_identity(args),
                    )

        wrapper._perf_original = fn
        return wrapper

    def _wrap_factory(self, factory: Callable, layer: str, name: str) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self._wrap(factory(*args, **kwargs), layer, name)

        wrapper._perf_original = factory
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, where, names in TARGETS:
            module_name, _, class_name = where.partition(":")
            module = importlib.import_module(module_name)
            for attr in names:
                if attr.endswith("()"):
                    owner = getattr(module, class_name)
                    label = f"{class_name}.{_FACTORY_PRODUCT[attr]}"
                    attr = attr[:-2]
                    self._patch(
                        owner, attr, self._wrap_factory(owner.__dict__[attr], layer, label)
                    )
                elif class_name:
                    owner = _defining_class(getattr(module, class_name), attr)
                    original = owner.__dict__[attr]
                    if hasattr(original, "_perf_original"):
                        continue  # inherited method, wrapped through a sibling class
                    label = f"{owner.__name__}.{attr}"
                    self._patch(owner, attr, self._wrap(original, layer, label))
                else:
                    original = getattr(module, attr)
                    wrapped = self._wrap(original, layer, attr)
                    for other in list(sys.modules.values()):
                        if (
                            other is not None
                            and getattr(other, "__name__", "").startswith("repro")
                            and other.__dict__.get(attr) is original
                        ):
                            self._patch(other, attr, wrapped)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # -------------------------------------------------------------- output
    def write_spans(self, path: str, header: Dict[str, Any]) -> None:
        """Append the kept spans to ``path`` as JSON lines: one header line,
        then one ``[index, name, start_ns, end_ns, parent, event, request]``
        line per span, in start order."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "spans": len(self.spans)}) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span]) + "\n")


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def _request_identity(args: Tuple[Any, ...]) -> Optional[Tuple[str, int]]:
    """``(client, timestamp)`` when a span's first argument is, or carries,
    a ``Request`` or ``Reply`` — the identifier the spans of one client
    operation share."""
    if len(args) > 1:
        message = getattr(args[1], "message", args[1])  # an Envelope carries one
        if type(message).__name__ in ("Request", "Reply"):
            return (message.client, message.timestamp)
    return None

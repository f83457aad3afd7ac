"""Replicated services (deterministic state machines).

BFT replicates any service that can be modelled as a deterministic state
machine (Definition 2.4.1): the result and new state of an operation are
fully determined by the current state, the operation arguments, and the
identity of the client.  This package provides the service interface used
by the replication library plus the concrete services the evaluation uses:
the null service for micro-benchmarks, a key-value store, and a counter
with access control.
"""

from repro.services.interface import Service
from repro.services.null_service import NullService
from repro.services.kvstore import KeyValueStore
from repro.services.counter import CounterService

__all__ = [
    "Service",
    "NullService",
    "KeyValueStore",
    "CounterService",
]

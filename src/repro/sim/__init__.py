"""Deterministic discrete-event simulation substrate.

The paper evaluates BFT on a cluster of physical machines connected by a
switched Ethernet.  This package provides the simulated equivalent: a
virtual clock, an event scheduler, node processes, and fault injection.
All randomness flows through a seeded generator so every run is
reproducible.
"""

from repro.sim.clock import SimClock
from repro.sim.events import DeliveryTrain, Envelope, Event, EventKind
from repro.sim.scheduler import Scheduler
from repro.sim.node import Node, Timer
from repro.sim.rng import SimRandom
from repro.sim.faults import (
    FaultInjector,
    FaultSpec,
    FaultType,
)

__all__ = [
    "SimClock",
    "Event",
    "EventKind",
    "Envelope",
    "DeliveryTrain",
    "Scheduler",
    "Node",
    "Timer",
    "SimRandom",
    "FaultInjector",
    "FaultSpec",
    "FaultType",
]

"""Simulated unreliable network.

Models the multicast-channel automaton of Section 2.4.2: an asynchronous
network that may drop, delay, duplicate and reorder messages.  Message
transit time is charged per the communication cost model of Section 7.1.3
(a fixed per-message cost plus a per-byte wire cost).
"""

from repro.net.conditions import NetworkConditions
from repro.net.network import Network

__all__ = ["NetworkConditions", "Network"]

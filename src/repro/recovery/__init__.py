"""Proactive recovery — BFT-PR (Chapter 4).

Replicas are recovered periodically even when there is no reason to suspect
they are faulty, which lets the system tolerate any number of faults over
its lifetime provided fewer than a third of the replicas fail within a
window of vulnerability.  The package provides the watchdog-driven recovery
manager and the session-key refreshment protocol.
"""

from repro.recovery.manager import RecoveryManager, RecoveryRecord

__all__ = ["RecoveryManager", "RecoveryRecord"]

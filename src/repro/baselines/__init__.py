"""Baselines the paper compares against.

The principal baseline is the unreplicated client/server system (NFS-std
for the file-system experiments, a plain null server for the
micro-benchmarks): one server, no agreement protocol, a single MAC per
message.  The BFT-PK baseline is obtained by running the main protocol with
``AuthMode.SIGNATURE``.
"""

from repro.baselines.unreplicated import UnreplicatedCluster

__all__ = ["UnreplicatedCluster"]

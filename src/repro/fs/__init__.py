"""BFS: a Byzantine-fault-tolerant file service (Section 6.3) and the
Andrew-style benchmark workload used in the evaluation (Section 8.6).

The paper's BFS exports the NFS protocol and relays kernel NFS calls
through the replication library.  Here the file service is an in-memory
NFS-like deterministic state machine (:class:`NFSService`) exposing the
same operation mix (lookup, getattr, read, write, create, remove, mkdir,
rmdir, readdir); :class:`BFSClient` issues them through a client of a
replicated deployment, or, with ``use_read_only=False``, of one
:class:`repro.baselines.unreplicated.UnreplicatedCluster` server: the
NFS-std stand-in.
"""

from repro.fs.nfs import NFSService, NFSClientOps
from repro.fs.bfs import BFSClient, build_bfs_cluster
from repro.fs.andrew import AndrewBenchmark, AndrewPhaseResult

__all__ = [
    "NFSService",
    "NFSClientOps",
    "BFSClient",
    "build_bfs_cluster",
    "AndrewBenchmark",
    "AndrewPhaseResult",
]

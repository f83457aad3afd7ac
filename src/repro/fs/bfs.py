"""BFS: the NFS-like service replicated with the BFT library (Section 6.3).

``build_bfs_cluster`` assembles a replicated deployment of
:class:`repro.fs.nfs.NFSService`; :class:`BFSClient` exposes a file-system
level API (mkdir / write_file / read_file / stat / ...) on top of a BFT
client, mirroring how the paper's kernel NFS client talks to the BFS
relay.  Read-only NFS calls use the read-only optimization.  Over an
:class:`repro.baselines.unreplicated.UnreplicatedCluster` client with
``use_read_only=False`` the same class is the NFS-std baseline.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DEFAULT_OPTIONS, ProtocolOptions
from repro.fs.nfs import NFSClientOps, NFSService
from repro.library.cluster import BFTCluster, SyncClient
from repro.perfmodel.params import ModelParameters, PAPER_PARAMETERS


def build_bfs_cluster(
    f: int = 1,
    options: ProtocolOptions = DEFAULT_OPTIONS,
    params: ModelParameters = PAPER_PARAMETERS,
    seed: int = 0,
    checkpoint_interval: int = 128,
) -> BFTCluster:
    """A BFT cluster replicating the NFS service."""
    return BFTCluster.create(
        f=f,
        service_factory=NFSService,
        options=options,
        params=params,
        seed=seed,
        checkpoint_interval=checkpoint_interval,
    )


class BFSClient:
    """File-system operations issued through a BFT client."""

    def __init__(self, client: SyncClient, use_read_only: bool = True) -> None:
        self._client = client
        self._use_read_only = use_read_only
        self.operations_issued = 0

    # ------------------------------------------------------------- plumbing
    def _invoke(self, operation: bytes) -> bytes:
        self.operations_issued += 1
        read_only = self._use_read_only and NFSClientOps.is_read_only(operation)
        return self._client.invoke(operation, read_only=read_only)

    # ------------------------------------------------------------ operations
    def mkdir(self, path: bytes) -> bytes:
        return self._invoke(NFSClientOps.mkdir(path))

    def rmdir(self, path: bytes) -> bytes:
        return self._invoke(NFSClientOps.rmdir(path))

    def create(self, path: bytes) -> bytes:
        return self._invoke(NFSClientOps.create(path))

    def remove(self, path: bytes) -> bytes:
        return self._invoke(NFSClientOps.remove(path))

    def write_file(self, path: bytes, data: bytes, offset: int = 0) -> bytes:
        return self._invoke(NFSClientOps.write(path, offset, data))

    def read_file(self, path: bytes, offset: int = 0, count: int = 65536) -> bytes:
        return self._invoke(NFSClientOps.read(path, offset, count))

    def stat(self, path: bytes) -> bytes:
        return self._invoke(NFSClientOps.getattr(path))

    def lookup(self, path: bytes) -> bytes:
        return self._invoke(NFSClientOps.lookup(path))

    def listdir(self, path: bytes) -> list[bytes]:
        result = self._invoke(NFSClientOps.readdir(path))
        if result in (b"", b"ENOTDIR", b"ENOENT"):
            return []
        return result.split(b",")

    def rename(self, src: bytes, dst: bytes) -> bytes:
        return self._invoke(NFSClientOps.rename(src, dst))

    # --------------------------------------------------------- conveniences
    def write_new_file(self, path: bytes, data: bytes) -> bytes:
        created = self.create(path)
        if not created.startswith(b"FH:"):
            return created
        return self.write_file(path, data)

    def exists(self, path: bytes) -> bool:
        return self.lookup(path).startswith(b"FH:")

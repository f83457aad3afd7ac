"""The Andrew-style benchmark (Section 8.6.1).

The paper evaluates BFS with the modified Andrew benchmark: five phases
that (1) create a directory tree, (2) copy a source tree into it, (3) stat
every file without reading it, (4) read every byte of every file, and
(5) run a compile-like phase that reads sources and writes derived files.
``Andrew-N`` runs N sequential iterations to scale the workload
(Andrew100 in the paper).

The benchmark drives a :class:`repro.fs.bfs.BFSClient` over either a BFS
deployment or the unreplicated NFS-std server, so the same workload
produces the BFS-vs-NFS-std comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

#: Synthetic "source tree": (relative path, file size in bytes).
SOURCE_FILES: Sequence[tuple[bytes, int]] = (
    (b"Makefile", 420),
    (b"main.c", 2_600),
    (b"proto.c", 4_100),
    (b"proto.h", 900),
    (b"replica.c", 7_800),
    (b"replica.h", 1_200),
    (b"client.c", 3_400),
    (b"client.h", 700),
    (b"util.c", 1_900),
    (b"util.h", 350),
)

SUBDIRECTORIES: Sequence[bytes] = (b"src", b"include", b"obj", b"doc", b"test")


@dataclass
class AndrewPhaseResult:
    """Outcome of one benchmark phase."""

    phase: int
    name: str
    operations: int
    elapsed: float


class AndrewBenchmark:
    """Runs the five Andrew phases against a file-service client."""

    def __init__(self, iterations: int = 1, file_block: int = 1024) -> None:
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        self.iterations = iterations
        self.file_block = file_block

    # ------------------------------------------------------------------ run
    def run(self, fs, now: Callable[[], float]) -> List[AndrewPhaseResult]:
        """Run every phase; ``now`` reads the simulated clock."""
        results: List[AndrewPhaseResult] = []
        for phase, (name, runner) in enumerate(self._phases(), start=1):
            start = now()
            operations = 0
            for iteration in range(self.iterations):
                operations += runner(fs, iteration)
            results.append(
                AndrewPhaseResult(
                    phase=phase, name=name, operations=operations,
                    elapsed=now() - start,
                )
            )
        return results

    def total_elapsed(self, results: Sequence[AndrewPhaseResult]) -> float:
        return sum(r.elapsed for r in results)

    # --------------------------------------------------------------- phases
    def _phases(self):
        return (
            ("mkdir", self._phase_mkdir),
            ("copy", self._phase_copy),
            ("stat", self._phase_stat),
            ("read", self._phase_read),
            ("compile", self._phase_compile),
        )

    @staticmethod
    def _root(iteration: int) -> bytes:
        return b"/andrew%d" % iteration

    def _phase_mkdir(self, fs, iteration: int) -> int:
        root = self._root(iteration)
        operations = 1
        fs.mkdir(root)
        for sub in SUBDIRECTORIES:
            fs.mkdir(root + b"/" + sub)
            operations += 1
        return operations

    def _phase_copy(self, fs, iteration: int) -> int:
        root = self._root(iteration)
        operations = 0
        for name, size in SOURCE_FILES:
            path = root + b"/src/" + name
            fs.create(path)
            operations += 1
            written = 0
            while written < size:
                chunk = min(self.file_block, size - written)
                fs.write_file(path, b"x" * chunk, offset=written)
                written += chunk
                operations += 1
        return operations

    def _phase_stat(self, fs, iteration: int) -> int:
        root = self._root(iteration)
        operations = 0
        for directory in (b"", *SUBDIRECTORIES):
            fs.listdir(root + b"/" + directory if directory else root)
            operations += 1
        for name, _size in SOURCE_FILES:
            fs.stat(root + b"/src/" + name)
            operations += 1
        return operations

    def _phase_read(self, fs, iteration: int) -> int:
        root = self._root(iteration)
        operations = 0
        for name, size in SOURCE_FILES:
            path = root + b"/src/" + name
            offset = 0
            while offset < size:
                fs.read_file(path, offset=offset, count=self.file_block)
                offset += self.file_block
                operations += 1
        return operations

    def _phase_compile(self, fs, iteration: int) -> int:
        root = self._root(iteration)
        operations = 0
        for name, size in SOURCE_FILES:
            if not name.endswith(b".c"):
                continue
            # "Compile" a source file: read it, then write the object file.
            fs.read_file(root + b"/src/" + name, count=size)
            object_name = name[:-2] + b".o"
            object_path = root + b"/obj/" + object_name
            fs.create(object_path)
            fs.write_file(object_path, b"o" * min(size, 2048))
            operations += 3
        # Link step: write the final binary.
        fs.create(root + b"/obj/a.out")
        fs.write_file(root + b"/obj/a.out", b"b" * 4096)
        operations += 2
        return operations

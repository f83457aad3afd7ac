"""An in-memory NFS-like file service.

The service is a deterministic state machine over a tree of directories and
files, with the operation vocabulary BFS needs (a subset of NFS v2):

``LOOKUP``, ``GETATTR``, ``READ``, ``WRITE``, ``CREATE``, ``REMOVE``,
``MKDIR``, ``RMDIR``, ``READDIR``, ``RENAME``.

Operations are encoded as length-prefixed byte strings so they can travel
as opaque request payloads.  The time-last-modified attribute is the one
source of non-determinism (Section 5.4): the primary proposes a timestamp
for the batch and replicas validate it, so all replicas assign identical
mtimes.

State is paged like every other service (Section 6.3 keeps BFS state in
the same partition tree as the library's): inode ``n`` lives on bucket page
``n % num_buckets``, whose payload is the full record of each inode in it —
kind, data, sorted children, mtime and owner — and one reserved page past
the buckets holds the inode allocator.  Everything that decides a future
result is on a page, so it is digested and transferred: the owner because
it is file state, the allocator because two replicas that agree on every
inode but not on it hand out different numbers on their next ``CREATE``.
Every mutation touches the pages it changes (the inode, its parent(s) and,
for a create, the allocator).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.services.interface import Service

#: Maximum clock skew, in microseconds, a backup accepts between the
#: primary's proposed mtime and its own clock (Section 5.4).
MTIME_TOLERANCE = 10_000_000.0

_READ_ONLY_OPS = {b"LOOKUP", b"GETATTR", b"READ", b"READDIR"}

#: The number the allocator hands out first (inode 1 is the root).
_FIRST_INODE = 2

#: One inode on a page: ``(number, is_directory, data, children, mtime,
#: owner)`` with ``children`` the sorted ``(name, number)`` pairs.
InodeRecord = Tuple[int, bool, bytes, Tuple[Tuple[bytes, int], ...], int, str]


def encode_op(op: bytes, *args: bytes) -> bytes:
    """Encode an NFS operation and its arguments."""
    parts = [op] + list(args)
    body = b""
    for part in parts:
        body += struct.pack(">I", len(part)) + part
    return body


def decode_op(data: bytes) -> List[bytes]:
    """Decode an operation produced by :func:`encode_op`."""
    parts: List[bytes] = []
    offset = 0
    while offset + 4 <= len(data):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        parts.append(data[offset:offset + length])
        offset += length
    return parts


def _append_field(out: bytearray, value: bytes) -> None:
    out += len(value).to_bytes(4, "big")
    out += value


def _encode_page(payload: Any) -> bytes:
    """Canonical page bytes: ``b""`` for an empty bucket, ``A`` + the
    allocator value, or ``I`` + each inode record in number order."""
    if not payload:
        return b""
    if type(payload) is int:
        return b"A" + payload.to_bytes(8, "big")
    out = bytearray(b"I")
    for number, is_directory, data, children, mtime, owner in payload:
        out += number.to_bytes(8, "big")
        out += b"\x01" if is_directory else b"\x00"
        out += mtime.to_bytes(8, "big")
        _append_field(out, owner.encode())
        _append_field(out, data)
        out += len(children).to_bytes(4, "big")
        for name, child in children:
            _append_field(out, name)
            out += child.to_bytes(8, "big")
    return bytes(out)


class _PageReader:
    """A cursor over page bytes from another replica; reading past the end
    is a ``ValueError``, never a short field."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.position = 0

    def take(self, count: int) -> bytes:
        end = self.position + count
        if end > len(self.blob):
            raise ValueError("field runs past the end of the page")
        chunk = self.blob[self.position:end]
        self.position = end
        return chunk

    def number(self, size: int) -> int:
        return int.from_bytes(self.take(size), "big")

    def field(self) -> bytes:
        return self.take(self.number(4))

    def done(self) -> bool:
        return self.position == len(self.blob)


def _decode_page(blob: bytes) -> Any:
    """Inverse of :func:`_encode_page`; a malformed page is a ``ValueError``."""
    if not blob:
        return ()
    reader = _PageReader(blob)
    tag = reader.take(1)
    if tag == b"A":
        value = reader.number(8)
        if not reader.done():
            raise ValueError("allocator page has trailing bytes")
        return value
    if tag != b"I":
        raise ValueError("unknown page tag")
    records: List[InodeRecord] = []
    while not reader.done():
        number = reader.number(8)
        kind = reader.take(1)
        if kind not in (b"\x00", b"\x01"):
            raise ValueError("bad inode kind")
        mtime = reader.number(8)
        owner = reader.field().decode()
        data = reader.field()
        children = tuple(
            (reader.field(), reader.number(8)) for _ in range(reader.number(4))
        )
        records.append((number, kind == b"\x01", data, children, mtime, owner))
    return tuple(records)


@dataclass
class Inode:
    """A file or directory."""

    inode_number: int
    is_directory: bool
    data: bytes = b""
    children: Dict[bytes, int] = field(default_factory=dict)
    mtime: int = 0
    owner: str = ""

    def size(self) -> int:
        return len(self.data)

    def record(self) -> InodeRecord:
        return (
            self.inode_number,
            self.is_directory,
            self.data,
            tuple(sorted(self.children.items())),
            self.mtime,
            self.owner,
        )

    @classmethod
    def from_record(cls, record: InodeRecord) -> "Inode":
        number, is_directory, data, children, mtime, owner = record
        return cls(number, is_directory, data, dict(children), mtime, owner)


class NFSService(Service):
    """The deterministic NFS-like state machine replicated by BFS."""

    #: Number of inode bucket pages; part of the digest definition.
    num_buckets: int = 1024
    #: The reserved page holding the inode allocator.
    allocator_page: int = num_buckets

    def __init__(self) -> None:
        super().__init__()
        self._inodes: Dict[int, Inode] = {}
        #: Bucket page index -> inode numbers currently on it.
        self._buckets: Dict[int, Set[int]] = {}
        self._next_inode = _FIRST_INODE
        self._add_inode(Inode(inode_number=1, is_directory=True))

    @classmethod
    def bucket_of(cls, inode_number: int) -> int:
        return inode_number % cls.num_buckets

    def _add_inode(self, node: Inode) -> None:
        bucket = self.bucket_of(node.inode_number)
        self._inodes[node.inode_number] = node
        self._buckets.setdefault(bucket, set()).add(node.inode_number)
        self._touch(bucket)

    def _drop_inode(self, inode_number: int) -> None:
        bucket = self.bucket_of(inode_number)
        del self._inodes[inode_number]
        numbers = self._buckets[bucket]
        numbers.discard(inode_number)
        if not numbers:
            del self._buckets[bucket]
        self._touch(bucket)

    def _touch_inode(self, node: Inode) -> None:
        self._touch(self.bucket_of(node.inode_number))

    # ------------------------------------------------------------- execution
    def execute(
        self,
        operation: bytes,
        client: str,
        nondet: bytes = b"",
        read_only: bool = False,
    ) -> bytes:
        parts = decode_op(operation)
        if not parts:
            return b"ERR empty"
        verb = parts[0].upper()
        mtime = self._decode_mtime(nondet)
        try:
            handler = {
                b"LOOKUP": self._op_lookup,
                b"GETATTR": self._op_getattr,
                b"READ": self._op_read,
                b"READDIR": self._op_readdir,
                b"WRITE": self._op_write,
                b"CREATE": self._op_create,
                b"REMOVE": self._op_remove,
                b"MKDIR": self._op_mkdir,
                b"RMDIR": self._op_rmdir,
                b"RENAME": self._op_rename,
            }[verb]
        except KeyError:
            return b"ERR bad-op"
        if read_only and verb not in _READ_ONLY_OPS:
            return b"ERR not-read-only"
        return handler(parts[1:], client, mtime)

    def is_read_only(self, operation: bytes) -> bool:
        parts = decode_op(operation)
        return bool(parts) and parts[0].upper() in _READ_ONLY_OPS

    # -------------------------------------------------------- non-determinism
    def propose_nondet(self, now: float) -> bytes:
        """The primary proposes the batch's time-last-modified value."""
        return struct.pack(">Q", int(now))

    def check_nondet(self, nondet: bytes, now: float) -> bool:
        """Backups accept the proposed mtime if it is close to their clock."""
        if not nondet:
            return True
        if len(nondet) != 8:
            return False
        (proposed,) = struct.unpack(">Q", nondet)
        return abs(proposed - now) <= MTIME_TOLERANCE

    @staticmethod
    def _decode_mtime(nondet: bytes) -> int:
        if len(nondet) == 8:
            return struct.unpack(">Q", nondet)[0]
        return 0

    # --------------------------------------------------------------- handlers
    def _resolve(self, path: bytes) -> Optional[Inode]:
        """Resolve an absolute path (``/a/b/c``) to an inode."""
        node = self._inodes[1]
        for component in path.split(b"/"):
            if not component:
                continue
            if not node.is_directory or component not in node.children:
                return None
            node = self._inodes[node.children[component]]
        return node

    def _parent_of(self, path: bytes) -> Tuple[Optional[Inode], bytes]:
        path = path.rstrip(b"/")
        if b"/" not in path:
            return self._inodes[1], path
        parent_path, _, name = path.rpartition(b"/")
        parent = self._resolve(parent_path) if parent_path else self._inodes[1]
        return parent, name

    def _op_lookup(self, args: List[bytes], client: str, mtime: int) -> bytes:
        node = self._resolve(args[0]) if args else None
        if node is None:
            return b"ENOENT"
        return b"FH:%d" % node.inode_number

    def _op_getattr(self, args: List[bytes], client: str, mtime: int) -> bytes:
        node = self._resolve(args[0]) if args else None
        if node is None:
            return b"ENOENT"
        kind = b"dir" if node.is_directory else b"file"
        return b"%s size=%d mtime=%d" % (kind, node.size(), node.mtime)

    def _op_read(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if len(args) < 3:
            return b"ERR args"
        node = self._resolve(args[0])
        if node is None or node.is_directory:
            return b"ENOENT"
        offset, count = int(args[1]), int(args[2])
        return node.data[offset:offset + count]

    def _op_readdir(self, args: List[bytes], client: str, mtime: int) -> bytes:
        node = self._resolve(args[0]) if args else None
        if node is None or not node.is_directory:
            return b"ENOTDIR"
        return b",".join(sorted(node.children))

    def _op_write(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if len(args) < 3:
            return b"ERR args"
        node = self._resolve(args[0])
        if node is None or node.is_directory:
            return b"ENOENT"
        offset = int(args[1])
        data = args[2]
        buffer = bytearray(node.data)
        if len(buffer) < offset:
            buffer.extend(b"\x00" * (offset - len(buffer)))
        buffer[offset:offset + len(data)] = data
        node.data = bytes(buffer)
        node.mtime = mtime
        self._touch_inode(node)
        return b"OK size=%d" % node.size()

    def _create_node(
        self, path: bytes, is_directory: bool, client: str, mtime: int
    ) -> bytes:
        parent, name = self._parent_of(path)
        if parent is None or not parent.is_directory or not name:
            return b"ENOENT"
        if name in parent.children:
            return b"EEXIST"
        inode_number = self._next_inode
        self._next_inode += 1
        self._touch(self.allocator_page)
        self._add_inode(Inode(
            inode_number=inode_number,
            is_directory=is_directory,
            mtime=mtime,
            owner=client,
        ))
        parent.children[name] = inode_number
        parent.mtime = mtime
        self._touch_inode(parent)
        return b"FH:%d" % inode_number

    def _op_create(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if not args:
            return b"ERR args"
        return self._create_node(args[0], False, client, mtime)

    def _op_mkdir(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if not args:
            return b"ERR args"
        return self._create_node(args[0], True, client, mtime)

    def _remove_node(self, path: bytes, expect_dir: bool, mtime: int) -> bytes:
        parent, name = self._parent_of(path)
        if parent is None or name not in parent.children:
            return b"ENOENT"
        node = self._inodes[parent.children[name]]
        if node.is_directory != expect_dir:
            return b"EISDIR" if node.is_directory else b"ENOTDIR"
        if node.is_directory and node.children:
            return b"ENOTEMPTY"
        del parent.children[name]
        self._drop_inode(node.inode_number)
        parent.mtime = mtime
        self._touch_inode(parent)
        return b"OK"

    def _op_remove(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if not args:
            return b"ERR args"
        return self._remove_node(args[0], False, mtime)

    def _op_rmdir(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if not args:
            return b"ERR args"
        return self._remove_node(args[0], True, mtime)

    def _op_rename(self, args: List[bytes], client: str, mtime: int) -> bytes:
        if len(args) < 2:
            return b"ERR args"
        src_parent, src_name = self._parent_of(args[0])
        dst_parent, dst_name = self._parent_of(args[1])
        if src_parent is None or src_name not in src_parent.children:
            return b"ENOENT"
        if dst_parent is None or not dst_parent.is_directory or not dst_name:
            return b"ENOENT"
        inode_number = src_parent.children.pop(src_name)
        dst_parent.children[dst_name] = inode_number
        src_parent.mtime = mtime
        dst_parent.mtime = mtime
        self._touch_inode(src_parent)
        self._touch_inode(dst_parent)
        return b"OK"

    # ------------------------------------------------------------- inspection
    def file_count(self) -> int:
        return sum(1 for node in self._inodes.values() if not node.is_directory)

    def directory_count(self) -> int:
        return sum(1 for node in self._inodes.values() if node.is_directory)

    def total_bytes(self) -> int:
        return sum(node.size() for node in self._inodes.values())

    # ----------------------------------------------------------- page hooks
    def _page_payload(self, index: int) -> Any:
        """The allocator value, or a bucket's inode records in number order."""
        if index == self.allocator_page:
            return self._next_inode
        numbers = self._buckets.get(index)
        if not numbers:
            return ()
        inodes = self._inodes
        return tuple(inodes[number].record() for number in sorted(numbers))

    _encode_payload = staticmethod(_encode_page)
    _decode_payload = staticmethod(_decode_page)

    def _page_indexes(self) -> Iterable[int]:
        return (*self._buckets, self.allocator_page)

    def _export_state(self) -> object:
        return {
            index: payload for index in self._page_indexes()
            if (payload := self._page_payload(index))
        }

    def _import_payload(self, index: int, payload: Any) -> None:
        if index == self.allocator_page:
            self._next_inode = payload or _FIRST_INODE
            return
        for number in self._buckets.pop(index, ()):
            del self._inodes[number]
        if payload:
            self._inodes.update(
                (record[0], Inode.from_record(record)) for record in payload
            )
            self._buckets[index] = {record[0] for record in payload}

    # ------------------------------------------------------------ corruption
    def corrupt(self) -> None:
        root = self._inodes[1]
        root.children[b"__corrupted__"] = 999999
        self._touch_inode(root)


class NFSClientOps:
    """Helpers to build NFS operation payloads (shared by BFS and baseline)."""

    @staticmethod
    def lookup(path: bytes) -> bytes:
        return encode_op(b"LOOKUP", path)

    @staticmethod
    def getattr(path: bytes) -> bytes:
        return encode_op(b"GETATTR", path)

    @staticmethod
    def read(path: bytes, offset: int, count: int) -> bytes:
        return encode_op(b"READ", path, str(offset).encode(), str(count).encode())

    @staticmethod
    def readdir(path: bytes) -> bytes:
        return encode_op(b"READDIR", path)

    @staticmethod
    def write(path: bytes, offset: int, data: bytes) -> bytes:
        return encode_op(b"WRITE", path, str(offset).encode(), data)

    @staticmethod
    def create(path: bytes) -> bytes:
        return encode_op(b"CREATE", path)

    @staticmethod
    def mkdir(path: bytes) -> bytes:
        return encode_op(b"MKDIR", path)

    @staticmethod
    def remove(path: bytes) -> bytes:
        return encode_op(b"REMOVE", path)

    @staticmethod
    def rmdir(path: bytes) -> bytes:
        return encode_op(b"RMDIR", path)

    @staticmethod
    def rename(src: bytes, dst: bytes) -> bytes:
        return encode_op(b"RENAME", src, dst)

    @staticmethod
    def is_read_only(operation: bytes) -> bool:
        parts = decode_op(operation)
        return bool(parts) and parts[0].upper() in _READ_ONLY_OPS

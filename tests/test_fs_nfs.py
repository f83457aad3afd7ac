"""Tests for the NFS-like file service state machine."""

import pytest

from repro.fs.nfs import NFSClientOps, NFSService, decode_op, encode_op


@pytest.fixture
def fs():
    return NFSService()


def run(fs, op, client="client0", mtime=1000):
    import struct

    nondet = struct.pack(">Q", mtime)
    return fs.execute(op, client, nondet=nondet).result


def test_encode_decode_roundtrip():
    op = encode_op(b"WRITE", b"/a/b", b"0", b"some data with spaces")
    assert decode_op(op) == [b"WRITE", b"/a/b", b"0", b"some data with spaces"]


def test_mkdir_create_write_read(fs):
    assert run(fs, NFSClientOps.mkdir(b"/dir")).startswith(b"FH:")
    assert run(fs, NFSClientOps.create(b"/dir/file")).startswith(b"FH:")
    assert run(fs, NFSClientOps.write(b"/dir/file", 0, b"hello")).startswith(b"OK")
    assert run(fs, NFSClientOps.read(b"/dir/file", 0, 100)) == b"hello"


def test_write_at_offset_extends_file(fs):
    run(fs, NFSClientOps.create(b"/f"))
    run(fs, NFSClientOps.write(b"/f", 4, b"data"))
    content = run(fs, NFSClientOps.read(b"/f", 0, 100))
    assert content == b"\x00\x00\x00\x00data"


def test_lookup_and_getattr(fs):
    run(fs, NFSClientOps.mkdir(b"/d"))
    run(fs, NFSClientOps.create(b"/d/f"))
    run(fs, NFSClientOps.write(b"/d/f", 0, b"12345"), mtime=777)
    assert run(fs, NFSClientOps.lookup(b"/d/f")).startswith(b"FH:")
    assert run(fs, NFSClientOps.lookup(b"/missing")) == b"ENOENT"
    attrs = run(fs, NFSClientOps.getattr(b"/d/f"))
    assert b"size=5" in attrs and b"mtime=777" in attrs


def test_readdir_lists_children_sorted(fs):
    run(fs, NFSClientOps.mkdir(b"/d"))
    run(fs, NFSClientOps.create(b"/d/b"))
    run(fs, NFSClientOps.create(b"/d/a"))
    assert run(fs, NFSClientOps.readdir(b"/d")) == b"a,b"


def test_duplicate_create_and_missing_parent(fs):
    run(fs, NFSClientOps.create(b"/f"))
    assert run(fs, NFSClientOps.create(b"/f")) == b"EEXIST"
    assert run(fs, NFSClientOps.create(b"/nodir/f")) == b"ENOENT"


def test_remove_and_rmdir_semantics(fs):
    run(fs, NFSClientOps.mkdir(b"/d"))
    run(fs, NFSClientOps.create(b"/d/f"))
    assert run(fs, NFSClientOps.rmdir(b"/d")) == b"ENOTEMPTY"
    assert run(fs, NFSClientOps.remove(b"/d")) == b"EISDIR"
    assert run(fs, NFSClientOps.remove(b"/d/f")) == b"OK"
    assert run(fs, NFSClientOps.rmdir(b"/d")) == b"OK"
    assert run(fs, NFSClientOps.remove(b"/d/f")) == b"ENOENT"


def test_rename_moves_entry(fs):
    run(fs, NFSClientOps.mkdir(b"/a"))
    run(fs, NFSClientOps.mkdir(b"/b"))
    run(fs, NFSClientOps.create(b"/a/f"))
    run(fs, NFSClientOps.write(b"/a/f", 0, b"content"))
    assert run(fs, NFSClientOps.rename(b"/a/f", b"/b/g")) == b"OK"
    assert run(fs, NFSClientOps.read(b"/b/g", 0, 100)) == b"content"
    assert run(fs, NFSClientOps.lookup(b"/a/f")) == b"ENOENT"


def test_read_only_classification():
    assert NFSClientOps.is_read_only(NFSClientOps.read(b"/f", 0, 10))
    assert NFSClientOps.is_read_only(NFSClientOps.getattr(b"/f"))
    assert not NFSClientOps.is_read_only(NFSClientOps.write(b"/f", 0, b"x"))
    service = NFSService()
    assert service.is_read_only(NFSClientOps.readdir(b"/"))
    assert not service.is_read_only(NFSClientOps.mkdir(b"/d"))


def test_mutating_op_through_read_only_path_rejected(fs):
    outcome = fs.execute(NFSClientOps.mkdir(b"/d"), "c", read_only=True)
    assert outcome.result == b"ERR not-read-only"
    assert fs.directory_count() == 1  # only the root


def test_mtime_comes_from_nondet_value(fs):
    run(fs, NFSClientOps.create(b"/f"), mtime=123)
    run(fs, NFSClientOps.write(b"/f", 0, b"x"), mtime=456)
    attrs = run(fs, NFSClientOps.getattr(b"/f"))
    assert b"mtime=456" in attrs


def test_nondet_proposal_and_checking():
    service = NFSService()
    proposed = service.propose_nondet(now=1_000_000.0)
    assert service.check_nondet(proposed, now=1_000_000.0)
    assert service.check_nondet(proposed, now=1_500_000.0)
    assert not service.check_nondet(proposed, now=1_000_000.0 + 1e9)
    assert not service.check_nondet(b"bad", now=0.0)
    assert service.check_nondet(b"", now=0.0)


def test_snapshot_restore_and_digest(fs):
    run(fs, NFSClientOps.mkdir(b"/d"))
    run(fs, NFSClientOps.create(b"/d/f"))
    snapshot = fs.snapshot()
    digest_before = fs.state_digest()
    run(fs, NFSClientOps.write(b"/d/f", 0, b"mutation"))
    assert fs.state_digest() != digest_before
    fs.restore(snapshot)
    assert fs.state_digest() == digest_before
    assert run(fs, NFSClientOps.read(b"/d/f", 0, 10)) == b""


def test_two_replicas_executing_same_ops_have_same_digest():
    a, b = NFSService(), NFSService()
    script = [
        NFSClientOps.mkdir(b"/d"),
        NFSClientOps.create(b"/d/f"),
        NFSClientOps.write(b"/d/f", 0, b"identical"),
    ]
    for op in script:
        run(a, op, mtime=42)
        run(b, op, mtime=42)
    assert a.state_digest() == b.state_digest()


def test_counters_and_corruption(fs):
    run(fs, NFSClientOps.mkdir(b"/d"))
    run(fs, NFSClientOps.create(b"/d/f"))
    run(fs, NFSClientOps.write(b"/d/f", 0, b"xyz"))
    assert fs.file_count() == 1
    assert fs.directory_count() == 2
    assert fs.total_bytes() == 3
    before = fs.state_digest()
    fs.corrupt()
    assert fs.state_digest() != before


def test_digest_covers_the_inode_allocator():
    """A create followed by a remove leaves the tree as it was but moves the
    allocator: the next create on each side would hand out different inode
    numbers, so the digests must differ."""
    churned, untouched = NFSService(), NFSService()
    run(churned, NFSClientOps.create(b"/f"), mtime=0)
    run(churned, NFSClientOps.remove(b"/f"), mtime=0)
    assert churned.state_digest() != untouched.state_digest()


def test_digest_covers_the_file_owner():
    """The same create issued by two different clients differs only in the
    new file's owner, and the digests must tell them apart."""
    mine, theirs = NFSService(), NFSService()
    run(mine, NFSClientOps.create(b"/f"), client="client0")
    run(theirs, NFSClientOps.create(b"/f"), client="client1")
    assert mine.state_digest() != theirs.state_digest()

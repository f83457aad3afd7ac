"""Golden payload bytes: one fully populated instance of each message type.

The canonical encoding (``payload_bytes``) is what digests, MACs and
signatures cover and what the cost model charges per byte, so a change to
a type's fields that moves one byte moves every modeled figure.  Each
literal is the SHA-256 of one instance's ``payload_bytes()``;
``Request.request_digest`` and ``PrePrepare.batch_digest`` are pinned
beside them.  Print fresh literals with
``PYTHONPATH=src python -m tests.test_payload_goldens`` from the repo root.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.messages import (
    Checkpoint,
    Commit,
    Data,
    Fetch,
    MetaData,
    NewKey,
    NewView,
    PrePrepare,
    Prepare,
    PSetEntry,
    QSetEntry,
    QueryStable,
    Reply,
    ReplyStable,
    Request,
    StatusActive,
    StatusPending,
    ViewChange,
    ViewChangeAck,
)

D1 = bytes(range(16))
D2 = bytes(range(16, 32))


def request() -> Request:
    return Request(operation=b"SET k v", timestamp=7, read_only=True,
                   designated_replier="replica2", sender="client3")


def pre_prepare() -> PrePrepare:
    return PrePrepare(view=2, seq=41, requests=(request(),), separate_digests=(D1, D2),
                      nondet=b"\x00\x01nd", sender="replica2")


def instances():
    """One instance of each of the 17 message types, every field set."""
    return {
        "Request": request(),
        "Reply": Reply(view=2, timestamp=7, client="client3", result=b"OK",
                       result_digest=D1, tentative=True, sender="replica1"),
        "PrePrepare": pre_prepare(),
        "Prepare": Prepare(view=2, seq=41, digest=D1, sender="replica3"),
        "Commit": Commit(view=2, seq=41, digest=D2, sender="replica1"),
        "Checkpoint": Checkpoint(seq=40, state_digest=D1, sender="replica0"),
        "ViewChange": ViewChange(
            new_view=3, h=32, checkpoints=((32, D1), (40, D2)),
            prepared=(PSetEntry(seq=41, digest=D1, view=2),),
            pre_prepared=(QSetEntry(seq=41, digests=((D1, 2), (D2, 1))),),
            sender="replica1"),
        "ViewChangeAck": ViewChangeAck(new_view=3, origin="replica1",
                                       view_change_digest=D2, sender="replica2"),
        "NewView": NewView(new_view=3, view_change_digests=(("replica1", D1), ("replica2", D2)),
                           checkpoint_seq=40, checkpoint_digest=D1,
                           selections=((41, D2), (42, D1)), batches=(pre_prepare(),),
                           sender="replica3"),
        "StatusActive": StatusActive(view=2, last_stable=32, last_executed=40,
                                     prepared_seqs=(41, 42), committed_seqs=(41,),
                                     sender="replica0"),
        "StatusPending": StatusPending(view=3, last_stable=32, last_executed=40,
                                       has_new_view=True,
                                       view_changes_from=("replica1", "replica2"),
                                       sender="replica1"),
        "NewKey": NewKey(keys=(("replica0", D1), ("client3", D2)), counter=5,
                         sender="replica2"),
        "QueryStable": QueryStable(nonce=11, sender="replica3"),
        "ReplyStable": ReplyStable(last_checkpoint=40, last_prepared=43, nonce=11,
                                   sender="replica0"),
        "Fetch": Fetch(level=1, index=5, last_checkpoint=32, target_seq=40,
                       designated_replier="replica2", sender="replica1"),
        "MetaData": MetaData(seq=40, level=1, index=5, entries=((0, 33, D1), (1, 38, D2)),
                             reply_timestamps=(("client3", 7),), sender="replica2"),
        "Data": Data(index=9, last_modified=38, page=b"page bytes", seq=40, sender="replica2"),
    }


#: SHA-256 of each instance's ``payload_bytes()``.
PAYLOAD_SHA256 = {
    "Request": "b48b5170e2c3980816b67f20174b19d1045013cb6fe293b3d6293047c70ac017",
    "Reply": "b37cc2362bc167d87eb4ed11f0e639cbf0b27ea676f2c1525ddc5d8388396f7a",
    "PrePrepare": "cc871fd47eaea2a0467dbb144744497128045250b48c04aac931eb588fd4bf6e",
    "Prepare": "c95375ddc07100bece2a6b58530646b3eec0326cdc9879b914912001c4f3ebd3",
    "Commit": "7686c9540d5570071476cc593a9617cee5509f68c82f83eb05893d7b3bbbd634",
    "Checkpoint": "20c98a27de657f0ed0811dc30871c14df05bab04c1d29c8267de1d6547617a4c",
    "ViewChange": "6acc62de309458ca013b671c60e38f63181b18257766b65a2649e847fc1d7f26",
    "ViewChangeAck": "92b97b64b48f4b034e9d728ac8594798a423a87ecf437a076487c7d07c77b537",
    "NewView": "eb46628257f850e423096d8d18d43b331a97a413a11adbb19a6c19141f90c1ac",
    "StatusActive": "f140be898e790982b44749312b55ba78676591c0e55a45d8a73b1df197edc2e5",
    "StatusPending": "1a1aee5bbfb23df3e62d8d0a88035f331fe33bc18714ba800b5e18c7d5509be5",
    "NewKey": "c5d0a531f7ccf684a8506bbdde2022afcb17f90ab7cd36521b7b4bd9ff87b44a",
    "QueryStable": "b078cc0f99152ae338627b32be84eedc26ae0664048a3bbdd03ee4ec5193ef6d",
    "ReplyStable": "2f6c4d9d673cdaaee7a3ada999a8fd41113dcedf25e48be83aa2be2f4a7ed27e",
    "Fetch": "3f88acc4bed94954a05bb5099b1e3b6143c3c80ada11602151ffe7c387745275",
    "MetaData": "947cf78db3407f8ffc027ee810baeb940c68bda56ed9915264119aef23e496ed",
    "Data": "9b9715bc57ee834683afd6a4c6121971541f832f7e57f3ebf034f6bb26ee040c",
}

REQUEST_DIGEST = "b70e0cc7a88b475fe67cffce368f25a6"
BATCH_DIGEST = "c2d379e64185c30d8b3f5863ad2032ae"


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def test_every_message_type_has_a_golden():
    assert set(instances()) == set(PAYLOAD_SHA256)
    assert len(PAYLOAD_SHA256) == 17


@pytest.mark.parametrize("name", sorted(PAYLOAD_SHA256))
def test_payload_bytes_match_the_golden(name):
    assert _sha(instances()[name].payload_bytes()) == PAYLOAD_SHA256[name]


def test_request_and_batch_digests_match_the_goldens():
    assert request().request_digest().hex() == REQUEST_DIGEST
    assert pre_prepare().batch_digest().hex() == BATCH_DIGEST


if __name__ == "__main__":
    print("PAYLOAD_SHA256 = {")
    for name, message in instances().items():
        print(f'    "{name}": "{_sha(message.payload_bytes())}",')
    print("}")
    print(f'REQUEST_DIGEST = "{request().request_digest().hex()}"')
    print(f'BATCH_DIGEST = "{pre_prepare().batch_digest().hex()}"')

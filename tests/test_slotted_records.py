"""The records the simulator keeps by the thousand carry no instance dict.

Each of these exists once per timer, slot, page, key, node or flush, so a
per-instance ``__dict__`` (about 100 bytes, more once it grows) is paid that
many times over.  A field added later without ``__slots__`` fails here
instead of quietly growing every instance.
"""

from repro.core.log import Slot
from repro.crypto.mac import MACKey
from repro.sim.events import DeliveryTrain, Event, EventKind
from repro.sim.rng import SimRandom
from repro.statetransfer.partition_tree import PageRecord


def test_hot_records_have_no_instance_dict():
    instances = [
        Event.make(0.0, EventKind.TIMER, "node"),
        Slot(seq=1),
        PageRecord(index=0, last_modified=-1, value=b"page", digest=0),
        MACKey(key_id=0, material=b"key"),
        SimRandom(1),
        DeliveryTrain([1.0], ["node"], ["message"], [0]),
    ]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance).__name__

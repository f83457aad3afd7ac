"""The BFT library (Chapter 6).

:class:`BFTCluster` assembles a complete simulated deployment — replicas,
clients, network, cost model and fault injection — in a :class:`SimWorld`,
the one place a simulated node is built.  ``BFTCluster.create`` plays
``Byz_init_replica`` for a group, ``new_client`` is ``Byz_init_client``
and the returned :class:`SyncClient`'s ``invoke`` is ``Byz_invoke``
(Figure 6-2).  :class:`repro.sharding.ShardedKVCluster` offers the same
``new_client().invoke`` across several replica groups, with keys
hash-partitioned over the groups and bucket-range migration between them.
"""

from repro.library.cluster import BFTCluster, SimWorld, SyncClient

__all__ = ["BFTCluster", "SimWorld", "SyncClient"]

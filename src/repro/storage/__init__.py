"""Storage substrate: the shared checkpoint store.

The paper assumes "a shared storage system in the data center where
computing nodes can share data" (GFS-like), reachable over the network,
reliable except for the network path to it.  :class:`SharedStorage`
models exactly that: a service on the storage node whose disk is the
contended resource, with request/response transfers billed to the
clients' NICs.
"""

from repro.storage.shared import SharedStorage, StorageClient, StorageError

__all__ = ["SharedStorage", "StorageClient", "StorageError"]

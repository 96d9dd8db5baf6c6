"""repro.server — the concurrent asyncio service front-end.

A small TCP server (length-prefixed JSON frames) over one
:func:`repro.api.open_store` instance, with a per-tick request coalescer
that turns concurrent client traffic into the engines' vectorized batch
calls and acknowledges write groups at a single WAL group-commit
barrier.  See :mod:`repro.server.server` for the execution model and
:mod:`repro.server.protocol` for the wire format.

Entry points: ``repro serve PATH`` (CLI), :class:`StoreServer` /
:func:`run_server` (embedding), :class:`StoreClient` /
:class:`AsyncStoreClient` (clients).  ``perfbench``'s ``served`` workload
measures the server end to end, against a separate ``repro serve`` process.
"""

from repro.server.client import AsyncStoreClient, ServerError, StoreClient
from repro.server.protocol import MAX_FRAME_BYTES, ProtocolError
from repro.server.server import Coalescer, StoreServer, run_server

__all__ = [
    "AsyncStoreClient",
    "Coalescer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServerError",
    "StoreClient",
    "StoreServer",
    "run_server",
]

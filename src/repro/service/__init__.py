"""Reliability-as-a-service: an async query layer over the artifact
store and experiment machinery.

Clients ask "design X, workload Y, year t" and receive latency /
error-rate / switching statistics as typed JSON records, served from a
hot in-memory LRU tier, the on-disk
:class:`~repro.experiments.store.ArtifactStore`, or a single-flight
batched backend build -- with per-request deadlines and graceful
degradation instead of connection failures.

Run it::

    python -m repro service serve --store .repro-store
    python -m repro service query --width 16 --kind column --years 0,10

See DESIGN.md section 13 for the architecture and the degradation
matrix.
"""

from .backend import Backend, compute_batch, compute_direct
from .client import (
    AsyncServiceClient,
    ServiceClient,
    run_concurrent_queries,
)
from .protocol import QuerySpec
from .server import (
    ReliabilityService,
    ServiceConfig,
    ServiceHandle,
    serve_in_background,
)

__all__ = [
    "AsyncServiceClient",
    "Backend",
    "QuerySpec",
    "ReliabilityService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "compute_batch",
    "compute_direct",
    "run_concurrent_queries",
    "serve_in_background",
]

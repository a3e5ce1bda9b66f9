"""Concurrent reachability query service over compiled artifacts.

The build → compile → serve lifecycle (PR 3) produces mmap-shareable
binary artifacts; this package is the process that actually *serves*
them to concurrent clients:

* :mod:`repro.server.protocol` — the length-prefixed binary wire
  protocol (one ``u32 length | u8 opcode | u64 request_id`` header per
  frame, bit-packed answers) plus a stdlib JSON-over-HTTP fallback for
  curl-style clients.
* :mod:`repro.server.cache` — a sharded LRU result cache with
  hit/miss/negative-answer statistics.
* :mod:`repro.server.batching` — the micro-batching front end:
  requests arriving within a configurable window (default ~1 ms)
  coalesce into one batch for the vectorized engine; a lone request
  falls back to a single scalar query.
* :mod:`repro.server.service` — :class:`QueryService` (cache →
  batcher → epoch store) with an optional pool of worker processes
  that each mmap-load the same artifact (one physical copy), and
  :class:`ReachServer`, the TCP front end.
* :mod:`repro.server.client` — :class:`ReachClient` plus the
  open-/closed-loop load generator used by the harness and
  ``benchmarks/bench_server.py``.

Answers are bit-identical to a direct
:class:`~repro.core.compiled.CompiledOracle` on the same artifact —
batching, caching and worker routing change throughput and latency
only, never a single answer bit.

Every :class:`QueryService` answers from a versioned artifact store
(:mod:`repro.live`) and leases one epoch per batch, so hot swaps are
batch-atomic and cache keys carry the epoch; a static artifact is the
store's pinned epoch 0.  Live indexes add the ``OP_UPDATE`` wire op
(edge insertions), and ``OP_EPOCH`` reports the serving epoch.
"""

from .batching import MicroBatcher
from .cache import ShardedLRUCache
from .client import LoadReport, ReachClient, percentiles, run_load
from .protocol import OverloadedError
from .service import QueryService, ReachServer, WorkerPool, serve_artifact

__all__ = [
    "MicroBatcher",
    "ShardedLRUCache",
    "ReachClient",
    "LoadReport",
    "run_load",
    "percentiles",
    "OverloadedError",
    "QueryService",
    "ReachServer",
    "WorkerPool",
    "serve_artifact",
]

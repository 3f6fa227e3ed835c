"""Compile-as-a-service: an async batching front-end over the farm.

The substrate built by the earlier performance work -- process-pool
compile farm, content-addressed artifact cache, tiered simulators,
parallel conformance -- made throughput cheap; this package turns it
into a *long-running service* that many clients can hammer at once:

- :mod:`repro.serve.server` -- the asyncio server: requests are
  content-hashed with the artifact cache's own key derivation,
  answered from the store when hot, coalesced onto in-flight work when
  pending, and batched into farm submissions when cold;
- :mod:`repro.serve.protocol` -- the newline-delimited JSON wire
  format (compile / simulate / verify / stats / ping / shutdown);
- :mod:`repro.serve.batcher` -- the latency/throughput batching
  window with in-flight coalescing;
- :mod:`repro.serve.client` -- a blocking client;
- :mod:`repro.serve.traffic` -- the hot kernels and targets that the
  e2e ``serve`` workload and the service tests request.

Start a server with ``python -m repro serve`` and talk to it with
:class:`~repro.serve.client.ServeClient`.  The e2e ``serve`` workload
(``benchmarks/e2e``) measures it under load; the service's dedup and
identity contracts are tier-1 tests (``tests/serve/test_service.py``).
"""

from repro.serve.batcher import Batcher, BatcherStats
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import ProtocolError, parse_request
from repro.serve.server import (
    CompileService, DEFAULT_PORT, ReproServer, ServeError, ServeStats,
    serve_forever,
)

__all__ = [
    "Batcher",
    "BatcherStats",
    "CompileService",
    "DEFAULT_PORT",
    "ProtocolError",
    "ReproServer",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServeStats",
    "parse_request",
    "serve_forever",
]

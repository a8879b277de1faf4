"""Rank-as-a-service: an asyncio HTTP/JSON serving layer.

Exposes the facade's entry points over versioned wire endpoints::

    POST /v1/rank       one rank computation      (schema: RankRequest)
    POST /v1/sweep      a Table 4 knob sweep      (schema: SweepRequest)
    POST /v1/corners    sign-off across corners   (schema: CornersRequest)
    POST /v1/optimize   architecture search       (schema: OptimizeRequest)
    GET  /v1/metrics    obs registry + latency quantiles + cache stats
    GET  /v1/healthz    liveness, version, executor state

Stdlib-only by construction (hand-rolled HTTP/1.1 over asyncio
streams).  Start it with ``ia-rank serve`` or ``python -m
repro.service``; embed it with::

    from repro.service import RankService, ServiceConfig

    service = RankService(ServiceConfig(port=0))
    await service.start()

Identical requests are answered from a bounded response memo keyed by
the schema's canonical fingerprints — byte-identical replays, with
cache status in the ``X-Repro-Cache`` header — and heavy solves run on
solve threads behind a backpressured queue (429 on overload, 504 on
cooperative deadline expiry).
"""

from .app import RankApp, ServiceConfig
from .executor import ServiceOverloaded, SolveExecutor
from .memo import ResultCache
from .server import RankService, serve

__all__ = [
    "RankApp",
    "RankService",
    "ResultCache",
    "ServiceConfig",
    "ServiceOverloaded",
    "SolveExecutor",
    "serve",
]

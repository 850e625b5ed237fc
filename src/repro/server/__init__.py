"""``repro serve`` — the long-lived asyncio extraction service.

The server front-end that PR 5's streaming subsystem was built for: many
concurrent clients each open a ``(pattern, emit-mode)`` session
over HTTP, feed document text in chunks, and receive mappings back the
moment they settle (newline-delimited JSON both ways).  Compiled plans
are shared across tenants through one size-bounded
:class:`~repro.runtime.plan.PlanCache`; admission control caps concurrent
sessions and per-session fed bytes; ``/metrics`` exposes request counts,
the plan-cache hit ratio, live sessions and p50/p99 request latency.

Layering:

* :mod:`repro.server.protocol` — the NDJSON event grammar;
* :mod:`repro.server.service` — sessions, admission, the shared cache;
* :mod:`repro.server.metrics` — counters and the latency ring buffer;
* :mod:`repro.server.http` — the asyncio HTTP/1.1 front-end;
* :mod:`repro.server.client` — a reference client (tests, benchmarks).
"""

from repro.server.client import StreamClient, fetch_json
from repro.server.http import ReproServer, serve_forever
from repro.server.metrics import LatencyRing, ServerMetrics
from repro.server.protocol import OpenRequest, ProtocolError
from repro.server.service import (
    AdmissionError,
    DEFAULT_SERVE_ALPHABET,
    ServerConfig,
    Session,
    SessionLimitError,
    SpannerService,
)

__all__ = [
    "AdmissionError",
    "DEFAULT_SERVE_ALPHABET",
    "LatencyRing",
    "OpenRequest",
    "ProtocolError",
    "ReproServer",
    "ServerConfig",
    "ServerMetrics",
    "Session",
    "SessionLimitError",
    "SpannerService",
    "StreamClient",
    "fetch_json",
    "serve_forever",
]

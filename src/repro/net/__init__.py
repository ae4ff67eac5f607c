"""Real network boundary: asyncio origin server + HTTP client transport.

Everything else in the repo crosses a function call; this package is the
production-shaped seam.  :class:`DcsrOrigin` serves a saved package
directory over stdlib-asyncio HTTP/1.1 (Range, ETag/If-None-Match,
Content-Length, keep-alive); :class:`HttpTransport` is a drop-in for
:class:`~repro.core.network.SimulatedNetwork` — same duck-typed
``download`` surface, same retry/backoff helper, same telemetry counter
names — so the whole client/cache/fleet stack runs unmodified over real
sockets.  :class:`ChaosProxy` injects deterministic TCP faults (reset,
truncation, stalls, latency) between them, mirroring the simulated
network's schedule semantics.

Layering: ``repro.net`` imports ``repro.core`` and ``repro.obs`` only,
and is asyncio-only — no ``threading`` (AST-guarded by
``tests/net/test_no_threads_net.py``).
"""

from ..core.persist import model_path, segment_path
from .chaos import FAULTS, ChaosConfig, ChaosProxy
from .origin import DcsrOrigin, OriginConfig
from .transport import (
    HttpStatusError,
    HttpTransport,
    OriginUnreachable,
    StalledRead,
    TransportError,
    TruncatedBody,
    mirror_package,
)

__all__ = [
    "OriginConfig",
    "DcsrOrigin",
    "HttpTransport",
    "TransportError",
    "OriginUnreachable",
    "TruncatedBody",
    "StalledRead",
    "HttpStatusError",
    "mirror_package",
    "model_path",
    "segment_path",
    "FAULTS",
    "ChaosConfig",
    "ChaosProxy",
]

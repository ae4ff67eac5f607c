"""Asyncio HTTP client transport that plugs in where ``SimulatedNetwork``
does.

:class:`HttpTransport` is the production-shaped half of the network seam:
the :class:`repro.core.network.Network` contract the whole client stack
is written against — ``download(kind, key, n_bytes) -> seconds``, a
``clock``, ``stats`` and ``config`` — backed by real TCP sockets instead
of a simulated schedule.  It is a :class:`repro.core.network.Link` whose
one attempt is a wall-timed socket fetch, so ``DcsrClient``, the model
caches, retry/backoff, and the fleet simulator's playback mode run
unmodified over either transport; the transport contract suite
(``tests/net/test_transport_contract.py``) holds them to identical
behavior.

Design notes:

- **Sync facade, async core.**  The client stack is synchronous, so each
  ``download`` drives a private asyncio event loop to completion
  (``run_until_complete``).  No threads are involved — when the loop is
  shared with an in-process :class:`~repro.net.DcsrOrigin` (the loopback
  test topology), the same ``run_until_complete`` call runs the server's
  handler coroutines too.
- **One connection per request.**  Requests carry ``Connection: close``,
  so a fault-injection proxy can key its per-connection fault schedule
  one-to-one to download attempts, mirroring ``SimulatedNetwork``'s
  per-attempt failure schedule.
- **Time domains.**  Measured wall seconds of each transfer are returned
  to the caller *and* advanced onto :attr:`clock` (a
  :class:`~repro.obs.SimulatedClock`), so retry backoff — which the
  shared retry helper charges to ``clock`` — and transfer time accumulate
  in one domain, exactly as they do on the simulated network.  Backoff is
  never slept.
- **Typed errors.**  Every transport failure maps onto a
  :class:`~repro.core.network.DownloadError` subclass
  (:class:`OriginUnreachable`, :class:`TruncatedBody`,
  :class:`StalledRead`, :class:`HttpStatusError`), so the client's
  existing retry / concealment / fallback paths engage with no changes.
- **No telemetry of its own.**  Like every link, the transport counts
  attempts only in :attr:`stats` (``bytes_delivered`` is wire bytes);
  the session's download counters come from the fetch stage's ledger in
  the manifest's accounting bytes, whichever transport carried them.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from ..core.network import DownloadError, Link, NetworkConfig
from ..core.persist import (MANIFEST_PATH, make_package_dirs, model_path,
                            segment_path)
from ..obs import wall_clock

__all__ = [
    "TransportError",
    "OriginUnreachable",
    "TruncatedBody",
    "StalledRead",
    "HttpStatusError",
    "HttpTransport",
    "mirror_package",
]


class TransportError(DownloadError):
    """A real-socket download failed (maps onto the simulated taxonomy)."""


class OriginUnreachable(TransportError):
    """Connect failure or connection reset mid-transfer."""


class TruncatedBody(TransportError):
    """The peer closed before ``Content-Length`` bytes arrived."""


class StalledRead(TransportError):
    """No bytes arrived within the transport's timeout."""


class HttpStatusError(TransportError):
    """The origin answered with a non-success status."""

    def __init__(self, message: str, status: int, **kwargs):
        super().__init__(message, **kwargs)
        self.status = int(status)


class HttpTransport(Link):
    """Real-socket drop-in for :class:`~repro.core.network.SimulatedNetwork`.

    Parameters
    ----------
    base_url:
        Origin root, e.g. ``http://127.0.0.1:8123``.  Only ``http`` is
        supported (the origin is stdlib-only too).
    config:
        Optional :class:`~repro.core.network.NetworkConfig` carried for
        duck-type parity — consumers read ``config.bandwidth_bps`` as a
        throughput hint (``None`` = unknown).  Failure injection fields
        are ignored: real faults come from the wire (or the chaos proxy).
    timeout_s:
        Per-read (and connect) stall budget; an attempt that stays
        silent this long raises :class:`StalledRead`.
    loop:
        Optional event loop to drive.  Tests share one loop between the
        transport and an in-process origin; by default the transport
        owns a private loop and closes it on :meth:`close`.
    """

    def __init__(self, base_url: str, *, config: NetworkConfig | None = None,
                 timeout_s: float = 5.0,
                 loop: asyncio.AbstractEventLoop | None = None):
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.base_url = base_url.rstrip("/")
        if not self.base_url.startswith("http://"):
            raise ValueError(f"only http:// origins are supported, "
                             f"got {base_url!r}")
        authority = self.base_url[len("http://"):].split("/", 1)[0]
        host, _, port = authority.partition(":")
        if not host:
            raise ValueError(f"no host in {base_url!r}")
        self.host = host
        self.port = int(port) if port else 80
        super().__init__(config)
        self.timeout_s = float(timeout_s)
        self._wall = wall_clock()
        self._loop = loop
        self._owns_loop = loop is None
        #: path -> (etag, body): If-None-Match revalidation cache.  A 304
        #: replays the cached body without a second transfer.
        self._validators: dict[str, tuple[str, bytes]] = {}
        #: Body of the most recent successful download (contract tests
        #: compare it bitwise against the on-disk artifact).
        self.last_payload: bytes | None = None
        #: 304-revalidation hits across the transport's lifetime.
        self.revalidated = 0

    # ----------------------------------------------------------- event loop

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        """Release the private event loop (no-op on a shared loop)."""
        if self._owns_loop and self._loop is not None:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "HttpTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------- the Network contract

    def path_for(self, kind: str, key: int | str) -> str:
        """Map the client's ``(kind, key)`` naming onto origin URL paths."""
        if kind == "segment":
            return segment_path(key)
        if kind == "model":
            return model_path(key)
        if kind == "manifest":
            return MANIFEST_PATH
        raise ValueError(f"unknown payload kind {kind!r}")

    def _attempt(self, kind: str, key: int | str,
                 n_bytes: int) -> tuple[float, int]:
        """Fetch one payload over TCP, timed on the wall clock.

        ``n_bytes`` is the manifest's accounting size; the wire transfers
        the actual artifact (they differ for quantized checkpoints, whose
        reduced size is an accounting convention — the shipped ``.npz``
        is the fp32 one the kernels derive from).
        """
        path = self.path_for(kind, key)
        t0 = self._wall.now()
        try:
            body = self._run(self._fetch(path))
        except DownloadError as exc:
            exc.seconds = self._wall.now() - t0
            raise
        self.last_payload = body
        return self._wall.now() - t0, len(body)

    # ------------------------------------------------------------ HTTP core

    def fetch(self, kind: str, key: int | str) -> bytes:
        """Synchronous raw fetch (no attempt accounting): the payload
        bytes of one artifact.  Package mirroring and tests use this;
        playback accounting goes through :meth:`download`."""
        return self._run(self._fetch(self.path_for(kind, key)))

    def get(self, path: str, headers: dict[str, str] | None = None):
        """Synchronous single request: ``(status, headers, body)``."""
        return self._run(self.request("GET", path, headers))

    async def _fetch(self, path: str) -> bytes:
        headers = {}
        cached = self._validators.get(path)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        status, response_headers, body = await self.request(
            "GET", path, headers)
        if status == 304 and cached is not None:
            self.revalidated += 1
            return cached[1]
        if status != 200:
            raise HttpStatusError(
                f"origin answered {status} for /{path}", status=status)
        etag = response_headers.get("etag")
        if etag:
            self._validators[path] = (etag, body)
        return body

    async def request(self, method: str, path: str,
                      headers: dict[str, str] | None = None):
        """One HTTP/1.1 request over a fresh connection.

        Returns ``(status, lowercase-header dict, body)``; maps every
        socket-level failure onto the typed transport errors.
        """
        path = path.lstrip("/")
        request_lines = [
            f"{method} /{path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "User-Agent: dcsr-transport/1",
            "Connection: close",
        ]
        request_lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
        payload = "\r\n".join(request_lines).encode("latin-1") + b"\r\n\r\n"

        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.timeout_s)
        except asyncio.TimeoutError:
            raise StalledRead(
                f"connect to {self.host}:{self.port} timed out") from None
        except OSError as exc:
            raise OriginUnreachable(
                f"cannot reach {self.host}:{self.port}: {exc}") from exc
        try:
            writer.write(payload)
            await asyncio.wait_for(writer.drain(), self.timeout_s)
            status, response_headers = await self._read_head(reader, path)
            body = await self._read_body(reader, response_headers, path,
                                         head_only=(method == "HEAD"
                                                    or status == 304))
        except asyncio.TimeoutError:
            raise StalledRead(f"read of /{path} stalled past "
                              f"{self.timeout_s:g}s") from None
        except asyncio.IncompleteReadError as exc:
            raise TruncatedBody(
                f"/{path} truncated: got {len(exc.partial)} bytes of a "
                f"promised body") from exc
        except ConnectionResetError as exc:
            raise OriginUnreachable(
                f"connection reset reading /{path}") from exc
        except OSError as exc:
            raise OriginUnreachable(f"I/O error reading /{path}: "
                                    f"{exc}") from exc
        finally:
            writer.close()
            # wait_closed can itself surface the peer's RST; the response
            # (or typed error) is already decided by then.
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        return status, response_headers, body

    async def _read_head(self, reader: asyncio.StreamReader, path: str):
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.timeout_s)
        except asyncio.IncompleteReadError:
            raise TruncatedBody(
                f"/{path} closed before response head") from None
        lines = head[:-4].decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise OriginUnreachable(f"/{path}: malformed status line "
                                    f"{lines[0]!r}")
        status = int(parts[1])
        response_headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        return status, response_headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: dict[str, str], path: str,
                         head_only: bool) -> bytes:
        if head_only:
            return b""
        length = headers.get("content-length")
        if length is not None:
            return await asyncio.wait_for(
                reader.readexactly(int(length)), self.timeout_s)
        body = b""
        while True:
            chunk = await asyncio.wait_for(reader.read(65536), self.timeout_s)
            if not chunk:
                return body
            body += chunk


def mirror_package(transport: HttpTransport, dest: str | Path) -> Path:
    """Download a whole package from an origin into ``dest``.

    Fetches the manifest, then every segment bitstream and model
    checkpoint it references (tier checkpoints included), reproducing
    the exact on-disk layout :func:`repro.core.persist.load_package`
    reads.  The transferred bytes are the package — a client playing the
    mirror is playing what the socket delivered, bit for bit.
    """
    dest = make_package_dirs(dest)
    manifest_bytes = transport.fetch("manifest", "")
    (dest / MANIFEST_PATH).write_bytes(manifest_bytes)
    meta = json.loads(manifest_bytes)
    keys = [("segment", record["index"]) for record in meta["segments"]]
    keys += [("model", int(label)) for label in meta["model_configs"]]
    keys += [("model", f"{int(label)}:{tier}:fp32")
             for tier, configs in meta.get("tier_model_configs", {}).items()
             for label in configs]
    for kind, key in keys:
        (dest / transport.path_for(kind, key)).write_bytes(
            transport.fetch(kind, key))
    return dest

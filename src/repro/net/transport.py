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
- **Pooled keep-alive connections.**  Idle connections to the origin
  wait in a LIFO pool; a request takes the most recently used one that
  is still open, or opens a new one, so the pool never holds more
  connections than the transport once had requests in flight.  A
  connection goes back only after a complete response framed by
  ``Content-Length`` (or a bodiless HEAD/304) whose head does not say
  ``Connection: close``; a typed error, a timeout, a partial body or a
  body read to EOF closes it.  :meth:`HttpTransport.close` closes the
  pooled sockets.
- **Stale connections.**  The origin may close an idle connection (its
  ``idle_timeout_s``, which it announces with an unsolicited ``408``).
  A reused connection whose request cannot be sent, that is closed or
  reset before the transport has read any byte of the response, or
  whose first response is that ``408``, sends its GET/HEAD once more on
  a fresh connection; the resend is part of the same attempt.  Every
  other failure — a reset after the first response byte included — is a
  typed error of that attempt, so a fault-injection proxy that draws one
  fault per request maps one-to-one onto download attempts, mirroring
  ``SimulatedNetwork``'s per-attempt failure schedule.
- **Bounded buffers.**  A body is read in pieces of what the stream has
  buffered, never with one body-sized ``readexactly``, so an idle
  pooled connection keeps no body-sized read buffer.
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

#: Read size for a body that runs to EOF.
_BODY_CHUNK = 64 << 10

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


class _StaleConnection(Exception):
    """A pooled connection the peer closed while it sat idle."""


class _NoResponse(Exception):
    """The peer hung up before the transport read any response byte."""


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
        Stall budget of the connect, of sending a request and reading
        its response head, and of each body read; an attempt that stays
        silent this long raises :class:`StalledRead`.
    loop:
        Optional event loop to drive.  Tests share one loop between the
        transport and an in-process origin; by default the transport
        owns a private loop and closes it on :meth:`close`.  On either
        loop, :meth:`close` closes the pooled keep-alive connections.
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
        #: Idle keep-alive connections, most recently used last.
        self._idle: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    # ----------------------------------------------------------- event loop

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        """Close every pooled connection and release the private event
        loop (a shared loop stays open)."""
        writers = [writer for _reader, writer in self._idle]
        self._idle = []
        if self._loop is not None and not self._loop.is_closed():
            for writer in writers:
                writer.close()
            if writers and not self._loop.is_running():
                self._run(_wait_all_closed(writers))
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
        """One HTTP/1.1 request on a pooled keep-alive connection.

        Returns ``(status, lowercase-header dict, body)``; maps every
        socket-level failure onto the typed transport errors.
        """
        path = path.lstrip("/")
        request_lines = [
            f"{method} /{path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "User-Agent: dcsr-transport/1",
        ]
        request_lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
        payload = "\r\n".join(request_lines).encode("latin-1") + b"\r\n\r\n"
        connection = self._idle_connection()
        if connection is not None:
            try:
                return await self._exchange(connection, method, path,
                                            payload, reused=True)
            except _StaleConnection:
                pass                          # closed while idle: resend
        return await self._exchange(await self._connect(), method, path,
                                    payload, reused=False)

    def _idle_connection(self):
        """The most recently pooled connection still open, or ``None``."""
        while self._idle:
            reader, writer = self._idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()
        return None

    async def _connect(self):
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.timeout_s)
        except asyncio.TimeoutError:
            raise StalledRead(
                f"connect to {self.host}:{self.port} timed out") from None
        except OSError as exc:
            raise OriginUnreachable(
                f"cannot reach {self.host}:{self.port}: {exc}") from exc

    async def _exchange(self, connection, method: str, path: str,
                        payload: bytes, reused: bool):
        """Send one request on ``connection`` and read its response; the
        connection goes back to the pool only if it stays usable."""
        reader, writer = connection
        resendable = reused and method in ("GET", "HEAD")
        reusable = False
        try:
            try:
                head = await asyncio.wait_for(
                    _send(connection, payload, path), self.timeout_s)
            except _NoResponse as exc:
                if resendable:
                    raise _StaleConnection from exc
                if exc.__cause__ is not None:
                    raise exc.__cause__       # typed by the clauses below
                raise TruncatedBody(
                    f"/{path} closed before response head") from None
            status, response_headers = _parse_head(head, path)
            if resendable and status == 408:
                # The origin's idle timeout: it answered 408 to no
                # request of ours, then closed.
                raise _StaleConnection
            size = _body_length(method, status, response_headers, path)
            body = await self._read_body(reader, size)
            reusable = (size is not None and response_headers.get(
                "connection", "").lower() != "close")
        except TransportError:
            raise
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
            if reusable:
                self._idle.append(connection)
            else:
                writer.close()
                # wait_closed can itself surface the peer's RST; the
                # response (or typed error) is already decided by then.
                await _wait_closed(writer)
        return status, response_headers, body

    async def _read_body(self, reader: asyncio.StreamReader,
                         size: int | None) -> bytes:
        """A body of ``size`` bytes, or up to EOF when ``size`` is
        ``None``, taken piece by piece as the stream buffers it: the
        stream's buffer stays bounded by the reader's limit, not by the
        body."""
        chunks = []
        if size is None:
            # Joined once at the end (``+=`` per chunk is quadratic).
            while chunk := await asyncio.wait_for(reader.read(_BODY_CHUNK),
                                                  self.timeout_s):
                chunks.append(chunk)
            return b"".join(chunks)
        remaining = size
        while remaining:
            chunk = await asyncio.wait_for(reader.read(remaining),
                                           self.timeout_s)
            if not chunk:
                raise asyncio.IncompleteReadError(b"".join(chunks), size)
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


async def _send(connection, payload: bytes, path: str) -> bytes:
    """Send one request and read the head of its response.  The first
    response byte is read on its own, so a peer that closes or resets
    the connection before it raises :class:`_NoResponse`, and one that
    does so later does not."""
    reader, writer = connection
    try:
        writer.write(payload)
        await writer.drain()
        first = await reader.read(1)
    except ConnectionError as exc:
        raise _NoResponse from exc
    if not first:
        raise _NoResponse
    try:
        return first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        raise TruncatedBody(
            f"/{path} closed before response head") from None


def _parse_head(head: bytes, path: str):
    """``(status, lowercase-header dict)`` of one response head."""
    lines = head[:-4].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise OriginUnreachable(f"/{path}: malformed status line "
                                f"{lines[0]!r}")
    status = _count(parts[1], "status code", path)
    response_headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers


def _body_length(method: str, status: int, headers: dict[str, str],
                 path: str) -> int | None:
    """How a response to ``method`` is framed: its body length (0 for
    HEAD and 304), or ``None`` when no ``Content-Length`` frames it and
    the body runs to EOF."""
    if method == "HEAD" or status == 304:
        return 0
    length = headers.get("content-length")
    return None if length is None else _count(length, "Content-Length", path)


async def _wait_closed(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def _wait_all_closed(writers: list[asyncio.StreamWriter]) -> None:
    for writer in writers:
        await _wait_closed(writer)


def _count(text: str, what: str, path: str) -> int:
    """A response head's non-negative integer field, or a typed error."""
    if not text.strip().isdecimal():
        raise OriginUnreachable(f"/{path}: malformed {what} {text!r}")
    return int(text)


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

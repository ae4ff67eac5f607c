"""Asyncio HTTP client transport that plugs in where ``SimulatedNetwork``
does.

:class:`HttpTransport` is the production-shaped half of the network seam:
the :class:`repro.core.network.Network` contract the whole client stack
is written against — ``download(kind, key, n_bytes) -> seconds``, a
``clock``, ``stats`` and a default ``config`` (no bandwidth hint) —
backed by real TCP sockets instead of a simulated schedule.  It is a
:class:`repro.core.network.Link` whose one attempt is a wall-timed
socket fetch, so ``DcsrClient``, the model caches, retry/backoff, and
the fleet simulator's playback mode run unmodified over either
transport; the transport contract suite
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
- **Bounded buffers, bodies received in place.**  Each connection is
  one :class:`asyncio.BufferedProtocol`: ``recv_into`` fills its 64 KiB
  head buffer until a head is complete, then the body's own
  ``bytearray`` — the body ``request`` returns, copied out of the kernel
  once.  Bytes after a response wait in the head buffer for the next.
  A body buffer starts at ``Content-Length`` but at most
  :data:`_BODY_CAP` (8 MiB) and doubles only as bytes fill it, so a
  lying ``Content-Length`` costs at most that cap.
- **Deadlines.**  One ``loop.call_at`` watchdog per exchange: the
  request and its response head share one ``timeout_s``, and the body's
  deadline moves ``timeout_s`` past each piece that arrives.  Expiry
  aborts the connection and raises :class:`StalledRead`.
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
- **One full GET per download, no body cache.**  Whether a model is
  downloaded at all is the model cache's decision (Algorithm 1), so
  every ``download`` and ``fetch`` transfers its artifact and the
  transport keeps no body beyond :attr:`HttpTransport.last_payload`.
  A request carries the request line, ``Host``, ``User-Agent`` and the
  caller's own headers, nothing conditional or ranged; the origin
  answers every file request with the whole file.
- **No telemetry of its own.**  Like every link, the transport counts
  attempts only in :attr:`stats` (``bytes_delivered`` is wire bytes);
  the session's download counters come from the fetch stage's ledger in
  the manifest's accounting bytes, whichever transport carried them.
"""

from __future__ import annotations

import asyncio
import json
import math
from pathlib import Path
from urllib.parse import urlsplit

from ..core.network import DownloadError, Link
from ..core.persist import (MANIFEST_PATH, make_package_dirs, model_path,
                            segment_path)
from ..obs import wall_clock

#: A connection's head buffer: the largest response head accepted, and
#: the first allocation of a body that runs to EOF.
_HEAD_BYTES = 64 << 10
#: The most body buffer allocated before body bytes arrive to fill it.
_BODY_CAP = 8 << 20

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


class HttpTransport(Link):
    """Real-socket drop-in for :class:`~repro.core.network.SimulatedNetwork`.

    Parameters
    ----------
    base_url:
        Origin root, e.g. ``http://127.0.0.1:8123``.  Only ``http`` is
        supported (the origin is stdlib-only too).
    timeout_s:
        Stall budget of the connect, of sending a request and reading
        its response head, and of the wait for each piece of a body; an
        attempt that stays silent this long raises :class:`StalledRead`.
    loop:
        Optional event loop to drive.  Tests share one loop between the
        transport and an in-process origin; by default the transport
        owns a private loop and closes it on :meth:`close`.  On either
        loop, :meth:`close` closes the pooled keep-alive connections.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 5.0,
                 loop: asyncio.AbstractEventLoop | None = None):
        if not 0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be positive and finite, "
                             f"got {timeout_s}")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http":
            raise ValueError(f"only http:// origins are supported, "
                             f"got {base_url!r}")
        if not url.hostname:
            raise ValueError(f"no host in {base_url!r}")
        self.host = url.hostname              # an IPv6 host unbracketed
        self.port = 80 if url.port is None else url.port
        host = f"[{self.host}]" if ":" in self.host else self.host
        self._authority = f"{host}:{self.port}"
        super().__init__()
        self.timeout_s = float(timeout_s)
        self._wall = wall_clock()
        self._loop = loop
        self._owns_loop = loop is None
        #: The most recent successful download's body, as received
        #: (contract tests compare it bitwise against the on-disk file).
        self.last_payload: bytearray | None = None
        #: Idle keep-alive connections, most recently used last.
        self._idle: list[_Connection] = []

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
        connections, self._idle = self._idle, []
        if self._loop is not None and not self._loop.is_closed():
            for connection in connections:
                connection.transport.close()
            if connections and not self._loop.is_running():
                self._run(asyncio.gather(*(c.closed for c in connections)))
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

    def fetch(self, kind: str, key: int | str) -> bytearray:
        """Synchronous raw fetch (no attempt accounting): one artifact's
        bytes, in the buffer they were received into.  Package mirroring
        and tests use this; playback goes through :meth:`download`."""
        return self._run(self._fetch(self.path_for(kind, key)))

    def get(self, path: str, headers: dict[str, str] | None = None):
        """Synchronous single request: ``(status, headers, body)``, the
        body a ``bytearray``."""
        return self._run(self.request("GET", path, headers))

    async def _fetch(self, path: str) -> bytearray:
        status, _headers, body = await self.request("GET", path)
        if status != 200:
            raise HttpStatusError(
                f"origin answered {status} for /{path}", status=status)
        return body

    async def request(self, method: str, path: str,
                      headers: dict[str, str] | None = None):
        """One HTTP/1.1 request on a pooled keep-alive connection.

        Returns ``(status, lowercase-header dict, body)``, the body the
        ``bytearray`` it was received into; maps every socket-level
        failure onto the typed transport errors.
        """
        path = path.lstrip("/")
        request_lines = [
            f"{method} /{path} HTTP/1.1",
            f"Host: {self._authority}",
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

    def _idle_connection(self) -> _Connection | None:
        """The last pooled connection still usable, or ``None``."""
        while self._idle:
            connection = self._idle.pop()
            if connection.usable:
                return connection
            connection.transport.close()
        return None

    async def _connect(self) -> _Connection:
        loop = asyncio.get_running_loop()
        try:
            async with asyncio.timeout(self.timeout_s):
                _transport, connection = await loop.create_connection(
                    lambda: _Connection(loop, self.timeout_s),
                    self.host, self.port)
        except TimeoutError:
            raise StalledRead(
                f"connect to {self._authority} timed out") from None
        except OSError as exc:
            raise OriginUnreachable(
                f"cannot reach {self._authority}: {exc}") from exc
        return connection

    async def _exchange(self, connection: _Connection, method: str,
                        path: str, payload: bytes, reused: bool):
        """Send one request on ``connection`` and receive its response;
        the connection goes back to the pool only if it stays usable."""
        resendable = reused and method in ("GET", "HEAD")
        reusable = False
        try:
            status, response_headers, body = await connection.exchange(
                payload, method, path, resendable)
            if resendable and status == 408:
                # The origin's idle timeout: it answered 408 to no
                # request of ours, then closed.
                raise _StaleConnection
            reusable = (connection.framed and response_headers.get(
                "connection", "").lower() != "close")
        finally:
            if reusable:
                self._idle.append(connection)
            else:
                connection.transport.close()
                await connection.closed
        return status, response_headers, body


class _Connection(asyncio.BufferedProtocol):
    """One keep-alive connection that receives each response in place.
    Whatever ends an exchange — its response, the peer's close or reset,
    a malformed head, the watchdog — settles the one future
    :meth:`exchange` awaits; a failure also aborts the connection."""

    def __init__(self, loop: asyncio.AbstractEventLoop, timeout_s: float):
        self._loop = loop
        self._timeout_s = timeout_s
        self.transport: asyncio.Transport | None = None
        self._head = bytearray(_HEAD_BYTES)
        self._held = 0                    # bytes waiting in ``_head``
        self._body: bytearray | None = None   # being filled, or None
        self._filled = 0
        self._size: int | None = None     # Content-Length; None: to EOF
        #: Whether the last response was framed by ``Content-Length``.
        self.framed = False
        self._ended = False               # the peer closed or reset
        self._lost: BaseException | None = None
        self._response: asyncio.Future | None = None
        self._watchdog: asyncio.TimerHandle | None = None
        self._deadline = 0.0
        self._method, self._path, self._resendable = "", "", False
        self._parsed: tuple[int, dict[str, str]] = (0, {})
        #: Resolved once the socket is closed.
        self.closed = loop.create_future()

    @property
    def usable(self) -> bool:
        """Worth a request: the peer has not hung up, or it left bytes
        to read first (an idle-timeout ``408``)."""
        return not self._ended or self._held > 0

    async def exchange(self, payload: bytes, method: str, path: str,
                       resendable: bool):
        """Send one request and receive ``(status, headers, body)``.
        ``resendable`` turns a close or reset before any response byte
        into :class:`_StaleConnection`."""
        self._method, self._path, self._resendable = method, path, resendable
        self._response = response = self._loop.create_future()
        self.transport.write(payload)
        self._deadline = self._loop.time() + self._timeout_s
        self._watchdog = self._loop.call_at(self._deadline, self._expire)
        self._advance()                   # bytes or an end seen while idle
        try:
            status, headers, body = await response
        finally:
            self._watchdog.cancel()
            self._response = self._body = None
        # A body read to EOF drops its unused capacity here: during the
        # EOF callback the transport still holds a view of the buffer.
        del body[self._filled:]
        return status, headers, body

    # ------------------------------------------------ asyncio protocol

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is None:
            return memoryview(self._head)[self._held:]
        if self._filled == len(self._body):   # filled: double, up to size
            grow = len(self._body)
            self._body.extend(bytes(
                min(grow, self._size - self._filled) if self.framed else grow))
        return memoryview(self._body)[self._filled:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._body is None:
            self._held += nbytes
            self._advance()
            return
        self._filled += nbytes
        self._deadline = self._loop.time() + self._timeout_s
        if self._filled == self._size:
            self._finish()

    def eof_received(self) -> None:
        self._end(None)                   # None: the transport closes

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed.set_result(None)
        self._end(exc)

    # ------------------------------------------------------- exchange

    def _end(self, exc: BaseException | None) -> None:
        if not self._ended:
            self._ended, self._lost = True, exc
            self._advance()

    def _advance(self) -> None:
        """Move the exchange in flight on with what has arrived."""
        response = self._response
        if response is None or response.done():
            if self._held == len(self._head):   # junk between responses
                self._held = 0
                self.transport.abort()
            return
        if self._body is None:
            end = self._head.find(b"\r\n\r\n", 0, self._held)
            if end >= 0:
                self._begin_body(end + 4)
            elif self._ended:
                error = (self._io_error() if self._lost is not None else
                         TruncatedBody(f"/{self._path} closed before "
                                       f"response head"))
                self._fail(_StaleConnection() if self._resendable
                           and not self._held else error)
            elif self._held == len(self._head):
                self._fail(OriginUnreachable(
                    f"/{self._path}: response head over "
                    f"{len(self._head)} bytes"))
        elif self._ended:
            if self._lost is not None:
                self._fail(self._io_error())
            elif not self.framed:
                self._finish()
            else:
                self._fail(TruncatedBody(
                    f"/{self._path} truncated: got {self._filled} bytes "
                    f"of a promised body"))

    def _begin_body(self, end: int) -> None:
        """Parse the head that ends at ``end`` and move the body bytes
        that came with it into a new body buffer."""
        try:
            self._parsed = status, headers = _parse_head(self._head[:end],
                                                         self._path)
            size = _body_length(self._method, status, headers, self._path)
        except TransportError as exc:
            self._fail(exc)
            return
        self.framed = size is not None
        self._size = size
        arrived = self._held - end
        if self.framed:
            arrived = min(arrived, size)
            body = bytearray(min(size, _BODY_CAP))
        else:
            body = bytearray(_HEAD_BYTES)
        body[:arrived] = memoryview(self._head)[end:end + arrived]
        rest = self._head[end + arrived:self._held]
        self._head[:len(rest)] = rest
        self._held = len(rest)
        self._body, self._filled = body, arrived
        self._deadline = self._loop.time() + self._timeout_s
        if arrived == size:
            self._finish()
        elif self._ended:
            self._advance()

    def _finish(self) -> None:
        body, self._body = self._body, None
        self._watchdog.cancel()
        if not self._response.done():     # else cancelled by the caller
            self._response.set_result((*self._parsed, body))

    def _fail(self, error: Exception) -> None:
        self._body = None
        self._watchdog.cancel()
        if not self._response.done():
            self._response.set_exception(error)
        self.transport.abort()

    def _expire(self) -> None:
        if self._loop.time() < self._deadline:   # a piece arrived since
            self._watchdog = self._loop.call_at(self._deadline, self._expire)
        else:
            self._fail(StalledRead(f"read of /{self._path} stalled past "
                                   f"{self._timeout_s:g}s"))

    def _io_error(self) -> OriginUnreachable:
        exc = self._lost
        error = OriginUnreachable(
            f"connection reset reading /{self._path}"
            if isinstance(exc, ConnectionResetError)
            else f"I/O error reading /{self._path}: {exc}")
        error.__cause__ = exc
        return error


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

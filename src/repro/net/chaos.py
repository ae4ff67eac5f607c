"""Deterministic fault-injection TCP proxy for the real transport.

:class:`ChaosProxy` sits between an :class:`~repro.net.HttpTransport` and
a :class:`~repro.net.DcsrOrigin` and breaks connections on purpose, so
the client's retry / concealment / fallback paths — exercised for years
against :class:`~repro.core.network.SimulatedNetwork`'s injected failures
— are proven over actual TCP.

Fault selection mirrors the simulated network's schedule semantics, one
*request* standing in for one download attempt (the transport sends
each attempt as one request, and resends one only when a reused
connection ends before any response byte or answers with the origin's
idle-timeout ``408``; the proxy forwards neither of those to a request
it has drawn a fault for, so no fault is spent on a resend):

1. an explicit ``schedule`` (one fault name per proxied request, in
   request order) for exact-scenario tests;
2. a seeded RNG once the schedule is exhausted, drawing faults with the
   configured rates.

Each client connection gets its own upstream connection and carries
requests one at a time; every upstream response is framed by the
request's method, its status and its ``Content-Length`` (the
transport's own framing rule).  When the origin has closed that
upstream connection while it sat idle — it answers the next request
with a ``408``, or with nothing — the request goes out again on a new
upstream connection before its response is forwarded.  ``"ok"``
forwards the response and waits for the connection's next request;
every other fault ends the connection.

Faults (applied to the upstream *response*, after forwarding the request
verbatim — the request always reaches the origin, as a mid-transfer CDN
failure would):

- ``"reset"``     — forward half the body, then hard-reset the client
  connection (``SO_LINGER 0`` ⇒ TCP RST), surfacing as
  :class:`~repro.net.OriginUnreachable`;
- ``"truncate"``  — forward the head and half the body, then close
  cleanly: the promised ``Content-Length`` never completes, surfacing as
  :class:`~repro.net.TruncatedBody`;
- ``"stall"``     — forward half the body, then go silent (connection
  held open) until the client's read timeout fires, surfacing as
  :class:`~repro.net.StalledRead`;
- ``"ok"``        — pass through untouched (plus ``latency_s``, like
  every other request).

Same seed ⇒ same per-request fault assignment ⇒ — because the client
downloads serially — the same segments concealed and the same models
fallen back on, end to end over real sockets.
"""

from __future__ import annotations

import asyncio
import math
import random
import socket
import struct
from dataclasses import dataclass
from typing import Sequence

from ..obs import Observability
from .transport import TransportError, _body_length, _parse_head

__all__ = ["FAULTS", "ChaosConfig", "ChaosProxy"]

#: Fault names a schedule entry (or the RNG) may select.
FAULTS = ("ok", "reset", "truncate", "stall")


@dataclass(frozen=True)
class ChaosConfig:
    """Fault mix and shaping of one proxy.

    Rates are per-request probabilities once the explicit schedule is
    exhausted; they must sum to at most 1 (the remainder passes clean).
    ``latency_s`` is real asyncio sleep before the response head is
    forwarded — keep it tiny in tests.  ``stall_hold_s`` bounds how long
    a stalled connection is parked; it must exceed the client's read
    timeout for the stall to register, and the held task is cut short
    when the client hangs up.
    """

    reset_rate: float = 0.0
    truncate_rate: float = 0.0
    stall_rate: float = 0.0
    latency_s: float = 0.0
    stall_hold_s: float = 30.0
    seed: int = 0

    def __post_init__(self):
        for name in ("reset_rate", "truncate_rate", "stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.reset_rate + self.truncate_rate + self.stall_rate > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        if not 0 <= self.latency_s < math.inf:
            raise ValueError("latency_s must be non-negative and finite")
        if not self.stall_hold_s > 0:
            raise ValueError("stall_hold_s must be positive")


class ChaosProxy:
    """Seeded TCP fault injector in front of one origin.

    Parameters
    ----------
    upstream_host / upstream_port:
        Where the clean origin listens.
    config:
        Fault rates, latency, and the RNG seed.
    schedule:
        Optional explicit per-request fault plan (names from
        :data:`FAULTS`), consumed in request order before the RNG takes
        over — the exact analogue of ``SimulatedNetwork``'s
        ``failure_schedule``.
    host / port:
        Listener address; port 0 binds ephemeral.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 config: ChaosConfig | None = None,
                 schedule: Sequence[str] | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 obs: Observability | None = None):
        self.upstream_host = upstream_host
        self.upstream_port = int(upstream_port)
        self.config = config or ChaosConfig()
        self._schedule = list(schedule or [])
        for entry in self._schedule:
            if entry not in FAULTS:
                raise ValueError(f"unknown fault {entry!r} in schedule "
                                 f"(expected one of {FAULTS})")
        self._rng = random.Random(self.config.seed)
        self.obs = obs
        self.host = host
        self.port = int(port)
        self._server: asyncio.AbstractServer | None = None
        #: Connections accepted so far.
        self.connections = 0
        #: Requests proxied so far (== schedule position).
        self.requests = 0
        #: Live client connection -> the task serving it.
        self._live: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: fault name -> count, for assertions and telemetry.
        self.faults_injected: dict[str, int] = {name: 0 for name in FAULTS}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    async def stop(self) -> None:
        """Close the listener and every client connection, and wait for
        their handlers to finish.  The connections are aborted, not
        closed, so a client that stopped reading cannot hold this up."""
        if self._server is not None:
            self._server.close()
            for writer in self._live:
                writer.transport.abort()
            await asyncio.gather(*self._live.values(),
                                 return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ChaosProxy":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------- fault schedule

    def _next_fault(self) -> str:
        """The fault for the next request: schedule first, then RNG —
        exactly the simulated network's two-source semantics."""
        if self.requests < len(self._schedule):
            return self._schedule[self.requests]
        cfg = self.config
        if cfg.reset_rate or cfg.truncate_rate or cfg.stall_rate:
            draw = self._rng.random()
            if draw < cfg.reset_rate:
                return "reset"
            if draw < cfg.reset_rate + cfg.truncate_rate:
                return "truncate"
            if draw < cfg.reset_rate + cfg.truncate_rate + cfg.stall_rate:
                return "stall"
        return "ok"

    def _note(self, fault: str) -> None:
        self.faults_injected[fault] += 1
        if self.obs is not None:
            self.obs.metrics.counter(
                "dcsr_chaos_requests_total",
                "Proxied requests by injected fault",
            ).inc(fault=fault)

    # ------------------------------------------------------------- handling

    @staticmethod
    def _force_reset(writer: asyncio.StreamWriter) -> None:
        """Make close() send an RST instead of a FIN (SO_LINGER 0), so
        the client observes ``ConnectionResetError``, not a short read."""
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        writer.transport.abort()

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> bytes:
        """One GET/HEAD request head (these carry no body)."""
        try:
            return await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return b""

    @staticmethod
    async def _read_response(reader: asyncio.StreamReader, request: bytes):
        """The upstream response to ``request`` as ``(head, status, body,
        framed)``, split so faults can cut inside the body.  The body is
        framed as the transport frames it; a head without a length (or
        one that does not parse, ``status`` ``None``) runs to EOF, and
        ``framed`` is false: the upstream connection is then spent."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            return bytes(exc.partial), None, b"", False
        method, _, rest = request.decode("latin-1").partition(" ")
        path = rest.split(" ", 1)[0].lstrip("/")
        try:
            status, headers = _parse_head(head, path)
            size = _body_length(method, status, headers, path)
        except TransportError:
            status, size = None, None
        if size is None:
            return head, status, await reader.read(), False
        try:
            return head, status, await reader.readexactly(size), True
        except asyncio.IncompleteReadError as exc:
            return head, status, bytes(exc.partial), False

    async def _exchange(self, upstream, request: bytes, reused: bool):
        """Send ``request`` on the ``upstream`` connection and read the
        response as ``(head, body, framed)`` — or ``None`` when a
        ``reused`` connection turns out to have been closed by the origin
        while it sat idle (it answers with its idle-timeout ``408``, or
        not at all)."""
        reader, writer = upstream
        try:
            writer.write(request)
            await writer.drain()
            head, status, body, framed = await self._read_response(
                reader, request)
        except ConnectionError:
            if reused:
                return None
            raise
        if reused and (not head or status == 408):
            return None
        return head, body, framed

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        self._live[writer] = asyncio.current_task()
        upstream = None
        try:
            while request := await self._read_request(reader):
                fault = self._next_fault()
                self.requests += 1
                self._note(fault)
                response = None
                if upstream is not None:
                    response = await self._exchange(upstream, request,
                                                    reused=True)
                    if response is None:      # closed by the origin
                        await _close(upstream[1])
                        upstream = None
                if upstream is None:
                    upstream = await asyncio.open_connection(
                        self.upstream_host, self.upstream_port)
                    response = await self._exchange(upstream, request,
                                                    reused=False)
                head, body, framed = response

                if self.config.latency_s:
                    await asyncio.sleep(self.config.latency_s)

                if fault == "ok":
                    writer.write(head)
                    writer.write(body)
                    await writer.drain()
                    if framed:
                        continue              # wait for the next request
                    return
                partial = body[:len(body) // 2]
                writer.write(head + partial)
                await writer.drain()
                if fault == "reset":
                    self._force_reset(writer)
                elif fault == "stall":
                    # Go silent until the client gives up (its read
                    # timeout) or the hold budget expires.
                    try:
                        await asyncio.wait_for(reader.read(1),
                                               self.config.stall_hold_s)
                    except asyncio.TimeoutError:
                        pass
                return                        # every other fault ends it
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass                              # either side went away
        finally:
            del self._live[writer]
            if upstream is not None:
                await _close(upstream[1])
            await _close(writer)


async def _close(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass

"""Asyncio HTTP/1.1 origin server for dcSR packages.

A real CDN origin stores exactly what :func:`repro.core.persist.save_package`
writes: ``manifest.json``, raw segment bitstreams, and ``.npz`` micro-model
checkpoints.  :class:`DcsrOrigin` serves that directory over a hand-rolled,
stdlib-only HTTP/1.1 implementation on one asyncio event loop — no threads,
no third-party frameworks — with the subset of HTTP semantics a streaming
client actually leans on:

- **Content-Length** on every response (the transport verifies it and
  treats a short body as a truncation fault);
- **ETag / If-None-Match** revalidation (strong ETags derived from file
  content, so a package rebuild changes them and a 304 can never serve
  stale bytes);
- **Range** requests (single ``bytes=a-b`` / ``bytes=a-`` / suffix
  ``bytes=-n`` forms; a syntactically valid but unsatisfiable range is
  ``416`` with ``Content-Range: bytes */size``, a malformed header is
  ignored per RFC 9110 and answered with the full ``200``);
- **keep-alive** connection reuse (closed on ``Connection: close``,
  client EOF, the idle timeout or :meth:`DcsrOrigin.stop`),
  **pipelining** (requests written back to back are read one head at a
  time and answered in order) and **HEAD**.

Every request lands in the origin's :class:`~repro.obs.Observability`
registry (``dcsr_origin_requests_total`` by method/status,
``dcsr_origin_bytes_total``), so a serving trace covers both sides of the
socket.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..obs import Observability

__all__ = ["OriginConfig", "DcsrOrigin"]

_SERVER_NAME = "dcsr-origin/1"
#: Reason phrases for the statuses this origin emits.
_REASONS = {
    200: "OK", 204: "No Content", 206: "Partial Content",
    304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    416: "Range Not Satisfiable", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


@dataclass(frozen=True)
class OriginConfig:
    """Listener shape of one origin.

    ``port = 0`` binds an ephemeral port (the test fixture default); the
    bound port is available as :attr:`DcsrOrigin.port` after ``start``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Drop a connection whose request head exceeds this many bytes.
    max_request_bytes: int = 16384
    #: Seconds to wait for the next complete request head on a
    #: connection before answering 408 and closing it (a dribbled head
    #: gets no extra time).  ``None`` waits forever (CLI default).
    idle_timeout_s: float | None = 30.0

    def __post_init__(self):
        if self.max_request_bytes < 1024:
            raise ValueError("max_request_bytes must be >= 1024")
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be positive (or None)")


class _BadRequest(Exception):
    """Parse failure; carries the HTTP status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class DcsrOrigin:
    """Serve one package directory over HTTP/1.1 on an asyncio loop.

    Parameters
    ----------
    root:
        The package directory (`manifest.json`, ``segments/``,
        ``models/``), as written by
        :func:`repro.core.persist.save_package`.  Any file under it is
        servable; paths are resolved and confined to ``root``, so
        traversal (``..``) cannot escape.
    config:
        Listener shape; defaults to loopback on an ephemeral port.
    obs:
        Optional observability session for request/byte counters.
    """

    def __init__(self, root: str | Path, config: OriginConfig | None = None,
                 obs: Observability | None = None):
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise FileNotFoundError(f"package directory {self.root} missing")
        self.config = config or OriginConfig()
        self.obs = obs or Observability(root_name="origin")
        self._server: asyncio.AbstractServer | None = None
        #: path -> (stat signature, etag); invalidated when the file
        #: changes, so a package rebuild rotates the ETag.
        self._etags: dict[Path, tuple[tuple[int, int], str]] = {}
        self.host = self.config.host
        self.port = self.config.port
        #: Live connection -> the task serving it, so :meth:`stop` can
        #: close keep-alive connections a client still holds open.
        self._live: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "DcsrOrigin":
        """Bind the listener; resolves the ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port, limit=self.config.max_request_bytes)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    async def stop(self) -> None:
        """Close the listener and every connection being served, and wait
        for their handlers to finish (``Server.close`` alone leaves an
        idle keep-alive connection, and its handler, alive).  The
        connections are aborted, not closed: a client that stopped
        reading a large body would otherwise hold this up until it read
        the rest.  An idle connection still ends with a plain FIN."""
        if self._server is not None:
            self._server.close()
            for writer in self._live:
                writer.transport.abort()
            await asyncio.gather(*self._live.values(),
                                 return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "DcsrOrigin":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled (CLI entry)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- plumbing

    def _count(self, method: str, status: int, n_bytes: int) -> None:
        metrics = self.obs.metrics
        metrics.counter(
            "dcsr_origin_requests_total",
            "Origin HTTP requests by method and status",
        ).inc(method=method, status=str(status))
        if n_bytes:
            metrics.counter(
                "dcsr_origin_bytes_total",
                "Response body bytes sent by the origin",
            ).inc(n_bytes)

    def etag_for(self, path: Path) -> str:
        """Strong ETag of one file: content hash, cached by stat signature."""
        stat = path.stat()
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._etags.get(path)
        if cached is not None and cached[0] == signature:
            return cached[1]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:32]
        etag = f'"{digest}"'
        self._etags[path] = (signature, etag)
        return etag

    def _resolve(self, url_path: str) -> Path | None:
        """Map a request path to a file under ``root`` (or ``None``)."""
        relative = url_path.lstrip("/")
        if not relative or "\x00" in relative:
            return None
        candidate = (self.root / relative).resolve()
        if not candidate.is_relative_to(self.root):
            return None                       # traversal attempt
        return candidate if candidate.is_file() else None

    # ------------------------------------------------------------- requests

    async def _read_head(self, reader: asyncio.StreamReader) -> bytes:
        """The next request head, without its blank line.  Bytes after it
        (a pipelined request) stay in the reader for the next call;
        ``idle_timeout_s`` bounds the wait for the whole head."""
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          self.config.idle_timeout_s)
        except asyncio.TimeoutError:
            raise _BadRequest(408, "idle connection") from None
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request head too large") from None
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise _BadRequest(400, "truncated request head") from None
            raise EOFError from None          # clean close between requests
        return head[:-4]

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, version = lines[0].split(" ")
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(400, f"unsupported version {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            if not _:
                raise _BadRequest(400, f"malformed header {line!r}")
            headers[name.strip().lower()] = value.strip()
        path = target.split("?", 1)[0]
        return method, path, headers

    @staticmethod
    def parse_range(header: str, size: int) -> tuple[int, int] | None:
        """One satisfiable ``(start, end)`` byte range, inclusive.

        ``None`` means "ignore the header, serve the full body" (the RFC's
        treatment of a malformed or multi-part value); an unsatisfiable
        but well-formed range raises :class:`_BadRequest` (416).
        """
        if not header.startswith("bytes="):
            return None
        spec = header[len("bytes="):].strip()
        if "," in spec or not spec:
            return None                       # multi-range unsupported
        first, dash, last = spec.partition("-")
        if not dash:
            return None
        try:
            if not first:                     # suffix: bytes=-n
                n = int(last)
                if n <= 0:
                    raise _BadRequest(416, "empty suffix range")
                return max(0, size - n), size - 1
            start = int(first)
            end = int(last) if last else size - 1
        except ValueError:
            return None
        if start >= size:
            raise _BadRequest(416, f"range start {start} beyond size {size}")
        if start > end:
            return None
        return start, min(end, size - 1)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       headers: list[tuple[str, str]], body: bytes,
                       *, head_only: bool = False,
                       keep_alive: bool = True) -> int:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 f"Server: {_SERVER_NAME}"]
        lines += [f"{name}: {value}" for name, value in headers]
        lines.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}")
        payload = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        sent = 0
        writer.write(payload)
        if body and not head_only:
            writer.write(body)
            sent = len(body)
        await writer.drain()
        return sent

    def _build_response(self, method: str, path: str,
                        headers: dict[str, str]):
        """Route one request: returns ``(status, headers, body)``."""
        if method not in ("GET", "HEAD"):
            return 405, [("Allow", "GET, HEAD"),
                         ("Content-Length", "0")], b""
        if path in ("/", "/healthz"):
            body = json.dumps({
                "package": self.root.name,
                "status": "ok",
            }).encode()
            return 200, [("Content-Type", "application/json"),
                         ("Content-Length", str(len(body)))], body
        target = self._resolve(path)
        if target is None:
            body = b"not found"
            return 404, [("Content-Type", "text/plain"),
                         ("Content-Length", str(len(body)))], body

        etag = self.etag_for(target)
        content_type = ("application/json" if target.suffix == ".json"
                        else "application/octet-stream")
        base = [("ETag", etag), ("Accept-Ranges", "bytes"),
                ("Content-Type", content_type)]

        candidates = headers.get("if-none-match")
        if candidates is not None:
            tags = [t.strip() for t in candidates.split(",")]
            if "*" in tags or etag in tags:
                return 304, base + [("Content-Length", "0")], b""

        data = target.read_bytes()
        size = len(data)
        range_header = headers.get("range")
        if range_header is not None:
            try:
                span = self.parse_range(range_header, size)
            except _BadRequest:
                return 416, base + [
                    ("Content-Range", f"bytes */{size}"),
                    ("Content-Length", "0")], b""
            if span is not None:
                start, end = span
                body = data[start:end + 1]
                return 206, base + [
                    ("Content-Range", f"bytes {start}-{end}/{size}"),
                    ("Content-Length", str(len(body)))], body
        return 200, base + [("Content-Length", str(size))], data

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._live[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    head = await self._read_head(reader)
                    method, path, headers = self._parse_head(head)
                except EOFError:
                    return
                except _BadRequest as exc:
                    await self._respond(
                        writer, exc.status, [("Content-Length", "0")], b"",
                        keep_alive=False)
                    self._count("?", exc.status, 0)
                    return
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, out_headers, body = self._build_response(
                        method, path, headers)
                except OSError:               # file vanished mid-request
                    status, out_headers, body = 500, [
                        ("Content-Length", "0")], b""
                sent = await self._respond(
                    writer, status, out_headers, body,
                    head_only=(method == "HEAD"), keep_alive=keep_alive)
                self._count(method, status, sent)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass                              # client went away mid-write
        finally:
            del self._live[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

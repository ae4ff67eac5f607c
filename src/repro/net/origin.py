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
- a **file table** keyed by URL path: each served file's resolved path,
  confined to the package root when the entry was made, with its
  identity ``(st_dev, st_ino, st_mtime_ns, st_size)`` and ETag.  A
  request opens the recorded path and checks the descriptor with one
  ``fstat``; a different identity, or a failed open, resolves and
  confines the URL path once more, so a replaced, rewritten or deleted
  file and a directory swapped for a symlink out of the root are all
  noticed.  Bytes come only from a descriptor whose inode was resolved
  inside the root; the ETag hash and the body come from that one
  descriptor, and a GET reads exactly the span it serves (HEAD, 304 and
  416 read nothing).  Paths answered ``404`` are never entered, so the
  table holds at most one entry per file in the package;
- **Range** requests (single ``bytes=a-b`` / ``bytes=a-`` / suffix
  ``bytes=-n`` forms; a syntactically valid but unsatisfiable range is
  ``416`` with ``Content-Range: bytes */size``, a malformed header is
  ignored per RFC 9110 and answered with the full ``200``);
- **keep-alive** connection reuse (closed on ``Connection: close``,
  client EOF, the idle timeout or :meth:`DcsrOrigin.stop`),
  **pipelining** (requests written back to back are read one head at a
  time and answered in order) and **HEAD**.

The wait for a request head runs under an ``asyncio.timeout`` deadline
(``idle_timeout_s``), which costs no task per request the way
``asyncio.wait_for`` does.  A response whose body is at most 64 KiB
goes out in one ``write`` with its head, so one ``send``; a larger body
is written on its own rather than copied into a join.

Every request lands in the origin's :class:`~repro.obs.Observability`
registry (``dcsr_origin_requests_total`` by method/status,
``dcsr_origin_bytes_total``), so a serving trace covers both sides of the
socket.
"""

from __future__ import annotations

import asyncio
import errno
import hashlib
import json
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
#: Non-blocking, so a FIFO swapped in for a file cannot stall the loop
#: in ``open``; reads of a regular file ignore the flag.
_OPEN_FLAGS = os.O_RDONLY | os.O_NONBLOCK
#: ``open`` errors that mean "no such file here" (a ``404``).
_MISSING = {errno.ENOENT, errno.ENOTDIR, errno.ELOOP}
#: A body up to this size goes out in one write with its head (one
#: ``send``); a larger one is written on its own rather than copied.
_JOIN_BYTES = 64 << 10


class _File(NamedTuple):
    """One file table entry: a file the origin has served."""

    path: str                      # resolved, inside root when entered
    identity: tuple[int, int, int, int]   # st_dev, st_ino, mtime, size
    etag: str
    content_type: str


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size


def _read(fd: int, start: int, length: int) -> bytes:
    """``length`` bytes of ``fd`` from ``start``; a file that shrank
    since its ``fstat`` raises (the request is answered ``500``)."""
    data = os.pread(fd, length, start)
    if len(data) != length:
        raise OSError(f"file shrank while served: read {len(data)} of "
                      f"{length} bytes")
    return data


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
        traversal (``..``) and symlinks out of ``root`` cannot escape.
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
        #: The file table: URL path (without its leading ``/``) -> the
        #: file it was last served from.  Only canonical paths of regular
        #: files are entered, never a ``404``.
        self._files: dict[str, _File] = {}
        #: ``root`` with a trailing separator: what every confined
        #: resolved path starts with.
        self._root_prefix = os.path.join(str(self.root), "")
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

    def _open(self, url_path: str) -> tuple[int, _File, bytes | None] | None:
        """Open the regular file ``url_path`` names under ``root``:
        ``(descriptor, entry, content)``, or ``None`` for a ``404``.
        ``content`` is the whole file when this call hashed it (a new or
        changed file), else ``None``.  The caller closes the descriptor."""
        relative = url_path.lstrip("/")
        entry = self._files.get(relative)
        if entry is not None:
            try:
                fd = os.open(entry.path, _OPEN_FLAGS)
            except OSError:
                pass                          # gone: resolve once more
            else:
                if _identity(os.fstat(fd)) == entry.identity:
                    return fd, entry, None
                os.close(fd)
            del self._files[relative]
        if not relative or "\x00" in relative:
            return None
        named = self._root_prefix + relative
        path = os.path.realpath(named)
        if not path.startswith(self._root_prefix):
            return None                       # traversal or symlink out
        try:
            fd = os.open(path, _OPEN_FLAGS)
        except OSError as exc:
            if exc.errno in _MISSING:
                return None
            raise
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                os.close(fd)
                return None
            content = _read(fd, 0, st.st_size)
        except OSError:
            os.close(fd)
            raise
        digest = hashlib.sha256(content).hexdigest()[:32]
        content_type = ("application/json"
                        if os.path.splitext(path)[1] == ".json"
                        else "application/octet-stream")
        entry = _File(path, _identity(st), f'"{digest}"', content_type)
        if path == named:
            # An alias (``a/../b``, a symlink inside root) is served but
            # not entered, so the table stays one entry per file.
            self._files[relative] = entry
        return fd, entry, content

    # ------------------------------------------------------------- requests

    async def _read_head(self, reader: asyncio.StreamReader) -> bytes:
        """The next request head, without its blank line.  Bytes after it
        (a pipelined request) stay in the reader for the next call;
        ``idle_timeout_s`` bounds the wait for the whole head."""
        try:
            async with asyncio.timeout(self.config.idle_timeout_s):
                head = await reader.readuntil(b"\r\n\r\n")
        except TimeoutError:
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
        sent = 0 if head_only else len(body)
        if sent > _JOIN_BYTES:
            writer.write(payload)             # a join would copy the body
            writer.write(body)
        else:
            writer.write(payload + body if sent else payload)
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
        opened = self._open(path)
        if opened is None:
            body = b"not found"
            return 404, [("Content-Type", "text/plain"),
                         ("Content-Length", str(len(body)))], body
        try:
            return self._file_response(method, headers, *opened)
        finally:
            os.close(opened[0])

    def _file_response(self, method: str, headers: dict[str, str], fd: int,
                       entry: _File, content: bytes | None):
        """``(status, headers, body)`` of one open file: the body is the
        span served, read from ``fd`` unless ``content`` holds it."""
        base = [("ETag", entry.etag), ("Accept-Ranges", "bytes"),
                ("Content-Type", entry.content_type)]
        candidates = headers.get("if-none-match")
        if candidates is not None:
            tags = [t.strip() for t in candidates.split(",")]
            if "*" in tags or entry.etag in tags:
                return 304, base + [("Content-Length", "0")], b""

        size = entry.identity[3]                  # st_size
        status, start, end = 200, 0, size - 1
        range_header = headers.get("range")
        if range_header is not None:
            try:
                span = self.parse_range(range_header, size)
            except _BadRequest:
                return 416, base + [
                    ("Content-Range", f"bytes */{size}"),
                    ("Content-Length", "0")], b""
            if span is not None:
                status, (start, end) = 206, span
                base.append(("Content-Range", f"bytes {start}-{end}/{size}"))
        length = end - start + 1
        if method == "HEAD":
            body = b""
        elif content is not None:
            body = content if length == size else content[start:end + 1]
        else:
            body = _read(fd, start, length)
        return status, base + [("Content-Length", str(length))], body

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

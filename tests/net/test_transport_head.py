"""Responses the origin never sends, from a canned loopback peer.

A peer that answers with a non-numeric status code or a non-numeric or
negative ``Content-Length`` must surface as :class:`OriginUnreachable` —
a :class:`~repro.core.network.DownloadError`, so retry, concealment and
fallback engage — never as the ``ValueError`` of a bare ``int()`` or
``readexactly(-5)``.  A head without ``Content-Length`` is legal: the
body runs to the peer's close.  A ``Content-Length`` the peer does not
deliver allocates no body-sized buffer; the body deadline moves with
every piece that arrives; bytes after a complete body wait for the next
request on the pooled connection.  The other direction too: the request
head the transport writes, and the origin URLs it accepts."""

import asyncio
import socket
import tracemalloc

import pytest

from repro.core.network import DownloadError
from repro.core.persist import model_path, segment_path
from repro.net import (DcsrOrigin, HttpTransport, OriginConfig,
                       OriginUnreachable, StalledRead, TruncatedBody)
from repro.net import transport as transport_module

pytestmark = pytest.mark.net


@pytest.fixture()
def canned_origin(net_loop):
    """Factory for a loopback server that answers every request with the
    given response head, then the body chunks (a number among them is a
    pause of that many seconds), and closes; stopped at teardown.  A
    client that hangs up early ends the answer quietly."""
    servers = []

    def serve(head: bytes,
              body_chunks: tuple[bytes | float, ...] = ()) -> str:
        async def answer(reader, writer):
            try:
                await reader.readuntil(b"\r\n\r\n")
                writer.write(head)
                await writer.drain()
                for chunk in body_chunks:
                    if isinstance(chunk, bytes):
                        writer.write(chunk)
                        await writer.drain()
                    else:
                        await asyncio.sleep(chunk)
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                writer.close()

        server = net_loop.run_until_complete(
            asyncio.start_server(answer, "127.0.0.1", 0))
        servers.append(server)
        return f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"

    yield serve
    for server in servers:
        server.close()
        net_loop.run_until_complete(server.wait_closed())


@pytest.mark.parametrize("head", [
    b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
], ids=["status", "length-word", "length-negative"])
def test_malformed_head_is_origin_unreachable(net_loop, canned_origin, head):
    transport = HttpTransport(canned_origin(head), loop=net_loop,
                              timeout_s=1.0)
    with pytest.raises(OriginUnreachable, match="malformed") as err:
        transport.download("segment", 0, 64)
    assert isinstance(err.value, DownloadError)
    assert transport.stats.failures == 1


def test_body_without_content_length_reads_to_close(net_loop, canned_origin):
    """Several reads' worth of body, written in uneven pieces, then EOF."""
    chunks = tuple(bytes([i]) * size for i, size in
                   enumerate((70_000, 1, 65_536, 200_000, 3)))
    url = canned_origin(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n",
                        chunks)
    transport = HttpTransport(url, loop=net_loop, timeout_s=5.0)
    status, headers, body = transport.get("segments/segment-0000.bin")
    assert status == 200 and "content-length" not in headers
    assert body == b"".join(chunks)


#: A ``Content-Length`` no body buffer may be allocated for up front.
LIE = b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n"


@pytest.mark.parametrize("rest, error", [
    ((b"0123456789",), TruncatedBody),
    ((b"0123456789", 0.5), StalledRead),
], ids=["closes", "stalls"])
def test_lying_content_length_stays_bounded(net_loop, canned_origin, rest,
                                            error):
    """Ten bytes of a promised terabyte, then a close or a stall: a typed
    error, no body-sized allocation on the head's word alone, and no
    exception escaping to the event loop on the way."""
    url = canned_origin(LIE, rest)
    escaped = []
    net_loop.set_exception_handler(lambda _loop, context: escaped.append(
        context.get("exception", context["message"])))
    tracemalloc.start()
    try:
        with HttpTransport(url, loop=net_loop, timeout_s=0.2) as transport:
            with pytest.raises(error):
                transport.download("segment", 0, 10)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert escaped == []
    assert transport.stats.failures == 1


def test_body_over_the_cap_grows_as_it_arrives(net_loop, canned_origin,
                                                monkeypatch):
    """A framed body larger than the up-front allocation (shrunk to
    1 KiB here) grows its buffer as bytes fill it and arrives whole,
    exactly ``Content-Length`` long."""
    monkeypatch.setattr(transport_module, "_BODY_CAP", 1024)
    chunks = tuple(bytes([i]) * size for i, size in
                   enumerate((700, 1, 5000, 20_000, 3)))
    body = b"".join(chunks)
    url = canned_origin(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                        % len(body), chunks)
    with HttpTransport(url, loop=net_loop, timeout_s=5.0) as transport:
        status, _headers, received = transport.get("segments/blob.bin")
    assert status == 200 and received == body


class TestBodyDeadline:
    TIMEOUT_S = 0.25

    def test_a_dribbled_body_outlasts_the_timeout(self, net_loop,
                                                  canned_origin):
        """Every byte comes 0.4 x ``timeout_s`` after the last, so the
        body takes about four times ``timeout_s`` and never stalls."""
        chunks = []
        for byte in b"0123456789":
            chunks += [0.4 * self.TIMEOUT_S, bytes([byte])]
        url = canned_origin(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n",
                            tuple(chunks))
        with HttpTransport(url, loop=net_loop,
                           timeout_s=self.TIMEOUT_S) as transport:
            seconds = transport.download("segment", 0, 10)
            assert transport.last_payload == b"0123456789"
        assert seconds > self.TIMEOUT_S
        assert transport.stats.failures == 0

    def test_silence_mid_body_is_a_stall(self, net_loop, canned_origin):
        url = canned_origin(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n",
                            (b"012", 3 * self.TIMEOUT_S, b"3456789"))
        with HttpTransport(url, loop=net_loop,
                           timeout_s=self.TIMEOUT_S) as transport:
            with pytest.raises(StalledRead) as err:
                transport.download("segment", 0, 10)
        assert err.value.seconds >= self.TIMEOUT_S
        assert transport.stats.failures == 1


def test_bytes_after_a_body_wait_for_the_next_request(net_loop,
                                                      canned_origin):
    """A complete response and an unsolicited ``408`` arrive in one
    write: the 408 stays buffered on the pooled connection, answers the
    next GET, and that GET is resent on a fresh connection."""
    url = canned_origin(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n"
        b"Connection: close\r\n\r\n")
    with HttpTransport(url, loop=net_loop, timeout_s=1.0) as transport:
        for key in range(2):
            transport.download("segment", key, 2)
            assert transport.last_payload == b"ok"
    assert transport.stats.attempts == 2
    assert transport.stats.failures == 0


def _has_ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


needs_ipv6 = pytest.mark.skipif(not _has_ipv6_loopback(),
                                reason="no IPv6 loopback")


@pytest.mark.parametrize("host", [
    "127.0.0.1", pytest.param("::1", marks=needs_ipv6)])
def test_request_head_is_line_host_agent_and_callers_headers(net_loop,
                                                             host):
    """Each request head the transport writes holds the request line,
    ``Host``, ``User-Agent`` and the caller's own headers, nothing else:
    no download is a conditional or a range request."""
    heads = []

    async def record(reader, writer):
        try:
            while True:
                heads.append(await reader.readuntil(b"\r\n\r\n"))
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass                              # the transport hung up
        finally:
            writer.close()

    server = net_loop.run_until_complete(
        asyncio.start_server(record, host, 0))
    port = server.sockets[0].getsockname()[1]
    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    try:
        with HttpTransport(f"http://{authority}",
                           loop=net_loop) as transport:
            transport.download("segment", 3, 0)
            transport.fetch("model", 1)
            net_loop.run_until_complete(transport.request(
                "HEAD", "manifest.json", {"X-Trace": "7"}))
    finally:
        server.close()
        net_loop.run_until_complete(server.wait_closed())
    fixed = f"Host: {authority}\r\nUser-Agent: dcsr-transport/1\r\n"
    assert [head.decode("latin-1") for head in heads] == [
        f"GET /{segment_path(3)} HTTP/1.1\r\n{fixed}\r\n",
        f"GET /{model_path(1)} HTTP/1.1\r\n{fixed}\r\n",
        f"HEAD /manifest.json HTTP/1.1\r\n{fixed}X-Trace: 7\r\n\r\n",
    ]


@needs_ipv6
def test_ipv6_origin_serves_its_transport(net_loop, package_dir):
    """``serve-origin --host ::1`` prints a URL its clients can reach."""
    served = DcsrOrigin(package_dir, OriginConfig(host="::1"))
    net_loop.run_until_complete(served.start())
    try:
        with HttpTransport(served.base_url, loop=net_loop) as client:
            status, _headers, body = client.get("manifest.json")
    finally:
        net_loop.run_until_complete(served.stop())
    assert status == 200
    assert body == (package_dir / "manifest.json").read_bytes()


@pytest.mark.parametrize("url, host, port", [
    ("http://[::1]:8080", "::1", 8080),
    ("http://127.0.0.1:8123/", "127.0.0.1", 8123),
    ("http://origin.example", "origin.example", 80),
])
def test_origin_url_gives_host_and_port(url, host, port):
    transport = HttpTransport(url)
    assert (transport.host, transport.port) == (host, port)
    transport.close()


@pytest.mark.parametrize("url", ["https://127.0.0.1:8080", "http://",
                                 "http://::1:8080"])
def test_unusable_origin_url_is_a_value_error(url):
    with pytest.raises(ValueError):
        HttpTransport(url)

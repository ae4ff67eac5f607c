"""Responses the origin never sends, from a canned loopback peer.

A peer that answers with a non-numeric status code or a non-numeric or
negative ``Content-Length`` must surface as :class:`OriginUnreachable` —
a :class:`~repro.core.network.DownloadError`, so retry, concealment and
fallback engage — never as the ``ValueError`` of a bare ``int()`` or
``readexactly(-5)``.  A head without ``Content-Length`` is legal: the
body runs to the peer's close.  A ``Content-Length`` the peer does not
deliver allocates no body-sized buffer; the body deadline moves with
every piece that arrives; bytes after a complete body wait for the next
request on the pooled connection."""

import asyncio
import tracemalloc

import pytest

from repro.core.network import DownloadError
from repro.net import (HttpTransport, OriginUnreachable, StalledRead,
                       TruncatedBody)
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

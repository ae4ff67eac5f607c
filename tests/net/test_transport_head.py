"""Response heads the origin never sends, from a canned loopback peer.

A peer that answers with a non-numeric status code or a non-numeric or
negative ``Content-Length`` must surface as :class:`OriginUnreachable` —
a :class:`~repro.core.network.DownloadError`, so retry, concealment and
fallback engage — never as the ``ValueError`` of a bare ``int()`` or
``readexactly(-5)``.  A head without ``Content-Length`` is legal: the
body runs to the peer's close."""

import asyncio

import pytest

from repro.core.network import DownloadError
from repro.net import HttpTransport, OriginUnreachable

pytestmark = pytest.mark.net


@pytest.fixture()
def canned_origin(net_loop):
    """Factory for a loopback server that answers every request with the
    given response head and closes; stopped at teardown."""
    servers = []

    def serve(head: bytes, body_chunks: tuple[bytes, ...] = ()) -> str:
        async def answer(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(head)
            await writer.drain()
            for chunk in body_chunks:
                writer.write(chunk)
                await writer.drain()
            writer.close()
            await writer.wait_closed()

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

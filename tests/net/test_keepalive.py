"""Keep-alive on the real HTTP path: the transport's connection pool, and
an origin that closes the connections it serves when it stops.

The pool reuses only clean connections — a complete response framed by
``Content-Length`` whose head does not say ``close`` — and resends a
GET once on a fresh connection when a pooled one went stale while idle,
inside the same attempt.  The origin and the chaos proxy stop without
waiting on a client that stopped reading.  Connection counts are read
off a :class:`~repro.net.ChaosProxy` (``connections`` = accepted,
``requests`` = proxied), built by the ``chaos`` fixture."""

import asyncio
import os
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.net import (
    ChaosProxy,
    DcsrOrigin,
    HttpTransport,
    OriginConfig,
    OriginUnreachable,
    TruncatedBody,
)

pytestmark = pytest.mark.net

MANIFEST = "manifest.json"


#: A body far larger than loopback socket buffers and the stream limit.
BIG = 8 << 20


@pytest.fixture(scope="module")
def big_root(tmp_path_factory):
    """An origin root holding one ``big.bin`` of :data:`BIG` bytes."""
    root = tmp_path_factory.mktemp("big-origin")
    (root / "big.bin").write_bytes(
        bytes(range(256)) * (BIG // 256))
    return root


def _serve(loop, root, config=None):
    origin = DcsrOrigin(root, config)
    loop.run_until_complete(origin.start())
    return origin


async def _request_unread(host, port, path):
    """Send one GET from a client with a tiny receive buffer that then
    reads nothing: the server's writes back up into its own buffers."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    reader, writer = await asyncio.open_connection(sock=sock)
    writer.write(f"GET /{path} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
    await writer.drain()
    await asyncio.sleep(0.1)                  # the server fills its buffers
    return writer


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="counts descriptors through /proc")


class TestPool:
    def test_repeated_downloads_share_one_connection(self, chaos,
                                                     package_dir):
        """A repeated download is a second full GET on the same
        connection, not a 304: the transport keeps no body cache."""
        proxy, transport = chaos()
        sizes = [len((package_dir / f"segments/segment-000{i}.bin")
                     .read_bytes()) for i in (0, 1)]
        for index in (0, 1, 0):
            transport.download("segment", index, sizes[index])
        assert transport.stats.attempts == 3
        assert transport.stats.bytes_delivered == 2 * sizes[0] + sizes[1]
        assert (proxy.connections, proxy.requests) == (1, 3)

    def test_head_response_keeps_the_connection(self, chaos, net_loop):
        proxy, transport = chaos()
        status, headers, body = net_loop.run_until_complete(
            transport.request("HEAD", MANIFEST))
        assert (status, body) == (200, b"")
        assert transport.get(MANIFEST)[0] == 200
        assert (proxy.connections, proxy.requests) == (1, 2)

    def test_connection_close_is_not_reused(self, chaos):
        proxy, transport = chaos()
        status, headers, _body = transport.get(MANIFEST,
                                               {"Connection": "close"})
        assert status == 200 and headers["connection"] == "close"
        assert transport.get(MANIFEST)[0] == 200
        assert (proxy.connections, proxy.requests) == (2, 2)

    def test_no_reuse_after_a_fault(self, chaos):
        proxy, transport = chaos(schedule=["ok", "truncate", "ok", "ok"])
        transport.download("segment", 0, 64)
        assert proxy.connections == 1
        with pytest.raises(TruncatedBody):
            transport.download("segment", 1, 64)
        transport.download("segment", 1, 64)
        assert proxy.connections == 2                # opened after the cut
        transport.download("segment", 2, 64)
        assert (proxy.connections, proxy.requests) == (2, 4)
        assert transport.stats.attempts == 4
        assert transport.stats.failures == 1

    def test_concurrent_requests_bound_the_pool(self, chaos, net_loop):
        proxy, transport = chaos()

        async def fan_out(n):
            return await asyncio.gather(
                *(transport.request("GET", MANIFEST) for _ in range(n)))

        assert [r[0] for r in net_loop.run_until_complete(fan_out(3))] \
            == [200] * 3
        assert proxy.connections == 3
        # Three idle connections now wait; two more concurrent requests
        # and then a serial one open none.
        net_loop.run_until_complete(fan_out(2))
        transport.get(MANIFEST)
        assert (proxy.connections, proxy.requests) == (3, 6)


class TestLargeBodies:
    def test_large_bodies_arrive_whole_on_one_connection(self, net_loop,
                                                        big_root):
        origin = _serve(net_loop, big_root)
        proxy = ChaosProxy(origin.host, origin.port)
        net_loop.run_until_complete(proxy.start())
        try:
            with HttpTransport(proxy.base_url, loop=net_loop) as transport:
                expected = (big_root / "big.bin").read_bytes()
                for _ in range(2):
                    status, _headers, body = transport.get("big.bin")
                    assert status == 200 and body == expected
        finally:
            net_loop.run_until_complete(proxy.stop())
            net_loop.run_until_complete(origin.stop())
        assert (proxy.connections, proxy.requests) == (1, 2)

    def test_truncated_large_body_is_typed_and_not_reused(self, net_loop,
                                                         big_root):
        origin = _serve(net_loop, big_root)
        proxy = ChaosProxy(origin.host, origin.port,
                           schedule=["truncate", "ok"])
        net_loop.run_until_complete(proxy.start())
        try:
            with HttpTransport(proxy.base_url, loop=net_loop) as transport:
                with pytest.raises(TruncatedBody,
                                   match=f"got {BIG // 2} bytes"):
                    transport.get("big.bin")
                assert transport.get("big.bin")[0] == 200
        finally:
            net_loop.run_until_complete(proxy.stop())
            net_loop.run_until_complete(origin.stop())
        assert (proxy.connections, proxy.requests) == (2, 2)


def test_proxy_relays_a_malformed_length_to_eof(net_loop):
    """The proxy frames a response with the transport's own rule, so a
    head whose ``Content-Length`` does not parse is relayed up to EOF
    and the client sees the transport's typed error for it."""
    async def bad_length(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nok")
        writer.close()
        await writer.wait_closed()

    server = net_loop.run_until_complete(
        asyncio.start_server(bad_length, "127.0.0.1", 0))
    proxy = ChaosProxy("127.0.0.1", server.sockets[0].getsockname()[1])
    net_loop.run_until_complete(proxy.start())
    try:
        with HttpTransport(proxy.base_url, loop=net_loop,
                           timeout_s=1.0) as transport:
            with pytest.raises(OriginUnreachable,
                               match="malformed Content-Length"):
                transport.get(MANIFEST)
    finally:
        net_loop.run_until_complete(proxy.stop())
        server.close()
        net_loop.run_until_complete(server.wait_closed())
    assert proxy.requests == 1


class TestStaleConnection:
    @pytest.mark.parametrize("idle", ["loop-runs", "loop-blocked"])
    def test_idle_timeout_is_resent_not_failed(self, net_loop, package_dir,
                                               idle):
        """The origin drops the idle connection after 0.05 s (with a 408).
        Either the client's loop saw that happen (``loop-runs``) or it
        learns it only from the next request (``loop-blocked``): both
        downloads succeed, one attempt each."""
        origin = DcsrOrigin(package_dir, OriginConfig(idle_timeout_s=0.05))
        net_loop.run_until_complete(origin.start())
        try:
            with HttpTransport(origin.base_url, loop=net_loop) as transport:
                transport.download("segment", 0, 64)
                if idle == "loop-runs":
                    net_loop.run_until_complete(asyncio.sleep(0.1))
                else:
                    time.sleep(0.1)
                transport.download("segment", 1, 64)
                assert transport.last_payload == (
                    package_dir / "segments/segment-0001.bin").read_bytes()
        finally:
            net_loop.run_until_complete(origin.stop())
        assert transport.stats.attempts == 2
        assert transport.stats.failures == 0


    @pytest.mark.parametrize("cut", ["fin", "reset"])
    def test_peer_cut_before_response_is_resent(self, net_loop, cut):
        """A peer that answers one request per connection and cuts the
        connection when a second one arrives: the reused connection
        fails before any response byte, and the GET goes out again on a
        fresh connection inside the same attempt."""
        served = []

        async def one_answer(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await writer.drain()
            served.append(1)
            if await reader.read(1) and cut == "reset":
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
            writer.close()
            await writer.wait_closed()

        server = net_loop.run_until_complete(
            asyncio.start_server(one_answer, "127.0.0.1", 0))
        url = f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"
        try:
            with HttpTransport(url, loop=net_loop,
                               timeout_s=1.0) as transport:
                transport.download("segment", 0, 2)
                transport.download("segment", 1, 2)
                assert transport.last_payload == b"ok"
        finally:
            server.close()
            net_loop.run_until_complete(server.wait_closed())
        assert len(served) == 2
        assert transport.stats.attempts == 2
        assert transport.stats.failures == 0


    def test_proxy_reopens_an_upstream_connection_closed_while_idle(
            self, net_loop, package_dir):
        """The origin drops the proxy's idle upstream connection (with a
        408).  The proxy sends the next request on a new upstream
        connection; the client's connection, and its schedule slot per
        request, are untouched."""
        origin = _serve(net_loop, package_dir,
                        OriginConfig(idle_timeout_s=0.05))
        proxy = ChaosProxy(origin.host, origin.port, schedule=["ok", "ok"])
        net_loop.run_until_complete(proxy.start())
        try:
            with HttpTransport(proxy.base_url, loop=net_loop) as transport:
                transport.download("segment", 0, 64)
                net_loop.run_until_complete(asyncio.sleep(0.1))
                transport.download("segment", 1, 64)
                assert transport.last_payload == (
                    package_dir / "segments/segment-0001.bin").read_bytes()
        finally:
            net_loop.run_until_complete(proxy.stop())
            net_loop.run_until_complete(origin.stop())
        assert (proxy.connections, proxy.requests) == (1, 2)
        assert proxy.faults_injected["ok"] == 2
        assert transport.stats.failures == 0

    @pytest.mark.parametrize("cut, error", [("fin", TruncatedBody),
                                            ("reset", OriginUnreachable)])
    def test_peer_cut_inside_the_head_is_not_resent(self, net_loop, cut,
                                                    error):
        """A reused connection cut after the first bytes of a response
        head is a typed failure of the attempt, not a resend."""
        served = []

        async def cut_second_head(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            served.append(1)
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 20")
            await writer.drain()
            served.append(2)
            await asyncio.sleep(0.05)         # the client reads those bytes
            if cut == "reset":
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
            writer.close()
            await writer.wait_closed()

        server = net_loop.run_until_complete(
            asyncio.start_server(cut_second_head, "127.0.0.1", 0))
        url = f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"
        try:
            with HttpTransport(url, loop=net_loop,
                               timeout_s=1.0) as transport:
                transport.download("segment", 0, 2)
                with pytest.raises(error):
                    transport.download("segment", 1, 2)
        finally:
            server.close()
            net_loop.run_until_complete(server.wait_closed())
        assert served == [1, 2]
        assert transport.stats.attempts == 2
        assert transport.stats.failures == 1


class TestClose:
    @needs_proc
    def test_close_releases_pooled_sockets_on_a_shared_loop(
            self, net_loop, origin):
        before = _open_fds()
        transport = HttpTransport(origin.base_url, loop=net_loop)

        async def fan_out():
            await asyncio.gather(*(transport.request("GET", MANIFEST)
                                   for _ in range(3)))

        net_loop.run_until_complete(fan_out())
        assert _open_fds() == before + 6      # three pooled, three served
        transport.close()
        # The origin's handlers see EOF and close their side.
        net_loop.run_until_complete(asyncio.sleep(0.05))
        assert _open_fds() == before
        assert not net_loop.is_closed()       # a shared loop stays open

    @needs_proc
    def test_close_releases_pooled_sockets_on_a_private_loop(
            self, package_dir):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-origin",
             str(package_dir), "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            url = child.stdout.readline().split(" at ")[1].strip()
            before = _open_fds()
            transport = HttpTransport(url)
            for key in range(2):
                transport.download("segment", key, 64)
            assert _open_fds() > before       # loop plus a pooled socket
            transport.close()
            assert _open_fds() == before
        finally:
            child.terminate()
            child.wait(timeout=10)
            child.stdout.close()


class TestOriginStop:
    def test_stop_closes_idle_keepalive_connections(self, net_loop, origin):
        async def scenario():
            reader, writer = await asyncio.open_connection(origin.host,
                                                           origin.port)
            writer.write(b"GET /manifest.json HTTP/1.1\r\nHost: test\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1]
                         .split(b"\r\n")[0])
            await reader.readexactly(length)
            await origin.stop()
            pending = [t for t in asyncio.all_tasks()
                       if t is not asyncio.current_task()]
            tail = await asyncio.wait_for(reader.read(), 1.0)
            writer.close()
            await writer.wait_closed()
            return head.split(b" ")[1], pending, tail

        status, pending, tail = net_loop.run_until_complete(scenario())
        assert status == b"200"
        assert pending == []                  # no handler left waiting
        assert tail == b""                    # the client saw EOF

    def test_stop_does_not_wait_for_a_client_that_stopped_reading(
            self, net_loop, big_root):
        origin = _serve(net_loop, big_root)
        assert net_loop.run_until_complete(
            _stops_within_a_second(origin, origin))

    def test_proxy_stop_does_not_wait_for_a_client_that_stopped_reading(
            self, net_loop, big_root):
        origin = _serve(net_loop, big_root)
        proxy = ChaosProxy(origin.host, origin.port)
        net_loop.run_until_complete(proxy.start())
        try:
            assert net_loop.run_until_complete(
                _stops_within_a_second(proxy, proxy))
        finally:
            net_loop.run_until_complete(origin.stop())


async def _stops_within_a_second(server, target) -> bool:
    """Whether ``server.stop()`` returns within a second while a client of
    ``target`` sits on an unread large body.  The client is aborted
    afterwards either way, so a ``stop()`` that waits for it still ends."""
    client = await _request_unread(target.host, target.port, "big.bin")
    stopping = asyncio.ensure_future(server.stop())
    done, _pending = await asyncio.wait({stopping}, timeout=1.0)
    client.transport.abort()
    await stopping
    return bool(done)

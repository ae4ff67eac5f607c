"""HTTP/1.1 semantics of the asyncio origin, property-tested over a
real loopback socket: Range (single, open-ended, suffix, 416), strong
ETags with If-None-Match revalidation and rotation on package rebuild,
HEAD, traversal protection, keep-alive, and concurrent interleaving on
one event loop."""

import asyncio
import random

import pytest

from repro.net import DcsrOrigin, HttpTransport

pytestmark = pytest.mark.net

SEGMENT = "segments/segment-0000.bin"


@pytest.fixture()
def transport(net_loop, origin):
    return HttpTransport(origin.base_url, loop=net_loop)


class TestRange:
    def test_seeded_range_sweep_matches_disk(self, transport, origin,
                                             package_dir):
        data = (package_dir / SEGMENT).read_bytes()
        size = len(data)
        rng = random.Random(0xD05F)
        for _ in range(25):
            start = rng.randrange(size)
            end = rng.randrange(start, size)
            status, headers, body = transport.get(
                SEGMENT, {"Range": f"bytes={start}-{end}"})
            assert status == 206
            assert body == data[start:end + 1]
            assert headers["content-range"] == f"bytes {start}-{end}/{size}"
            assert int(headers["content-length"]) == len(body)

    def test_open_ended_and_suffix_ranges(self, transport, package_dir):
        data = (package_dir / SEGMENT).read_bytes()
        status, headers, body = transport.get(SEGMENT, {"Range": "bytes=5-"})
        assert (status, body) == (206, data[5:])
        status, headers, body = transport.get(SEGMENT, {"Range": "bytes=-7"})
        assert (status, body) == (206, data[-7:])
        assert headers["content-range"] == \
            f"bytes {len(data) - 7}-{len(data) - 1}/{len(data)}"

    def test_range_beyond_size_is_416(self, transport, package_dir):
        size = len((package_dir / SEGMENT).read_bytes())
        status, headers, body = transport.get(
            SEGMENT, {"Range": f"bytes={size + 10}-"})
        assert status == 416
        assert headers["content-range"] == f"bytes */{size}"

    def test_malformed_range_is_ignored(self, transport, package_dir):
        data = (package_dir / SEGMENT).read_bytes()
        for bad in ("bytes=9-2", "frames=0-1", "bytes=a-b", "bytes="):
            status, headers, body = transport.get(SEGMENT, {"Range": bad})
            assert (status, body) == (200, data), bad


class TestETag:
    def test_revalidation_and_rebuild_rotation(self, net_loop, tmp_path):
        root = tmp_path / "scratch-origin"
        root.mkdir()
        artifact = root / "manifest.json"
        artifact.write_bytes(b'{"built": 1}')
        served = DcsrOrigin(root)
        net_loop.run_until_complete(served.start())
        try:
            client = HttpTransport(served.base_url, loop=net_loop)
            status, headers, body = client.get("manifest.json")
            assert status == 200 and body == b'{"built": 1}'
            etag = headers["etag"]

            status, _, body = client.get(
                "manifest.json", {"If-None-Match": etag})
            assert (status, body) == (304, b"")

            artifact.write_bytes(b'{"built": 2, "rotated": true}')
            status, headers, body = client.get(
                "manifest.json", {"If-None-Match": etag})
            assert status == 200
            assert body == b'{"built": 2, "rotated": true}'
            assert headers["etag"] != etag
        finally:
            net_loop.run_until_complete(served.stop())

    def test_transport_replays_cached_body_on_304(self, transport):
        first = transport.fetch("manifest", "")
        second = transport.fetch("manifest", "")
        assert first == second
        assert transport.revalidated == 1


async def _read_response(reader):
    """``(status, body)`` of the next response on a raw connection."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.lower().split(b"\r\n")
    length = int(next(line.split(b":")[1] for line in lines
                      if line.startswith(b"content-length:")))
    return int(lines[0].split(b" ")[1]), await reader.readexactly(length)


class TestProtocol:
    def test_head_carries_length_but_no_body(self, transport, package_dir):
        size = len((package_dir / "manifest.json").read_bytes())
        status, headers, body = transport._run(
            transport.request("HEAD", "manifest.json"))
        assert status == 200
        assert int(headers["content-length"]) == size
        assert body == b""

    def test_missing_and_traversal_paths_are_404(self, transport):
        assert transport.get("no-such-file")[0] == 404
        assert transport.get("../../../etc/passwd")[0] == 404

    def test_request_counters(self, transport, origin):
        transport.get("manifest.json")
        transport.get("no-such-file")
        requests = origin.obs.metrics.counter("dcsr_origin_requests_total")
        assert requests.value(method="GET", status="200") >= 1
        assert requests.value(method="GET", status="404") >= 1

    def test_concurrent_interleaving_on_one_loop(self, net_loop, origin,
                                                 transport, package_dir):
        paths = ["manifest.json", SEGMENT, "models/model-00.npz"] * 3

        async def fan_out():
            return await asyncio.gather(
                *[transport.request("GET", path) for path in paths])

        results = net_loop.run_until_complete(fan_out())
        for path, (status, headers, body) in zip(paths, results):
            assert status == 200, path
            assert body == (package_dir / path).read_bytes()

    def test_keepalive_serves_two_requests_on_one_connection(
            self, net_loop, origin, package_dir):
        expected = (package_dir / "manifest.json").read_bytes()

        async def two_gets():
            reader, writer = await asyncio.open_connection(
                origin.host, origin.port)
            try:
                bodies = []
                for _ in range(2):
                    writer.write(b"GET /manifest.json HTTP/1.1\r\n"
                                 b"Host: test\r\n\r\n")
                    await writer.drain()
                    status, body = await _read_response(reader)
                    assert status == 200
                    bodies.append(body)
                return bodies
            finally:
                writer.close()
                await writer.wait_closed()

        bodies = net_loop.run_until_complete(two_gets())
        assert bodies == [expected, expected]


def _raw_exchange(net_loop, origin, payload: bytes, n_responses: int,
                  half_close: bool = False):
    """Write ``payload`` in one piece on a fresh connection and read
    ``n_responses`` responses back."""
    async def exchange():
        reader, writer = await asyncio.open_connection(origin.host,
                                                       origin.port)
        try:
            writer.write(payload)
            await writer.drain()
            if half_close:
                writer.write_eof()
            return [await asyncio.wait_for(_read_response(reader), 5.0)
                    for _ in range(n_responses)]
        finally:
            writer.close()
            await writer.wait_closed()
    return net_loop.run_until_complete(exchange())


class TestRequestHead:
    """One head at a time: what follows a head in the same read is the
    next request, not garbage (the origin used to drop it and answer the
    second of two pipelined GETs with a 408 once the idle timer fired)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_pipelined_requests_answered_in_order(self, net_loop, origin,
                                                  package_dir, n):
        paths = ["manifest.json", SEGMENT, "no-such-file"][:n]
        payload = b"".join(f"GET /{path} HTTP/1.1\r\nHost: test\r\n\r\n"
                           .encode() for path in paths)
        responses = _raw_exchange(net_loop, origin, payload, n)
        expected = [(200, (package_dir / "manifest.json").read_bytes()),
                    (200, (package_dir / SEGMENT).read_bytes()),
                    (404, b"not found")][:n]
        assert responses == expected

    def test_oversize_head_is_431(self, net_loop, origin):
        payload = (b"GET /manifest.json HTTP/1.1\r\nX-Padding: "
                   + b"a" * (2 * origin.config.max_request_bytes))
        assert _raw_exchange(net_loop, origin, payload, 1) == [(431, b"")]

    def test_truncated_head_is_400(self, net_loop, origin):
        payload = b"GET /manifest.json HTTP/1.1\r\nHost: te"
        assert _raw_exchange(net_loop, origin, payload, 1,
                             half_close=True) == [(400, b"")]

    def test_dribbled_head_ends_in_408(self, net_loop, package_dir):
        """``idle_timeout_s`` bounds the whole head: a first fragment
        buys no extra time."""
        from repro.net import OriginConfig

        slow = DcsrOrigin(package_dir, OriginConfig(idle_timeout_s=0.2))
        net_loop.run_until_complete(slow.start())
        try:
            assert _raw_exchange(net_loop, slow, b"GET /manifest.json HT",
                                 1) == [(408, b"")]
        finally:
            net_loop.run_until_complete(slow.stop())

"""End-to-end fault injection: full ``DcsrClient.play()`` sessions over
real TCP through the chaos proxy.

The proxy's per-connection fault schedule maps 1:1 onto the client's
serial download attempts (the transport opens one connection per
request), so these tests steer faults at exact attempts: a reset at the
first download exercises retry/backoff, a truncated model checkpoint
lands the segment in ``fallback_segments``, a stalled segment read hits
the client's timeout and is concealed (``skipped_segments``) — and a
seeded fault mix replays bit-identically."""

import numpy as np
import pytest

from repro.core import DcsrClient, RetryPolicy, load_package
from repro.core.network import DownloadError
from repro.net import (
    ChaosConfig,
    ChaosProxy,
    HttpTransport,
    OriginUnreachable,
    StalledRead,
    TruncatedBody,
)
from repro.obs import Observability

pytestmark = pytest.mark.net


@pytest.fixture()
def net_package(package_dir):
    return load_package(package_dir)


@pytest.fixture()
def chaos(net_loop, origin):
    """Factory for (proxy, transport) pairs in front of the live origin;
    everything built here is torn down through the leak-guarded loop."""
    built = []

    def build(schedule=None, config=None, timeout_s=0.25):
        proxy = ChaosProxy(origin.host, origin.port, config=config,
                           schedule=schedule)
        net_loop.run_until_complete(proxy.start())
        built.append(proxy)
        transport = HttpTransport(proxy.base_url, loop=net_loop,
                                  timeout_s=timeout_s)
        return proxy, transport

    yield build
    for proxy in built:
        net_loop.run_until_complete(proxy.stop())


class TestTypedFaults:
    def test_each_fault_maps_to_its_error(self, chaos):
        proxy, transport = chaos(schedule=["truncate", "reset", "stall"])
        for expected in (TruncatedBody, OriginUnreachable, StalledRead):
            with pytest.raises(expected) as err:
                transport.download("segment", 0, 64)
            assert isinstance(err.value, DownloadError)
            assert err.value.seconds >= 0.0
        # Schedule exhausted, rates zero: the next connection is clean.
        assert transport.download("segment", 0, 64) >= 0.0
        assert proxy.faults_injected["ok"] == 1
        assert transport.stats.failures == 3

    def test_stall_burns_the_read_timeout(self, chaos):
        proxy, transport = chaos(schedule=["stall"], timeout_s=0.2)
        with pytest.raises(StalledRead) as err:
            transport.download("segment", 0, 64)
        assert err.value.seconds >= 0.2       # waited the full budget
        assert err.value.seconds < 5.0        # but not the proxy's hold


class TestPlaybackPaths:
    def test_reset_retries_then_plays_fully(self, chaos, net_package):
        obs = Observability(root_name="chaos")
        proxy, transport = chaos(schedule=["reset"])
        result = DcsrClient(net_package, network=transport,
                            retry=RetryPolicy(retries=2), obs=obs).play()
        assert result.skipped_segments == []
        assert result.fallback_segments == []
        assert proxy.faults_injected["reset"] == 1
        assert transport.stats.failures == 1
        registry = obs.metrics
        assert registry.counter("dcsr_download_retries_total").value(
            kind="model") == 1
        assert registry.counter("dcsr_backoff_seconds_total").value(
            kind="model") > 0

    def test_truncated_model_lands_in_fallback(self, chaos, net_package):
        # Connection 0 is the first model checkpoint (the client fetches
        # the model before its first segment); with no retry budget and
        # fallback on, its segment plays unenhanced.
        proxy, transport = chaos(schedule=["truncate"])
        result = DcsrClient(net_package, network=transport,
                            retry=RetryPolicy(retries=0),
                            fallback=True).play()
        assert 0 in result.fallback_segments
        assert result.skipped_segments == []
        assert len(result.frames) == sum(
            seg.n_frames for seg in net_package.encoded.segments)
        assert proxy.faults_injected["truncate"] == 1

    def test_stalled_segment_is_concealed(self, chaos, net_package):
        # Connection 0 = model, connection 1 = segment 0: the stalled
        # segment read times out and the client conceals it.
        proxy, transport = chaos(schedule=["ok", "stall"])
        result = DcsrClient(net_package, network=transport,
                            retry=RetryPolicy(retries=0)).play()
        assert result.skipped_segments == [0]
        assert result.fallback_segments == []
        assert len(result.frames) == sum(
            seg.n_frames for seg in net_package.encoded.segments)
        assert proxy.faults_injected["stall"] == 1


class TestDeterminism:
    def _run(self, chaos, net_package):
        proxy, transport = chaos(
            config=ChaosConfig(reset_rate=0.25, truncate_rate=0.2,
                               stall_rate=0.1, seed=11),
            timeout_s=0.2)
        result = DcsrClient(net_package, network=transport,
                            retry=RetryPolicy(retries=1),
                            fallback=True).play()
        return proxy, result

    def test_seeded_fault_mix_replays_identically(self, chaos, net_package):
        proxy_a, first = self._run(chaos, net_package)
        proxy_b, second = self._run(chaos, net_package)
        assert proxy_a.faults_injected == proxy_b.faults_injected
        assert proxy_a.connections == proxy_b.connections
        assert first.skipped_segments == second.skipped_segments
        assert first.fallback_segments == second.fallback_segments
        assert np.array_equal(np.asarray(first.frames),
                              np.asarray(second.frames))
        # The mix actually exercised a degraded path (else this test
        # proves nothing) — with seed 11 some fault fires early.
        assert sum(proxy_a.faults_injected[f]
                   for f in ("reset", "truncate", "stall")) > 0

"""One contract (:class:`repro.core.network.Network`), three transports.

Every test in :class:`TestTransportContract` runs three times — against
:class:`SimulatedNetwork`, against a fleet session's
:class:`~repro.serve.PooledNetwork`, and against a live
:class:`HttpTransport` talking to a loopback origin (through a chaos
proxy when failures are scheduled) — with byte-identical assertions.
This is the proof that the implementations are interchangeable: same
``download`` surface, same retry/backoff accounting, same typed errors.
None of them knows about telemetry: the download counters are rendered
from the session's fetch-stage ledger, so their relations to
``network.stats`` and the result's byte totals hold on every transport.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DcsrClient,
    NetworkConfig,
    RetryPolicy,
    SimulatedNetwork,
    load_package,
)
from repro.core.network import DownloadError, download_with_retry
from repro.core.session import count_downloads
from repro.net import (
    ChaosProxy,
    DcsrOrigin,
    HttpTransport,
    mirror_package,
    model_path,
    segment_path,
)
from repro.obs import MetricsRegistry
from repro.serve import SharedNetworkPool

pytestmark = pytest.mark.net

#: The complete download counter vocabulary, in ledger-row order.
DOWNLOAD_COUNTERS = (
    "dcsr_download_attempts_total",
    "dcsr_download_failures_total",
    "dcsr_download_bytes_total",
    "dcsr_download_retries_total",
    "dcsr_backoff_seconds_total",
)


class _SimCase:
    """The simulated transport: failures from a boolean schedule; the
    'payload' is the on-disk artifact by definition (no wire)."""

    name = "sim"

    def __init__(self, package_dir: Path):
        self.package_dir = Path(package_dir)

    def make(self, failures=()):
        return SimulatedNetwork(NetworkConfig(), failure_schedule=failures)

    def disk(self, kind, key) -> bytes:
        path = segment_path(key) if kind == "segment" else model_path(key)
        return (self.package_dir / path).read_bytes()

    def payload(self, network, kind, key) -> bytes:
        return self.disk(kind, key)

    def close(self):
        pass


class _PooledCase(_SimCase):
    """One fleet session's view of a shared pool: the simulated failure
    schedule, transfer time from the fair-share model."""

    name = "pooled"

    def make(self, failures=()):
        network = SharedNetworkPool().session(0)
        network._schedule = list(failures)
        return network


class _HttpCase:
    """The real transport: failures become chaos-proxy connection resets,
    the payload is whatever the socket delivered."""

    name = "http"

    def __init__(self, loop, package_dir: Path):
        self.loop = loop
        self.package_dir = Path(package_dir)
        self.origin = DcsrOrigin(package_dir)
        loop.run_until_complete(self.origin.start())
        self._proxies = []
        self._transports = []

    def make(self, failures=()):
        schedule = ["reset" if fails else "ok" for fails in failures]
        proxy = ChaosProxy(self.origin.host, self.origin.port,
                           schedule=schedule)
        self.loop.run_until_complete(proxy.start())
        self._proxies.append(proxy)
        self._transports.append(
            HttpTransport(proxy.base_url, loop=self.loop, timeout_s=2.0))
        return self._transports[-1]

    def disk(self, kind, key) -> bytes:
        path = segment_path(key) if kind == "segment" else model_path(key)
        return (self.package_dir / path).read_bytes()

    def payload(self, network, kind, key) -> bytes:
        return network.last_payload

    def close(self):
        for transport in self._transports:
            transport.close()
        for proxy in self._proxies:
            self.loop.run_until_complete(proxy.stop())
        self.loop.run_until_complete(self.origin.stop())


@pytest.fixture(params=["sim", "pooled", "http"])
def case(request, net_loop, package_dir):
    built = {"sim": lambda: _SimCase(package_dir),
             "pooled": lambda: _PooledCase(package_dir),
             "http": lambda: _HttpCase(net_loop, package_dir)
             }[request.param]()
    yield built
    built.close()


class TestTransportContract:
    def test_success_payload_is_ondisk_bytes(self, case):
        network = case.make()
        disk = case.disk("segment", 0)
        seconds = network.download("segment", 0, len(disk))
        assert seconds >= 0.0
        assert network.clock.now() == pytest.approx(seconds)
        assert network.stats.attempts == 1
        assert network.stats.failures == 0
        assert network.stats.bytes_delivered == len(disk)
        assert case.payload(network, "segment", 0) == disk

    def test_model_payload_matches_checkpoint(self, case, package):
        label = package.manifest.label_sequence()[0]
        network = case.make()
        disk = case.disk("model", label)
        network.download("model", label, len(disk))
        assert case.payload(network, "model", label) == disk

    def test_retry_counts_under_injected_failure(self, case):
        network = case.make(failures=[True, False])
        disk = case.disk("segment", 1)
        seconds, attempts = download_with_retry(
            network, RetryPolicy(retries=2), "segment", 1, len(disk))
        assert attempts == 2
        assert network.stats.attempts == 2
        assert network.stats.failures == 1
        assert seconds >= 0.0
        assert case.payload(network, "segment", 1) == disk

    def test_exhausted_budget_raises_typed_error(self, case):
        network = case.make(failures=[True, True])
        with pytest.raises(DownloadError) as err:
            download_with_retry(network, RetryPolicy(retries=1),
                                "segment", 0, 64)
        assert err.value.attempts == 2
        assert err.value.seconds >= 0.0
        assert network.stats.failures == 2

    def test_failure_is_a_download_error(self, case):
        network = case.make(failures=[True])
        with pytest.raises(DownloadError) as err:
            network.download("segment", 0, 64)
        assert err.value.seconds >= 0.0
        assert network.stats.failures == 1

    def test_counter_vocabulary_is_identical(self, case, package):
        """A lossy session's counters: the five families and nothing
        else download-shaped, attempts and failures equal to what the
        link itself saw, bytes equal to what the result accounts."""
        network = case.make(failures=[False, True, False, True, True])
        client = DcsrClient(package, network=network,
                            retry=RetryPolicy(retries=1), fallback=True)
        result = client.play()
        # Whichever download the double failure hit ran out of budget.
        assert len(result.skipped_segments + result.fallback_segments) == 1
        registry = client.obs.metrics
        names = {metric.name for metric in registry.metrics()}
        assert {n for n in names if "download" in n or "backoff" in n} \
            == set(DOWNLOAD_COUNTERS)

        def total(name):
            return sum(registry.counter(name).series().values())
        attempts, failures, n_bytes, retries, backoff = map(
            total, DOWNLOAD_COUNTERS)
        assert attempts == network.stats.attempts
        assert failures == network.stats.failures == 3
        assert n_bytes == result.video_bytes + result.model_bytes
        assert retries == 2 and backoff > 0


def test_count_downloads_renders_a_ledger():
    """Zero cells emit no series; labels pass through."""
    registry = MetricsRegistry()
    count_downloads(registry, {"model": [3, 1, 900, 1, 0.05],
                               "segment": [2, 0, 64, 0, 0.0]}, session=7)
    rows = {(metric.name, key): value for metric in registry.metrics()
            for key, value in metric.series().items()}
    model = (("kind", "model"), ("session", "7"))
    segment = (("kind", "segment"), ("session", "7"))
    assert rows == {
        ("dcsr_download_attempts_total", model): 3.0,
        ("dcsr_download_attempts_total", segment): 2.0,
        ("dcsr_download_failures_total", model): 1.0,
        ("dcsr_download_bytes_total", model): 900.0,
        ("dcsr_download_bytes_total", segment): 64.0,
        ("dcsr_download_retries_total", model): 1.0,
        ("dcsr_backoff_seconds_total", model): 0.05,
    }


def test_playback_bitwise_equal_across_transports(net_loop, package_dir,
                                                  tmp_path):
    """The acceptance loop: a package mirrored over HTTP and played
    through the real transport produces frames bitwise-equal to the same
    package played through the failure-free simulated network."""
    origin = DcsrOrigin(package_dir)
    net_loop.run_until_complete(origin.start())
    transport = HttpTransport(origin.base_url, loop=net_loop)
    mirrored = load_package(mirror_package(transport, tmp_path / "mirror"))
    http_result = DcsrClient(mirrored, network=transport,
                             retry=RetryPolicy(retries=0)).play()
    transport.close()
    net_loop.run_until_complete(origin.stop())

    sim = SimulatedNetwork(NetworkConfig())
    sim_result = DcsrClient(load_package(package_dir), network=sim,
                            retry=RetryPolicy(retries=0)).play()

    assert len(http_result.frames) == len(sim_result.frames)
    assert np.array_equal(np.asarray(http_result.frames),
                          np.asarray(sim_result.frames))
    assert http_result.model_downloads == sim_result.model_downloads
    assert http_result.video_bytes == sim_result.video_bytes
    assert http_result.skipped_segments == sim_result.skipped_segments == []
    assert (http_result.fallback_segments
            == sim_result.fallback_segments == [])

"""The download path of the streaming client: a link moves bytes on a clock.

:class:`Link` is the one ``download()`` every transport shares: count the
attempt in :attr:`~Link.stats`, ask the subclass for one attempt's
``(seconds, bytes delivered)``, advance :attr:`~Link.clock`.  A link knows
nothing about observability — what a *session* downloaded is the fetch
stage's ledger (:mod:`repro.core.session`), rendered into metrics once
when the session settles.

The paper assumes a well-behaved CDN; a deployable client does not get
one.  :class:`SimulatedNetwork` models the transfer a
:class:`~repro.core.client.DcsrClient` session performs — per-request
latency, bandwidth-proportional transfer time, and injected failures — so
fault-tolerance paths (retry, concealment, model fallback) are exercised
deterministically.  All "time" here is *simulated* seconds returned to the
caller, never slept, so failure-heavy sessions stay fast to test.

Failures come from two sources, checked in order:

1. an explicit ``failure_schedule`` (one boolean per download attempt,
   in call order) for exact-scenario tests;
2. a seeded RNG firing with probability ``fail_rate`` once the schedule
   is exhausted.

:class:`RetryPolicy` bounds how hard the client tries: a retry budget per
download plus exponential backoff (also simulated seconds, so retries cost
stall time in the playback clock, not wall time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from ..obs import SimulatedClock

__all__ = [
    "NetworkConfig",
    "DownloadError",
    "DownloadStats",
    "Network",
    "Link",
    "SimulatedNetwork",
    "RetryPolicy",
    "download_with_retry",
]


class DownloadError(ConnectionError):
    """A download failed (injected or terminal after retries).

    ``seconds`` is the simulated time burnt on the failed attempt(s);
    ``attempts`` how many were made.  Both are filled by
    :func:`download_with_retry` so the playback clock can charge failed
    downloads to stall time.
    """

    def __init__(self, message: str, seconds: float = 0.0, attempts: int = 1):
        super().__init__(message)
        self.seconds = float(seconds)
        self.attempts = int(attempts)


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of the simulated link.

    ``bandwidth_bps = None`` makes transfers instantaneous (latency only);
    ``fail_rate`` is the per-attempt probability of an injected failure.
    """

    fail_rate: float = 0.0
    bandwidth_bps: float | None = None
    latency_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fail_rate <= 1.0:
            raise ValueError(f"fail_rate must be in [0, 1], got {self.fail_rate}")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive (or None)")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")


@dataclass
class DownloadStats:
    """Attempt-level accounting across one network's lifetime."""

    attempts: int = 0
    failures: int = 0
    bytes_delivered: int = 0


class Network(Protocol):
    """The download contract the whole client stack is written against.

    Implemented by :class:`Link` for :class:`SimulatedNetwork`, its
    fair-share subclass :class:`repro.serve.PooledNetwork`, and the
    real-socket :class:`repro.net.HttpTransport`;
    ``tests/net/test_transport_contract.py`` holds all three to identical
    behaviour.  A session's only clock is :attr:`clock`: every second
    :meth:`download` returns (or burns on a failed attempt) is also
    advanced onto it, as is retry backoff.
    """

    #: Link shape; consumers read ``bandwidth_bps`` as a throughput hint.
    config: NetworkConfig
    #: Attempt-level accounting across the network's lifetime.
    stats: DownloadStats
    clock: SimulatedClock

    def download(self, kind: str, key: int | str, n_bytes: int) -> float:
        """Attempt one download of ``kind`` (``"segment"``/``"model"``)
        ``key``: return its seconds, or raise :class:`DownloadError`
        carrying the seconds burnt."""


class Link:
    """The one attempt body behind every :class:`Network`.

    Every second an attempt takes advances :attr:`clock`, a dedicated
    :class:`~repro.obs.SimulatedClock` — the link's time domain is
    explicit, so callers recording those seconds into a trace tag them as
    simulated rather than mixing them into wall time.  Subclasses supply
    :meth:`_attempt` only.
    """

    def __init__(self, config: NetworkConfig | None = None):
        self.config = config or NetworkConfig()
        self.stats = DownloadStats()
        self.clock = SimulatedClock()

    def download(self, kind: str, key: int | str, n_bytes: int) -> float:
        """Attempt one download; return its seconds or raise.

        ``kind`` is ``"segment"`` or ``"model"``, ``key`` the segment
        index or model label, ``n_bytes`` the manifest's accounting size.
        """
        stats = self.stats
        stats.attempts += 1
        try:
            seconds, delivered = self._attempt(kind, key, n_bytes)
        except DownloadError as exc:
            stats.failures += 1
            self.clock.advance(exc.seconds)
            raise
        self.clock.advance(seconds)
        stats.bytes_delivered += delivered
        return seconds

    def _attempt(self, kind: str, key: int | str,
                 n_bytes: int) -> tuple[float, int]:
        """One attempt: ``(seconds, bytes delivered)``, or a
        :class:`DownloadError` carrying the seconds the failure burnt."""
        raise NotImplementedError


class SimulatedNetwork(Link):
    """Failure- and latency-injecting stand-in for the CDN link."""

    def __init__(self, config: NetworkConfig | None = None,
                 failure_schedule: Sequence[bool] | None = None):
        super().__init__(config)
        self._schedule = list(failure_schedule or [])
        self._schedule_pos = 0
        self._rng = random.Random(self.config.seed)

    def _next_attempt_fails(self) -> bool:
        if self._schedule_pos < len(self._schedule):
            fails = self._schedule[self._schedule_pos]
            self._schedule_pos += 1
            return bool(fails)
        if self.config.fail_rate <= 0.0:
            return False
        return self._rng.random() < self.config.fail_rate

    def _attempt(self, kind: str, key: int | str,
                 n_bytes: int) -> tuple[float, int]:
        if self._next_attempt_fails():
            raise DownloadError(
                f"injected failure downloading {kind} {key}",
                seconds=self.config.latency_s)
        return (self.config.latency_s + self._transfer_seconds(n_bytes),
                int(n_bytes))

    def _transfer_seconds(self, n_bytes: int) -> float:
        """Simulated transfer time of one successful payload (no latency).

        The dedicated-link model charges the configured bandwidth in full;
        :class:`repro.serve.SharedNetworkPool` overrides this to charge a
        fair share of one pool shared by every concurrent session.
        """
        if self.config.bandwidth_bps is None:
            return 0.0
        return 8.0 * n_bytes / self.config.bandwidth_bps


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and exponential backoff for one download.

    ``retries`` is the number of *additional* attempts after the first;
    backoff before retry ``i`` (0-based) is
    ``min(backoff_s * backoff_factor**i, max_backoff_s)`` simulated
    seconds.
    """

    retries: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, retry_index: int) -> float:
        """Simulated backoff before the ``retry_index``-th retry."""
        return min(self.backoff_s * self.backoff_factor ** retry_index,
                   self.max_backoff_s)


def download_with_retry(
    network: Network, retry: RetryPolicy | None,
    kind: str, key: int | str, n_bytes: int,
) -> tuple[float, int]:
    """Download under a retry budget.

    Returns ``(simulated_seconds, attempts)`` including backoff and the
    time burnt on failed attempts.  Raises :class:`DownloadError` (with
    ``seconds``/``attempts`` filled) once the budget is exhausted.
    """
    retry = retry or RetryPolicy(retries=0)
    elapsed = 0.0
    attempts = 0
    while True:
        attempts += 1
        try:
            elapsed += network.download(kind, key, n_bytes)
            return elapsed, attempts
        except DownloadError as exc:
            elapsed += exc.seconds
            if attempts > retry.retries:
                raise DownloadError(
                    f"{kind} {key}: giving up after {attempts} attempts",
                    seconds=elapsed, attempts=attempts) from exc
            backoff = retry.delay(attempts - 1)
            network.clock.advance(backoff)
            elapsed += backoff

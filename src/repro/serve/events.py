"""Deterministic discrete-event core for the fleet simulator.

Everything a fleet result depends on is already *simulated* seconds
(arrival schedules, fair-share transfer times, playout stalls), so
nothing about a fleet run needs OS threads: sessions are generators
driven by one event heap.  :class:`EventLoop` replaces the old
thread-per-session executor with a single-threaded scheduler:

- **Event heap.**  Scheduled callbacks are ``(time, seq, action)``
  entries on a binary heap.  ``seq`` is a monotonically increasing
  schedule counter, so two events at the same simulated instant always
  fire in the order they were scheduled — ties are deterministic by
  construction, never by thread timing or hash order.
- **Processes.**  A session is a plain generator.  Yielding
  :class:`Timeout` suspends it for a simulated duration, :class:`Until`
  suspends it to an absolute simulated instant, and yielding another
  :class:`Process` joins it (resume when it finishes).  Each resume
  sends the loop's current ``now`` back into the generator.
- **No wall clock.**  The loop never sleeps; it jumps ``now`` from event
  to event.  A 10,000-session day of simulated traffic runs in however
  long the Python work itself takes.

:class:`TokenBucket` lives here too: the per-session rate limiter is
pure simulated-time mechanics (the classic refill-and-drain throttler
shape), consumed by :class:`~repro.serve.netpool.PooledNetwork`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Callable, Generator

__all__ = ["Timeout", "Until", "Process", "EventLoop", "TokenBucket"]


@dataclass(frozen=True)
class Timeout:
    """Yield value: resume this process after ``seconds`` of sim time."""

    seconds: float

    def __post_init__(self):
        if self.seconds < 0:
            raise ValueError(f"Timeout must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class Until:
    """Yield value: resume this process at absolute sim instant ``at``.

    An instant already in the past resumes at the current ``now`` (the
    loop never travels backwards), still in deterministic seq order.
    """

    at: float


class Process:
    """One generator driven by an :class:`EventLoop`.

    ``result`` carries the generator's return value once ``done``;
    other processes may ``yield`` this object to join it.
    """

    def __init__(self, gen: Generator, name: str = ""):
        self.gen = gen
        self.name = name
        self.done = False
        self.result = None
        self._started = False
        self._waiters: list[Process] = []

    def __repr__(self):
        state = "done" if self.done else "running"
        return f"Process({self.name or 'anonymous'}, {state})"


class EventLoop:
    """Single-threaded discrete-event scheduler with a deterministic heap.

    Parameters
    ----------
    trace:
        When ``True``, every processed event is appended to
        :attr:`history` as ``(time, seq, label)`` — the determinism
        tests compare two runs' histories for bitwise equality.
    """

    def __init__(self, trace: bool = False):
        self._heap: list[tuple[float, int, Callable[[], None], str]] = []
        self._seq = count()
        self.now = 0.0
        self.events_processed = 0
        self.history: list[tuple[float, int, str]] | None = \
            [] if trace else None

    # ----------------------------------------------------------- scheduling

    def call_at(self, when: float, action: Callable[[], None],
                label: str = "") -> None:
        """Run ``action()`` at sim instant ``when`` (clamped to now)."""
        heapq.heappush(self._heap,
                       (max(float(when), self.now), next(self._seq),
                        action, label))

    def spawn(self, gen: Generator, at: float | None = None,
              name: str = "") -> Process:
        """Register a generator as a process; first resumed at ``at``."""
        proc = Process(gen, name=name)
        self.call_at(self.now if at is None else at,
                     lambda: self._resume(proc), label=name)
        return proc

    # ------------------------------------------------------------ execution

    def run(self, until: float | None = None) -> float:
        """Drain the heap in (time, seq) order; returns the final ``now``.

        ``until`` stops the loop *before* processing any event scheduled
        later than that instant (the event stays queued).
        """
        while self._heap:
            when, seq, action, label = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.now = when
            self.events_processed += 1
            if self.history is not None:
                self.history.append((when, seq, label))
            action()
        return self.now

    def _resume(self, proc: Process) -> None:
        try:
            if proc._started:
                command = proc.gen.send(self.now)
            else:
                proc._started = True
                command = next(proc.gen)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            for waiter in proc._waiters:
                self.call_at(self.now, lambda w=waiter: self._resume(w),
                             label=waiter.name)
            proc._waiters.clear()
            return
        self._dispatch(proc, command)

    def _dispatch(self, proc: Process, command) -> None:
        label = proc.name
        if command is None:
            self.call_at(self.now, lambda: self._resume(proc), label)
        elif isinstance(command, Timeout):
            self.call_at(self.now + command.seconds,
                         lambda: self._resume(proc), label)
        elif isinstance(command, Until):
            self.call_at(command.at, lambda: self._resume(proc), label)
        elif isinstance(command, Process):
            if command.done:
                self.call_at(self.now, lambda: self._resume(proc), label)
            else:
                command._waiters.append(proc)
        else:
            raise TypeError(
                f"process {proc.name!r} yielded {command!r}; expected "
                "Timeout, Until, Process, or None")


class TokenBucket:
    """Per-session rate limiter in pure simulated time.

    The classic throttler shape: a bucket holding up to ``burst_bits``
    refills at ``rate_bps`` and every transfer drains its payload from
    it.  A transfer finding the bucket short waits exactly the deficit
    divided by the refill rate — :meth:`consume` returns that wait so
    the caller can delay the transfer's start on the sim timeline.

    All arithmetic is deterministic (no wall clock, no RNG): the same
    request sequence at the same instants always produces the same
    waits.

    Parameters
    ----------
    rate_bps:
        Sustained drain rate in bits per simulated second.
    burst_bits:
        Bucket depth — how many bits may go through instantly after an
        idle period.  Defaults to one second's worth (``rate_bps``).
    """

    def __init__(self, rate_bps: float, burst_bits: float | None = None):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be > 0, got {rate_bps}")
        if burst_bits is not None and burst_bits <= 0:
            raise ValueError(f"burst_bits must be > 0, got {burst_bits}")
        self.rate_bps = float(rate_bps)
        self.burst_bits = float(burst_bits if burst_bits is not None
                                else rate_bps)
        self._tokens = self.burst_bits
        self._updated = 0.0
        #: Total simulated seconds transfers spent waiting on this bucket.
        self.waited_s = 0.0

    def _refill(self, now: float) -> None:
        if now > self._updated:
            self._tokens = min(
                self.burst_bits,
                self._tokens + (now - self._updated) * self.rate_bps)
            self._updated = now

    def consume(self, bits: float, now: float) -> float:
        """Drain ``bits`` at instant ``now``; return the wait in seconds.

        Zero when the bucket holds enough; otherwise the transfer must
        idle ``(bits - tokens) / rate`` seconds while the bucket refills
        (payloads larger than the burst are allowed — they just wait
        proportionally longer).
        """
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        self._refill(now)
        if self._tokens >= bits:
            self._tokens -= bits
            return 0.0
        wait = (bits - self._tokens) / self.rate_bps
        self._tokens = 0.0
        self._updated = now + wait
        self.waited_s += wait
        return wait

"""Fair-share bandwidth pool: one simulated uplink shared by a fleet.

A single :class:`~repro.core.network.SimulatedNetwork` models a dedicated
link per client; a fleet does not get N dedicated links.
:class:`SharedNetworkPool` models one pool of ``bandwidth_bps`` split
fairly among whatever transfers are in flight: a transfer entering the
pool is charged piecewise — while ``k`` transfers overlap it in simulated
time, each progresses at ``bandwidth / k`` — with the share recomputed at
every overlap boundary (a concurrent transfer joining or leaving changes
``k`` from that instant on).

The model is *causal*: a new transfer is slowed by transfers already in
flight, but cannot retroactively slow transfers that already completed in
simulated time (a synchronous ``download()`` must return its duration
immediately).  With a single session the pool degenerates exactly to the
dedicated link — transfers never overlap, every share is the full
bandwidth — which is what the determinism regression tests pin down.

Each session draws a :class:`PooledNetwork` from the pool: a
:class:`SimulatedNetwork` subclass with

- its **own failure RNG stream**, seeded from ``(pool seed, session id)``,
  so the injected failure/latency schedule of a session is bit-identical
  across runs regardless of how the OS interleaves session threads;
- its **own simulated clock** (per-session time domain), offset by the
  session's arrival time when mapped onto the pool timeline;
- optionally its **own token bucket** (``rate_limit_bps``): a per-session
  cap below the pool's fair share, modelled as the classic
  refill-and-drain throttler — a transfer finding the bucket short waits
  out the deficit before joining the pool.

**Data structure and cost.**  The pool keeps the boundaries of the
transfers it has charged — not the transfers — as two sorted lists of
floats, every start and every end still ahead of the watermark.  A
charge walks them merged from its own start, visiting each distinct
boundary once and stopping at the one inside which its payload drains;
the transfers in flight at an instant ``t`` are the ends after ``t``
minus the starts after ``t`` (every transfer has ``start <= end``), two
bisections.  So a charge costs *boundaries crossed* x ``log k`` plus two
``insort`` calls for ``k`` recorded transfers — where the list of
``(start, end)`` pairs this replaced rescanned all ``k`` at each of up to
``2k`` boundaries — and a fleet whose sessions all overlap is quadratic
in its size where it used to be cubic (a ``timing`` guard in
``tests/serve/test_pool_reference.py`` holds the ratio).

**The arithmetic order is part of the contract.**  Durations feed
session clocks, which feed event order, stalls and every fleet number,
so they are defined as the exact doubles of one float sequence: time is
an *offset* from the transfer's start; boundaries are the distinct
values of ``p - start``; occupancy is counted at ``t = start + offset``
(not at ``p``, which that sum does not always reproduce); bits drain
slice by slice in boundary order.  Merging two slices, skipping a
zero-byte transfer's boundary or counting occupancy along the walk
changes roundings, then event order.  ``tests/serve/reference_pool.py``
keeps the pair-list pool as the definition, and ``pool_digests.json``
its recorded bits.

For event-driven fleets the pool also supports **watermark pruning**:
:meth:`SharedNetworkPool.advance_watermark` declares that every future
charge starts at or after a given sim instant, letting the pool drop
every boundary at or before it (two bisections, two prefix deletes) and
so keep at most one entry pair per transfer still in flight.  Pruning
never changes any computed duration: a boundary at or before the
watermark is neither a boundary of, nor after any instant of, a later
charge.
"""

from __future__ import annotations

import threading
from bisect import bisect_right, insort

from ..core.network import NetworkConfig, SimulatedNetwork
from .events import TokenBucket

__all__ = ["SharedNetworkPool", "PooledNetwork"]

#: Multiplier folding a session id into the pool seed; any odd constant
#: large enough to keep per-session RNG streams disjoint works.
_SESSION_SEED_STRIDE = 1000003


class SharedNetworkPool:
    """One bandwidth pool shared by every session of a fleet.

    Parameters
    ----------
    bandwidth_bps:
        Total pool bandwidth in bit/s (``None`` = infinite: transfers are
        instantaneous and the pool only injects latency/failures).
    latency_s / fail_rate / seed:
        Per-session link shape, as in
        :class:`~repro.core.network.NetworkConfig`.  ``seed`` is the fleet
        seed; each session derives its own disjoint RNG stream from it.
    rate_limit_bps:
        Optional per-session token-bucket rate cap in bit/s: each
        session's transfers drain a private
        :class:`~repro.serve.events.TokenBucket` refilling at this rate
        (burst = ``rate_limit_burst_bits``, default one second's worth)
        before joining the fair-share pool.  ``None`` disables the
        limiter entirely — the pre-limiter arithmetic is untouched, so
        existing single-link reductions stay bit-identical.
    """

    def __init__(self, bandwidth_bps: float | None = None,
                 latency_s: float = 0.0, fail_rate: float = 0.0,
                 seed: int = 0, rate_limit_bps: float | None = None,
                 rate_limit_burst_bits: float | None = None):
        # Validation is delegated to NetworkConfig (same error messages).
        NetworkConfig(fail_rate=fail_rate, bandwidth_bps=bandwidth_bps,
                      latency_s=latency_s, seed=seed)
        if rate_limit_bps is not None and rate_limit_bps <= 0:
            raise ValueError(
                f"rate_limit_bps must be > 0 (or None), got {rate_limit_bps}")
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.fail_rate = fail_rate
        self.seed = seed
        self.rate_limit_bps = rate_limit_bps
        self.rate_limit_burst_bits = rate_limit_burst_bits
        self._lock = threading.Lock()
        #: Starts and ends (pool timeline, each list sorted) of the charged
        #: transfers, minus what the watermark pruned.  Boundaries, not
        #: pairs: a transfer is in flight at ``t`` iff its end is after
        #: ``t`` and its start is not, so counting needs no pairing.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._watermark = float("-inf")
        self.peak_concurrency = 0
        self.total_transfers = 0
        #: Total simulated seconds sessions idled in their token buckets.
        self.rate_limit_wait_s = 0.0

    @staticmethod
    def session_seed(seed: int, session_id: int) -> int:
        """The failure-RNG seed of one session (deterministic, disjoint)."""
        return seed * _SESSION_SEED_STRIDE + session_id

    def session(self, session_id: int,
                arrival_s: float = 0.0) -> "PooledNetwork":
        """A per-session network drawing from this pool."""
        config = NetworkConfig(
            fail_rate=self.fail_rate, bandwidth_bps=self.bandwidth_bps,
            latency_s=self.latency_s,
            seed=self.session_seed(self.seed, session_id))
        bucket = (TokenBucket(self.rate_limit_bps,
                              burst_bits=self.rate_limit_burst_bits)
                  if self.rate_limit_bps is not None else None)
        return PooledNetwork(self, session_id, arrival_s, config, bucket)

    # ------------------------------------------------------------- charging

    def advance_watermark(self, now_s: float) -> None:
        """Promise that every future :meth:`charge` starts at or after
        ``now_s``; prune the boundaries at or before it.

        The event-driven fleet calls this as its loop advances (charges
        happen at the loop's ``now`` or later), bounding both lists by
        the active transfer count.  Callers issuing charges out of
        sim-time order must simply not advance the watermark past their
        earliest future start.
        """
        with self._lock:
            if now_s <= self._watermark:
                return
            self._watermark = now_s
            del self._starts[:bisect_right(self._starts, now_s)]
            del self._ends[:bisect_right(self._ends, now_s)]

    def charge(self, start_s: float, n_bytes: int,
               bucket_wait_s: float = 0.0) -> float:
        """Fair-share transfer seconds for ``n_bytes`` starting at
        ``start_s`` on the pool timeline.

        Drains the payload piecewise: between overlap boundaries of the
        transfers already in flight, progress runs at
        ``bandwidth / (1 + overlapping)``; the share is recomputed at each
        boundary (join or leave).  The finalized transfer is recorded so
        later transfers see this one.  ``bucket_wait_s`` is what the
        session idled in its token bucket before ``start_s``; it is only
        added to :attr:`rate_limit_wait_s`.
        """
        with self._lock:
            self.total_transfers += 1
            self.rate_limit_wait_s += bucket_wait_s
            bandwidth = self.bandwidth_bps
            if bandwidth is None:
                return 0.0      # nothing ever reads an infinite pool's record
            starts, ends = self._starts, self._ends
            if n_bytes <= 0:
                # Occupies nothing, but is a boundary for later charges.
                insort(starts, start_s)
                insort(ends, start_s)
                return 0.0
            remaining_bits = 8.0 * n_bytes
            # Time is tracked as an offset from start_s, not absolutely:
            # with no overlap the duration is then computed as exactly
            # ``8 * n_bytes / bandwidth`` with zero float drift, so a
            # single-session pool is bit-identical to a dedicated link.
            elapsed = 0.0
            n_starts, n_ends = len(starts), len(ends)
            # Every instant an already-known transfer joins or leaves the
            # pool after our start is a point where our share changes:
            # i, j are the next start / end to visit as such a boundary,
            # started / ended how many starts / ends are <= t, the start
            # of the current slice.
            started = i = bisect_right(starts, start_s)
            ended = j = bisect_right(ends, start_s)
            peak = self.peak_concurrency
            while True:
                active = (n_ends - ended) - (n_starts - started)
                if active >= peak:
                    peak = active + 1
                share = bandwidth / (1 + active)
                needed = remaining_bits / share
                # The next distinct offset (several transfers can share a
                # boundary, and distinct instants can round to one offset).
                # A start is never after its own end, so the starts run
                # out first and the ends alone say when the walk is over.
                boundary = None
                while j < n_ends:
                    if i < n_starts and starts[i] <= ends[j]:
                        offset = starts[i] - start_s
                        i += 1
                    else:
                        offset = ends[j] - start_s
                        j += 1
                    if offset > elapsed:
                        boundary = offset
                        break
                if boundary is None or elapsed + needed <= boundary:
                    elapsed += needed
                    break
                remaining_bits -= share * (boundary - elapsed)
                elapsed = boundary
                # Counted at the slice start as the sum computes it, which
                # is not always the instant the offset came from.
                t = start_s + elapsed
                started = bisect_right(starts, t, started)
                ended = bisect_right(ends, t, ended)
            self.peak_concurrency = peak
            insort(starts, start_s)
            insort(ends, start_s + elapsed)
            return elapsed


class PooledNetwork(SimulatedNetwork):
    """One session's view of a :class:`SharedNetworkPool`.

    Behaves exactly like a private :class:`SimulatedNetwork` (same retry /
    failure / latency semantics, same per-session simulated clock) except
    that transfer time comes from the pool's fair-share model.  The
    session's position on the shared pool timeline is its arrival offset
    plus its own simulated clock.

    With a ``bucket`` (per-session token-bucket rate limit), a transfer
    first waits out any token deficit, then joins the pool — the
    reported duration is bucket wait plus fair-share drain time.
    """

    def __init__(self, pool: SharedNetworkPool, session_id: int,
                 arrival_s: float, config: NetworkConfig,
                 bucket: TokenBucket | None = None):
        super().__init__(config)
        self.pool = pool
        self.session_id = session_id
        self.arrival_s = float(arrival_s)
        self.bucket = bucket

    def pool_time(self) -> float:
        """This session's current position on the pool timeline."""
        return self.arrival_s + self.clock.now()

    def _transfer_seconds(self, n_bytes: int) -> float:
        # The request's latency has already elapsed by the time bytes
        # start flowing, so the transfer joins the pool after it.
        start = self.pool_time() + self.config.latency_s
        wait = 0.0
        if self.bucket is not None:
            wait = self.bucket.consume(8.0 * n_bytes, start)
        return wait + self.pool.charge(start + wait, n_bytes,
                                       bucket_wait_s=wait)

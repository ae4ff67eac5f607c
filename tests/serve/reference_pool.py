"""The fair-share pool as it was first written: a list of ``(start, end)``
tuples rescanned at every boundary.

These are the ``charge`` / ``advance_watermark`` bodies of
``repro.serve.netpool.SharedNetworkPool`` before it moved onto sorted
boundary lists — quadratic in the number of overlapping transfers, and
the definition of every duration the fleet simulator reports.  The sorted
pool must return the same doubles; ``test_pool_reference.py`` holds it to
that.  Not a second implementation to keep in step: it never changes.
"""


class ReferencePool:
    """Scalar reference of ``SharedNetworkPool``'s charging arithmetic
    (a finite ``bandwidth_bps``; no lock, sessions or token buckets)."""

    def __init__(self, bandwidth_bps: float):
        self.bandwidth_bps = bandwidth_bps
        self._intervals: list[tuple[float, float]] = []
        self._watermark = float("-inf")
        self.peak_concurrency = 0
        self.total_transfers = 0

    def advance_watermark(self, now_s: float) -> None:
        if now_s <= self._watermark:
            return
        self._watermark = now_s
        self._intervals = [iv for iv in self._intervals if iv[1] > now_s]

    def charge(self, start_s: float, n_bytes: int) -> float:
        self.total_transfers += 1
        if n_bytes <= 0:
            self._intervals.append((start_s, start_s))
            return 0.0
        remaining_bits = 8.0 * n_bytes
        elapsed = 0.0
        boundaries = sorted(
            {p - start_s for (s, e) in self._intervals
             for p in (s, e) if p > start_s})
        for boundary in boundaries + [None]:
            t = start_s + elapsed
            active = sum(1 for (s, e) in self._intervals if s <= t < e)
            self.peak_concurrency = max(self.peak_concurrency, active + 1)
            share = self.bandwidth_bps / (1 + active)
            needed = remaining_bits / share
            if boundary is None or elapsed + needed <= boundary:
                elapsed += needed
                break
            remaining_bits -= share * (boundary - elapsed)
            elapsed = boundary
        self._intervals.append((start_s, start_s + elapsed))
        return elapsed

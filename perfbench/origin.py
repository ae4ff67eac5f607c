"""The origin workload: ``DcsrOrigin`` and ``HttpTransport`` in one process
on one asyncio loop over 127.0.0.1.  Loopback only — no real network is
measured, and no codec, SR or fleet code runs.

Phase A is a closed loop: two connections, each sending its next request
when the previous one completes, over a seeded traffic mix of twenty ~5 KB
model fetches to one 4 MiB blob.  The small payload weighs per-request cost
(parse, connect, ETag), the blob weighs the byte path, so a regression on
either side moves the one throughput figure.  Phase B is an open loop: the
small payload at a fixed rate whatever the origin's pace, each request timed
from the instant it was *due*, which exposes the queueing two waiting
clients never build.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core import save_package
from repro.net import DcsrOrigin, HttpTransport
from repro.obs import Observability, span_to_dict

from . import harness, inputs
from .harness import Outcome

NAME = "origin_loopback"
SMALL = "models/model-00.npz"
LARGE = "segments/blob.bin"
LARGE_BYTES = 4 << 20
QUICK_LARGE_BYTES = 256 << 10
CONNECTIONS = 2
#: Requests per mix cycle: ``MIX - 1`` small, one large at a seeded slot.
MIX = 21
OPEN_LOOP_RATE = 600.0          # requests/s, ~30% of closed-loop capacity
#: Share of the measured time the closed loop gets; the open loop's p50
#: settles in far fewer samples than the mixed cycles' rate.
CLOSED_SHARE = 2 / 3
#: Samples per window of ``harness.best_window``: ~0.4 s of closed-loop
#: cycles, 0.25 s of open-loop requests.
CYCLES_PER_WINDOW = 24
LATENCIES_PER_WINDOW = 150


class Loopback:
    """A saved package, an origin serving it, and a transport pointed at
    the origin — all on one private event loop."""

    def __init__(self, root, seed: int, large_bytes: int):
        _clip, package = inputs.build(inputs.SMALL_PACKAGE, seed, NAME)
        save_package(package, root)
        blob = np.random.default_rng(seed).bytes(large_bytes)
        (root / LARGE).write_bytes(blob)
        self.expected = {SMALL: (root / SMALL).read_bytes(), LARGE: blob}
        self.loop = asyncio.new_event_loop()
        self.origin = DcsrOrigin(root)
        self.loop.run_until_complete(self.origin.start())
        self.transport = HttpTransport(self.origin.base_url, loop=self.loop)

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def close(self) -> None:
        self.run(self.origin.stop())
        # One more turn so connection handlers see their EOF and finish.
        self.run(asyncio.sleep(0.01))
        self.loop.close()

    def origin_requests_total(self) -> float:
        counter = self.origin.obs.metrics.counter(
            "dcsr_origin_requests_total")
        return float(sum(counter.series().values()))


@dataclass
class Tally:
    """Outcomes of the requests one phase sent."""

    attempted: int = 0
    failed: int = 0
    non200: int = 0


async def fetch(link: Loopback, path: str, tally: Tally) -> None:
    """One request; a raised error, a non-200 status or a body that is not
    the on-disk file counts as failed."""
    tally.attempted += 1
    try:
        status, _headers, body = await link.transport.request("GET", path)
    except ConnectionError:
        tally.failed += 1
        return
    if status != 200:
        tally.non200 += 1
        tally.failed += 1
    elif body != link.expected[path]:
        tally.failed += 1


def mix_cycles(seed: int, worker: int):
    """Endless seeded request order of one connection, a cycle at a time:
    ``MIX - 1`` small bodies and one large one at a seeded slot."""
    rng = np.random.default_rng([seed, worker])
    while True:
        slot = int(rng.integers(MIX))
        yield [LARGE if i == slot else SMALL for i in range(MIX)]


async def closed_loop(link: Loopback, seed: int, seconds: float):
    """Returns the tally and one requests-per-second sample per completed
    cycle, in completion order.  Whole cycles only, so every sample covers
    the same 20:1 mix."""
    tally = Tally()
    clock = harness.wall()
    stop_at = clock.now() + seconds
    cycles: list[tuple[float, float]] = []      # (end time, requests/s)
    finished: list[float] = []

    async def connection(worker: int):
        for cycle in mix_cycles(seed, worker):
            start = clock.now()
            for path in cycle:
                await fetch(link, path, tally)
            # Both connections are always busy, so while this one did a
            # cycle the origin served CONNECTIONS cycles' worth.
            end = clock.now()
            cycles.append((end, CONNECTIONS * MIX / (end - start)))
            if end >= stop_at:
                finished.append(end)
                return

    await asyncio.gather(*(connection(w) for w in range(CONNECTIONS)))
    # ... except after the first connection stopped: the other one ends its
    # last cycle alone on the loop, so that cycle is not a sample.
    both_busy_until = min(finished)
    return tally, [rate for end, rate in cycles if end <= both_busy_until]


async def open_loop(link: Loopback, rate: float, seconds: float):
    """Send on schedule regardless of completions.  Returns the tally, each
    request's latency from its due time, and how late the generator ran."""
    tally = Tally()
    clock = harness.wall()
    latencies: list[float] = []
    lateness: list[float] = []

    async def one(due: float):
        await fetch(link, SMALL, tally)
        latencies.append(clock.now() - due)

    tasks = []
    start = clock.now() + 0.005
    for i in range(max(1, int(rate * seconds))):
        due = start + i / rate
        wait = due - clock.now()
        if wait > 0:
            await asyncio.sleep(wait)
        lateness.append(max(0.0, clock.now() - due))
        tasks.append(asyncio.ensure_future(one(due)))
    await asyncio.gather(*tasks)
    return tally, latencies, lateness


async def _warm(link: Loopback) -> Tally:
    tally = Tally()
    for path in (SMALL, LARGE) * 3:
        await fetch(link, path, tally)
    return tally


def _absorb(outcome: Outcome, *tallies: Tally) -> None:
    for tally in tallies:
        outcome.attempted += tally.attempted
        outcome.failed += tally.failed
    failed = sum(t.failed for t in tallies)
    outcome.check(failed == 0,
                  f"{failed} origin requests failed (error, non-200, or "
                  "body differs from the file on disk)")


def run_untraced(seed: int, seconds: float, quick: bool) -> Outcome:
    outcome = Outcome()
    large = QUICK_LARGE_BYTES if quick else LARGE_BYTES
    rounds = 1 if quick else harness.SETUP_REPEATS
    closed_s = seconds / rounds * CLOSED_SHARE
    open_s = seconds / rounds - closed_s
    setups, rates, latencies, lateness = [], [], [], []
    requests = {"closed_loop": 0, "open_loop": 0}
    with harness.work_dir() as work:
        roots = (work / f"package-{i}" for i in itertools.count())
        link = None
        try:
            for link, setup_s in harness.setup_rounds(
                    lambda: Loopback(next(roots), seed, large), rounds,
                    dispose=Loopback.close):
                setups.append(setup_s)
                warm = link.run(_warm(link))
                mixed, cycle_rates = link.run(
                    closed_loop(link, seed, closed_s))
                rates += harness.windows_of(cycle_rates, CYCLES_PER_WINDOW)
                paced, round_latencies, late = link.run(
                    open_loop(link, OPEN_LOOP_RATE, open_s))
                latencies += harness.windows_of(
                    [1e3 * s for s in round_latencies], LATENCIES_PER_WINDOW)
                lateness.extend(late)
                requests["closed_loop"] += mixed.attempted
                requests["open_loop"] += paced.attempted
                _absorb(outcome, warm, mixed, paced)
        finally:
            if link is not None:
                link.close()

    outcome.metrics = {
        "throughput_per_s": harness.best_window(rates, float, "higher"),
        "latency_ms_p50": harness.best_window(latencies, float, "lower"),
        "setup_s": min(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    outcome.samples = {"setups": len(setups),
                       "closed_loop_requests": requests["closed_loop"],
                       "open_loop_requests": requests["open_loop"]}
    outcome.notes = {"generator_late_ms_max": 1e3 * max(lateness),
                     "open_loop_rate_per_s": OPEN_LOOP_RATE}
    return outcome


# ----------------------------------------------------------- traced run

async def _sequential(link: Loopback, path: str, seconds: float,
                      min_requests: int, tracer, tally: Tally):
    """One connection at a time, each request under a span (or bare)."""
    clock = harness.wall()
    times = []
    stop_at = clock.now() + seconds
    while len(times) < min_requests or clock.now() < stop_at:
        start = clock.now()
        if tracer is None:
            await fetch(link, path, tally)
        else:
            with tracer.span("net.HttpTransport.request", stage="request",
                             path=path):
                await fetch(link, path, tally)
        times.append(clock.now() - start)
    return times


async def _connects(link: Loopback, count: int, tracer):
    """Open and close a connection without sending a request."""
    clock = harness.wall()
    times = []
    for _ in range(count):
        start = clock.now()
        with tracer.span("net.open_connection", stage="connect"):
            _reader, writer = await asyncio.open_connection(
                link.origin.host, link.origin.port)
            writer.close()
            await writer.wait_closed()
        times.append(clock.now() - start)
    return times


def run_traced(seed: int, seconds: float, quick: bool) -> Outcome:
    outcome = Outcome()
    large = QUICK_LARGE_BYTES if quick else LARGE_BYTES
    obs = Observability(root_name=NAME)
    tally = Tally()
    few = 5 if quick else 50
    with harness.work_dir() as work:
        link = Loopback(work / "package", seed, large)
        try:
            warm = link.run(_warm(link))
            share = seconds * harness.TRACED_MEASURE_SHARE / 5
            cpu0 = harness.cpu_seconds()
            bare = link.run(_sequential(link, SMALL, share, few, None, tally))
            bare_cpu_s = harness.cpu_seconds() - cpu0
            small = link.run(_sequential(link, SMALL, share, few,
                                         obs.tracer, tally))
            big = link.run(_sequential(link, LARGE, share, few // 5,
                                       obs.tracer, tally))
            connects = link.run(_connects(link, few * 4, obs.tracer))
            paced, latencies, lateness = link.run(
                open_loop(link, OPEN_LOOP_RATE, 2 * share))
            served = link.origin_requests_total()
        finally:
            link.close()
    _absorb(outcome, warm, tally, paced)

    m = outcome.metrics
    m["net.connect_ms"] = 1e3 * harness.median(connects)
    m["net.small_req_ms"] = 1e3 * harness.median(small)
    m["net.large_req_ms"] = 1e3 * harness.median(big)
    m["net.large_mb_per_s"] = large / harness.median(big) / 1e6
    m["net.lat_ms_p90"] = 1e3 * harness.percentile(latencies, 0.90)
    m["net.lat_ms_p99"] = 1e3 * harness.percentile(latencies, 0.99)
    m["net.gen_late_ms_max"] = 1e3 * max(lateness)
    m["net.non200"] = warm.non200 + tally.non200 + paced.non200
    m["net.origin_requests_total"] = served
    m["bench.trace_overhead_share"] = \
        harness.median(small) / harness.median(bare) - 1.0
    m["bench.cpu_ms_per_unit"] = 1e3 * bare_cpu_s / len(bare)
    outcome.samples = {"small_requests": len(small),
                       "large_requests": len(big),
                       "connects": len(connects),
                       "open_loop_requests": paced.attempted}
    outcome.spans = span_to_dict(obs.tracer.root)
    return outcome

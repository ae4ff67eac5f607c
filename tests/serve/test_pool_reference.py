"""The fair-share pool held to its first implementation and to recorded bits.

``SharedNetworkPool.charge`` used to rescan a list of ``(start, end)``
tuples at every overlap boundary; it now walks two sorted boundary lists.
Every simulated number a fleet reports hangs off the doubles ``charge``
returns, and no other serve test compares a run with anything but itself,
so this suite is the only place a change in pool arithmetic shows:

- ``reference_pool.ReferencePool`` keeps the old bodies; over 200 seeded
  charge / watermark sequences the pool must return the **same doubles**
  (``==``, never ``approx``) and the same peak concurrency;
- ``pool_digests.json`` was recorded from the tuple-list pool of commit
  2ba9a7d — direct pool drivers (in order with and without the watermark,
  out of order, out of order above a moving watermark, repeated start
  instants, zero-byte payloads, repeated sizes, each at 1 and 50 Mbit/s
  on two seeds) and three fleets (trace mode on the
  ``fleet_contended`` shape with its event history, the same behind token
  buckets, and a playback fleet, whose sessions charge out of sim-time
  order) — and must reproduce exactly;
- the watermark contract: pruning changes no duration, keeps no more
  entries than transfers in flight, and never moves backwards.

The fleet digests depend on the byte trace of a small package built here;
its fingerprint is recorded too, and on a host whose build differs (another
BLAS can move a cluster assignment) those three skip instead of failing.
Regenerate (only for a deliberate change of the pool model) with
``PYTHONPATH=src python -m tests.serve.test_pool_reference``.
"""

import hashlib
import json
import random
import struct
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import ServerConfig, build_package
from repro.features import VaeTrainConfig
from repro.obs import MonotonicClock
from repro.serve import FleetConfig, FleetSimulator, SharedNetworkPool
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig

from .reference_pool import ReferencePool

DIGEST_FILE = Path(__file__).parent / "pool_digests.json"
DIGESTS = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}

BANDWIDTHS = {"1M": 1e6, "50M": 50e6}


# ------------------------------------------------------------ pool drivers
#
# A driver is a seeded list of operations on a pool: ``("charge", start_s,
# n_bytes)`` or ("watermark", now_s).  Arrival gaps are short against a
# transfer at 1 Mbit/s (dozens overlap) and long against one at 50 Mbit/s
# (a few do), so each shape is exercised dense and sparse.

def _size(rng: random.Random) -> int:
    return rng.randrange(200, 40_000)


def in_order(rng, n, watermark=False, size=_size):
    ops, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(400.0)
        if watermark:
            ops.append(("watermark", t))
        ops.append(("charge", t, size(rng)))
    return ops


def in_order_watermark(rng, n):
    return in_order(rng, n, watermark=True)


def out_of_order(rng, n):
    """Starts anywhere in a 20 s window, in no order, never pruned."""
    return [("charge", rng.uniform(0.0, 20.0), _size(rng) * 4)
            for _ in range(n)]


def windowed(rng, n):
    """Out of order inside a sliding window whose lower edge is the
    watermark — the charge order of a playback-mode fleet."""
    ops, low = [], 0.0
    for _ in range(n):
        if rng.random() < 0.2:
            low += rng.uniform(0.0, 0.3)
            ops.append(("watermark", low))
        ops.append(("charge", low + rng.uniform(0.0, 1.0), _size(rng)))
    return ops


def repeated_starts(rng, n):
    """Bursts of transfers at one instant (``arrival="all"``)."""
    ops, t = [], 0.0
    while len(ops) < n:
        t += rng.choice((0.0, 0.25, rng.uniform(0.0, 0.05)))
        ops.append(("watermark", t))
        ops += [("charge", t, _size(rng))
                for _ in range(rng.randrange(1, 9))]
    return ops


def zero_bytes(rng, n):
    """A quarter of the payloads empty: recorded, never occupying."""
    return in_order(rng, n, watermark=True,
                    size=lambda r: 0 if r.random() < 0.25 else _size(r))


def repeated_sizes(rng, n):
    """Three payload sizes on a coarse time grid, so starts, ends and the
    offsets between them collide."""
    ops, t = [], 0.0
    for _ in range(n):
        t += rng.choice((0.0, 0.0, 0.0625, 0.125))
        ops.append(("charge", t, rng.choice((1000, 8000, 8000, 25_000))))
    return ops


SHAPES = {fn.__name__: fn for fn in (
    in_order_watermark, in_order, out_of_order, windowed, repeated_starts,
    zero_bytes, repeated_sizes)}


def drive(pool, ops):
    """Apply ``ops``; the ``(start_s, duration_s)`` of every charge."""
    out = []
    for op in ops:
        if op[0] == "watermark":
            pool.advance_watermark(op[1])
        else:
            out.append((op[1], pool.charge(op[1], op[2])))
    return out


def _sha(*chunks: bytes) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()[:16]


def _doubles(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def pool_digest(pool, charges) -> str:
    """Every charge's start and duration as raw doubles, plus the pool's
    two counters."""
    return _sha(_doubles(x for charge in charges for x in charge),
                struct.pack("<2q", pool.peak_concurrency,
                            pool.total_transfers))


def _driver_cases():
    return [(shape, band, seed) for shape in SHAPES for band in BANDWIDTHS
            for seed in (3, 7)]


def _driver_key(shape, band, seed) -> str:
    return f"pool/{shape}/{band}/seed{seed}"


def _run_driver(shape, band, seed) -> str:
    pool = SharedNetworkPool(bandwidth_bps=BANDWIDTHS[band])
    ops = SHAPES[shape](random.Random(seed), 160)
    return pool_digest(pool, drive(pool, ops))


# ------------------------------------------------------------------ fleets

@lru_cache(maxsize=None)
def _package():
    """The ``benchmarks/test_fleet.py`` package shape: four clusters over
    four 10-frame segments, barely trained (only its bytes matter here)."""
    clip = make_video("pool-digest", "sports", seed=13, size=(48, 64),
                      duration_seconds=4.0, fps=10, n_distinct_scenes=4)
    return build_package(clip, ServerConfig(
        codec=CodecConfig(crf=48), max_segment_len=10, k_override=4,
        vae_train=VaeTrainConfig(epochs=2, batch_size=4),
        sr_train=SrTrainConfig(epochs=2, steps_per_epoch=4, batch_size=4,
                               patch_size=16, lr_decay_epochs=2),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
        validate_in_loop=False, quantize_precisions=()))


def _package_fingerprint() -> str:
    package = _package()
    manifest = package.manifest
    return _sha(repr((
        sorted(manifest.model_sizes.items()),
        [(manifest.model_label_for(i), seg.n_frames, len(seg.payload))
         for i, seg in enumerate(package.encoded.segments)])).encode())


_CONTENDED = dict(sessions=60, mode="trace", arrival="poisson:500.0",
                  bandwidth_bps=1e6, latency_s=0.005, fail_rate=0.02,
                  retries=3, edges=8, cache_admission="second-hit",
                  fallback=True, seed=3)

FLEETS = {
    "fleet/contended": FleetConfig(**_CONTENDED),
    "fleet/rate_limited": FleetConfig(**dict(_CONTENDED,
                                             rate_limit_bps=5e4)),
    "fleet/playback": FleetConfig(sessions=4, mode="playback",
                                  arrival="uniform:0.01",
                                  bandwidth_bps=2e6, latency_s=0.005,
                                  seed=3),
}
#: What each fleet must reach for its digest to say anything about the
#: pool: overlapping transfers (and, behind buckets, actual waiting).
MIN_PEAK_CONCURRENCY = {"fleet/contended": 50, "fleet/rate_limited": 50,
                        "fleet/playback": 4}


def fleet_numbers(sim: FleetSimulator, fleet):
    """Everything simulated a run reports: the event history, each
    session's stall / download seconds, the fleet and pool counters."""
    t = fleet.telemetry
    sessions = [
        (s.session_id, s.start_s, s.result.telemetry.stall_seconds,
         s.result.telemetry.stage_seconds.get("download", 0.0),
         [seg.download_s for seg in s.result.telemetry.segments])
        for s in fleet.completed()]
    return (sim.loop.history, sessions,
            (t.completed, t.events_processed, t.sim_duration_s,
             t.aggregate_goodput_bps, t.mean_session_goodput_bps,
             t.mean_stall_ratio, t.rate_limit_wait_s, t.stall_cdf,
             t.origin_offload, t.cache_hit_rate,
             t.peak_network_concurrency, sim.pool.total_transfers))


def _run_fleet(key):
    """``(digest, telemetry)`` of one run of ``FLEETS[key]``."""
    sim = FleetSimulator(_package(), FLEETS[key])
    fleet = sim.run(trace_events=True)
    # ``repr`` of a float round-trips, so the text pins every bit.
    return (_sha(repr(fleet_numbers(sim, fleet)).encode()), fleet.telemetry)


# -------------------------------------------------------------- the checks

class TestReferenceSweep:
    @pytest.mark.parametrize("block", range(10))
    def test_durations_equal_the_tuple_list_pool(self, block):
        shapes = list(SHAPES)
        for seed in range(20 * block, 20 * block + 20):
            rng = random.Random(1000 + seed)
            bandwidth = rng.choice((3e5, 1e6, 7.7e6, 50e6))
            ops = SHAPES[shapes[seed % len(shapes)]](
                rng, rng.randrange(30, 90))
            pool = SharedNetworkPool(bandwidth_bps=bandwidth)
            reference = ReferencePool(bandwidth)
            assert drive(pool, ops) == drive(reference, ops), seed
            assert pool.peak_concurrency == reference.peak_concurrency, seed
            assert pool.total_transfers == reference.total_transfers, seed

    def test_sweep_reaches_heavy_overlap(self):
        # The sweep above only means something if shares are recomputed
        # at many boundaries: the dense drivers must stack transfers.
        pool = SharedNetworkPool(bandwidth_bps=1e6)
        drive(pool, in_order_watermark(random.Random(3), 160))
        assert pool.peak_concurrency > 50


class TestRecordedDigests:
    @pytest.mark.parametrize("case", _driver_cases(),
                             ids=lambda case: _driver_key(*case))
    def test_pool_driver_reproduces_the_recorded_bits(self, case):
        assert _run_driver(*case) == DIGESTS[_driver_key(*case)]

    @pytest.mark.parametrize("key", list(FLEETS))
    def test_fleet_reproduces_the_recorded_bits(self, key):
        if _package_fingerprint() != DIGESTS.get("package"):
            pytest.skip("this host builds a different package byte trace "
                        "than the one the digests were recorded with")
        digest, telemetry = _run_fleet(key)
        assert digest == DIGESTS[key]
        assert telemetry.peak_network_concurrency \
            >= MIN_PEAK_CONCURRENCY[key]
        assert (telemetry.rate_limit_wait_s > 0.0) \
            == (key == "fleet/rate_limited")

    def test_digest_file_covers_the_cases(self):
        assert set(DIGESTS) == (
            {"package"} | set(FLEETS)
            | {_driver_key(*case) for case in _driver_cases()})


def _kept(pool: SharedNetworkPool) -> int:
    """Entries the pool still holds: the end of every unpruned transfer
    (and the starts of those among them that lie ahead)."""
    assert len(pool._starts) <= len(pool._ends)
    return len(pool._ends)


class TestWatermarkContract:
    """"Pruning never changes any computed duration" (``netpool`` module
    docstring, ``docs/serving.md``), asserted."""

    def _ops(self, seed=11, n=200):
        return in_order_watermark(random.Random(seed), n)

    def test_pruning_changes_no_duration(self):
        ops = self._ops()
        pruned = SharedNetworkPool(bandwidth_bps=1e6)
        kept = SharedNetworkPool(bandwidth_bps=1e6)
        assert drive(pruned, ops) == drive(
            kept, [op for op in ops if op[0] == "charge"])
        assert pruned.peak_concurrency == kept.peak_concurrency > 50

    def test_prune_keeps_only_transfers_in_flight(self):
        pool = SharedNetworkPool(bandwidth_bps=1e6)
        charges = []
        for op in self._ops():
            charges += drive(pool, [op])
            if op[0] == "watermark":
                in_flight = sum(1 for start, duration in charges
                                if start + duration > op[1])
                assert _kept(pool) <= in_flight
        # ...and once everything has drained, nothing is kept at all.
        pool.advance_watermark(max(s + d for s, d in charges))
        assert _kept(pool) == 0

    def test_earlier_watermark_is_a_no_op(self):
        ops = self._ops(n=60)
        pool = SharedNetworkPool(bandwidth_bps=1e6)
        drive(pool, ops)
        now = ops[-1][1]
        live = _kept(pool)
        assert live > 0
        pool.advance_watermark(now - 0.05)      # behind the current one
        pool.advance_watermark(float("-inf"))
        assert _kept(pool) == live
        # A charge at the (unchanged) watermark still sees every live
        # transfer: same duration as on a pool that never heard of them.
        fresh = SharedNetworkPool(bandwidth_bps=1e6)
        drive(fresh, ops)
        assert pool.charge(now, 5000) == fresh.charge(now, 5000)

    def test_infinite_pool_records_nothing(self):
        pool = SharedNetworkPool(bandwidth_bps=None)
        assert [pool.charge(0.1 * i, 1000) for i in range(50)] == [0.0] * 50
        assert pool.total_transfers == 50
        assert _kept(pool) == 0


# ----------------------------------------------------------- scaling guard

def _all_overlapping_seconds(k: int) -> float:
    """Wall seconds to charge ``k`` transfers that all overlap: 1 ms
    apart, 50 kB each at 1 Mbit/s, the watermark advanced every step."""
    pool = SharedNetworkPool(bandwidth_bps=1e6)
    clock = MonotonicClock()
    start = clock.now()
    for i in range(k):
        pool.advance_watermark(0.001 * i)
        pool.charge(0.001 * i, 50_000)
    seconds = clock.now() - start
    assert pool.peak_concurrency == k
    return seconds


@pytest.mark.timing
def test_charge_cost_grows_quadratically_not_cubically():
    # Charge number i crosses ~i boundaries, so k charges cost ~k^2 (16x
    # from k=100 to k=400); the rescanning pool counted occupancy over
    # all i intervals at each of them, ~k^3 (measured 58x).
    small = min(_all_overlapping_seconds(100) for _ in range(3))
    large = min(_all_overlapping_seconds(400) for _ in range(3))
    assert large <= 30 * small, (small, large)


if __name__ == "__main__":
    digests = {"package": _package_fingerprint()}
    digests.update({_driver_key(*case): _run_driver(*case)
                    for case in _driver_cases()})
    digests.update({key: _run_fleet(key)[0] for key in FLEETS})
    Path(sys.argv[1] if len(sys.argv) > 1 else DIGEST_FILE).write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")

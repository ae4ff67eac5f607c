"""Determinism regressions for the fleet substrate.

A fleet run's simulated numbers must be a pure function of (package,
config, seed): per-session failure schedules come from derived RNG
streams, transfer times from the fair-share pool's interval algebra, and
arrivals/admission from seeded sim-time math — never from thread timing.
These tests pin that down:

- same seed ⇒ bit-identical injected failure/latency schedule on a
  :class:`~repro.serve.PooledNetwork`, and an identical
  ``download_with_retry`` backoff sequence under the fair-share pool;
- a single-session pool degenerates exactly to the dedicated
  :class:`~repro.core.network.SimulatedNetwork` link;
- a fleet of one session produces frames bitwise equal to a plain
  :class:`~repro.core.client.DcsrClient` session on its own network.
"""

import numpy as np
import pytest

from repro.core.client import DcsrClient
from repro.core.network import (
    DownloadError,
    NetworkConfig,
    RetryPolicy,
    SimulatedNetwork,
    download_with_retry,
)
from repro.serve import (
    FleetConfig,
    FleetSimulator,
    SharedNetworkPool,
    arrival_times,
)


def _download_trace(network, n=40, n_bytes=5000):
    """(outcome, simulated seconds) of a fixed request sequence."""
    trace = []
    for i in range(n):
        try:
            seconds = network.download("model", i, n_bytes)
            trace.append(("ok", seconds))
        except DownloadError as exc:
            trace.append(("fail", exc.seconds))
    return trace


class TestSeededSchedules:
    def test_same_seed_same_failure_and_latency_schedule(self):
        def make():
            pool = SharedNetworkPool(bandwidth_bps=1e6, latency_s=0.02,
                                     fail_rate=0.3, seed=9)
            return pool.session(3, arrival_s=1.5)

        assert _download_trace(make()) == _download_trace(make())

    def test_different_sessions_draw_disjoint_streams(self):
        pool = SharedNetworkPool(fail_rate=0.5, seed=9)
        t0 = _download_trace(pool.session(0))
        pool2 = SharedNetworkPool(fail_rate=0.5, seed=9)
        t1 = _download_trace(pool2.session(1))
        assert t0 != t1     # astronomically unlikely to collide

    def test_backoff_sequence_identical_under_fair_share_pool(self):
        schedule = [True, True, False] * 10
        retry = RetryPolicy(retries=3, backoff_s=0.05)

        def run(network):
            out = []
            for i in range(10):
                out.append(download_with_retry(network, retry,
                                               "model", i, 4000))
            return out

        pool = SharedNetworkPool(bandwidth_bps=2e6, latency_s=0.01, seed=5)
        pooled = pool.session(0)
        pooled._schedule = list(schedule)
        plain = SimulatedNetwork(
            NetworkConfig(bandwidth_bps=2e6, latency_s=0.01,
                          seed=SharedNetworkPool.session_seed(5, 0)),
            failure_schedule=schedule)
        assert run(pooled) == run(plain)


class TestSingleSessionReduction:
    def test_pool_of_one_equals_dedicated_link(self):
        config = dict(bandwidth_bps=1.5e6, latency_s=0.03, fail_rate=0.25)
        pool = SharedNetworkPool(seed=11, **config)
        pooled = pool.session(0)
        plain = SimulatedNetwork(NetworkConfig(
            seed=SharedNetworkPool.session_seed(11, 0), **config))
        assert _download_trace(pooled) == _download_trace(plain)
        assert pooled.clock.now() == plain.clock.now()

    def test_overlapping_transfers_split_the_pool(self):
        pool = SharedNetworkPool(bandwidth_bps=8e6)
        a = pool.session(0)
        b = pool.session(1)
        # a transfers 1 MB alone: 1s at the full 8 Mbit/s.
        assert a.download("segment", 0, 10 ** 6) == pytest.approx(1.0)
        # b starts at its t=0 too, overlapping a's whole transfer: the
        # first second runs at half rate (4 Mbit/s -> 0.5 MB done), the
        # remaining 0.5 MB drains at full rate in 0.5s.
        assert b.download("segment", 0, 10 ** 6) == pytest.approx(1.5)
        assert pool.peak_concurrency == 2

    def test_sequential_transfers_never_share(self):
        pool = SharedNetworkPool(bandwidth_bps=8e6)
        a = pool.session(0)
        # Same session: its own clock advances between downloads, so the
        # second transfer starts after the first ends — full rate both.
        assert a.download("segment", 0, 10 ** 6) == pytest.approx(1.0)
        assert a.download("segment", 1, 10 ** 6) == pytest.approx(1.0)
        assert pool.peak_concurrency == 1


class TestFleetDeterminism:
    def test_arrival_times_are_seed_deterministic(self):
        config = FleetConfig(sessions=6, arrival="poisson:2.0", seed=3)
        assert arrival_times(config) == arrival_times(config)
        other = FleetConfig(sessions=6, arrival="poisson:2.0", seed=4)
        assert arrival_times(config) != arrival_times(other)
        uniform = FleetConfig(sessions=4, arrival="uniform:0.5")
        assert arrival_times(uniform) == [0.0, 0.5, 1.0, 1.5]

    def test_single_session_fleet_matches_plain_client(self, package):
        config = FleetConfig(sessions=1, bandwidth_bps=2e6, latency_s=0.01,
                             fail_rate=0.2, retries=3, seed=21)
        fleet = FleetSimulator(package, config).run()
        [session] = fleet.completed()

        plain_net = SimulatedNetwork(NetworkConfig(
            fail_rate=0.2, bandwidth_bps=2e6, latency_s=0.01,
            seed=SharedNetworkPool.session_seed(21, 0)))
        plain = DcsrClient(package, network=plain_net,
                           retry=RetryPolicy(retries=3)).play()

        result = session.result
        assert len(result.frames) == len(plain.frames)
        for ours, theirs in zip(result.frames, plain.frames):
            assert np.array_equal(ours, theirs)
        assert result.frame_types == plain.frame_types
        assert result.model_bytes == plain.model_bytes
        assert result.video_bytes == plain.video_bytes
        # Simulated download time (the only clock a result may depend on)
        # must match exactly; stall/decode numbers are wall time and are
        # deliberately not compared across separate runs.
        assert result.telemetry.stage_seconds["download"] == pytest.approx(
            plain.telemetry.stage_seconds["download"], abs=1e-12)

    def test_same_seed_same_fleet_numbers(self, package):
        # fail_rate stays 0 here: with failures, *which* session performs
        # a single-flight model fetch shifts that session's RNG stream, so
        # only failure-free multi-session runs promise identical bytes.
        config = FleetConfig(sessions=3, arrival="poisson:1.0",
                             bandwidth_bps=2e6, seed=13)

        def run():
            t = FleetSimulator(package, config).run().telemetry
            return (t.completed, t.cache_downloads, t.total_model_bytes,
                    t.total_video_bytes)

        assert run() == run()


class TestEventDrivenDeterminism:
    """The discrete-event rewrite's promises: bit-identical event order
    and telemetry for a given (package, config, seed), in both modes."""

    def _trace_config(self, **overrides):
        base = dict(sessions=8, mode="trace", arrival="poisson:4.0",
                    bandwidth_bps=2e6, latency_s=0.01, fail_rate=0.1,
                    retries=3, edges=2, fallback=True, seed=5)
        base.update(overrides)
        return FleetConfig(**base)

    def test_same_seed_same_event_history(self, package):
        def history():
            sim = FleetSimulator(package, self._trace_config())
            sim.run(trace_events=True)
            return sim.loop.history

        first, second = history(), history()
        assert first == second                  # bitwise: (time, seq, label)
        assert len(first) > 8                   # sessions actually interleaved

    def test_different_seed_different_event_history(self, package):
        def history(seed):
            sim = FleetSimulator(package, self._trace_config(seed=seed))
            sim.run(trace_events=True)
            return sim.loop.history

        assert history(5) != history(6)

    def test_same_seed_same_trace_telemetry(self, package):
        def numbers():
            fleet = FleetSimulator(package, self._trace_config()).run()
            t = fleet.telemetry
            per_session = [
                (s.session_id, s.result.telemetry.stall_seconds,
                 s.result.telemetry.stage_seconds["download"],
                 s.result.model_bytes, s.result.video_bytes)
                for s in fleet.completed()]
            return (t.events_processed, t.sim_duration_s,
                    t.aggregate_goodput_bps, t.origin_offload,
                    t.rate_limit_wait_s, per_session)

        assert numbers() == numbers()

    def test_trace_mode_matches_playback_simulated_bytes(self, package):
        # Trace sessions replay the same manifest through the same cache
        # and pool, so fleet-level byte accounting must agree with full
        # playback exactly; only compute-derived numbers may differ.
        config = dict(sessions=3, arrival="uniform:1.0",
                      bandwidth_bps=4e6, seed=9)
        play = FleetSimulator(package,
                              FleetConfig(mode="playback", **config)).run()
        trace = FleetSimulator(package,
                               FleetConfig(mode="trace", **config)).run()
        assert trace.telemetry.total_model_bytes == \
            play.telemetry.total_model_bytes
        assert trace.telemetry.total_video_bytes == \
            play.telemetry.total_video_bytes
        assert trace.telemetry.cache_downloads == \
            play.telemetry.cache_downloads
        assert trace.telemetry.cache_hit_rate == \
            play.telemetry.cache_hit_rate

        # The mirror is gone: a trace session *is* the client's fetch
        # stage with a null decode stage, so on a lossy link with
        # fallback a one-session fleet degrades segment for segment the
        # same way in both modes, down to the simulated download seconds.
        lossy = dict(sessions=1, bandwidth_bps=2e6, latency_s=0.01,
                     fail_rate=0.45, retries=1, fallback=True, seed=9)
        play, trace = (
            FleetSimulator(package, FleetConfig(mode=mode, **lossy)
                           ).run().completed()[0].result
            for mode in ("playback", "trace"))

        def rows(result):
            return [(s.index, s.status, s.download_attempts, s.download_s)
                    for s in result.telemetry.segments]

        assert rows(trace) == rows(play)
        assert {"fallback", "concealed"} \
            <= {status for _, status, _, _ in rows(play)}
        assert trace.skipped_segments == play.skipped_segments
        assert trace.fallback_segments == play.fallback_segments
        assert (trace.model_bytes, trace.video_bytes) \
            == (play.model_bytes, play.video_bytes)

    def test_trace_sessions_carry_simulated_clock_spans(self, package):
        sim = FleetSimulator(package, self._trace_config(sessions=2))
        fleet = sim.run()
        spans = [s for s in fleet.obs.tracer.root.children
                 if s.name == "session"]
        assert sorted(s.attrs["session"] for s in spans) == [0, 1]
        assert all(s.attrs["clock"] == "simulated" for s in spans)

    def test_rate_limited_fleet_is_deterministic_and_slower(self, package):
        fast = FleetSimulator(
            package, self._trace_config(fail_rate=0.0)).run()
        # Rate + burst sized well below one segment's bits, so every
        # transfer genuinely waits on its bucket.
        limited_config = self._trace_config(fail_rate=0.0,
                                            rate_limit_bps=2e4)

        def stalls():
            fleet = FleetSimulator(package, limited_config).run()
            return ([s.result.telemetry.stall_seconds
                     for s in fleet.completed()],
                    fleet.telemetry.rate_limit_wait_s)

        first, second = stalls(), stalls()
        assert first == second
        assert first[1] > 0.0                   # buckets actually throttled
        assert sum(first[0]) > sum(
            s.result.telemetry.stall_seconds for s in fast.completed())

    def test_second_run_on_one_simulator_repeats_the_first(self, package):
        # Pool and cache hierarchy are state of a run, like the loop: a
        # second run() must not be charged against the first run's
        # transfers or find its models already at the edges.
        sim = FleetSimulator(package, self._trace_config(
            sessions=40, arrival="poisson:500.0", bandwidth_bps=1e6,
            latency_s=0.005, fail_rate=0.02, edges=8,
            cache_admission="second-hit", seed=3))

        def run():
            fleet = sim.run(trace_events=True)
            return (sim.loop.history, fleet.telemetry,
                    sim.pool.total_transfers)

        first, second = run(), run()
        assert first == second
        assert first[1].peak_network_concurrency > 20


@pytest.mark.tier2
class TestFleetScale:
    def test_thousand_session_trace_fleet(self, package):
        config = FleetConfig(sessions=1000, mode="trace",
                             arrival="poisson:50.0", bandwidth_bps=1e8,
                             latency_s=0.005, fail_rate=0.02, retries=3,
                             edges=8, cache_admission="second-hit",
                             fallback=True, seed=42)
        fleet = FleetSimulator(package, config).run()
        t = fleet.telemetry
        assert t.completed == 1000
        assert t.events_processed >= 1000
        # A warm fleet this size keeps nearly every request off origin
        # storage; the exact value is seed-dependent, the floor is not.
        assert t.origin_offload > 0.9
        assert t.stall_cdf[-1][1] == 1.0
        assert all(s.result.telemetry.stage_seconds["download"] > 0
                   for s in fleet.completed())

    def test_eight_hundred_contended_sessions(self, package):
        # The fleet_contended shape at the size its issue asked for: every
        # session overlaps every other on a 1 Mbit/s uplink.  Seconds with
        # the sorted pool; the rescanning pool took most of a minute.
        config = FleetConfig(sessions=800, mode="trace",
                             arrival="poisson:500.0", bandwidth_bps=1e6,
                             latency_s=0.005, fail_rate=0.02, retries=3,
                             edges=8, cache_admission="second-hit",
                             fallback=True, seed=3)
        t = FleetSimulator(package, config).run().telemetry
        assert t.completed == 800
        assert t.peak_network_concurrency >= 500

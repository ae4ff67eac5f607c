"""Deterministic event-loop core: ordering, processes, token buckets."""

import pytest

from repro.serve.events import EventLoop, Timeout, TokenBucket, Until


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.call_at(2.0, lambda: seen.append("b"))
        loop.call_at(1.0, lambda: seen.append("a"))
        loop.call_at(3.0, lambda: seen.append("c"))
        end = loop.run()
        assert seen == ["a", "b", "c"]
        assert end == 3.0
        assert loop.events_processed == 3

    def test_same_instant_ties_break_by_schedule_order(self):
        # The determinism anchor: simultaneous events fire in the exact
        # order they were scheduled, never by hash or insertion luck.
        loop = EventLoop()
        seen = []
        for i in range(50):
            loop.call_at(1.0, lambda i=i: seen.append(i))
        loop.run()
        assert seen == list(range(50))

    def test_past_instants_clamp_to_now(self):
        loop = EventLoop()
        seen = []
        loop.call_at(5.0, lambda: loop.call_at(1.0, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [5.0]        # never travels backwards

    def test_run_until_leaves_later_events_queued(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: seen.append(1))
        loop.call_at(10.0, lambda: seen.append(10))
        loop.run(until=5.0)
        assert seen == [1]
        loop.run()
        assert seen == [1, 10]

    def test_timeout_and_until_advance_process(self):
        loop = EventLoop()
        trace = []

        def proc():
            now = yield Timeout(1.5)
            trace.append(now)
            now = yield Until(10.0)
            trace.append(now)
            now = yield Until(3.0)      # in the past: clamps to now
            trace.append(now)
            return "done"

        p = loop.spawn(proc())
        loop.run()
        assert trace == [1.5, 10.0, 10.0]
        assert p.done and p.result == "done"

    def test_yield_none_reschedules_at_now(self):
        loop = EventLoop()
        trace = []

        def proc():
            trace.append("first")
            now = yield
            trace.append(now)

        loop.spawn(proc(), at=2.0)
        loop.run()
        assert trace == ["first", 2.0]

    def test_joining_a_process_waits_for_it(self):
        loop = EventLoop()
        trace = []

        def worker():
            yield Timeout(5.0)
            return 42

        def waiter(w):
            yield w
            trace.append((loop.now, w.result))

        w = loop.spawn(worker())
        loop.spawn(waiter(w))
        loop.run()
        assert trace == [(5.0, 42)]

    def test_joining_a_finished_process_resumes_immediately(self):
        loop = EventLoop()
        trace = []

        def worker():
            return 7
            yield  # pragma: no cover - makes this a generator

        def waiter(w):
            yield Timeout(3.0)
            yield w
            trace.append((loop.now, w.result))

        w = loop.spawn(worker())
        loop.spawn(waiter(w))
        loop.run()
        assert trace == [(3.0, 7)]

    def test_bad_yield_value_raises(self):
        loop = EventLoop()

        def proc():
            yield "not a command"

        loop.spawn(proc())
        with pytest.raises(TypeError, match="yielded"):
            loop.run()

    def test_timeout_rejects_negative(self):
        with pytest.raises(ValueError, match="Timeout"):
            Timeout(-0.1)

    def test_trace_history_is_reproducible(self):
        def build():
            loop = EventLoop(trace=True)

            def proc(name, delay):
                yield Timeout(delay)
                yield Timeout(delay)

            for i, d in enumerate([0.5, 0.25, 0.5]):
                loop.spawn(proc(f"p{i}", d), name=f"p{i}")
            loop.run()
            return loop.history

        first, second = build(), build()
        assert first == second
        assert len(first) > 0

    def test_untrace_loop_keeps_no_history(self):
        loop = EventLoop()
        loop.call_at(1.0, lambda: None)
        loop.run()
        assert loop.history is None


class TestTokenBucket:
    def test_full_bucket_grants_instantly(self):
        bucket = TokenBucket(rate_bps=1000.0)
        assert bucket.consume(1000.0, now=0.0) == 0.0
        assert bucket.waited_s == 0.0

    def test_deficit_waits_exactly_refill_time(self):
        bucket = TokenBucket(rate_bps=1000.0, burst_bits=1000.0)
        bucket.consume(1000.0, now=0.0)             # drain the burst
        wait = bucket.consume(500.0, now=0.0)       # empty: wait 500/1000
        assert wait == pytest.approx(0.5)
        assert bucket.waited_s == pytest.approx(0.5)

    def test_refills_at_rate_while_idle(self):
        bucket = TokenBucket(rate_bps=1000.0, burst_bits=1000.0)
        bucket.consume(1000.0, now=0.0)
        assert bucket.consume(250.0, now=0.25) == 0.0   # refilled 250
        assert bucket.consume(1.0, now=0.25) == pytest.approx(1e-3)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_bps=1000.0, burst_bits=100.0)
        assert bucket.consume(100.0, now=1e6) == 0.0
        assert bucket.consume(1.0, now=1e6) == pytest.approx(1e-3)

    def test_oversized_payload_allowed_with_proportional_wait(self):
        # A payload larger than the burst still goes through: it just
        # waits out the whole deficit (burst only shaves the first chunk).
        bucket = TokenBucket(rate_bps=1000.0, burst_bits=100.0)
        wait = bucket.consume(1100.0, now=0.0)
        assert wait == pytest.approx(1.0)           # (1100 - 100) / 1000

    def test_sustained_rate_converges_to_rate_bps(self):
        # Long-run throughput equals the configured rate: N back-to-back
        # payloads take (total_bits - burst) / rate seconds of waiting.
        bucket = TokenBucket(rate_bps=8000.0, burst_bits=8000.0)
        t = 0.0
        for _ in range(100):
            t += bucket.consume(8000.0, now=t)
        total_bits = 100 * 8000.0
        assert t == pytest.approx((total_bits - 8000.0) / 8000.0)

    def test_deterministic_sequence(self):
        def run():
            bucket = TokenBucket(rate_bps=2500.0, burst_bits=4000.0)
            waits, t = [], 0.0
            for bits in [1000.0, 5000.0, 300.0, 7000.0, 50.0]:
                w = bucket.consume(bits, now=t)
                waits.append(w)
                t += w + 0.125
            return waits

        assert run() == run()

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_bps"):
            TokenBucket(rate_bps=0.0)
        with pytest.raises(ValueError, match="burst_bits"):
            TokenBucket(rate_bps=1.0, burst_bits=-5.0)
        with pytest.raises(ValueError, match="bits"):
            TokenBucket(rate_bps=1.0).consume(-1.0, now=0.0)

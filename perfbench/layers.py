"""Single-layer measurements made by calling a layer's public functions
directly — the rows that no end-to-end session can isolate.

Each function returns ``{metric name: value}``.  GFLOP/s figures are
operation counts divided by wall time, not hardware counters.
"""

from __future__ import annotations

import numpy as np

from repro.core import ModelCache, NetworkConfig, SimulatedNetwork
from repro.nn import functional as F
from repro.serve import EventLoop, Timeout
from repro.sr import InferenceEngine
from repro.video import fixed_length_segments
from repro.video.codec import CodecConfig, Decoder, Encoder
from repro.video.sampling import downscale, upscale

from . import harness


def _median_seconds(fn, repeats: int) -> float:
    """Median wall seconds of ``fn()`` after one untimed call."""
    clock = harness.wall()
    fn()
    times = []
    for _ in range(repeats):
        start = clock.now()
        fn()
        times.append(clock.now() - start)
    return harness.median(times)


def conv_kernels(size: tuple[int, int], channels: int = 8,
                 repeats: int = 5) -> dict[str, float]:
    """The SR engine's two conv kernels on one 3x3 ``channels -> channels``
    activation of the frame size, against a measured sgemm ceiling."""
    h, w = size
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, h, w, channels), dtype=np.float32)
    weight = rng.standard_normal((channels, channels, 3, 3),
                                 dtype=np.float32)
    packed = F.pack_conv_weight(weight, np.zeros(channels, np.float32))
    flops = 2.0 * channels * 9 * channels * h * w

    shift = flops / _median_seconds(
        lambda: F.conv2d_shift_nhwc(x, packed, relu=True), repeats) / 1e9
    blocked = flops / _median_seconds(
        lambda: F.conv2d_im2col_nhwc(x, packed, relu=True), repeats) / 1e9

    n = 1024 if h * w >= 352 * 640 else 256
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    out = np.empty((n, n), dtype=np.float32)
    peak = 2.0 * n ** 3 / _median_seconds(
        lambda: np.matmul(a, b, out=out), repeats) / 1e9
    return {"nn.conv_shift_gflops": shift,
            "nn.conv_blocked_gflops": blocked,
            "nn.gemm_peak_gflops": peak,
            "nn.shift_share_of_peak": shift / peak}


def static_sequence_fps(model, base_frame: np.ndarray, n_frames: int = 16,
                        patch: int = 48) -> float:
    """The engine alone over a static-background sequence with a small
    moving patch — the ``benchmarks/test_sr_inference.py`` recipe: int8,
    128-pixel tiles, variance gate, exact reuse.

    This is the only place the temporal reuse cache hits: inside a client
    session SR runs once per GOP and the cache resets at every segment.
    """
    h, w = base_frame.shape[:2]
    patch = min(patch, h // 2, w // 4)
    step = max(1, (w - 2 * patch) // n_frames)
    rng = np.random.default_rng(10)
    texture = rng.random((patch, patch, 3), dtype=np.float32)
    frames = []
    for i in range(n_frames):
        frame = base_frame.copy()
        x0 = patch // 2 + i * step
        frame[patch // 2:patch // 2 + patch, x0:x0 + patch] = texture
        frames.append(upscale(downscale(frame, 2), 2))
    engine = InferenceEngine(model, tile=128, precision="int8",
                             skip_gate=1e-3, reuse=True)

    def one_pass():
        engine.reset_reuse()
        for frame in frames:
            engine.enhance(frame)

    return n_frames / _median_seconds(one_pass, repeats=2)


def decode_by_type(frames: np.ndarray, crf: int) -> dict[str, float]:
    """Decode cost per frame type, hook-less.

    The first one, two and three frames are encoded as I, I P and I B P;
    each stream's decode time is the fastest of three (interference only
    ever adds time, and these rows are differences of times), and each
    longer stream adds exactly one frame of the next type.  Encoding is
    what makes this the traced run's most expensive row, hence so few
    frames.
    """
    clock = harness.wall()

    def decode_ms(expected: str, **codec):
        n = len(expected)
        encoded = Encoder(CodecConfig(crf=crf, **codec)).encode(
            frames[:n], fixed_length_segments(n, n), fps=10.0)
        types = "".join(encoded.frame_types())
        if types != expected:
            raise RuntimeError(f"GOP plan gave {types}, the per-type solve "
                               f"assumes {expected}")
        times = []
        for _ in range(3):
            start = clock.now()
            Decoder().decode_video(encoded)
            times.append(clock.now() - start)
        return 1e3 * min(times)

    i_only = decode_ms("I")
    i_p = decode_ms("IP", n_b_frames=0)
    i_b_p = decode_ms("IBP")
    return {"codec.decode_i_ms": i_only, "codec.decode_p_ms": i_p - i_only,
            "codec.decode_b_ms": i_b_p - i_p}


def cache_get_hit_us(calls: int = 20000) -> float:
    """One ``ModelCache.get`` on a cached label."""
    cache = ModelCache(fetch=lambda label: label)
    cache.get(0)
    clock = harness.wall()
    start = clock.now()
    for _ in range(calls):
        cache.get(0)
    return (clock.now() - start) / calls * 1e6


def network_download_call_us(calls: int = 20000) -> float:
    """Wall cost of one ``SimulatedNetwork.download`` call (the simulated
    seconds it returns are a different quantity)."""
    network = SimulatedNetwork(NetworkConfig(bandwidth_bps=2e6,
                                             latency_s=0.02))
    clock = harness.wall()
    start = clock.now()
    for _ in range(calls):
        network.download("segment", 0, 10000)
    return (clock.now() - start) / calls * 1e6


def bare_loop_events_per_s(processes: int = 20000) -> float:
    """``EventLoop`` alone: each process yields one ``Timeout``."""
    def sleeper(delay):
        yield Timeout(delay)

    loop = EventLoop()
    for i in range(processes):
        loop.spawn(sleeper(0.001 * (i % 97)))
    clock = harness.wall()
    start = clock.now()
    loop.run()
    return loop.events_processed / (clock.now() - start)

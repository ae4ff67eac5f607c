"""Client SR inference: reference forward vs the tiled NHWC fast path.

The paper's client-side feasibility argument rests on micro-model
inference being cheap; this benchmark quantifies the repo's inference
engine against the training framework's reference forward — FPS by frame
size, tiled vs whole-frame, and thread scaling — and enforces the ISSUE's
acceptance bar: >= 3x single-thread speedup at 360p with <= 1e-5 max abs
difference.

Accuracy is measured on a *briefly trained* model: training shrinks
weight magnitudes from their He-init extremes, which is the regime the
client actually runs (He-init models can show ~2e-5 reassociation noise;
trained ones sit orders of magnitude below the 1e-5 bar).
"""

import functools
import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.bench import load_results, print_table, save_results
from repro.sr import (
    EDSR,
    EdsrConfig,
    InferenceEngine,
    SrTrainConfig,
    train_sr,
)
from repro.video import make_video

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

SIZES = [(180, 320, "180p"), (360, 640, "360p")] if FAST else \
    [(180, 320, "180p"), (270, 480, "270p"), (360, 640, "360p"),
     (540, 960, "540p")]
THREADS = (1, 2, 4)
TILE = 96


def _trained_model():
    """A dcSR-sized micro model briefly trained on synthetic content."""
    clip = make_video("inference-bench", genre="music", seed=5,
                      size=(48, 64), duration_seconds=2.0, fps=10,
                      n_distinct_scenes=1)
    model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8), seed=0)
    train_sr(model, clip.frames, clip.frames,
             SrTrainConfig(epochs=2 if FAST else 4, steps_per_epoch=10,
                           batch_size=8, patch_size=16, lr_decay_epochs=2))
    return model


def _reference_enhance(model, frame):
    """The NCHW oracle: the training forward on one transposed frame,
    clipped as the engine clips (``tests/sr/reference_forward.py``)."""
    out = model.forward(frame.transpose(2, 0, 1)[None])[0].transpose(1, 2, 0)
    return np.clip(out, 0.0, 1.0)


def _fps(fn, frame, repeats):
    best = min(_timed(fn, frame) for _ in range(repeats))
    return 1.0 / max(best, 1e-9)


def _timed(fn, frame):
    t0 = time.perf_counter()
    fn(frame)
    return time.perf_counter() - t0


def test_sr_inference_fast_path(benchmark):
    model = _trained_model()
    repeats = 2 if FAST else 3

    def experiment():
        rows = []
        accuracy = {}
        for h, w, label in SIZES:
            frame = np.random.default_rng(h).random((h, w, 3),
                                                    dtype=np.float32)
            reference = functools.partial(_reference_enhance, model)
            ref = reference(frame)
            ref_fps = _fps(reference, frame, repeats)
            whole = InferenceEngine(model)
            whole_out = whole.enhance(frame)
            whole_fps = _fps(whole.enhance, frame, repeats)
            accuracy[label] = float(np.abs(whole_out - ref).max())
            row = [label, ref_fps, whole_fps]
            for threads in THREADS:
                engine = InferenceEngine(model, tile=TILE, threads=threads)
                tiled_out = engine.enhance(frame)
                assert np.abs(tiled_out - whole_out).max() <= 1e-5
                row.append(_fps(engine.enhance, frame, repeats))
            row.append(whole_fps / ref_fps)
            rows.append(row)
        return rows, accuracy

    rows, accuracy = run_once(benchmark, experiment)

    headers = ["size", "ref FPS", "fast FPS"] + \
        [f"tiled x{t}" for t in THREADS] + ["speedup"]
    print_table("SR inference: reference vs fast path "
                f"(tile={TILE}px)", headers, rows)

    by_size = {row[0]: {"ref_fps": row[1], "fast_fps": row[2],
                        "tiled_fps": dict(zip(map(str, THREADS),
                                              row[3:3 + len(THREADS)])),
                        "speedup": row[-1],
                        "max_abs_diff": accuracy[row[0]]}
               for row in rows}
    save_results("sr_inference", {
        "model": model.config.label,
        "tile": TILE,
        "threads": list(THREADS),
        "by_size": by_size,
    })

    # The ISSUE's acceptance bar, at 360p single-thread whole-frame.
    p360 = by_size["360p"]
    assert p360["speedup"] >= 3.0, p360
    assert p360["max_abs_diff"] <= 1e-5, p360
    # Fast path must win everywhere, not just at the acceptance point.
    for label, entry in by_size.items():
        assert entry["fast_fps"] >= entry["ref_fps"], (label, entry)


GATE_TILE = 128
GATE_THRESHOLD = 1e-3


def test_sr_quantized_gated_fast_path(benchmark):
    """PR-7 fast-path knobs on *realistic* content at 360p-class frames.

    The legacy table above times noise frames, where the variance gate
    can never fire.  This section measures what a client actually plays:
    synthetic music-genre content at (352, 640) — the nearest
    multiple-of-16 frame to 360p — with the low-quality input produced
    by a bicubic down/up round trip, the degradation the micro models
    are trained to invert.

    A reduced precision is a download format: the engine dequantizes the
    fp16/int8 weights once and runs the fp32 kernels, so its win is the
    smaller model download, not speed.  The measured speedup comes from
    the variance skip gate and multi-frame batching, so the acceptance
    assertion (>= 1.5x over the fp32 whole-frame fast path) is pinned to
    the gated int8 row.
    """
    from repro.video.quality import psnr
    from repro.video.sampling import downscale, upscale

    model = _trained_model()
    repeats = 2 if FAST else 3
    clip = make_video("quant-bench", genre="music", seed=7,
                      size=(352, 640), duration_seconds=0.4, fps=10,
                      n_distinct_scenes=1)
    hr = np.stack(clip.frames[:4])
    lq = np.stack([upscale(downscale(f, 2), 2) for f in hr])
    frame, pristine = lq[0], hr[0]

    def experiment():
        plain = InferenceEngine(model)
        base_out = plain.enhance(frame)
        base_fps = _fps(plain.enhance, frame, repeats)
        base_psnr = psnr(base_out, pristine)

        rows, quality = [], {}
        rows.append(["fp32 whole", base_fps, 1.0])
        for precision in ("fp16", "int8"):
            engine = InferenceEngine(model, precision=precision)
            out = engine.enhance(frame)
            quality[precision] = {
                "psnr": float(psnr(out, pristine)),
                "delta_db": float(psnr(out, pristine) - base_psnr),
            }
            fps = _fps(engine.enhance, frame, repeats)
            rows.append([f"{precision} whole", fps, fps / base_fps])

        gated32 = InferenceEngine(model, tile=GATE_TILE,
                                  skip_gate=GATE_THRESHOLD)
        gated32.enhance(frame)
        skip_ratio = gated32.stats.skipped_tiles / max(
            gated32.stats.skipped_tiles + gated32.stats.tile_count, 1)
        fps = _fps(gated32.enhance, frame, repeats)
        rows.append(["fp32 gated t128", fps, fps / base_fps])

        gated8 = InferenceEngine(model, tile=GATE_TILE,
                                 skip_gate=GATE_THRESHOLD, precision="int8")
        gated8_out = gated8.enhance(frame)
        quality["int8_gated"] = {
            "psnr": float(psnr(gated8_out, pristine)),
            "delta_db": float(psnr(gated8_out, pristine) - base_psnr),
        }
        fps = _fps(gated8.enhance, frame, repeats)
        rows.append(["int8 gated t128", fps, fps / base_fps])

        batch_engine = InferenceEngine(model, tile=GATE_TILE,
                                       skip_gate=GATE_THRESHOLD,
                                       precision="int8")
        batch_s = min(_timed(batch_engine.enhance_batch, lq)
                      for _ in range(repeats))
        fps = len(lq) / max(batch_s, 1e-9)
        rows.append(["int8 gated batch-4", fps, fps / base_fps])

        # Both knobs off is the plain fast path, bit for bit.
        off = InferenceEngine(model, precision="fp32", skip_gate=None)
        bitwise_off = bool(np.array_equal(off.enhance(frame), base_out))
        return rows, quality, skip_ratio, bitwise_off

    rows, quality, skip_ratio, bitwise_off = run_once(benchmark, experiment)

    print_table("SR inference: quantized / gated fast path "
                f"(352x640 music content, gate var>={GATE_THRESHOLD})",
                ["variant", "FPS", "speedup vs fp32 whole"], rows)

    results = dict(load_results("sr_inference") or {})
    results["quantized_gated"] = {
        "frame_size": [352, 640],
        "content": "music (bicubic down/up x2 degradation)",
        "gate": {"tile": GATE_TILE, "var_threshold": GATE_THRESHOLD,
                 "skip_ratio": float(skip_ratio)},
        "rows": [{"variant": r[0], "fps": r[1], "speedup": r[2]}
                 for r in rows],
        "quality": quality,
        "bitwise_identical_when_off": bitwise_off,
    }
    save_results("sr_inference", results)

    assert bitwise_off, "precision='fp32' + no gate must be a no-op"
    # Quantization noise is budgeted both ways; the gate intentionally
    # substitutes bicubic on flat tiles (which can *gain* PSNR when the
    # model underperforms there), so it is only bounded against loss.
    for precision in ("fp16", "int8"):
        assert abs(quality[precision]["delta_db"]) <= 0.3, quality
    assert quality["int8_gated"]["delta_db"] >= -0.3, quality
    by_variant = {r[0]: r[2] for r in rows}
    assert by_variant["int8 gated t128"] >= 1.5, by_variant
    assert skip_ratio > 0.2, skip_ratio


REUSE_FRAMES = 16
PATCH = 48          # moving-patch edge: touches ~2 of the 15 gate tiles


def _static_background_sequence():
    """The paper's real-time target content: a 352x640 session whose
    background is static frame to frame while a small patch moves.

    The low-quality inputs come from the same bicubic down/up x2 round
    trip as the quantized benchmark; because the degradation is
    deterministic and local, static background pixels are *bitwise*
    static in the LQ sequence too — exactly what exact-mode reuse keys
    on in a real decode loop.
    """
    from repro.video.sampling import downscale, upscale

    clip = make_video("reuse-bench", genre="music", seed=9,
                      size=(352, 640), duration_seconds=0.2, fps=10,
                      n_distinct_scenes=1)
    base = np.stack(clip.frames[:1])[0]
    rng = np.random.default_rng(10)
    patch = rng.random((PATCH, PATCH, 3), dtype=np.float32)
    hr = []
    for i in range(REUSE_FRAMES):
        frame = base.copy()
        y, x = 64, 64 + i * 24                     # drifts right each frame
        frame[y:y + PATCH, x:x + PATCH] = patch
        hr.append(frame)
    hr = np.stack(hr)
    lq = np.stack([upscale(downscale(f, 2), 2) for f in hr])
    return lq, hr


def _sequence_fps(engine, frames, repeats):
    """FPS over a session-shaped pass: sequential frames, cache reset
    between passes so every repeat pays the first frame's full compute."""
    def one_pass():
        if getattr(engine, "reuse_cache", None) is not None:
            engine.reset_reuse()
        t0 = time.perf_counter()
        for frame in frames:
            engine.enhance(frame)
        return time.perf_counter() - t0

    best = min(one_pass() for _ in range(repeats))
    return len(frames) / max(best, 1e-9)


def test_sr_temporal_reuse_fast_path(benchmark):
    """The ISSUE's real-time ladder on static-background content:
    fp32 whole -> int8 gated -> + exact temporal reuse -> + blocked GEMM,
    with the acceptance bar (>= 30 FPS single-thread) pinned to the
    reuse rows."""
    from repro.video.quality import psnr

    model = _trained_model()
    repeats = 2 if FAST else 3
    lq, hr = _static_background_sequence()

    def experiment():
        plain = InferenceEngine(model)
        base_fps = _sequence_fps(plain, lq, repeats)
        rows = [["fp32 whole", base_fps, 1.0]]

        gated8 = InferenceEngine(model, tile=GATE_TILE,
                                 skip_gate=GATE_THRESHOLD, precision="int8")
        exact_out = np.stack([gated8.enhance(f) for f in lq])
        psnr_exact = float(psnr(exact_out, hr))
        fps = _sequence_fps(gated8, lq, repeats)
        rows.append(["int8 gated t128", fps, fps / base_fps])

        reuse8 = InferenceEngine(model, tile=GATE_TILE,
                                 skip_gate=GATE_THRESHOLD, precision="int8",
                                 reuse=True)
        reuse_out, reused, total = [], 0, 0
        for frame in lq:
            reuse_out.append(reuse8.enhance(frame))
            s = reuse8.stats
            reused += s.reused_tiles
            total += s.tile_count + s.skipped_tiles + s.reused_tiles
        reuse_out = np.stack(reuse_out)
        reuse_rate = reused / max(total, 1)
        psnr_reuse = float(psnr(reuse_out, hr))
        bitwise_reuse = bool(np.array_equal(reuse_out, exact_out))
        fps = _sequence_fps(reuse8, lq, repeats)
        rows.append(["int8 gated+reuse", fps, fps / base_fps])

        blocked = InferenceEngine(model, tile=GATE_TILE,
                                  skip_gate=GATE_THRESHOLD, precision="int8",
                                  reuse=True, kernel="blocked")
        fps = _sequence_fps(blocked, lq, repeats)
        rows.append(["int8 gated+reuse+blocked", fps, fps / base_fps])

        # Reuse off reproduces the PR-7 engine bit for bit.
        off = InferenceEngine(model, tile=GATE_TILE,
                              skip_gate=GATE_THRESHOLD, precision="int8",
                              reuse=None)
        off_out = np.stack([off.enhance(f) for f in lq])
        bitwise_off = bool(np.array_equal(off_out, exact_out))
        return (rows, reuse_rate, psnr_exact, psnr_reuse, bitwise_reuse,
                bitwise_off)

    (rows, reuse_rate, psnr_exact, psnr_reuse, bitwise_reuse,
     bitwise_off) = run_once(benchmark, experiment)

    print_table("SR inference: temporal reuse ladder "
                f"(352x640 static background, {REUSE_FRAMES} frames)",
                ["variant", "seq FPS", "speedup vs fp32 whole"], rows)

    results = dict(load_results("sr_inference") or {})
    results["temporal_reuse"] = {
        "frame_size": [352, 640],
        "frames": REUSE_FRAMES,
        "content": "music, static background + moving "
                   f"{PATCH}x{PATCH} patch (bicubic down/up x2)",
        "reuse": {"mode": "exact", "rate": float(reuse_rate)},
        "quality": {"psnr_exact": psnr_exact, "psnr_reuse": psnr_reuse,
                    "delta_db": psnr_exact - psnr_reuse},
        "rows": [{"variant": r[0], "fps": r[1], "speedup": r[2]}
                 for r in rows],
        "bitwise_identical_to_no_reuse": bitwise_reuse,
        "bitwise_identical_when_off": bitwise_off,
    }
    save_results("sr_inference", results)

    assert bitwise_off, "reuse=None must reproduce the PR-7 engine"
    assert bitwise_reuse, "exact-mode reuse must be invisible in the bits"
    assert abs(psnr_exact - psnr_reuse) <= 0.3
    assert reuse_rate >= 0.5, reuse_rate
    by_variant = {r[0]: r[1] for r in rows}
    # The paper's real-time claim, on this substrate, single-thread.
    assert by_variant["int8 gated+reuse"] >= 30.0, by_variant
    # The blocked GEMM trades the shift kernel's zero-copy taps for an
    # im2col materialization; on BLAS-backed numpy that loses at micro
    # shapes, so it is recorded honestly and only held above baseline.
    assert by_variant["int8 gated+reuse+blocked"] > by_variant["fp32 whole"]


def test_blocked_gemm_block_size_sweep(benchmark):
    """Cache-blocked im2col across block sizes on a 352x640 activation.

    Every precision is held to reassociation tolerance against the
    unblocked run (BLAS sgemm picks kernels by M, so bitwise equality
    across block sizes is unguaranteeable; an int8 pack holds dequantized
    float32 weights).  The sweep records where the scratch-budget-derived
    default lands."""
    from repro.nn import functional as F

    rng = np.random.default_rng(11)
    h, w, cin, cout, k = 352, 640, 8, 8, 3
    x = rng.standard_normal((1, h, w, cin)).astype(np.float32)
    weight = (rng.standard_normal((cout, cin, k, k)) * 0.3).astype(np.float32)
    bias = rng.standard_normal(cout).astype(np.float32)
    packed = F.pack_conv_weight(weight, bias)
    qw = F.pack_conv_weight(weight, bias, "int8")
    repeats = 2 if FAST else 3
    flops = 2.0 * h * w * cin * cout * k * k
    default_rows = F.im2col_block_rows(w, cin, k, k)

    def experiment():
        reference = F.conv2d_im2col_nhwc(x, packed, block_rows=0)
        ref_int8 = F.conv2d_im2col_nhwc(x, qw, block_rows=0)
        rows = []
        for block_rows in (1, 4, default_rows, 64, 128, 0):
            label = ("unblocked" if block_rows == 0 else
                     f"{block_rows} rows" + (" (budget)" if block_rows ==
                                             default_rows else ""))
            out = F.conv2d_im2col_nhwc(x, packed, block_rows=block_rows)
            fp32_max_diff = float(np.abs(out - reference).max())
            assert fp32_max_diff <= 1e-5, (block_rows, fp32_max_diff)
            out_int8 = F.conv2d_im2col_nhwc(x, qw, block_rows=block_rows)
            int8_max_diff = float(np.abs(out_int8 - ref_int8).max())
            assert int8_max_diff <= 1e-5, (block_rows, int8_max_diff)
            best = min(_timed(lambda f: F.conv2d_im2col_nhwc(
                x, packed, block_rows=block_rows), None)
                for _ in range(repeats))
            rows.append([label, block_rows, flops / best / 1e9,
                         fp32_max_diff, int8_max_diff])
        return rows

    rows = run_once(benchmark, experiment)

    print_table("Blocked im2col GEMM: block-size sweep "
                f"(352x640x{cin} -> {cout}, 3x3, "
                f"budget {F.IM2COL_SCRATCH_BYTES // 1024} KiB)",
                ["block", "rows", "GFLOP/s", "fp32 max|diff|",
                 "int8 max|diff|"], rows)

    results = dict(load_results("sr_inference") or {})
    results["blocked_gemm"] = {
        "shape": {"h": h, "w": w, "cin": cin, "cout": cout, "k": k},
        "scratch_bytes": F.IM2COL_SCRATCH_BYTES,
        "budget_block_rows": default_rows,
        "sweep": [{"label": r[0], "block_rows": r[1], "gflops": r[2],
                   "fp32_max_diff_vs_unblocked": r[3],
                   "int8_max_diff_vs_unblocked": r[4]}
                  for r in rows],
        "tolerance_vs_unblocked": 1e-5,
    }
    save_results("sr_inference", results)

"""Tiled client-side inference engine for micro EDSR models.

This is the fast path behind real-time playback (the paper's >30 FPS
client claim): the training framework's per-layer NCHW forward is replaced
by a single NHWC sweep over the network using the tap-decomposed GEMM
kernel (:func:`repro.nn.functional.conv2d_shift_padded`) with the bias /
ReLU / residual epilogues fused into each convolution.  Three properties
make it fast on CPU:

- **NHWC end to end, padded once** — an ``(H, W, 3)`` RGB frame is copied
  into the kernel's padded-stride layout (zero padding inside the row
  stride) and every intermediate stays there until the final crop: no
  layer pads, crops or transposes (only a pixel shuffle re-lays out).
- **No im2col materialization** — there each kernel tap is one contiguous
  run of pixels, so a 3x3 conv is nine ``(H*(W+2), Cin) @ (Cin, Cout)``
  GEMMs that BLAS accumulates in place, not a 9x-inflated patch matrix.
- **Zero retention** — nothing is cached for a backward pass; peak memory
  is a handful of activation-sized buffers (and with tiling, a handful of
  *tile*-sized buffers).

Weights are pre-packed per conv layer (``Conv2d.packed``), built once at
model load and invalidated automatically when a weight updates, so a
model that fine-tunes between segments never infers with stale taps.

Tiling splits the frame into a grid of tiles, each expanded by a halo of
:func:`receptive_field_radius` input pixels.  Because the halo covers the
receptive field of every retained output pixel, cropping the halo after
inference reproduces whole-frame output exactly (up to float32
reassociation, well below the guaranteed 1e-5); frame borders keep the
reference zero-padding because there the tile edge *is* the frame edge.
Tiles bound peak working-set memory and are independent, so they can fan
out across a thread pool — which overlaps the elementwise passes only:
scipy's ``sgemm`` wrapper holds the GIL, and a GEMM that spans a tile is
large enough for BLAS to split across its own threads instead.

An engine has one owner at a time — :attr:`InferenceEngine.stats` is
per-call state and the reuse cache follows one frame stream — so the
client builds one per segment, whichever thread decodes it.  Engines of
one model share only the model: its packed weights are a pure function of
the checkpoint, so packing them twice under a race yields the same taps.
"""

from __future__ import annotations

import math
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import functional as F
from ..video.sampling import upscale
from .edsr import _PIXEL_SHIFT, EDSR, EdsrConfig

__all__ = ["InferenceEngine", "EngineStats", "SkipGateConfig",
           "TileReuseConfig", "TileReuseCache", "ENGINE_KERNELS",
           "check_engine_knobs", "receptive_field_radius"]

#: Conv kernels the engine can route the fused plan through: the
#: tap-decomposed shift kernel (default) or the cache-blocked im2col GEMM.
ENGINE_KERNELS = ("shift", "blocked")


def receptive_field_radius(config: EdsrConfig) -> int:
    """Halo (in input pixels) covering one output pixel's receptive field.

    Each convolution at spatial resolution ``f`` times the input adds
    ``(k // 2) / f`` input pixels of dependence: the head, the two convs of
    every residual block, and the body tail conv all run at ``f = 1``; the
    upsampler's convs run at ``f = 2^i`` (3x3 kernels); the tail output
    conv runs at ``f = scale``.  The sum is rounded up — a conservative
    halo only costs overlap compute, never correctness.
    """
    k = config.kernel_size
    radius = float((k // 2) * (2 + 2 * config.n_resblocks))
    scale = config.scale
    if scale > 1:
        if scale & (scale - 1) == 0:            # chain of x2 stages
            radius += sum(1.0 / 2 ** i for i in range(int(math.log2(scale))))
        elif scale == 3:
            radius += 1.0
        else:
            raise ValueError(f"unsupported upsampling scale {scale}")
    radius += (k // 2) / scale
    return int(math.ceil(radius - 1e-9))


@dataclass(frozen=True)
class SkipGateConfig:
    """Content gate that routes low-detail tiles around the network.

    Before running a tile through the model, the engine measures the
    variance of the tile's channel-mean ("luma") interior per frame; tiles
    whose variance falls below ``var_threshold`` carry too little texture
    for SR to improve and are upscaled bicubically (scale 1: passed
    through) instead.  ``var_threshold`` is in squared [0, 1] intensity
    units: flat synthetic backgrounds sit below 1e-5 while natural texture
    measures 1e-3 and up, so the 2e-4 default skips only genuinely flat
    content.  Skipped work is visible as :attr:`EngineStats.skipped_tiles`
    and the ``dcsr_sr_skipped_tiles_total`` counter.
    """

    var_threshold: float = 2e-4

    def __post_init__(self):
        if self.var_threshold < 0.0:
            raise ValueError("var_threshold must be >= 0")


@dataclass(frozen=True)
class TileReuseConfig:
    """Temporal reuse gate: emit the previous frame's SR output for tiles
    whose decoded LR content did not change.

    ``tolerance`` is the max-abs-diff (in [0, 1] intensity units) under
    which a tile still counts as "the same content".  At the default
    ``0.0`` the engine reuses only on *bitwise-identical* LR content, which
    makes the enhanced output bitwise-identical to running without reuse;
    a small positive tolerance (e.g. ``2/255``) also reuses across sensor /
    codec noise on near-static content and carries a calibrated PSNR
    budget (see :func:`repro.sr.calibrate_reuse`), mirroring how quantized
    precisions carry theirs.

    ``max_tiles`` bounds the cache (LRU eviction); it is the number of
    resident tile entries, each holding one halo-expanded LR region and
    its SR output.  The budget is mandatory — an unbounded cache in a
    long-lived player session is a memory leak, and a tier-1 guard rejects
    unbounded construction in non-test code.
    """

    tolerance: float = 0.0
    max_tiles: int = 256

    def __post_init__(self):
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")
        if self.max_tiles is None or int(self.max_tiles) < 1:
            raise ValueError("max_tiles must be a positive tile budget "
                             "(the reuse cache is always bounded)")


@dataclass
class _ReuseEntry:
    """One cached tile: interior fingerprint, halo-expanded LR region, and
    the SR output emitted for it."""

    fingerprint: int
    region: np.ndarray
    output: np.ndarray


def _tile_fingerprint(interior: np.ndarray) -> int:
    """Cheap rolling hash (crc32) over a tile's interior bytes — the
    quick-reject for exact-mode cache lookups."""
    return zlib.crc32(np.ascontiguousarray(interior))


class TileReuseCache:
    """Bounded per-engine LRU cache of tile LR content and SR output.

    Keys are tile spans ``(y0, y1, x0, x1)`` in input coordinates, so the
    grid of one frame size maps to stable slots.  ``max_tiles`` is
    mandatory; insertion past the budget evicts the least recently used
    entry, and :attr:`peak_resident` records the high-water mark (never
    above the budget).  Thread-safe: tile workers of one engine call may
    look up and store concurrently.
    """

    def __init__(self, max_tiles: int):
        if max_tiles is None:
            raise ValueError("TileReuseCache requires a tile budget "
                             "(max_tiles); unbounded caches are not allowed")
        max_tiles = int(max_tiles)
        if max_tiles < 1:
            raise ValueError("max_tiles must be >= 1")
        self.max_tiles = max_tiles
        self.peak_resident = 0
        self._entries: OrderedDict[tuple, _ReuseEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> _ReuseEntry | None:
        """The entry under ``key`` (refreshed as most recently used)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: _ReuseEntry) -> None:
        """Insert/replace ``key``, evicting LRU entries past the budget."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_tiles:
                self._entries.popitem(last=False)
            self.peak_resident = max(self.peak_resident, len(self._entries))

    def reset(self) -> None:
        """Drop every entry (segment/GOP boundary, seek, concealment)."""
        with self._lock:
            self._entries.clear()


@dataclass
class EngineStats:
    """Counters from the most recent :meth:`InferenceEngine.enhance` call.

    ``tile_count`` counts (frame, tile) pairs that ran through the model —
    a whole-frame batch of N frames counts N, an N-frame call over a
    T-tile grid counts up to ``N * T``.  ``skipped_tiles`` counts the
    (frame, tile) pairs the variance gate routed to bicubic instead, and
    ``reused_tiles`` the pairs emitted from the temporal reuse cache, so
    the three-way gate invariant
    ``tile_count + skipped_tiles + reused_tiles == N * T`` always holds.
    """

    tile_count: int = 0
    frames: int = 0
    flops: float = 0.0
    skipped_tiles: int = 0
    reused_tiles: int = 0


def check_engine_knobs(tile, threads, precision, skip_gate, reuse, kernel):
    """Check an engine's arguments; return ``(skip_gate, reuse)`` coerced
    to a :class:`SkipGateConfig` / :class:`TileReuseConfig` (or ``None``).

    The one copy of these checks: :class:`InferenceEngine` runs it at
    construction and :meth:`repro.core.client.FastPathConfig.validate`
    when a config is built, so a bad knob fails before a session downloads
    anything rather than inside its first I frame's hook.
    """
    if tile is not None and tile < 1:
        raise ValueError("tile must be >= 1 pixel")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if precision not in F.PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}; "
                         f"expected one of {F.PRECISIONS}")
    if kernel not in ENGINE_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; "
                         f"expected one of {ENGINE_KERNELS}")
    if isinstance(skip_gate, (int, float)) and not isinstance(skip_gate, bool):
        skip_gate = SkipGateConfig(var_threshold=float(skip_gate))
    if skip_gate is not None and not isinstance(skip_gate, SkipGateConfig):
        raise TypeError("skip_gate must be a SkipGateConfig, a float "
                        "threshold, or None")
    if reuse is True:
        reuse = TileReuseConfig()
    elif reuse is False:
        reuse = None
    elif isinstance(reuse, (int, float)):
        reuse = TileReuseConfig(tolerance=float(reuse))
    if reuse is not None and not isinstance(reuse, TileReuseConfig):
        raise TypeError("reuse must be a TileReuseConfig, a float "
                        "tolerance, a bool, or None")
    return skip_gate, reuse


class InferenceEngine:
    """Zero-retention NHWC executor for one :class:`EDSR` model.

    Parameters
    ----------
    model:
        The EDSR instance to run.  Its structure is validated once here;
        packed weights are always read through the model's conv layers, so
        weight updates between calls are picked up automatically.
    tile:
        Tile edge in input pixels, or ``None`` for whole-frame execution.
        Tiles are expanded by :attr:`halo` pixels of overlap on interior
        edges; output is equivalent to whole-frame inference.
    threads:
        Worker threads tiles fan out across (1 = run in the caller).
        Results are written to disjoint output regions, so any thread
        count produces identical frames.
    obs:
        Optional :class:`~repro.obs.Observability`; every call then
        accumulates its tile / frame / FLOP counts into the
        ``dcsr_sr_tiles_total`` / ``dcsr_sr_frames_total`` /
        ``dcsr_sr_flops_total`` / ``dcsr_sr_skipped_tiles_total``
        counters (per-call numbers stay in :attr:`stats`).
    precision:
        ``"fp32"`` (default, bitwise-identical to the original engine),
        ``"fp16"`` or ``"int8"`` — every conv runs on operands packed at
        that precision (:func:`repro.nn.functional.pack_conv_weight`),
        cached per precision on each layer.
    skip_gate:
        ``None`` (default — off) or a :class:`SkipGateConfig` / plain
        variance threshold routing low-detail tiles to bicubic upscaling.
    reuse:
        ``None`` (default — off) or a :class:`TileReuseConfig` / ``True``
        (exact mode) / plain float tolerance enabling the temporal tile
        reuse cache.  The three gates share one dispatch path per tile:
        ``reuse`` (emit cached SR output for unchanged content) →
        ``skip`` (bicubic for low-detail) → the (possibly quantized) conv
        stack.  Exact mode is bitwise-identical to running without reuse.
    kernel:
        ``"shift"`` (default, the tap-decomposed kernel — bitwise-identical
        to previous engines) or ``"blocked"`` — the cache-blocked im2col
        GEMM (:func:`repro.nn.functional.conv2d_im2col_nhwc`).
    """

    def __init__(self, model: EDSR, tile: int | None = None,
                 threads: int = 1, obs=None, precision: str = "fp32",
                 skip_gate: SkipGateConfig | float | None = None,
                 reuse: TileReuseConfig | float | bool | None = None,
                 kernel: str = "shift"):
        skip_gate, reuse = check_engine_knobs(tile, threads, precision,
                                              skip_gate, reuse, kernel)
        self.model = model
        self.tile = tile
        self.threads = int(threads)
        self.obs = obs
        self.precision = precision
        self.skip_gate = skip_gate
        self.reuse = reuse
        self.kernel = kernel
        self.reuse_cache = (TileReuseCache(reuse.max_tiles)
                            if reuse is not None else None)
        self.halo = receptive_field_radius(model.config)
        self.scale = model.config.scale
        self.stats = EngineStats()
        self._plan = self._build_plan(model)
        # One layout for the whole plan: the widest kernel's padding.
        self._pad = max(layer.padding for op in self._plan
                        for layer in op[1:] if isinstance(layer, nn.Conv2d))

    def reset_reuse(self) -> None:
        """Invalidate the temporal reuse cache.

        Call at segment/GOP boundaries, seeks, and after concealment — any
        point where "same tile content as the previous frame" stops
        implying "same enhanced output is correct".  A no-op when reuse is
        off.
        """
        if self.reuse_cache is not None:
            self.reuse_cache.reset()

    def _count_stats(self) -> None:
        if self.obs is None:
            return
        metrics = self.obs.metrics
        metrics.counter("dcsr_sr_tiles_total",
                        "SR tiles executed").inc(self.stats.tile_count)
        metrics.counter("dcsr_sr_frames_total",
                        "Frames enhanced by the engine").inc(self.stats.frames)
        metrics.counter("dcsr_sr_flops_total",
                        "Forward FLOPs executed").inc(self.stats.flops)
        if self.stats.skipped_tiles:
            metrics.counter("dcsr_sr_skipped_tiles_total",
                            "SR tiles routed to bicubic by the skip gate"
                            ).inc(self.stats.skipped_tiles)
        if self.stats.reused_tiles:
            metrics.counter("dcsr_sr_reused_tiles_total",
                            "SR tiles emitted from the temporal reuse cache"
                            ).inc(self.stats.reused_tiles)

    # ------------------------------------------------------------- planning

    @staticmethod
    def _build_plan(model: EDSR) -> list[tuple]:
        """Flatten the EDSR graph into fused NHWC ops.

        Validates the structure the executor assumes (head conv, global
        skip over residual blocks + tail conv, upsampler, output conv) so
        a mismatched model fails loudly at engine construction, not with
        silently wrong frames.
        """
        def conv_of(layer, where):
            if not isinstance(layer, nn.Conv2d):
                raise TypeError(f"expected Conv2d at {where}, got "
                                f"{type(layer).__name__}")
            if layer.stride != 1:
                raise ValueError(f"engine supports stride 1 only ({where})")
            k = layer.weight.shape[2]
            if k % 2 == 0 or layer.padding != k // 2:
                raise ValueError(
                    f"engine supports 'same' convolutions only ({where}: "
                    f"kernel {k}, padding {layer.padding})")
            return layer

        plan: list[tuple] = [("conv", conv_of(model.head, "head"))]
        body = model.body.inner.layers
        for i, block in enumerate(body[:-1]):
            if not isinstance(block, nn.ResidualBlock):
                raise TypeError(f"expected ResidualBlock in body[{i}]")
            conv1, relu, conv2, scale = block.body.layers
            if not isinstance(relu, nn.ReLU) or not isinstance(scale, nn.Scale):
                raise TypeError(f"unexpected residual block layout in body[{i}]")
            plan.append(("resblock",
                         conv_of(conv1, f"body[{i}].conv1"),
                         conv_of(conv2, f"body[{i}].conv2"),
                         scale.value))
        plan.append(("conv_skip", conv_of(body[-1], "body.tailconv")))
        upsampler, out_conv = model.tail.layers
        for layer in upsampler.body.layers:
            if isinstance(layer, nn.PixelShuffle):
                plan.append(("shuffle", layer.scale))
            else:
                plan.append(("conv", conv_of(layer, "tail.upsampler")))
        plan.append(("conv", conv_of(out_conv, "tail.out")))
        return plan

    def flops_per_pixel(self) -> float:
        """Forward FLOPs per *input* pixel (multiply-add = 2 FLOPs)."""
        total = 0.0
        res = 1.0
        for op in self._plan:
            convs = [c for c in op[1:] if isinstance(c, nn.Conv2d)]
            if op[0] == "shuffle":
                res *= op[1]
            for conv in convs:
                cout, cin, kh, kw = conv.weight.shape
                total += 2.0 * cin * kh * kw * cout * res * res
        return total

    # ------------------------------------------------------------ execution

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Run the fused plan on one NHWC tensor (a frame batch or a tile);
        on the shift kernel, padded-stride from the head to the crop."""
        p, pad, w = self.precision, self._pad, x.shape[2]
        blocked = self.kernel == "blocked"      # plain NHWC throughout

        def conv(a, layer, **epilogue):
            if blocked:
                return F.conv2d_im2col_nhwc(a, layer.packed(p), **epilogue)
            return F.conv2d_shift_padded(a, w, pad, layer.packed(p),
                                         **epilogue)

        def lay(a):
            return a if blocked else F.pad_nhwc(a, pad)

        def crop(a):
            return a if blocked else F.unpad_nhwc(a, w, pad)

        x = conv(lay(x - _PIXEL_SHIFT), self._plan[0][1])       # head
        skip = x                                                # global skip
        for op in self._plan[1:]:
            kind = op[0]
            if kind == "resblock":
                t = conv(x, op[1], relu=True)
                x = conv(t, op[2], residual=x, res_scale=op[3])
            elif kind == "conv_skip":
                x = conv(x, op[1], residual=skip)
            elif kind == "conv":
                x = conv(x, op[1])
            else:                       # shuffle
                x = F.pixel_shuffle_nhwc(crop(x), op[1])
                w = x.shape[2]
                x = lay(x)
        return crop(x) + _PIXEL_SHIFT

    def _tile_spans(self, h: int, w: int) -> list[tuple[int, int, int, int]]:
        tile = self.tile
        if tile is None or (tile >= h and tile >= w):
            return [(0, h, 0, w)]
        return [(y0, min(y0 + tile, h), x0, min(x0 + tile, w))
                for y0 in range(0, h, tile) for x0 in range(0, w, tile)]

    def infer_nhwc(self, x: np.ndarray) -> np.ndarray:
        """Enhance an ``(N, H, W, C)`` float32 batch; returns NHWC scaled by
        ``config.scale``.

        The one execution path: every (frame, tile) pair is routed between
        the reuse cache, bicubic upscaling, and the conv stack.  Temporal
        reuse runs first (a tile whose halo-expanded LR content matches
        the previous anchor emits the anchor's SR output), the variance
        skip gate next (bicubic for low-detail tiles), and whatever
        survives runs through the GEMM kernels in one stacked forward.
        With both gates off every pair runs, and a frame that fits one
        tile is the one-span case of the same loop.

        Exact-mode reuse (tolerance 0) is bitwise-identical to running
        without reuse at every precision: content is compared over the
        *halo-expanded* region — everything the tile's output depends on —
        the batched GEMMs compute each frame's slice independently and
        int8 activations are quantized per frame, so removing reused
        frames from the batch does not change the surviving frames' bits.
        Within a batch, frame ``i`` compares against the most recent
        anchor (the last frame that produced fresh output), so tolerance
        mode measures drift against real content, not an accumulating
        chain of approximations.
        """
        n, h, w, _ = x.shape
        s = self.scale
        fpp = self.flops_per_pixel()
        halo = self.halo
        gate = self.skip_gate
        cache = self.reuse_cache
        tolerance = self.reuse.tolerance if self.reuse is not None else 0.0
        spans = self._tile_spans(h, w)
        # One ungated span: every frame runs and the forward's result *is*
        # the output — no buffer to crop into, no copy.
        direct = len(spans) == 1 and gate is None and cache is None
        out = None if direct else np.empty(
            (n, h * s, w * s, self.model.config.in_channels),
            dtype=np.float32)
        ran = [0] * len(spans)
        hits = [0] * len(spans)
        flops = [0.0] * len(spans)

        def matches(a: np.ndarray, b: np.ndarray) -> bool:
            if a.shape != b.shape:
                return False
            if tolerance == 0.0:
                return bool(np.array_equal(a, b))
            return bool(np.max(np.abs(a - b)) <= tolerance)

        def run_tile(item):
            nonlocal out
            idx, (y0, y1, x0, x1) = item
            ey0, ex0 = max(0, y0 - halo), max(0, x0 - halo)
            ey1, ex1 = min(h, y1 + halo), min(w, x1 + halo)
            region = x[:, ey0:ey1, ex0:ex1, :]
            interior = x[:, y0:y1, x0:x1, :]
            oy = slice(y0 * s, y1 * s)
            ox = slice(x0 * s, x1 * s)
            ry = slice((y0 - ey0) * s, (y1 - ey0) * s)
            rx = slice((x0 - ex0) * s, (x1 - ex0) * s)

            # Gate 1: temporal reuse.  Each frame compares against the
            # current anchor — the cache entry from the previous call, then
            # the last in-batch frame that produced fresh output.
            fresh = np.ones(n, dtype=bool)
            anchor_of = np.full(n, -1, dtype=np.int64)   # -2 = cache entry
            entry = None
            if cache is not None:
                key = (y0, y1, x0, x1)
                entry = cache.get(key)
                anchor_region = entry.region if entry is not None else None
                anchor_idx = -2
                for fi in range(n):
                    if anchor_region is None:
                        anchor_region, anchor_idx = region[fi], fi
                        continue
                    hit = False
                    if anchor_idx == -2 and tolerance == 0.0:
                        # crc32 interior fingerprint quick-rejects before
                        # the full halo-region compare confirms.
                        hit = (entry.fingerprint
                               == _tile_fingerprint(interior[fi])
                               and matches(region[fi], anchor_region))
                    else:
                        hit = matches(region[fi], anchor_region)
                    if hit:
                        fresh[fi] = False
                        anchor_of[fi] = anchor_idx
                    else:
                        anchor_region, anchor_idx = region[fi], fi

            # Gate 2: the variance skip gate, on fresh frames only.
            run = fresh
            skip = np.zeros(n, dtype=bool)
            if gate is not None:
                # Variance of the channel-mean tile interior, per frame.
                variance = interior.mean(axis=3).var(axis=(1, 2))
                skip = fresh & (variance < gate.var_threshold)
                run = fresh & ~skip

            # Gate 3: the conv stack on whatever survived, in one batch.
            n_run = int(run.sum())
            ran[idx] = n_run
            hits[idx] = n - n_run - int(skip.sum())
            if n_run:
                # FLOPs over the pixels actually convolved: the tile's
                # halo-expanded extent, overlap compute included.
                flops[idx] = fpp * n_run * (ey1 - ey0) * (ex1 - ex0)
                result = self._forward(region if n_run == n else region[run])
                if direct:
                    out = result
                else:
                    out[run, oy, ox, :] = result[:, ry, rx, :]
            for fi in np.nonzero(skip)[0]:
                if s == 1:
                    out[fi, oy, ox, :] = interior[fi]
                else:
                    out[fi, oy, ox, :] = upscale(interior[fi], s)
            if cache is None:
                return
            for fi in np.nonzero(~fresh)[0]:
                src = anchor_of[fi]
                out[fi, oy, ox, :] = (entry.output if src == -2
                                      else out[src, oy, ox, :])
            if anchor_idx != -2:
                cache.put(key, _ReuseEntry(
                    fingerprint=_tile_fingerprint(interior[anchor_idx]),
                    region=region[anchor_idx].copy(),
                    output=out[anchor_idx, oy, ox, :].copy()))

        items = list(enumerate(spans))
        if self.threads > 1 and len(spans) > 1:
            from concurrent.futures import ThreadPoolExecutor
            for op in self._plan:       # pre-pack outside the worker race
                for layer in op[1:]:
                    if isinstance(layer, nn.Conv2d):
                        layer.packed(self.precision)
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                list(pool.map(run_tile, items))
        else:
            for item in items:
                run_tile(item)
        executed, reused = sum(ran), sum(hits)
        self.stats = EngineStats(
            tile_count=executed, frames=n, flops=sum(flops),
            skipped_tiles=n * len(spans) - executed - reused,
            reused_tiles=reused)
        self._count_stats()
        return out

    def enhance(self, rgb: np.ndarray) -> np.ndarray:
        """Fast-path counterpart of :meth:`EDSR.enhance` — same contract,
        ``(H, W, 3)`` float RGB in and out."""
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) RGB frame, got {rgb.shape}")
        x = np.asarray(rgb, dtype=np.float32)[None]
        out = self.infer_nhwc(x)[0]
        return np.clip(out, 0.0, 1.0, out=out)

    def enhance_batch(self, frames: np.ndarray) -> np.ndarray:
        """Fast-path counterpart of :meth:`EDSR.enhance_batch`."""
        if frames.ndim != 4 or frames.shape[3] != 3:
            raise ValueError(f"expected (N, H, W, 3) frames, got {frames.shape}")
        out = self.infer_nhwc(np.asarray(frames, dtype=np.float32))
        return np.clip(out, 0.0, 1.0, out=out)

"""Procedural video generator.

The paper evaluates on six ~12-minute YouTube videos from different genres.
Those are not available offline, so this module generates deterministic
synthetic videos with the properties dcSR depends on:

- **shot structure** — a video is a sequence of scenes with visually abrupt
  boundaries (drives the Netflix-style variable-length segmentation);
- **long-term scene recurrence** — scenes repeat later in the video (drives
  the I-frame clustering and model caching: Section 3.1 / Figure 7);
- **intra-scene motion and texture** — gives the codec real residuals and
  motion vectors, and gives SR models real high-frequency detail to restore.

Each genre preset controls motion intensity, object count, texture detail,
and scene length — the axes on which real genres differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

__all__ = ["SceneSpec", "VideoClip", "GENRES", "make_scene", "make_video",
           "scene_schedule"]


#: Genre presets: (motion, n_objects, texture_amp, texture_scale,
#: mean_scene_seconds).  Motion is in pixels/frame at the reference height.
GENRES = {
    "news": dict(motion=0.2, n_objects=2, texture_amp=0.10, texture_scale=3.0,
                 scene_seconds=9.0),
    "sports": dict(motion=2.5, n_objects=5, texture_amp=0.18, texture_scale=1.5,
                   scene_seconds=4.0),
    "documentary": dict(motion=0.8, n_objects=3, texture_amp=0.22,
                        texture_scale=2.0, scene_seconds=7.0),
    "music": dict(motion=1.8, n_objects=6, texture_amp=0.15, texture_scale=1.0,
                  scene_seconds=3.0),
    "gaming": dict(motion=2.0, n_objects=7, texture_amp=0.20, texture_scale=1.2,
                   scene_seconds=5.0),
    "animation": dict(motion=1.2, n_objects=4, texture_amp=0.08,
                      texture_scale=4.0, scene_seconds=6.0),
}


@dataclass
class _ObjectSpec:
    kind: str               # "circle" | "rect"
    color: np.ndarray       # (3,) float in [0, 1]
    size: float             # fraction of frame height
    center: np.ndarray      # (2,) initial center, fraction of frame
    velocity: np.ndarray    # (2,) fraction of frame per frame
    wobble: float           # sinusoidal amplitude (fraction of frame)
    phase: float


@dataclass
class SceneSpec:
    """Deterministic description of one scene's visual content."""

    scene_id: int
    seed: int
    palette: np.ndarray          # (2, 3) background gradient endpoint colors
    gradient_angle: float
    texture_amp: float
    texture_scale: float
    pan_velocity: tuple[float, float]
    objects: list[_ObjectSpec] = field(default_factory=list)
    _texture_cache: dict = field(default_factory=dict, repr=False)

    def texture(self, height: int, width: int) -> np.ndarray:
        """Per-scene smooth random luminance field, cached per size."""
        key = (height, width)
        if key not in self._texture_cache:
            rng = np.random.default_rng(self.seed ^ 0x5EED)
            # Oversize so panning can scroll without wrapping artifacts
            # becoming visible too quickly.
            noise = rng.normal(size=(height * 2, width * 2))
            smooth = gaussian_filter(noise, self.texture_scale, mode="wrap")
            smooth = smooth / (np.abs(smooth).max() + 1e-9)
            self._texture_cache[key] = smooth.astype(np.float32)
        return self._texture_cache[key]


def make_scene(scene_id: int, seed: int, genre: str) -> SceneSpec:
    """Create a deterministic scene spec for ``scene_id`` of a video."""
    params = GENRES[genre]
    rng = np.random.default_rng((seed * 1_000_003 + scene_id) & 0x7FFFFFFF)
    palette = rng.uniform(0.1, 0.9, size=(2, 3)).astype(np.float32)
    motion = params["motion"]
    objects = []
    for _ in range(params["n_objects"]):
        objects.append(_ObjectSpec(
            kind=rng.choice(["circle", "rect"]),
            color=rng.uniform(0.0, 1.0, size=3).astype(np.float32),
            size=float(rng.uniform(0.08, 0.25)),
            center=rng.uniform(0.15, 0.85, size=2),
            velocity=rng.normal(0.0, motion / 100.0, size=2),
            wobble=float(rng.uniform(0.0, motion / 60.0)),
            phase=float(rng.uniform(0, 2 * np.pi)),
        ))
    pan = rng.normal(0.0, motion / 2.0, size=2)
    return SceneSpec(
        scene_id=scene_id,
        seed=int(rng.integers(0, 2**31)),
        palette=palette,
        gradient_angle=float(rng.uniform(0, np.pi)),
        texture_amp=params["texture_amp"],
        texture_scale=params["texture_scale"],
        pan_velocity=(float(pan[0]), float(pan[1])),
        objects=objects,
    )


def render_frame(spec: SceneSpec, t: int, height: int, width: int) -> np.ndarray:
    """Render frame ``t`` of a scene as an ``(H, W, 3)`` float RGB image."""
    yy, xx = np.mgrid[0:height, 0:width]
    yy = yy / max(height - 1, 1)
    xx = xx / max(width - 1, 1)

    # Background: linear gradient between the two palette colors.
    axis = np.cos(spec.gradient_angle) * xx + np.sin(spec.gradient_angle) * yy
    axis = (axis - axis.min()) / (axis.max() - axis.min() + 1e-9)
    frame = (spec.palette[0][None, None, :] * (1.0 - axis[..., None])
             + spec.palette[1][None, None, :] * axis[..., None])

    # Panning texture field (adds codec-visible high-frequency detail).
    tex = spec.texture(height, width)
    dy = int(round(spec.pan_velocity[0] * t)) % tex.shape[0]
    dx = int(round(spec.pan_velocity[1] * t)) % tex.shape[1]
    window = np.roll(np.roll(tex, -dy, axis=0), -dx, axis=1)[:height, :width]
    frame = frame + spec.texture_amp * window[..., None]

    # Moving foreground objects.
    for obj in spec.objects:
        cy = obj.center[0] + obj.velocity[0] * t + obj.wobble * np.sin(
            0.15 * t + obj.phase)
        cx = obj.center[1] + obj.velocity[1] * t + obj.wobble * np.cos(
            0.12 * t + obj.phase)
        cy = cy % 1.0
        cx = cx % 1.0
        radius = obj.size / 2.0
        if obj.kind == "circle":
            mask = ((yy - cy) ** 2 + (xx - cx) ** 2) <= radius * radius
        else:
            mask = (np.abs(yy - cy) <= radius) & (np.abs(xx - cx) <= radius * 1.4)
        frame[mask] = obj.color

    return np.clip(frame, 0.0, 1.0).astype(np.float32)


@dataclass
class VideoClip:
    """A rendered synthetic video."""

    name: str
    genre: str
    frames: np.ndarray        # (T, H, W, 3) float32 in [0, 1]
    fps: float
    scene_ids: np.ndarray     # (T,) int — ground-truth scene label per frame

    @property
    def n_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def height(self) -> int:
        return int(self.frames.shape[1])

    @property
    def width(self) -> int:
        return int(self.frames.shape[2])

    @property
    def duration_seconds(self) -> float:
        return self.n_frames / self.fps

    def scene_changes(self) -> list[int]:
        """Ground-truth shot-boundary frame indices (excluding frame 0)."""
        ids = self.scene_ids
        return [i for i in range(1, len(ids)) if ids[i] != ids[i - 1]]


def scene_schedule(
    n_frames: int, fps: float, genre: str, seed: int,
    n_distinct_scenes: int, recurrence: float = 0.45,
) -> list[tuple[int, int]]:
    """Build a ``[(scene_id, n_frames), ...]`` schedule with recurrence.

    New scenes are introduced until ``n_distinct_scenes`` exist; afterwards
    (and with probability ``recurrence`` before that) an already-seen scene
    is revisited — the long-term temporal redundancy dcSR exploits.
    Consecutive shots never share a scene id, so every boundary is a real
    visual cut.
    """
    if n_distinct_scenes < 1:
        raise ValueError("need at least one distinct scene")
    if n_distinct_scenes == 1:
        # No other scene to cut to: the clip is one shot.
        return [(0, n_frames)]
    params = GENRES[genre]
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    mean_len = max(int(params["scene_seconds"] * fps), 2)

    schedule: list[tuple[int, int]] = []
    introduced = 0
    prev = -1
    used = 0
    while used < n_frames:
        revisit = introduced >= n_distinct_scenes or (
            introduced > 1 and rng.uniform() < recurrence)
        if revisit:
            choices = [s for s in range(introduced) if s != prev]
            scene = int(rng.choice(choices))
        else:
            scene = introduced
            introduced += 1
        length = max(2, int(rng.normal(mean_len, mean_len * 0.3)))
        length = min(length, n_frames - used)
        if length < 2 and schedule:
            # Fold a trailing 1-frame shot into the previous one.
            sid, slen = schedule[-1]
            schedule[-1] = (sid, slen + length)
        else:
            schedule.append((scene, length))
        used += length
        prev = scene
    return schedule


def make_video(
    name: str, genre: str, seed: int,
    size: tuple[int, int] = (64, 96), duration_seconds: float = 20.0,
    fps: float = 30.0, n_distinct_scenes: int = 4, recurrence: float = 0.45,
) -> VideoClip:
    """Generate a deterministic synthetic video.

    Parameters
    ----------
    size:
        ``(height, width)``; both must be multiples of 16 (codec macroblock
        alignment).
    n_distinct_scenes:
        Number of visually distinct scenes; the schedule revisits them.
    """
    if genre not in GENRES:
        raise ValueError(f"unknown genre {genre!r}; choose from {sorted(GENRES)}")
    height, width = size
    if height % 16 or width % 16:
        raise ValueError(f"frame size {size} must be multiples of 16")
    n_frames = int(round(duration_seconds * fps))
    if n_frames < 1:
        raise ValueError("duration too short")

    schedule = scene_schedule(n_frames, fps, genre, seed,
                              n_distinct_scenes, recurrence)
    scenes = {sid: make_scene(sid, seed, genre)
              for sid in {s for s, _ in schedule}}

    frames = np.empty((n_frames, height, width, 3), dtype=np.float32)
    scene_ids = np.empty(n_frames, dtype=np.int64)
    cursor = 0
    for sid, length in schedule:
        spec = scenes[sid]
        for t in range(length):
            frames[cursor] = render_frame(spec, t, height, width)
            scene_ids[cursor] = sid
            cursor += 1
    return VideoClip(name=name, genre=genre, frames=frames, fps=fps,
                     scene_ids=scene_ids)

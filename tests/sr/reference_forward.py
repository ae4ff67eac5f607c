"""The NCHW oracle the inference engine is held to.

``EDSR.forward`` is the training pass — the layer library's one forward,
conv by conv through ``conv2d_forward`` — run here on a transposed frame
and clipped as the engine clips.  It is not bitwise-equal to the engine
(different summation orders), so tests compare within 1e-5-scale
tolerances.  Benchmarks, which cannot import from ``tests/``, inline the
same three lines.
"""

import numpy as np


def reference_enhance(model, rgb: np.ndarray) -> np.ndarray:
    """Enhance one ``(H, W, 3)`` float RGB frame through ``model.forward``."""
    batch = np.asarray(rgb, dtype=np.float32).transpose(2, 0, 1)[None]
    out = model.forward(batch)[0].transpose(1, 2, 0)
    return np.clip(out, 0.0, 1.0).astype(np.float32, copy=False)


def reference_enhance_batch(model, frames: np.ndarray) -> np.ndarray:
    """:func:`reference_enhance` over ``(N, H, W, 3)`` frames at once."""
    batch = np.asarray(frames, dtype=np.float32).transpose(0, 3, 1, 2)
    out = model.forward(batch).transpose(0, 2, 3, 1)
    return np.clip(out, 0.0, 1.0).astype(np.float32, copy=False)

"""P/B-frame parse as it was before it ran in array passes.

``parse_inter_macroblocks`` is the per-symbol walk — one
``BitReader.read_ue``/``read_se`` per code, one ``read_bit`` per skip flag —
verbatim from ``repro.video.codec.residual`` at the commit before the
change (it is still the body the production parser falls back to on a
failed check).  ``test_vector_parse.py`` holds the array passes
``array_equal`` to it.  Not a second implementation to keep in step: it
never changes.
"""

import numpy as np

from repro.video.codec.bitstream import BitReader, CorruptStreamError
from repro.video.codec.dct import BLOCK
from repro.video.codec.entropy import read_block_levels, scatter_levels
from repro.video.codec.residual import BLOCKS_PER_MB

_N_COEFFS = BLOCK * BLOCK


def parse_inter_macroblocks(
    reader: BitReader, n_mb: int, bidirectional: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read the ``n_mb`` macroblocks of a P or B frame.

    Returns ``(modes, mvs, coded, levels)``: per macroblock the prediction
    mode (0 forward, 1 backward, 2 bidirectional; always 0 in a P frame) and
    its ``(2, 2)`` motion vectors ``[slot, (dy, dx)]`` (slot 1 is used by
    mode 2 only), then the levels of the frame's
    ``n_mb * BLOCKS_PER_MB`` blocks.
    """
    read_ue, read_se, read_bit = reader.read_ue, reader.read_se, reader.read_bit
    modes: list[int] = []
    mvs: list[tuple[int, int, int, int]] = []
    positions: list[int] = []
    values: list[int] = []
    mb_coeffs = BLOCKS_PER_MB * _N_COEFFS
    for mb_base in range(0, n_mb * mb_coeffs, mb_coeffs):
        mode = 0
        if bidirectional:
            mode = read_ue()
            if mode > 2:
                raise CorruptStreamError(f"corrupt stream: B-frame mode {mode}")
        if mode == 2:
            mvs.append((read_se(), read_se(), read_se(), read_se()))
        else:
            mvs.append((read_se(), read_se(), 0, 0))
        modes.append(mode)
        if not read_bit():      # skip flag
            for base in range(mb_base, mb_base + mb_coeffs, _N_COEFFS):
                read_block_levels(reader, base, positions, values)
    try:
        vectors = np.array(mvs, dtype=np.int64).reshape(n_mb, 2, 2)
    except OverflowError as exc:
        raise CorruptStreamError(
            "corrupt stream: motion vector exceeds 64 bits") from exc
    return (np.array(modes, dtype=np.intp), vectors,
            *scatter_levels(positions, values))

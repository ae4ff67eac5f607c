"""Entropy coding: Exp-Golomb codes and run-level coefficient coding.

H.264's CAVLC/CABAC are replaced by the simpler (but real and decodable)
Exp-Golomb run-level scheme also used by H.264 for headers and by earlier
codecs for coefficients.  What matters for the reproduction is that bits are
actually spent in proportion to residual energy, so I frames cost more than
P/B frames and higher CRF genuinely shrinks the stream.
"""

from __future__ import annotations

import numpy as np

from .bitstream import BitReader, BitWriter, CorruptStreamError

__all__ = [
    "write_ue",
    "read_ue",
    "write_se",
    "read_se",
    "zigzag_order",
    "encode_coeff_block",
    "decode_coeff_block",
    "read_block_levels",
    "scatter_levels",
    "read_led_blocks",
]


def write_ue(writer: BitWriter, value: int) -> None:
    """Unsigned Exp-Golomb code."""
    if value < 0:
        raise ValueError(f"ue(v) requires v >= 0, got {value}")
    code = value + 1
    n_bits = code.bit_length()
    writer.write_bits(0, n_bits - 1)  # prefix zeros
    writer.write_bits(code, n_bits)


def read_ue(reader: BitReader) -> int:
    return reader.read_ue()


def write_se(writer: BitWriter, value: int) -> None:
    """Signed Exp-Golomb code (H.264 mapping: 0, 1, -1, 2, -2, ...)."""
    if value > 0:
        write_ue(writer, 2 * value - 1)
    else:
        write_ue(writer, -2 * value)


def read_se(reader: BitReader) -> int:
    return reader.read_se()


def _build_zigzag(n: int) -> np.ndarray:
    """Indices of the classic zigzag scan for an n x n block."""
    order = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: (ij[0] + ij[1],
                        ij[1] if (ij[0] + ij[1]) % 2 == 0 else ij[0]),
    )
    flat = np.array([i * n + j for i, j in order], dtype=np.int64)
    return flat


_ZIGZAG_CACHE: dict[int, np.ndarray] = {}


def zigzag_order(n: int = 8) -> np.ndarray:
    """Flattened zigzag scan indices for an ``n x n`` block (cached)."""
    if n not in _ZIGZAG_CACHE:
        _ZIGZAG_CACHE[n] = _build_zigzag(n)
    return _ZIGZAG_CACHE[n]


def encode_coeff_block(writer: BitWriter, coeffs: np.ndarray) -> None:
    """Encode one quantized coefficient block.

    Format: ``ue(n_nonzero)`` then, for each nonzero coefficient in zigzag
    order, ``ue(zero_run_before_it) se(level)``.
    """
    n = coeffs.shape[0]
    if coeffs.shape != (n, n):
        raise ValueError(f"expected square block, got {coeffs.shape}")
    scan = coeffs.reshape(-1)[zigzag_order(n)].astype(np.int64)
    nz_positions = np.nonzero(scan)[0]
    write_ue(writer, len(nz_positions))
    prev = -1
    for pos in nz_positions:
        write_ue(writer, int(pos - prev - 1))
        write_se(writer, int(scan[pos]))
        prev = pos


def read_block_levels(
    reader: BitReader, base: int, positions: list[int], levels: list[int],
    n_coeffs: int = 64,
) -> None:
    """Parse one block's run-level pairs into two growing lists.

    Each nonzero coefficient appends ``base + zigzag position`` to
    ``positions`` and its value to ``levels``; a frame's blocks share the
    lists (``base`` advancing by ``n_coeffs``) and :func:`scatter_levels`
    turns them into arrays in one step.
    """
    read_ue, read_se = reader.read_ue, reader.read_se
    n_nonzero = read_ue()
    if n_nonzero > n_coeffs:
        raise CorruptStreamError(
            f"corrupt block: {n_nonzero} nonzeros in {n_coeffs} coefficients")
    pos = base - 1
    limit = base + n_coeffs
    for _ in range(n_nonzero):
        pos += read_ue() + 1
        level = read_se()
        if pos >= limit:
            raise CorruptStreamError(
                "corrupt block: zigzag position out of range")
        positions.append(pos)
        levels.append(level)


def scatter_levels(
    positions: list[int], levels: list[int], n: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Level arrays of the blocks that have any, from the parsed lists.

    Returns ``(coded, levels)``: the ascending indices of the blocks with at
    least one nonzero coefficient, and their ``(len(coded), n * n)``
    raster-order levels.  Every other block of the frame is all zero.
    """
    n_coeffs = n * n
    try:
        values = np.array(levels, dtype=np.int64)
    except OverflowError as exc:
        raise CorruptStreamError(
            "corrupt block: coefficient level exceeds 64 bits") from exc
    scan = np.array(positions, dtype=np.intp)
    coded, row = np.unique(scan // n_coeffs, return_inverse=True)
    out = np.zeros((len(coded), n_coeffs), dtype=np.int64)
    out[row, zigzag_order(n)[scan % n_coeffs]] = values
    return coded, out


def decode_coeff_block(reader: BitReader, n: int = 8) -> np.ndarray:
    """Decode one block written by :func:`encode_coeff_block`."""
    positions: list[int] = []
    levels: list[int] = []
    read_block_levels(reader, 0, positions, levels, n * n)
    coded, block_levels = scatter_levels(positions, levels, n)
    if not len(coded):
        return np.zeros((n, n), dtype=np.int64)
    return block_levels[0].reshape(n, n)


# ------------------------------------------------------- vectorised parse

def _follow(jump: np.ndarray, start: int, count: int) -> np.ndarray:
    """``start, jump[start], jump[jump[start]], ...`` by pointer doubling,
    up to ``count`` elements or ``jump``'s last index (its own image)."""
    chain = np.array([start])
    while True:
        chain = np.concatenate([chain, jump.take(chain)])
        if len(chain) >= count or chain[-1] == len(jump) - 1:
            return chain[:count]
        jump = jump.take(jump)


def read_led_blocks(
    reader: BitReader, n_blocks: int, n: int = 8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``n_blocks`` coefficient blocks, each led by one ``ue`` — an intra
    frame's block data — parsed without a per-symbol loop.

    Such data is Exp-Golomb codes end to end: the codes in use are the
    chain of :meth:`BitReader.ue_table`'s ``after`` from the cursor, the
    blocks' leads a chain over those (``k`` coefficients make ``2 + 2 * k``
    codes), and runs become zigzag positions by a segmented cumulative
    sum.  Returns ``(leads, coded, levels)``, the last two as
    :func:`scatter_levels` builds them, with the reader past the last
    block — or ``None``, reader untouched, where a code is beyond the
    table or the grammar is broken: the caller walks those bits code by
    code, and that walk says what, if anything, is wrong.
    """
    n_coeffs = n * n
    value, after = reader.ue_table()
    at = _follow(after, reader.bit_position, n_blocks * (2 + 2 * n_coeffs) + 1)
    # The last bit before the sentinel is where the table gave up.
    at = at[:max(np.searchsorted(at, len(after) - 1) - 1, 0)]
    codes = value[at]
    n_codes = len(codes)
    if n_codes < 2:
        return None
    # Lead to next lead, in code indices; past ``n_codes`` is an overrun.
    hop = np.full(n_codes + 2, n_codes + 1)
    hop[:n_codes - 1] = np.minimum(
        np.arange(2, n_codes + 1) + 2 * np.minimum(codes[1:], n_codes),
        n_codes + 1)
    first = _follow(hop, 0, n_blocks + 1)
    if len(first) <= n_blocks or first[-1] > n_codes:
        return None
    first, stop = first[:-1], first[-1]
    leads, counts = codes[first], codes[first + 1]
    if counts.max() > n_coeffs:
        return None
    coded = np.flatnonzero(counts)
    counts = counts[coded]
    start = np.cumsum(counts) - counts      # a block's first coefficient
    run_at = (np.repeat(first[coded] + 2 - 2 * start, counts)
              + 2 * np.arange(counts.sum()))
    ends = np.cumsum(codes[run_at] + 1, dtype=np.int64)
    scan = ends - np.repeat(ends[start] - codes[run_at[start]], counts)
    if scan.max(initial=0) >= n_coeffs:
        return None
    level = codes[run_at + 1].astype(np.int64)
    levels = np.zeros((len(coded), n_coeffs), dtype=np.int64)
    levels[np.repeat(np.arange(len(coded)), counts), zigzag_order(n)[scan]] = (
        np.where(level & 1, (level + 1) >> 1, -(level >> 1)))
    reader.seek(int(after[at[stop - 1]]))
    return leads.astype(np.intp), coded, levels

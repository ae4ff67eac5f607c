"""Tests for DCT, quantization, intra prediction, and motion estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.codec import (
    dct_matrix,
    forward_dct,
    from_blocks,
    inverse_dct,
    to_blocks,
    quantize,
    dequantize,
    qstep_from_qp,
    qp_from_crf,
    frequency_weights,
    plan_segment,
)
from repro.video.codec.intra import (
    MODE_DC,
    MODE_H,
    MODE_V,
    choose_modes,
    neighbours,
    predict_blocks,
)

from .scalar_reference import chroma_vector, compensate, motion_search


class TestDct:
    def test_matrix_orthonormal(self):
        d = dct_matrix()
        np.testing.assert_allclose(d @ d.T, np.eye(8), atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        blocks = rng.uniform(-128, 128, size=(10, 8, 8))
        np.testing.assert_allclose(inverse_dct(forward_dct(blocks)), blocks,
                                   atol=1e-9)

    def test_dc_coefficient(self):
        block = np.full((8, 8), 16.0)
        coeffs = forward_dct(block)
        assert np.isclose(coeffs[0, 0], 16.0 * 8)  # orthonormal: mean * N
        assert np.allclose(coeffs.reshape(-1)[1:], 0.0, atol=1e-9)

    def test_energy_preservation(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(8, 8))
        coeffs = forward_dct(block)
        assert np.isclose(np.sum(block**2), np.sum(coeffs**2))

    def test_to_from_blocks_roundtrip(self):
        rng = np.random.default_rng(2)
        plane = rng.uniform(size=(24, 32))
        np.testing.assert_array_equal(from_blocks(to_blocks(plane)), plane)

    def test_to_blocks_bad_shape(self):
        with pytest.raises(ValueError):
            to_blocks(np.zeros((10, 16)))

    def test_to_blocks_layout(self):
        plane = np.arange(16 * 16).reshape(16, 16).astype(float)
        blocks = to_blocks(plane)
        np.testing.assert_array_equal(blocks[0, 1], plane[0:8, 8:16])
        np.testing.assert_array_equal(blocks[1, 0], plane[8:16, 0:8])


class TestQuant:
    def test_qstep_doubles_every_six(self):
        assert np.isclose(qstep_from_qp(16) / qstep_from_qp(10), 2.0)

    def test_qp_bounds(self):
        with pytest.raises(ValueError):
            qstep_from_qp(-1)
        with pytest.raises(ValueError):
            qstep_from_qp(52)

    def test_crf_mapping(self):
        assert qp_from_crf(0) == 0
        assert qp_from_crf(51) == 51
        with pytest.raises(ValueError):
            qp_from_crf(60)

    def test_quant_dequant_error_bounded(self):
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(-200, 200, size=(8, 8))
        for qp in (0, 10, 30, 51):
            levels = quantize(coeffs, qp)
            rec = dequantize(levels, qp)
            bound = 0.5 * qstep_from_qp(qp) * frequency_weights().max() + 1e-9
            assert np.max(np.abs(rec - coeffs)) <= bound

    def test_higher_qp_more_zeros(self):
        rng = np.random.default_rng(4)
        coeffs = rng.uniform(-20, 20, size=(8, 8))
        nz = [np.count_nonzero(quantize(coeffs, qp)) for qp in (5, 25, 45)]
        assert nz[0] >= nz[1] >= nz[2]

    def test_weights_increase_with_frequency(self):
        w = frequency_weights()
        assert w[0, 0] == 1.0
        assert w[7, 7] == w.max()
        assert np.all(np.diff(w[0]) >= 0)


def _predictions(recon, by, bx, b=8):
    """Every mode's prediction for the block ``(by, bx)`` of ``recon``."""
    blocks = recon.reshape(recon.shape[0] // b, b, recon.shape[1] // b,
                           b).swapaxes(1, 2)
    return predict_blocks(*neighbours(blocks, np.array([by]),
                                      np.array([bx])))[:, 0]


class TestIntraPrediction:
    def test_first_block_dc_default(self):
        recon = np.zeros((16, 16))
        pred = _predictions(recon, 0, 0)[MODE_DC]
        np.testing.assert_allclose(pred, 128.0)

    def test_vertical_copies_top_row(self):
        recon = np.zeros((16, 16))
        recon[7, 8:16] = np.arange(8)
        pred = _predictions(recon, 1, 1)[MODE_V]
        for row in pred:
            np.testing.assert_array_equal(row, np.arange(8))

    def test_horizontal_copies_left_col(self):
        recon = np.zeros((16, 16))
        recon[8:16, 7] = np.arange(8)
        pred = _predictions(recon, 1, 1)[MODE_H]
        for col in pred.T:
            np.testing.assert_array_equal(col, np.arange(8))

    def test_no_left_neighbor_defaults(self):
        recon = np.zeros((16, 16))
        pred = _predictions(recon, 1, 0)[MODE_H]
        np.testing.assert_allclose(pred, 128.0)

    def test_dc_uses_neighbors(self):
        recon = np.zeros((16, 16))
        recon[7, 0:8] = 100.0  # top row of block (1, 0)
        pred = _predictions(recon, 1, 0)[MODE_DC]
        np.testing.assert_allclose(pred, 100.0)

    def test_choose_mode_picks_vertical_for_vertical_pattern(self):
        recon = np.zeros((16, 16))
        column_pattern = np.tile(np.arange(8) * 20.0, (8, 1))
        recon[0:8, 0:8] = column_pattern  # block above reconstructed
        original = np.zeros((16, 16))
        original[8:16, 0:8] = column_pattern
        modes, preds = choose_modes(_predictions(recon, 1, 0)[:, None],
                                    original[None, 8:16, 0:8])
        assert modes[0] == MODE_V
        np.testing.assert_allclose(preds[0], column_pattern)


class TestMotion:
    def _shifted_pair(self, dy, dx, seed=0):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 255, size=(64, 64)).astype(np.uint8)
        target = np.zeros_like(ref)
        target[16:32, 16:32] = ref[16 + dy:32 + dy, 16 + dx:32 + dx]
        return ref, target

    @pytest.mark.parametrize("dy,dx", [(0, 0), (3, -2), (-5, 4), (7, 7)])
    def test_finds_exact_shift(self, dy, dx):
        ref, target = self._shifted_pair(dy, dx)
        got_dy, got_dx, sad = motion_search(ref, target, 16, 16, search_range=7)
        assert (got_dy, got_dx) == (dy, dx)
        assert sad == 0.0

    def test_respects_frame_bounds(self):
        rng = np.random.default_rng(1)
        ref = rng.integers(0, 255, size=(32, 32)).astype(np.uint8)
        target = rng.integers(0, 255, size=(32, 32)).astype(np.uint8)
        dy, dx, _ = motion_search(ref, target, 0, 0, search_range=7)
        assert dy >= 0 and dx >= 0  # cannot leave top-left corner

    def test_compensate_matches_slice(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(size=(32, 32))
        block = compensate(ref, 8, 8, 2, -3, 16, 16)
        np.testing.assert_array_equal(block, ref[10:26, 5:21])

    def test_compensate_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            compensate(np.zeros((32, 32)), 16, 16, 10, 10, 16, 16)

    def test_chroma_vector_halves(self):
        assert chroma_vector(4, -6) == (2, -3)
        assert chroma_vector(5, -5) == (2, -3)  # floor division

    @given(st.integers(-7, 7), st.integers(-7, 7))
    @settings(max_examples=30, deadline=None)
    def test_property_chroma_vector_in_half_range(self, dy, dx):
        cy, cx = chroma_vector(dy, dx)
        assert abs(cy) <= (abs(dy) + 1) // 2 + 1
        assert abs(cx) <= (abs(dx) + 1) // 2 + 1


class TestGopPlanning:
    def test_single_frame(self):
        plans = plan_segment(0, 1)
        assert len(plans) == 1
        assert plans[0].ftype == "I"

    def test_every_display_planned_once(self):
        plans = plan_segment(10, 17, n_b_frames=2)
        displays = sorted(p.display for p in plans)
        assert displays == list(range(10, 27))

    def test_b_frames_have_both_refs(self):
        for plan in plan_segment(0, 20, n_b_frames=3):
            if plan.ftype == "B":
                assert plan.fwd_ref is not None and plan.bwd_ref is not None
                assert plan.fwd_ref < plan.display < plan.bwd_ref

    def test_p_frames_reference_past_anchor(self):
        plans = plan_segment(0, 20, n_b_frames=2)
        anchors = {p.display for p in plans if p.ftype in ("I", "P")}
        for plan in plans:
            if plan.ftype == "P":
                assert plan.fwd_ref in anchors
                assert plan.fwd_ref < plan.display

    def test_refs_decoded_before_use(self):
        """In encode order, every reference precedes its dependent frame."""
        plans = plan_segment(0, 23, n_b_frames=2)
        decoded = set()
        for plan in plans:
            if plan.fwd_ref is not None:
                assert plan.fwd_ref in decoded
            if plan.bwd_ref is not None:
                assert plan.bwd_ref in decoded
            decoded.add(plan.display)

    def test_no_b_frames_mode(self):
        plans = plan_segment(0, 10, n_b_frames=0)
        assert [p.ftype for p in plans] == ["I"] + ["P"] * 9

    def test_extra_i_interval(self):
        plans = plan_segment(0, 30, n_b_frames=0, extra_i_interval=10)
        i_frames = sorted(p.display for p in plans if p.ftype == "I")
        assert i_frames == [0, 10, 20]

    def test_last_frame_is_anchor(self):
        plans = plan_segment(0, 17, n_b_frames=4)
        last = [p for p in plans if p.display == 16]
        assert last[0].ftype in ("I", "P")

    def test_bad_args(self):
        with pytest.raises(ValueError):
            plan_segment(0, 0)
        with pytest.raises(ValueError):
            plan_segment(0, 5, n_b_frames=-1)
        with pytest.raises(ValueError):
            plan_segment(0, 5, extra_i_interval=0)

    @given(st.integers(1, 60), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_property_plan_is_complete_and_causal(self, length, n_b):
        plans = plan_segment(0, length, n_b_frames=n_b)
        assert sorted(p.display for p in plans) == list(range(length))
        decoded = set()
        for plan in plans:
            for ref in (plan.fwd_ref, plan.bwd_ref):
                if ref is not None:
                    assert ref in decoded
            decoded.add(plan.display)

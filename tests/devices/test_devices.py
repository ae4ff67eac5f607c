"""Tests for FLOPs tracing, the latency/memory model, and power simulation."""

import numpy as np
import pytest

from repro import nn
from repro.devices import (
    DEVICES,
    OutOfMemory,
    get_device,
    inference_seconds,
    model_forward_flops,
    playback_fps,
    playback_power_schedule,
    profile_at_resolution,
    simulate_power,
    sr_power_draw,
    trace_model,
)
from repro.sr import EDSR, EdsrConfig, big_model_config, dcsr_config


class TestFlopsTracing:
    def test_conv_flops_exact(self):
        """A single conv's FLOPs match the closed-form count."""
        conv = nn.Conv2d(3, 8, 3)
        profile = trace_model(conv, (3, 10, 10))
        expected = 2 * 3 * 9 * 8 * 10 * 10 + 8 * 10 * 10
        assert profile.flops == expected

    def test_dense_flops(self):
        dense = nn.Dense(10, 5)
        profile = trace_model(dense, (10,))
        assert profile.flops == 2 * 10 * 5 + 5

    def test_stride_reduces_flops(self):
        c1 = nn.Conv2d(3, 8, 3, stride=1, padding=1)
        c2 = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        f1 = trace_model(c1, (3, 16, 16)).flops
        f2 = trace_model(c2, (3, 16, 16)).flops
        assert f2 < f1 / 3

    def test_output_shape_tracked(self):
        seq = nn.Sequential(nn.Conv2d(3, 8, 3, stride=2, padding=1),
                            nn.ReLU(), nn.Flatten())
        profile = trace_model(seq, (3, 16, 16))
        assert profile.output_shape == (8 * 8 * 8,)

    def test_edsr_traced_via_head_body_tail(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8, scale=2))
        profile = trace_model(model, (3, 8, 8))
        assert profile.flops > 0
        assert profile.output_shape == (3, 16, 16)

    def test_flops_scale_with_input_area(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8))
        small = model_forward_flops(model, 8, 8)
        large = model_forward_flops(model, 16, 16)
        assert 3.5 < large / small < 4.5

    def test_flops_scale_with_resblocks(self):
        f1 = model_forward_flops(EDSR(EdsrConfig(n_resblocks=4, n_filters=16)), 16, 16)
        f2 = model_forward_flops(EDSR(EdsrConfig(n_resblocks=16, n_filters=16)), 16, 16)
        assert f2 > 2.5 * f1

    def test_param_bytes_match_model(self):
        model = EDSR(EdsrConfig(n_resblocks=2, n_filters=8))
        profile = trace_model(model, (3, 8, 8))
        assert profile.param_bytes == sum(p.nbytes for p in model.parameters())

    def test_untraceable_layer_raises(self):
        class Weird(nn.Layer):
            pass
        with pytest.raises(TypeError):
            trace_model(Weird(), (3, 8, 8))


class TestDeviceSpecs:
    def test_known_devices(self):
        for name in ("jetson", "laptop", "desktop"):
            spec = get_device(name)
            assert spec.effective_flops > 0

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            get_device("phone")

    def test_device_ordering(self):
        """Desktop > laptop > jetson in compute."""
        j, l, d = (get_device(n).effective_flops
                   for n in ("jetson", "laptop", "desktop"))
        assert j < l < d

    def test_decode_rate_lookup(self):
        spec = get_device("jetson")
        assert spec.decode_rate("720p") > spec.decode_rate("4k")
        with pytest.raises(ValueError):
            spec.decode_rate("8k")


class TestLatencyModel:
    def test_inference_seconds_positive(self):
        model = EDSR(dcsr_config(1, scale=2))
        cost = inference_seconds(model, "720p", get_device("jetson"))
        assert cost.seconds > 0
        assert cost.memory_bytes > 0

    def test_bigger_model_slower(self):
        dev = get_device("jetson")
        t1 = inference_seconds(EDSR(dcsr_config(1, scale=2)), "720p", dev).seconds
        t3 = inference_seconds(EDSR(dcsr_config(3, scale=2)), "720p", dev).seconds
        assert t3 > t1

    def test_profile_uses_sr_input_size(self):
        model = EDSR(EdsrConfig(n_resblocks=1, n_filters=4, scale=2))
        profile = profile_at_resolution(model, "720p")
        assert profile.output_shape == (3, 720, 720 // 720 * 1280)

    def test_big_models_oom_on_jetson_at_4k(self):
        """The paper's key memory result (Figure 8)."""
        jetson = get_device("jetson")
        big = EDSR(big_model_config("4k"))
        with pytest.raises(OutOfMemory):
            inference_seconds(big, "4k", jetson)

    def test_big_models_fit_on_desktop_at_4k(self):
        """Figure 12: discrete GPUs run the big model at 4K."""
        big = EDSR(big_model_config("4k"))
        assert inference_seconds(big, "4k", get_device("desktop")).seconds > 0
        assert inference_seconds(big, "4k", get_device("laptop")).seconds > 0

    def test_dcsr_fits_jetson_at_4k(self):
        model = EDSR(dcsr_config(1, scale=4))
        assert inference_seconds(model, "4k", get_device("jetson")).seconds > 0

    def test_big_model_fits_jetson_at_1080p(self):
        """NAS runs (slowly) at 1080p on the Jetson — it must not OOM."""
        big = EDSR(big_model_config("1080p"))
        assert inference_seconds(big, "1080p",
                                 get_device("jetson")).seconds > 0


class TestPlaybackFps:
    def test_dcsr1_realtime_on_jetson_everywhere(self):
        """Headline claim: dcSR-1 exceeds 30 FPS at one inference/segment."""
        jetson = get_device("jetson")
        for res in ("720p", "1080p", "4k"):
            from repro.sr import RESOLUTIONS
            model = EDSR(dcsr_config(1, scale=RESOLUTIONS[res].sr_scale))
            assert playback_fps(model, res, jetson, 30, 1) >= 30.0, res

    def test_nas_below_one_fps_at_1080p(self):
        jetson = get_device("jetson")
        big = EDSR(big_model_config("1080p"))
        assert playback_fps(big, "1080p", jetson, 30, 30) < 1.0

    def test_fps_decreases_with_inferences(self):
        jetson = get_device("jetson")
        model = EDSR(dcsr_config(2, scale=2))
        fps = [playback_fps(model, "1080p", jetson, 30, k) for k in (1, 3, 5)]
        assert fps[0] > fps[1] > fps[2]

    def test_zero_inferences_is_decode_bound(self):
        jetson = get_device("jetson")
        model = EDSR(dcsr_config(1, scale=2))
        fps = playback_fps(model, "720p", jetson, 30, 0)
        assert np.isclose(fps, jetson.decode_rate("720p"))

    def test_validation(self):
        jetson = get_device("jetson")
        model = EDSR(dcsr_config(1, scale=2))
        with pytest.raises(ValueError):
            playback_fps(model, "720p", jetson, 0, 0)
        with pytest.raises(ValueError):
            playback_fps(model, "720p", jetson, 10, 11)


class TestPowerModel:
    def test_sr_power_between_bounds(self):
        dev = get_device("jetson")
        watts = sr_power_draw(dev, 1e10, 0.05)
        assert dev.power_sr_min_w <= watts <= dev.power_sr_max_w

    def test_saturating_model_draws_max(self):
        dev = get_device("jetson")
        watts = sr_power_draw(dev, dev.effective_flops, 1.0)
        assert np.isclose(watts, dev.power_sr_max_w)

    def test_zero_duration_draws_nothing(self):
        assert sr_power_draw(get_device("jetson"), 1e9, 0.0) == 0.0

    def test_schedule_intervals(self):
        intervals = playback_power_schedule([5.0, 5.0, 5.0], 2, 0.1)
        assert len(intervals) == 3
        starts = [s for s, _ in intervals]
        assert starts == [0.0, 5.0, 10.0]
        assert all(np.isclose(d, 0.2) for _, d in intervals)

    def test_simulate_baseline_power(self):
        dev = get_device("jetson")
        timeline = simulate_power(dev, 10.0, [], 0.0)
        baseline = dev.power_idle_w + dev.power_decode_w
        np.testing.assert_allclose(timeline.watts, baseline)
        assert np.isclose(timeline.energy_joules, baseline * 10.0, rtol=0.01)

    def test_spikes_raise_energy(self):
        dev = get_device("jetson")
        quiet = simulate_power(dev, 10.0, [], 1.0)
        spiky = simulate_power(dev, 10.0, [(0.0, 1.0), (5.0, 1.0)], 1.0)
        assert spiky.energy_joules > quiet.energy_joules
        assert spiky.peak_watts > quiet.peak_watts

    def test_continuous_vs_periodic_ordering(self):
        """NAS-style continuous draw uses more energy than dcSR spikes."""
        dev = get_device("jetson")
        nas = simulate_power(dev, 60.0, [(0.0, 60.0)], 1.9)
        dcsr = simulate_power(dev, 60.0,
                              [(t, 0.1) for t in range(0, 60, 8)], 1.1)
        assert nas.energy_joules > 2.0 * dcsr.energy_joules

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            simulate_power(get_device("jetson"), 0.0, [], 1.0)

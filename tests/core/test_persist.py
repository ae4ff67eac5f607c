"""Tests for package persistence (save/load round trip)."""

import json

import numpy as np
import pytest

from repro.core import DcsrClient, load_package, save_package


class TestPersistence:
    def test_roundtrip_layout(self, package, tmp_path):
        root = save_package(package, tmp_path / "pkg")
        assert (root / "manifest.json").exists()
        n_segments = package.manifest.n_segments
        assert len(list((root / "segments").glob("*.bin"))) == n_segments
        assert len(list((root / "models").glob("*.npz"))) == package.n_models

    def test_loaded_manifest_matches(self, package, tmp_path):
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        assert loaded.manifest.label_sequence() == package.manifest.label_sequence()
        assert loaded.manifest.model_sizes == package.manifest.model_sizes
        assert loaded.manifest.n_frames == package.manifest.n_frames

    def test_loaded_bitstreams_identical(self, package, tmp_path):
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        for a, b in zip(package.encoded.segments, loaded.encoded.segments):
            assert a.payload == b.payload

    def test_loaded_models_bitexact(self, package, tmp_path):
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        x = np.random.default_rng(0).uniform(
            size=(1, 3, 16, 16)).astype(np.float32)
        for label, model in package.models.items():
            np.testing.assert_array_equal(model.forward(x),
                                          loaded.models[label].forward(x))

    def test_playback_identical_after_reload(self, package, small_clip, tmp_path):
        """A client playing the reloaded package produces identical frames."""
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        original = DcsrClient(package).play(small_clip.frames)
        reloaded = DcsrClient(loaded).play(small_clip.frames)
        assert np.isclose(original.mean_psnr, reloaded.mean_psnr)
        for a, b in zip(original.frames, reloaded.frames):
            np.testing.assert_array_equal(a, b)
        assert original.model_bytes == reloaded.model_bytes

    def test_quantization_block_roundtrips(self, package, tmp_path):
        """The calibration records (per-label, per-precision sizes and
        PSNR deltas) survive save/load — clients trust the reloaded
        manifest for byte accounting and budget display."""
        assert package.manifest.quantization, "build should have calibrated"
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        assert set(loaded.manifest.quantization) == \
            set(package.manifest.quantization)
        for label, per_precision in package.manifest.quantization.items():
            reloaded = loaded.manifest.quantization[label]
            assert set(reloaded) == set(per_precision)
            for precision, record in per_precision.items():
                assert reloaded[precision].size_bytes == record.size_bytes
                assert reloaded[precision].delta_db == record.delta_db
        for label in package.manifest.model_sizes:
            for precision in ("fp32", "int8"):
                assert loaded.manifest.model_size_for(label, precision) == \
                    package.manifest.model_size_for(label, precision)

    def test_legacy_package_without_quantization_loads(self, package,
                                                       tmp_path):
        """Packages written before the quantize stage have no block in
        the manifest; loading must default to empty, not fail."""
        root = save_package(package, tmp_path / "pkg")
        meta = json.loads((root / "manifest.json").read_text())
        meta.pop("quantization", None)
        (root / "manifest.json").write_text(json.dumps(meta))
        loaded = load_package(root)
        assert loaded.manifest.quantization == {}
        # Byte accounting falls back to the fp32 size for every precision.
        label = next(iter(loaded.manifest.model_sizes))
        assert loaded.manifest.model_size_for(label, "int8") == \
            loaded.manifest.model_sizes[label]

    def test_frame_info_roundtrips(self, package, tmp_path):
        """Per-frame metadata (display/type/bits) survives save/load —
        a loaded package keeps i_frame_displays and bits_by_type, and
        the fleet's trace mode can count I frames for SR demand."""
        save_package(package, tmp_path / "pkg")
        loaded = load_package(tmp_path / "pkg")
        for a, b in zip(package.encoded.segments, loaded.encoded.segments):
            assert [(f.display, f.ftype, f.n_bits) for f in a.frames] == \
                [(f.display, f.ftype, f.n_bits) for f in b.frames]
            assert a.i_frame_displays == b.i_frame_displays
            assert b.i_frame_displays      # at least the closed-GOP opener
        assert loaded.encoded.bits_by_type() == package.encoded.bits_by_type()

    def test_legacy_package_without_frame_info_loads(self, package,
                                                     tmp_path):
        """Packages written before frame_info was persisted load with
        empty frame lists, as before — not a failure."""
        root = save_package(package, tmp_path / "pkg")
        meta = json.loads((root / "manifest.json").read_text())
        meta.pop("frame_info", None)
        (root / "manifest.json").write_text(json.dumps(meta))
        loaded = load_package(root)
        assert all(seg.frames == [] for seg in loaded.encoded.segments)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_package(tmp_path / "nope")

    def test_bad_version_raises(self, package, tmp_path):
        root = save_package(package, tmp_path / "pkg")
        meta = json.loads((root / "manifest.json").read_text())
        meta["format_version"] = 999
        (root / "manifest.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_package(root)


class TestAtomicSave:
    """The manifest is what makes a directory a package, so it is written
    last and whole: a save that fails part-way leaves nothing loadable."""

    def test_failed_payload_write_leaves_no_manifest(self, package, tmp_path,
                                                     monkeypatch):
        import repro.nn as nn

        real_save, calls = nn.save_model, []

        def save_model(model, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            real_save(model, path)

        monkeypatch.setattr(nn, "save_model", save_model)
        root = tmp_path / "pkg"
        with pytest.raises(OSError, match="disk full"):
            save_package(package, root)
        assert not (root / "manifest.json").exists()
        with pytest.raises(FileNotFoundError, match="no manifest"):
            load_package(root)

    def test_failed_manifest_write_leaves_no_partial_file(self, package,
                                                          tmp_path,
                                                          monkeypatch):
        def dump(obj, handle, **kwargs):
            handle.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump)
        root = tmp_path / "pkg"
        with pytest.raises(OSError, match="disk full"):
            save_package(package, root)
        assert sorted(p.name for p in root.iterdir()) == ["models",
                                                          "segments"]

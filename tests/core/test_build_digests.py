"""Server build output pinned to the bits of the two-implementation build.

``build_package`` used to write encode, decode, embed and train twice
each — a sequential body and a pool body per stage.  Every stage is now
one task list through :func:`repro.core.parallel.run_tasks`, and this
suite holds that one path to the old bits: ``build_digests.json`` was
recorded from the sequential bodies of the last commit that had both
(77ba5ff), for three configs that between them reach every branch of the
build — K selection, ``k_override``, shot and fixed-length splits,
quantization, two model tiers, in-loop validation, a cold and a warm
training cache — and is checked here at ``workers=1``, ``thread x2`` and
``process x2``.

Trained weights depend on the BLAS build, so the file also records a
canary sgemm digest; on a different BLAS the suite skips instead of
failing.  Regenerate (only for a deliberate change of what a build
produces) with ``PYTHONPATH=src python tests/core/test_build_digests.py``.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core import ParallelConfig, ServerConfig, build_package, save_package
from repro.features import VaeTrainConfig
from repro.nn import serialize_to_bytes
from repro.sr import EdsrConfig, SrTrainConfig
from repro.video import make_video
from repro.video.codec import CodecConfig

DIGEST_FILE = Path(__file__).parent / "build_digests.json"
DIGESTS = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}

BACKENDS = {
    "serial": ParallelConfig(chunk_size=2),
    "thread": ParallelConfig(workers=2, backend="thread", chunk_size=2),
    "process": ParallelConfig(workers=2, backend="process", chunk_size=2),
}


def _clip():
    # 50 frames with three detectable shot changes (18, 37, 45).
    return make_video("digest", "music", seed=3, size=(32, 32),
                      duration_seconds=10.0, fps=5, n_distinct_scenes=3)


def _config(**overrides) -> ServerConfig:
    base = dict(
        codec=CodecConfig(crf=51),
        vae_train=VaeTrainConfig(epochs=3, batch_size=4),
        sr_train=SrTrainConfig(epochs=2, steps_per_epoch=3, batch_size=2,
                               patch_size=8),
        micro_config=EdsrConfig(n_resblocks=1, n_filters=4),
    )
    base.update(overrides)
    return ServerConfig(**base)


#: name -> ServerConfig overrides.  ``warm-cache`` additionally gets a
#: ``train_cache_dir`` and is built twice (see ``_build``).
CONFIGS = {
    "select-k": dict(max_segment_len=8, validate_in_loop=True),
    "tiers": dict(fixed_segment_len=6, k_override=2, validate_in_loop=False,
                  model_tiers=("dcSR-1", "dcSR-2")),
    "warm-cache": dict(fixed_segment_len=8, k_override=3,
                       validate_in_loop=False, quantize_precisions=()),
}


def _sha(*chunks: bytes) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()[:16]


def _canary() -> str:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 72)).astype(np.float32)
    b = rng.standard_normal((72, 8)).astype(np.float32)
    return _sha((a @ b).tobytes())


def _digest(package, scratch: Path) -> dict[str, str]:
    """One short sha256 per artifact of a build, saved layout included."""
    root = save_package(package, scratch / "pkg")
    listing = sorted(str(p.relative_to(root)) for p in root.rglob("*")
                     if p.is_file())
    return {
        "manifest": _sha(json.dumps(asdict(package.manifest),
                                    sort_keys=True).encode()),
        "segments": _sha(*[
            seg.payload + repr([(f.display, f.ftype, f.n_bits)
                                for f in seg.frames]).encode()
            for seg in package.encoded.segments]),
        "models": _sha(*[serialize_to_bytes(model)
                         for _label, model in sorted(package.models.items())]),
        "tier_models": _sha(*[
            serialize_to_bytes(model)
            for _tier, by_label in sorted(package.tier_models.items())
            for _label, model in sorted(by_label.items())]),
        "features": _sha(np.ascontiguousarray(package.features).tobytes()),
        "decoded_low": _sha(*[np.ascontiguousarray(frame.y).tobytes()
                              for frame in package.decoded_low.frames]),
        "saved": _sha("\n".join(listing).encode(),
                      (root / "manifest.json").read_bytes()),
    }


def _build(name: str, parallel: ParallelConfig, scratch: Path):
    """The package of config ``name``; for ``warm-cache`` the *second*
    build over one cache directory, after checking it trained nothing and
    reproduced the cold build."""
    overrides = dict(CONFIGS[name], parallel=parallel)
    if name != "warm-cache":
        return build_package(_clip(), _config(**overrides))
    overrides["train_cache_dir"] = str(scratch / "cache")
    cold = build_package(_clip(), _config(**overrides))
    warm = build_package(_clip(), _config(**overrides))
    assert cold.telemetry.cache_misses == cold.n_models
    assert warm.telemetry.cache_hits == warm.n_models
    assert warm.telemetry.cache_misses == 0
    cold_dir = scratch / "cold"
    cold_dir.mkdir()
    assert _digest(cold, cold_dir) == _digest(warm, scratch)
    return warm


@pytest.mark.skipif(_canary() != DIGESTS.get("canary"),
                    reason="different BLAS build than the recorded digests")
@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_build_bits_match_recorded_build(name, backend, four_cores, tmp_path):
    package = _build(name, BACKENDS[backend], tmp_path)
    assert package.telemetry.backend == backend
    assert _digest(package, tmp_path) == DIGESTS[name]


def test_digest_file_covers_the_configs():
    assert set(DIGESTS) == {"canary"} | set(CONFIGS)


if __name__ == "__main__":
    digests = {"canary": _canary()}
    for config_name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[config_name] = _digest(
                _build(config_name, BACKENDS["serial"], Path(tmp)), Path(tmp))
    Path(sys.argv[1] if len(sys.argv) > 1 else DIGEST_FILE).write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")

"""``play --url`` mirrors the package before it plays: into ``--mirror DIR``
when given (kept), else into a temporary directory that ``play`` made and
removes after the session, on error too.  The session then downloads
over the transport that mirrored it, every download a full transfer."""

import os
import subprocess
import sys

import pytest

from repro.core import DcsrClient, load_package
from repro.net import HttpTransport, mirror_package

pytestmark = pytest.mark.net


def test_session_after_mirror_transfers_every_download(net_loop, origin,
                                                        tmp_path):
    """What ``play --url`` does, in process: the transport that mirrored
    the package holds no copy of it, so each of the session's downloads
    is a 200 that moves the artifact's on-disk bytes, never a 304."""
    with HttpTransport(origin.base_url, loop=net_loop) as transport:
        mirror = mirror_package(transport, tmp_path / "mirror")
        result = DcsrClient(load_package(mirror), network=transport).play()
        downloaded = [("segment", s.index) for s in result.telemetry.segments]
        downloaded += [("model", label) for label in result.model_downloads]
        on_disk = sum((mirror / transport.path_for(kind, key)).stat().st_size
                      for kind, key in downloaded)
        assert result.model_downloads
        assert transport.stats.attempts == len(downloaded)
        assert transport.stats.bytes_delivered == on_disk
    requests = origin.obs.metrics.counter("dcsr_origin_requests_total")
    assert {dict(key)["status"] for key in requests.series()} == {"200"}


@pytest.fixture
def origin_url(package_dir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-origin", str(package_dir),
         "--port", "0"], stdout=subprocess.PIPE, text=True, env=env)
    try:
        yield child.stdout.readline().split(" at ")[1].strip()
    finally:
        child.terminate()
        child.wait(timeout=10)
        child.stdout.close()


def _play(tmp_path, *argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, "-m", "repro.cli", "play", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def _mirrors(tmp_path) -> list:
    return sorted(tmp_path.glob("dcsr-mirror-*"))


def test_temporary_mirrors_are_removed_and_named_ones_kept(tmp_path,
                                                           origin_url):
    for _ in range(2):
        proc = _play(tmp_path, "--url", origin_url)
        assert proc.returncode == 0, proc.stderr
        assert "(temporary, removed after the session)" in proc.stdout
        assert _mirrors(tmp_path) == []
    kept = tmp_path / "kept"
    proc = _play(tmp_path, "--url", origin_url, "--mirror", str(kept))
    assert proc.returncode == 0, proc.stderr
    assert "removed after the session" not in proc.stdout
    assert (kept / "manifest.json").is_file()
    assert _mirrors(tmp_path) == []


def test_temporary_mirror_is_removed_when_the_session_fails(tmp_path):
    """Nothing listens on the discard port: the mirror's first download
    fails, and the directory made for it goes with it."""
    proc = _play(tmp_path, "--url", "http://127.0.0.1:9/", "--timeout", "1")
    assert proc.returncode != 0
    assert _mirrors(tmp_path) == []

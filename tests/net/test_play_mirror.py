"""``play --url`` mirrors the package before it plays: into ``--mirror DIR``
when given (kept), else into a temporary directory that ``play`` made and
removes after the session, on error too."""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.net


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

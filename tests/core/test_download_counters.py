"""The five download counter families held to recorded values.

``download_counters.json`` was recorded at commit b133910, when every
network pushed ``dcsr_download_*`` / ``dcsr_backoff_*`` increments into
the registry itself, one per attempt.  The counters are now rendered
once per session from the fetch stage's ledger
(:func:`repro.core.session.count_downloads`); each case below must
reproduce the recorded ``(family, labels, value)`` rows with ``==`` —
the backoff sums included, which fixes the order the ledger adds them
in.  The cases: a lossy client session (one model fetch falls back, one
segment conceals), the same through the prefetch pipeline, a strict-mode
session that aborts on its first model fetch, a trace-mode fleet and a
playback fleet on a shared pool.

The rows depend on the byte trace of the small package
``tests/serve/test_pool_reference.py`` builds; on a host whose build
differs every case skips, as the fleet digests there do.  Regenerate
(only for a deliberate change of what a download counts) with
``PYTHONPATH=src python -m tests.core.test_download_counters``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core import (DcsrClient, FastPathConfig, NetworkConfig,
                        RetryPolicy, SimulatedNetwork)
from repro.core.network import DownloadError
from repro.serve import FleetConfig, FleetSimulator

from ..serve.test_pool_reference import _package, _package_fingerprint

ROWS_FILE = Path(__file__).parent / "download_counters.json"
RECORDED = json.loads(ROWS_FILE.read_text()) if ROWS_FILE.exists() else {}

FAMILIES = ("dcsr_backoff_seconds_total", "dcsr_download_attempts_total",
            "dcsr_download_bytes_total", "dcsr_download_failures_total",
            "dcsr_download_retries_total")

#: One boolean per attempt, in call order (model then segment, four
#: distinct labels): model 0 ok; segment 0 after one retry; model 1 out
#: of budget (fallback); segment 1 ok; model 2 after two retries;
#: segment 2 out of budget (concealed); the rest clean.
_LOSSY = [False, True, False, True, True, True, False,
          True, True, False, True, True, True]
_RETRY = RetryPolicy(retries=2, backoff_s=0.03, backoff_factor=1.7)
_LOSS = dict(fail_rate=0.2, retries=2, fallback=True, latency_s=0.005,
             seed=3)


def download_rows(metrics) -> list:
    """Sorted ``[family, [[label, value], ...], value]`` rows of the
    download families in a registry (JSON-shaped)."""
    return sorted([metric.name, [list(pair) for pair in key], value]
                  for metric in metrics.metrics() if metric.name in FAMILIES
                  for key, value in metric.series().items())


def _client_session(fast_path=None, schedule=_LOSSY, fallback=True):
    network = SimulatedNetwork(
        NetworkConfig(bandwidth_bps=2e6, latency_s=0.02),
        failure_schedule=schedule)
    client = DcsrClient(_package(), network=network, retry=_RETRY,
                        fallback=fallback, fast_path=fast_path)
    return client, network


def _lossy(fast_path=None):
    client, _ = _client_session(fast_path)
    result = client.play()
    assert result.fallback_segments == [1] and result.skipped_segments == [2]
    return client.obs.metrics


def _strict():
    client, network = _client_session(schedule=[True] * 3, fallback=False)
    with pytest.raises(DownloadError):
        client.play()
    assert network.stats.attempts == 3
    return client.obs.metrics


def _fleet(**config):
    sim = FleetSimulator(_package(), FleetConfig(**config, **_LOSS))
    sim.run()
    return sim.obs.metrics


CASES = {
    "client/lossy": _lossy,
    "client/lossy_prefetch": lambda: _lossy(FastPathConfig(prefetch=2)),
    "client/strict_abort": _strict,
    "fleet/trace": lambda: _fleet(sessions=8, mode="trace",
                                  arrival="poisson:50.0",
                                  bandwidth_bps=1e6),
    "fleet/playback": lambda: _fleet(sessions=3, mode="playback",
                                     arrival="uniform:0.01",
                                     bandwidth_bps=2e6),
}


@pytest.mark.parametrize("key", list(CASES))
def test_session_reproduces_the_recorded_rows(key):
    if _package_fingerprint() != RECORDED.get("package"):
        pytest.skip("this host builds a different package byte trace "
                    "than the one the rows were recorded with")
    rows = download_rows(CASES[key]())
    assert rows and rows == RECORDED[key]


def test_row_file_covers_the_cases():
    assert set(RECORDED) == {"package"} | set(CASES)


if __name__ == "__main__":
    recorded = {"package": _package_fingerprint()}
    recorded.update({key: download_rows(run()) for key, run in CASES.items()})
    Path(sys.argv[1] if len(sys.argv) > 1 else ROWS_FILE).write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n")

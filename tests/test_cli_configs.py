"""What ``play`` and ``serve`` hand the library, flag by flag.

Every ``play``/``serve`` flag ends up in a config object or a constructor
argument.  These tests replace what the CLI constructs —
``repro.core.load_package``/``DcsrClient``, ``repro.serve.FleetSimulator``,
``repro.control.build_controller`` and ``repro.net.HttpTransport``/
``mirror_package`` — with recorders, run ``main(argv)`` to completion and
compare the record with a table.  No package is built and nothing is
played, so the whole table runs in about a second.

The table covers every ``play``/``serve`` flag at least once, the
flagless runs, and explicit defaults: a typed default reaches the config
as typed (``--prefetch 0`` and ``--sr-kernel shift`` turn calibration on,
as any fast-path flag does), while ``--fail-rate 0`` shapes no link and
is accepted next to ``--url``.
"""

import inspect
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.control
import repro.core
import repro.net
import repro.serve
from repro.cli import main
from repro.core import FastPathConfig, NetworkConfig, RetryPolicy
from repro.devices import get_device
from repro.serve import FleetConfig

URL = "http://127.0.0.1:9"

_REAL = {"build_controller": repro.control.build_controller,
         "DcsrClient": repro.core.DcsrClient,
         "FleetSimulator": repro.serve.FleetSimulator,
         "HttpTransport": repro.net.HttpTransport}


def _bound(name, *args, **kwargs) -> dict:
    """``args``/``kwargs`` of a call to ``name`` keyed by parameter, with
    the parameter defaults filled in, so positional and keyword spellings
    of one call record the same."""
    bound = inspect.signature(_REAL[name]).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def sim(**fields):
    return ("SimulatedNetwork", NetworkConfig(**fields))


def http(url=URL, **kwargs):
    return ("HttpTransport", _bound("HttpTransport", url, **kwargs))


def ctl(name, device, **kwargs):
    return _bound("build_controller", name, get_device(device), **kwargs)


class _Transport:
    def __init__(self, *args, **kwargs):
        self.record = ("HttpTransport",
                       _bound("HttpTransport", *args, **kwargs))

    def close(self):
        pass


class _Controller:
    decisions = ()
    mean_power_w = 0.0

    def __init__(self, *args, **kwargs):
        self.record = _bound("build_controller", *args, **kwargs)


def _network(network):
    if network is None or isinstance(network, _Transport):
        return network and network.record
    return (type(network).__name__, network.config)


@pytest.fixture
def run(monkeypatch, tmp_path):
    """``run(argv)`` -> the record of one ``main(argv)``.  ``{ref}`` and
    ``{out}`` in argv name a tiny reference clip and an output directory
    whose written file names are recorded."""
    ref = tmp_path / "ref.npz"
    np.savez(ref, name="ref", genre="news", fps=10.0,
             frames=np.zeros((2, 16, 16, 3), np.uint8),
             scene_ids=np.zeros(2, np.int64))
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    record = {}

    def norm(path):
        path = Path(path)
        return "<mkdtemp>" if path.parent == tmp_path / "tmp" else str(path)

    def load_package(path):
        record["source"] = ("package", norm(path))
        return record["source"]

    def mirror_package(transport, dest):
        record["mirror"] = (transport.record, norm(dest))
        return Path(dest)

    class Client:
        def __init__(self, *args, **kwargs):
            call = _bound("DcsrClient", *args, **kwargs)
            assert call.pop("package") is record["source"]
            self.obs = call.pop("obs")
            call["network"] = _network(call["network"])
            if call["controller"] is not None:
                call["controller"] = call["controller"].record
            record.update(call)

        def play(self, reference=None):
            record["reference"] = None if reference is None \
                else reference.shape
            return SimpleNamespace(
                frames=[], sr_inferences=0, video_bytes=0, model_bytes=0,
                model_downloads=[], skipped_segments=[],
                fallback_segments=[], mean_psnr=0.0, mean_ssim=0.0,
                telemetry=SimpleNamespace(summary_lines=list))

    class Simulator:
        def __init__(self, *args, **kwargs):
            call = _bound("FleetSimulator", *args, **kwargs)
            assert call.pop("package") is record["source"]
            factory = call.pop("network_factory")
            call.pop("obs")
            call["network"] = factory and _network(factory(0, 0.0))
            record.update(call)

        def run(self, reference=None):
            record["reference"] = None if reference is None \
                else reference.shape
            return SimpleNamespace(
                completed=list,
                telemetry=SimpleNamespace(summary_lines=list))

    monkeypatch.setattr(repro.core, "load_package", load_package)
    monkeypatch.setattr(repro.core, "DcsrClient", Client)
    monkeypatch.setattr(repro.serve, "FleetSimulator", Simulator)
    monkeypatch.setattr(repro.control, "build_controller", _Controller)
    monkeypatch.setattr(repro.net, "HttpTransport", _Transport)
    monkeypatch.setattr(repro.net, "mirror_package", mirror_package)

    def run(argv):
        argv = [arg.format(ref=ref, out=out) for arg in argv]
        assert main(argv) == 0
        record["outputs"] = sorted(p.name for p in out.iterdir())
        return record

    return run


PLAY = {"source": ("package", "PKG"), "network": None,
        "retry": RetryPolicy(), "fallback": False, "fast_path": None,
        "controller": None, "model_cache": None,
        "span_attrs": None, "reference": None, "outputs": []}

PLAY_CASES = [
    ([], {}),
    # explicit defaults
    (["--fail-rate", "0"], {}),
    (["--prefetch", "0"], {"fast_path": FastPathConfig()}),
    (["--sr-kernel", "shift"], {"fast_path": FastPathConfig()}),
    (["--controller", "off"], {}),
    (["--retries", "3"], {}),
    # the simulated link
    (["--fail-rate", "0.2"], {"network": sim(fail_rate=0.2)}),
    (["--latency", "0.05"], {"network": sim(latency_s=0.05)}),
    (["--bandwidth", "2e6"], {"network": sim(bandwidth_bps=2e6)}),
    (["--net-seed", "4"], {}),
    (["--net-seed", "4", "--fail-rate", "0.1"],
     {"network": sim(fail_rate=0.1, seed=4)}),
    (["--retries", "0"], {"retry": RetryPolicy(retries=0)}),
    (["--retries", "1"], {"retry": RetryPolicy(retries=1)}),
    (["--fallback"], {"fallback": True}),
    # the fast path
    (["--tile", "24"], {"fast_path": FastPathConfig(tile=24)}),
    (["--sr-threads", "2"], {"fast_path": FastPathConfig(sr_threads=2)}),
    (["--prefetch", "2"], {"fast_path": FastPathConfig(prefetch=2)}),
    (["--precision", "int8"],
     {"fast_path": FastPathConfig(precision="int8")}),
    (["--skip-gate", "0"], {"fast_path": FastPathConfig(skip_gate=0.0)}),
    (["--skip-gate", "1e-3"],
     {"fast_path": FastPathConfig(skip_gate=1e-3)}),
    (["--sr-batch", "2"], {"fast_path": FastPathConfig(sr_batch=2)}),
    (["--reuse"], {"fast_path": FastPathConfig(reuse=True)}),
    (["--sr-kernel", "blocked"],
     {"fast_path": FastPathConfig(kernel="blocked")}),
    (["--tile", "96", "--sr-threads", "2", "--prefetch", "2",
      "--precision", "fp16", "--skip-gate", "5e-4", "--sr-batch", "2",
      "--reuse", "--sr-kernel", "blocked"],
     {"fast_path": FastPathConfig(tile=96, sr_threads=2, prefetch=2,
                                  precision="fp16", skip_gate=5e-4,
                                  sr_batch=2, reuse=True,
                                  kernel="blocked")}),
    # the joint controller
    (["--controller", "greedy", "--device", "jetson"],
     {"controller": ctl("greedy", "jetson")}),
    (["--controller", "greedy", "--device", "Laptop",
      "--power-budget", "1.5"],
     {"controller": ctl("greedy", "laptop", power_budget_w=1.5)}),
    (["--controller", "fixed", "--device", "desktop",
      "--controller-tier", "dcSR-2", "--prefetch", "2"],
     {"controller": ctl("fixed", "desktop", tier="dcSR-2"),
      "fast_path": FastPathConfig(prefetch=2)}),
    (["--device", "jetson", "--power-budget", "2",
      "--controller-tier", "dcSR-1"], {}),
    # outputs
    (["--reference", "{ref}"], {"reference": (2, 16, 16, 3)}),
    (["--trace-out", "{out}/trace.json", "--metrics-out", "{out}/m.prom"],
     {"outputs": ["m.prom", "trace.json"]}),
]

URL_CASES = [
    (["--url", URL, "--mirror", "M"],
     {"mirror": (http(), "M"), "source": ("package", "M"),
      "network": http()}),
    (["--url", URL],
     {"mirror": (http(), "<mkdtemp>"), "source": ("package", "<mkdtemp>"),
      "network": http()}),
    (["--url", URL, "--timeout", "2.5", "--mirror", "M", "--retries", "1",
      "--fail-rate", "0", "--net-seed", "3"],
     {"mirror": (http(timeout_s=2.5), "M"), "source": ("package", "M"),
      "network": http(timeout_s=2.5), "retry": RetryPolicy(retries=1)}),
]


@pytest.mark.parametrize("flags, expected", PLAY_CASES,
                         ids=[" ".join(c[0]) or "flagless"
                              for c in PLAY_CASES])
def test_play(run, flags, expected):
    assert run(["play", "PKG"] + flags) == {**PLAY, **expected}


@pytest.mark.parametrize("flags, expected", URL_CASES,
                         ids=[" ".join(c[0]) for c in URL_CASES])
def test_play_url(run, flags, expected):
    assert run(["play"] + flags) == {**PLAY, **expected}


SERVE = {"source": ("package", "PKG"), "network": None, "reference": None,
         "outputs": []}

SERVE_CASES = [
    ([], FleetConfig()),
    # explicit defaults
    (["--fail-rate", "0"], FleetConfig()),
    (["--controller", "off", "--mode", "playback", "--sessions", "4"],
     FleetConfig()),
    (["--sessions", "3"], FleetConfig(sessions=3)),
    (["--mode", "trace"], FleetConfig(mode="trace")),
    (["--arrival", "poisson:2"], FleetConfig(arrival="poisson:2")),
    (["--bandwidth", "2e6"], FleetConfig(bandwidth_bps=2e6)),
    (["--latency", "0.05"], FleetConfig(latency_s=0.05)),
    (["--fail-rate", "0.1"], FleetConfig(fail_rate=0.1)),
    (["--retries", "1"], FleetConfig(retries=1)),
    (["--rate-limit", "1e6"], FleetConfig(rate_limit_bps=1e6)),
    (["--edges", "2"], FleetConfig(edges=2)),
    (["--cache-admission", "second-hit"],
     FleetConfig(cache_admission="second-hit")),
    (["--cache-capacity", "2"], FleetConfig(cache_capacity=2)),
    (["--fallback"], FleetConfig(fallback=True)),
    (["--seed", "9"], FleetConfig(seed=9)),
    (["--device", "jetson, laptop,"],
     FleetConfig(devices=("jetson", "laptop"))),
    (["--device", "jetson", "--controller", "greedy",
      "--power-budget", "30"],
     FleetConfig(devices=("jetson",), controller="greedy",
                 power_budget_w=30.0)),
    (["--device", "desktop", "--controller", "fixed",
      "--controller-tier", "dcSR-2"],
     FleetConfig(devices=("desktop",), controller="fixed",
                 controller_tier="dcSR-2")),
    (["--mode", "trace", "--sessions", "400", "--arrival", "uniform:0.5",
      "--bandwidth", "3e4", "--latency", "0.01", "--fail-rate", "0.2",
      "--retries", "2", "--rate-limit", "2e4", "--edges", "4",
      "--cache-admission", "size-aware", "--cache-capacity", "3",
      "--fallback", "--seed", "3", "--device", "laptop",
      "--controller", "greedy"],
     FleetConfig(mode="trace", sessions=400, arrival="uniform:0.5",
                 bandwidth_bps=3e4, latency_s=0.01, fail_rate=0.2,
                 retries=2, rate_limit_bps=2e4, edges=4,
                 cache_admission="size-aware", cache_capacity=3,
                 fallback=True, seed=3,
                 devices=("laptop",), controller="greedy")),
]

SERVE_OTHER_CASES = [
    (["--reference", "{ref}"], {"reference": (2, 16, 16, 3)}),
    (["--trace-out", "{out}/trace.json", "--metrics-out", "{out}/m.prom"],
     {"outputs": ["m.prom", "trace.json"]}),
    (["--origin", URL], {"network": http()}),
    (["--origin", URL, "--fail-rate", "0", "--mode", "playback"],
     {"network": http()}),
]


@pytest.mark.parametrize("flags, config", SERVE_CASES,
                         ids=[" ".join(c[0]) or "flagless"
                              for c in SERVE_CASES])
def test_serve(run, flags, config):
    assert run(["serve", "PKG"] + flags) == {**SERVE, "config": config}


@pytest.mark.parametrize("flags, expected", SERVE_OTHER_CASES,
                         ids=[" ".join(c[0]) for c in SERVE_OTHER_CASES])
def test_serve_outputs_and_origin(run, flags, expected):
    assert run(["serve", "PKG"] + flags) \
        == {**SERVE, "config": FleetConfig(), **expected}


def test_sr_demand_factor_is_a_usage_error(run, capsys):
    """The flag was removed: argparse refuses it before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "PKG", "--mode", "trace", "--sr-demand-factor", "0.4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sr-demand-factor" \
        in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")

NON_FINITE = {
    "poisson:nan": lambda: FleetConfig(arrival="poisson:nan"),
    "poisson:inf": lambda: FleetConfig(arrival="poisson:inf"),
    "uniform:nan": lambda: FleetConfig(arrival="uniform:nan"),
    "uniform:inf": lambda: FleetConfig(arrival="uniform:inf"),
    "fleet rate_limit_bps nan": lambda: FleetConfig(rate_limit_bps=NAN),
    "fleet power_budget_w nan": lambda: FleetConfig(power_budget_w=NAN),
    "fleet bandwidth_bps nan": lambda: FleetConfig(bandwidth_bps=NAN),
    "fleet latency_s inf": lambda: FleetConfig(latency_s=INF),
    "bandwidth_bps nan": lambda: NetworkConfig(bandwidth_bps=NAN),
    "latency_s nan": lambda: NetworkConfig(latency_s=NAN),
    "latency_s inf": lambda: NetworkConfig(latency_s=INF),
    "fail_rate nan": lambda: NetworkConfig(fail_rate=NAN),
    "backoff_s nan": lambda: RetryPolicy(backoff_s=NAN),
    "backoff_s inf": lambda: RetryPolicy(backoff_s=INF),
    "backoff_factor nan": lambda: RetryPolicy(backoff_factor=NAN),
    "skip_gate nan": lambda: FastPathConfig(skip_gate=NAN),
    "timeout_s nan": lambda: repro.net.HttpTransport(URL, timeout_s=NAN),
    "timeout_s inf": lambda: repro.net.HttpTransport(URL, timeout_s=INF),
}


@pytest.mark.parametrize("make", list(NON_FINITE.values()),
                         ids=list(NON_FINITE))
def test_non_finite_flag_values_are_rejected(make):
    """A NaN that a ``play``/``serve`` flag passes through ``float()`` is
    rejected where the value is checked, and so is an infinite arrival
    rate or gap, latency, backoff or timeout."""
    with pytest.raises(ValueError):
        make()

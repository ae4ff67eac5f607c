"""The ``serve --origin`` lifecycle: a playback fleet whose sessions each
download through a factory-made transport releases every transport when
its session ends.  An :class:`HttpTransport` with no ``loop=`` owns a
private event loop (an epoll descriptor and a socket pair), so a fleet
that only drops the reference leaks three descriptors per session and
dies on the 1,024-fd limit at a few hundred sessions."""

import os
import subprocess
import sys

import pytest

from repro.core import NetworkConfig, SimulatedNetwork, load_package
from repro.net import HttpTransport
from repro.serve import FleetConfig, FleetSimulator

pytestmark = pytest.mark.net


class _CountingNetwork(SimulatedNetwork):
    closed = 0

    def close(self):
        self.closed += 1


def test_factory_made_networks_are_closed(package):
    made = []

    def factory(session_id, arrival_s):
        made.append(_CountingNetwork(NetworkConfig()))
        return made[-1]

    fleet = FleetSimulator(package, FleetConfig(sessions=3),
                           network_factory=factory).run()
    assert len(fleet.completed()) == 3
    assert [network.closed for network in made] == [1, 1, 1]


def test_session_that_raises_still_closes_its_network(package):
    network = _CountingNetwork(NetworkConfig(), failure_schedule=[True])
    sim = FleetSimulator(package, FleetConfig(sessions=1, retries=0),
                         network_factory=lambda *_: network)
    with pytest.raises(ConnectionError):
        sim.run()                       # strict mode: the model fetch aborts
    assert network.closed == 1


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc")
def test_loopback_fleet_returns_every_descriptor(package_dir):
    """Twelve sessions, each on its own private-loop transport against an
    origin in a child process: the descriptor count ends where it began."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    origin = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve-origin", str(package_dir),
         "--port", "0"], stdout=subprocess.PIPE, text=True, env=env)
    try:
        url = origin.stdout.readline().split(" at ")[1].strip()
        package = load_package(package_dir)
        before = _open_fds()
        fleet = FleetSimulator(
            package, FleetConfig(sessions=12),
            network_factory=lambda *_: HttpTransport(url)).run()
        assert _open_fds() == before
    finally:
        origin.terminate()
        origin.wait(timeout=10)
        origin.stdout.close()
    assert len(fleet.completed()) == 12
    assert all(not (s.result.skipped_segments or s.result.fallback_segments)
               for s in fleet.completed())

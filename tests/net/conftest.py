"""Fixtures for the real-socket (``net``) test tier.

Every test drives a fresh asyncio event loop shared by the in-process
origin and the transport under test — one thread, real TCP over
loopback, ephemeral ports only (``port=0``).  The loop fixture asserts
at teardown that nothing leaked: no pending tasks, and the loop closes
cleanly.  A connection handler or chaos-proxy hold that outlives its
test fails the test that created it.
"""

import asyncio

import pytest

from repro.core import save_package


@pytest.fixture(scope="session")
def package_dir(package, tmp_path_factory):
    """The shared session package, saved once in on-disk layout."""
    root = tmp_path_factory.mktemp("net-package")
    save_package(package, root)
    return root


@pytest.fixture()
def net_loop():
    """A fresh event loop with a leaked-task/leaked-socket guard."""
    loop = asyncio.new_event_loop()
    yield loop
    # Let finishing handlers unwind (clients hanging up resolve any
    # parked reads), then judge what is still alive.
    for _ in range(20):
        pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
        if not pending:
            break
        loop.run_until_complete(asyncio.wait(pending, timeout=0.1))
    leaked = [t for t in asyncio.all_tasks(loop) if not t.done()]
    for task in leaked:
        task.cancel()
    if leaked:
        loop.run_until_complete(
            asyncio.gather(*leaked, return_exceptions=True))
    loop.close()
    assert not leaked, f"leaked asyncio tasks: {leaked}"


@pytest.fixture()
def origin(net_loop, package_dir):
    """A live origin on an ephemeral loopback port, stopped at teardown."""
    from repro.net import DcsrOrigin

    served = DcsrOrigin(package_dir)
    net_loop.run_until_complete(served.start())
    yield served
    net_loop.run_until_complete(served.stop())


@pytest.fixture()
def chaos(net_loop, origin):
    """Factory for (proxy, transport) pairs in front of the live origin;
    everything built here is torn down through the leak-guarded loop:
    transports closed, proxies stopped."""
    from repro.net import ChaosProxy, HttpTransport

    built = []

    def build(schedule=None, config=None, timeout_s=0.25):
        proxy = ChaosProxy(origin.host, origin.port, config=config,
                           schedule=schedule)
        net_loop.run_until_complete(proxy.start())
        transport = HttpTransport(proxy.base_url, loop=net_loop,
                                  timeout_s=timeout_s)
        built.append((proxy, transport))
        return proxy, transport

    yield build
    for proxy, transport in built:
        transport.close()
        net_loop.run_until_complete(proxy.stop())

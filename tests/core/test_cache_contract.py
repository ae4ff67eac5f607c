"""One contract for "how a session gets a cache".

A playing session never talks to a model store directly: it is handed a
``ModelCache`` and works through ``store.session(fetch)``.  Whichever
store that is — the client's private bounded one, a flat store shared by
many clients, or one edge of the fleet's CDN hierarchy — the view must
behave the same.  (The hierarchy lives a layer up, in ``repro.serve``;
it is imported here because the contract is the core one it has to meet.)
"""

import pytest

from repro.core import CacheSession, ModelCache
from repro.serve import CacheHierarchy

SEQUENCE = [3, 3, 5, 3, 5, 9, 9, 3]


def _private():
    return ModelCache(capacity=8)


def _flat_shared():
    return ModelCache()


def _hierarchy_edge():
    return CacheHierarchy(edges=1, admission="always").edge_for(0)


@pytest.fixture(params=[_private, _flat_shared, _hierarchy_edge],
                ids=["private", "flat-shared", "hierarchy-edge"])
def store(request):
    return request.param()


def model_of(label):
    return ("model", label)


class TestSessionContract:
    def test_store_hands_out_session_views(self, store):
        assert isinstance(store, ModelCache)
        session = store.session(model_of)
        assert isinstance(session, CacheSession)
        assert session.store is store

    def test_same_sequence_same_accounting(self, store):
        fetched = []

        def fetch(label):
            fetched.append(label)
            return model_of(label)

        session = store.session(fetch)
        for label in SEQUENCE:
            assert session.acquire(label) == model_of(label)
            assert label in session
            session.release(label)
        assert fetched == [3, 5, 9]
        assert session.stats.downloaded_labels == [3, 5, 9]
        assert session.stats.downloads == 3
        assert session.stats.hits == 5
        assert session.stats.requests == len(SEQUENCE)
        assert session.stats.hit_rate == 5 / 8

    def test_get_is_acquire_then_release(self, store):
        session = store.session(model_of)
        assert session.get(4) == model_of(4)
        assert store.refcount(4) == 0
        assert session.stats.downloads == 1

    def test_sessions_share_models_not_statistics(self, store):
        first = store.session(model_of)
        second = store.session(model_of)
        first.get(1)
        second.get(1)
        assert (first.stats.downloads, first.stats.hits) == (1, 0)
        assert (second.stats.downloads, second.stats.hits) == (0, 1)
        assert second.stats.downloaded_labels == []
        assert store.stats.downloads == 1 and store.stats.hits == 1

    def test_acquire_pins_until_release(self, store):
        session = store.session(model_of)
        session.acquire(1)
        session.acquire(1)
        assert store.refcount(1) == 2
        session.release(1)
        session.release(1)
        assert store.refcount(1) == 0

    def test_release_without_acquire_raises(self, store):
        session = store.session(model_of)
        with pytest.raises(ValueError, match="unpinned"):
            session.release(1)
        session.get(1)                  # resident, but pinned by nobody
        with pytest.raises(ValueError, match="unpinned"):
            session.release(1)

    @pytest.mark.parametrize("error", [KeyError, ConnectionError])
    def test_failed_fetch_counts_once_and_caches_nothing(self, store, error):
        attempts = []

        def flaky(label):
            attempts.append(label)
            if len(attempts) == 1:
                raise error(f"no model {label}")
            return model_of(label)

        session = store.session(flaky)
        with pytest.raises(error):      # the original type, not a wrapper
            session.acquire(7)
        assert 7 not in session
        assert session.stats.failed_fetches == 1
        assert store.stats.failed_fetches == 1
        assert session.stats.requests == 0          # nothing was served
        # Nothing was pinned, and the next request simply tries again.
        with pytest.raises(ValueError, match="unpinned"):
            session.release(7)
        assert session.acquire(7) == model_of(7)
        session.release(7)
        assert session.stats.downloads == 1
        assert session.stats.failed_fetches == 1


class TestBoundedStore:
    @pytest.mark.parametrize("make", [
        lambda: ModelCache(capacity=2),
        lambda: CacheHierarchy(edges=1, edge_capacity=2).edge_for(0),
    ], ids=["store", "hierarchy-edge"])
    def test_evictions_are_charged_to_the_session_that_caused_them(
            self, make):
        store = make()
        quiet = store.session(model_of)
        busy = store.session(model_of)
        quiet.get(0)
        for label in (1, 2, 3):
            busy.get(label)
        assert quiet.stats.evictions == 0
        assert busy.stats.evictions == 2
        assert store.stats.evictions == 2
        assert len(store) == 2


class TestDeniedAdmission:
    def test_denied_download_is_returned_unpinned(self):
        h = CacheHierarchy(edges=1, admission="second-hit")
        edge = h.edge_for(0)
        session = edge.session(model_of)
        assert session.acquire(9) == model_of(9)    # first request: denied
        assert 9 not in session
        assert edge.refcount(9) == 0
        assert session.stats.downloads == 1
        session.release(9)              # balances the acquire, unpins nothing
        with pytest.raises(ValueError, match="unpinned"):
            session.release(9)
        assert session.acquire(9) == model_of(9)    # second: stored, pinned
        assert edge.refcount(9) == 1
        session.release(9)
        assert session.stats.downloads == 2 and session.stats.hits == 0

    def test_store_admit_hook_keeps_the_model_out(self):
        store = ModelCache(fetch=model_of)
        assert store.acquire(1, admit=lambda label: False) == model_of(1)
        assert 1 not in store
        assert store.stats.downloads == 1
        with pytest.raises(ValueError, match="unpinned"):
            store.release(1)

"""What a fork child cannot pickle comes back as a typed error at once.

The child pickles its response inside ``send``, so a result or an
exception that will not pickle raises there and the child answers with
a :class:`QueryServiceError` instead. Each request carries a short
timeout: were the response dropped on the way, the caller would see a
``DeadlineExceeded`` after the budget rather than hang.
"""

import sys
import threading
import time

import pytest

from repro.errors import InvalidRequest
from repro.server import (
    DeadlineExceeded,
    QueryServiceError,
    ServiceConfig,
    UnpicklableRequest,
)
from repro.server import service as service_module

pytestmark = pytest.mark.skipif(
    sys.platform.startswith("win"), reason="fork start method required"
)

PROBE = "SELECT ?s WHERE { ?s ?p ?o }"
BUDGET = 2.0


class _HoldsALock(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


@pytest.fixture(scope="module")
def warehouse():
    from repro.synth import LandscapeConfig, generate_landscape

    return generate_landscape(LandscapeConfig.tiny(seed=2009)).warehouse


def _serve_with(warehouse, monkeypatch, tmp_path, fake):
    """A one-child fork service whose child runs ``fake`` for queries.

    The child is forked from this process, so it inherits the patched
    dispatch."""
    real = service_module.dispatch

    def dispatch(mdw, kind, payload):
        return fake() if kind == "query" else real(mdw, kind, payload)

    monkeypatch.setattr(service_module, "dispatch", dispatch)
    config = ServiceConfig(
        max_workers=1, worker_mode="fork", snapshot_dir=str(tmp_path / "snaps")
    )
    return warehouse.serve(config)


def _query_fails_fast(service, match):
    service.search("portfolio", timeout=BUDGET)  # the child is forked and attached
    start = time.monotonic()
    with pytest.raises(QueryServiceError, match=match) as info:
        service.query(PROBE, timeout=BUDGET)
    assert not isinstance(info.value, DeadlineExceeded)
    assert time.monotonic() - start < BUDGET / 2


def test_unpicklable_result_is_a_typed_error(warehouse, monkeypatch, tmp_path):
    with _serve_with(warehouse, monkeypatch, tmp_path, threading.Lock) as service:
        _query_fails_fast(service, "unpicklable result")
        # the child survives its failed send and answers the next request
        assert service.search("portfolio", timeout=BUDGET) is not None


def test_unpicklable_error_is_a_typed_error(warehouse, monkeypatch, tmp_path):
    def fail():
        raise _HoldsALock()

    with _serve_with(warehouse, monkeypatch, tmp_path, fail) as service:
        _query_fails_fast(service, "_HoldsALock")


def test_unpicklable_request_is_a_request_error(warehouse, tmp_path):
    """A lineage item that will not pickle never reaches the child: the
    parent raises an ``InvalidRequest`` (thread mode answers the same
    item with ``UnknownItem``), the child stays up and the endpoint's
    breaker counts no failure."""
    config = ServiceConfig(
        max_workers=1, worker_mode="fork", snapshot_dir=str(tmp_path / "snaps")
    )
    with warehouse.serve(config) as service:
        service.search("portfolio", timeout=BUDGET)  # the child is forked and attached
        pids = service.worker_pids()
        start = time.monotonic()
        with pytest.raises(UnpicklableRequest) as info:
            service.execute("lineage", item=threading.Lock(), timeout=BUDGET)
        assert isinstance(info.value, InvalidRequest)
        assert time.monotonic() - start < BUDGET / 2
        assert service.breaker("lineage").snapshot()["consecutive_failures"] == 0
        assert service.search("portfolio", timeout=BUDGET) is not None
        assert service.worker_pids() == pids


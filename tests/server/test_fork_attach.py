"""Fork workers start only from the published snapshot file."""

import sys

import pytest

from repro.server import ServiceConfig
from repro.server.metrics import ServiceMetrics

pytestmark = pytest.mark.skipif(
    sys.platform.startswith("win"), reason="fork start method required"
)


@pytest.fixture(scope="module")
def warehouse():
    from repro.synth import LandscapeConfig, generate_landscape

    land = generate_landscape(LandscapeConfig.tiny(seed=2009))
    land.warehouse.build_entailment_index()
    return land.warehouse


PROBE = "SELECT ?s ?name WHERE { ?s dm:hasName ?name }"


def test_config_accepts_snapshot_dir(tmp_path):
    config = ServiceConfig(snapshot_dir=str(tmp_path))
    assert config.snapshot_dir == str(tmp_path)
    assert ServiceConfig().snapshot_dir is None


def test_fork_worker_attaches_published_snapshot(warehouse, tmp_path):
    config = ServiceConfig(
        max_workers=1, worker_mode="fork", snapshot_dir=str(tmp_path / "snaps")
    )
    with warehouse.serve(config) as service:
        rows = service.query(PROBE)
        snap = service.metrics_snapshot()
    assert len(rows) > 0
    assert snap["fork_workers"] >= 1
    published = list((tmp_path / "snaps").glob("snapshot-*.mdws"))
    assert published, "publication wrote no snapshot file"


def test_fork_worker_falls_back_to_cow(warehouse):
    """The fallback for a fork service without ``snapshot_dir`` (once a
    copy-on-write inherit, hence the name) is a snapshot file published
    into a directory the service owns; its children attach that file and
    the directory is gone after close()."""
    with warehouse.serve(ServiceConfig(max_workers=1, worker_mode="fork")) as service:
        with service.snapshots.read() as snap:
            published = snap.storage_path
        assert published is not None and published.exists()
        rows = service.query(PROBE)
        spawned = service.metrics_snapshot()["fork_workers"]
    assert len(rows) > 0
    assert spawned >= 1
    assert not published.parent.exists()


def test_attach_and_cow_answers_agree(warehouse, tmp_path):
    """A thread service (which writes no snapshot file), a fork service
    attaching a published ``snapshot_dir`` file and a fork service on its
    own temporary snapshot give the same answers."""

    def answers(config):
        with warehouse.serve(config) as service:
            if config.worker_mode == "thread":
                with service.snapshots.read() as snap:
                    assert snap.storage_path is None
            return sorted(str(b) for b in service.query(PROBE).iter_bindings())

    thread = answers(ServiceConfig(max_workers=1))
    attach = answers(
        ServiceConfig(
            max_workers=1, worker_mode="fork", snapshot_dir=str(tmp_path / "s")
        )
    )
    cow = answers(ServiceConfig(max_workers=1, worker_mode="fork"))
    assert thread == attach == cow


def test_metrics_count_fork_worker_spawns():
    metrics = ServiceMetrics(name="test-fork")
    metrics.on_fork_worker()
    metrics.on_fork_worker()
    assert metrics.snapshot()["fork_workers"] == 2

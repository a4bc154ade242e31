"""The self-healing worker fleet: supervision and failover.

Crash and hang faults are armed on the *ambient* injector before the
service spawns its fork workers — children inherit the injector state
at fork time, so every freshly spawned child carries its own unfired
copy of the plan. That makes the failover ladder deterministic: each
execution attempt lands on a worker that will die, until the attempt
budget is spent and the in-process fallback answers (degraded).
"""

import os
import signal
import sys
import time

import pytest

from repro.resilience.faults import FaultInjector, fault_scope
from repro.server import ServiceConfig, WorkerLost, service as service_module
from repro.synth import make_service_workload

from .conftest import breaker_settings, direct_answers, kill_storm, supervision_timings, wait_for

pytestmark = pytest.mark.skipif(
    sys.platform.startswith("win"), reason="fork start method required"
)

PROBE = "SELECT ?s ?name WHERE { ?s dm:hasName ?name }"


@pytest.fixture(scope="module")
def warehouse():
    from repro.synth import LandscapeConfig, generate_landscape

    land = generate_landscape(LandscapeConfig.tiny(seed=2009))
    land.warehouse.build_entailment_index()
    return land.warehouse


@pytest.fixture(autouse=True)
def heartbeat(monkeypatch):
    """A 0.1 s supervisor tick unless a test sets its own."""
    return supervision_timings(monkeypatch)


def _supervised_config(tmp_path, **overrides) -> ServiceConfig:
    settings = dict(
        max_workers=2,
        worker_mode="fork",
        snapshot_dir=str(tmp_path / "snaps"),
        supervise=True,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def _wait_full_pool(service, timeout=5.0):
    deadline = time.monotonic() + timeout
    while service.supervisor.alive_children() < service.config.max_workers:
        assert time.monotonic() < deadline, "pool never reached full size"
        time.sleep(0.01)


class TestRespawn:
    def test_killed_idle_worker_respawns_within_three_heartbeats(
        self, warehouse, tmp_path, heartbeat
    ):
        config = _supervised_config(tmp_path)
        with warehouse.serve(config) as service:
            _wait_full_pool(service)
            victim = service.supervisor.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # wait until the death is observable, then start the clock
            deadline = time.monotonic() + 5.0
            while victim in service.supervisor.worker_pids():
                assert time.monotonic() < deadline, "kill never registered"
                time.sleep(0.002)
            deadline = time.monotonic() + 3 * heartbeat
            while service.supervisor.deficit() > 0:
                assert time.monotonic() < deadline, (
                    "pool not back at size within 3 heartbeat intervals"
                )
                time.sleep(0.005)
            assert victim not in service.supervisor.worker_pids()
            snap = service.metrics_snapshot()
            assert snap["worker_restarts"].get("crash", 0) >= 1
            assert service.health()["workers"]["restarts"] == snap["worker_restarts"]
            # and the fleet still answers
            assert len(service.query(PROBE)) > 0

    def test_lazy_respawn_at_dequeue_shows_in_health(
        self, warehouse, tmp_path, monkeypatch
    ):
        """The owner thread replaces a dead child itself when a request
        arrives before the next heartbeat; that restart is the same
        number in the metrics, the health document and the supervisor."""
        # one immediate tick fills the pool, then the supervisor sleeps
        supervision_timings(monkeypatch, heartbeat=30.0, hang=60.0)
        config = _supervised_config(tmp_path, max_workers=1)
        with warehouse.serve(config) as service:
            _wait_full_pool(service)
            (victim,) = service.worker_pids()
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while service.worker_pids():
                assert time.monotonic() < deadline, "kill never registered"
                time.sleep(0.002)
            assert len(service.query(PROBE)) > 0
            assert service.worker_pids() != [victim]
            health = service.health()
            assert health["workers"]["restarts"] == {"crash": 1}
            assert health["supervisor"]["restarts"] == {"crash": 1}
            assert service.metrics_snapshot()["worker_restarts"] == {"crash": 1}

    def test_health_reports_recovering_then_healthy(self, warehouse, tmp_path):
        # delay the respawn fault site so the "recovering" window is
        # wide enough to observe deterministically
        injector = FaultInjector()
        injector.arm("supervisor.respawn", "delay", delay=0.4, times=2)
        config = _supervised_config(tmp_path)
        with fault_scope(injector):
            with warehouse.serve(config) as service:
                _wait_full_pool(service)
                assert service.health()["status"] == "healthy"
                for pid in service.supervisor.worker_pids():
                    os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 5.0
                while service.supervisor.deficit() == 0:
                    assert time.monotonic() < deadline, "kills never registered"
                    time.sleep(0.002)
                assert service.health()["status"] == "recovering"
                _wait_full_pool(service)
                assert service.health()["status"] == "healthy"
                assert service.health()["supervisor"]["alive_children"] == 2


class TestKillUnderLoad:
    def test_kill_storm_loses_no_request(self, warehouse, tmp_path, monkeypatch):
        """Workers are SIGKILLed while three clients drive a Listing 1/2
        mix: no request fails, every answer equals a direct dispatch,
        and the pool is back at full strength within three heartbeats."""
        ops = make_service_workload(warehouse, n_ops=60, seed=7)
        heartbeat = supervision_timings(monkeypatch, heartbeat=0.2, hang=2.0)
        monkeypatch.setattr(service_module, "MAX_ATTEMPTS", 4)
        breaker_settings(monkeypatch, threshold=10_000)  # not under test here
        config = _supervised_config(
            tmp_path, max_workers=4, max_queue=len(ops) + 32
        )
        with warehouse.serve(config) as service:
            _wait_full_pool(service)
            landed, got = kill_storm(service, service, ops)
            wait_for(
                lambda: service.supervisor.deficit() == 0,
                3 * heartbeat,
                "pool not back at size within 3 heartbeat intervals",
            )
            snap = service.metrics_snapshot()
        assert landed >= 1
        assert got == direct_answers(warehouse, ops)
        assert snap["failed"] == 0
        assert snap["worker_lost"] >= 1  # a kill took a request down with it
        assert snap["worker_restarts"].get("crash", 0) >= 1


class TestFailover:
    def test_crash_ladder_requeues_then_degrades(self, warehouse, tmp_path):
        """Every child inherits an armed crash: the request burns its
        whole attempt budget on dying workers, then the in-process
        fallback answers it — degraded, but correct and never lost."""
        injector = FaultInjector()
        injector.arm("worker.crash", "raise", times=1)
        config = _supervised_config(tmp_path, max_workers=1)
        with fault_scope(injector):
            with warehouse.serve(config) as service:
                rows = service.query(PROBE, timeout=60)
                assert len(rows) > 0
                assert getattr(rows, "degraded", False) is True
                snap = service.metrics_snapshot()
        assert snap["worker_lost"] == 3
        assert snap["requeued"] == 2
        assert snap["completed"] == 1
        assert snap["failed"] == 0

    def test_hung_worker_is_killed_and_request_recovers(
        self, warehouse, tmp_path, monkeypatch
    ):
        """A stuck child (stale progress watermark) is SIGKILLed by the
        supervisor; the owner sees an ordinary death and fails over."""
        injector = FaultInjector()
        injector.arm("worker.hang", "delay", delay=30.0, times=1)
        supervision_timings(monkeypatch, heartbeat=0.1, hang=0.4)
        monkeypatch.setattr(service_module, "MAX_ATTEMPTS", 2)
        config = _supervised_config(tmp_path, max_workers=1)
        with fault_scope(injector):
            with warehouse.serve(config) as service:
                start = time.monotonic()
                rows = service.query(PROBE, timeout=60)
                elapsed = time.monotonic() - start
                assert len(rows) > 0
                assert getattr(rows, "degraded", False) is True
                snap = service.metrics_snapshot()
        # both attempts hung and were killed, well before the 30s stall
        assert elapsed < 10
        assert snap["worker_restarts"].get("hang", 0) >= 2
        assert snap["worker_lost"] == 2
        assert snap["requeued"] == 1


class TestWorkerLostTyping:
    def test_unsupervised_death_raises_typed_error(self, warehouse, tmp_path):
        """Without a supervisor the caller still gets a typed
        :class:`WorkerLost` with request attribution — not an opaque
        pipe error — and the slow-query log records the casualty."""
        injector = FaultInjector()
        injector.arm("worker.crash", "raise", times=1)
        config = ServiceConfig(
            max_workers=1,
            worker_mode="fork",
            snapshot_dir=str(tmp_path / "snaps"),
        )
        with fault_scope(injector):
            with warehouse.serve(config) as service:
                ticket = service.submit("query", text=PROBE)
                with pytest.raises(WorkerLost) as excinfo:
                    ticket.result(timeout=60)
                entries = service.metrics.slow_queries.entries()
        assert excinfo.value.request_id == ticket.request_id
        assert excinfo.value.exitcode == 70
        assert ticket.request_id in str(excinfo.value)
        lost = [e for e in entries if e.statement.startswith("[worker lost")]
        assert lost and lost[0].request_id == ticket.request_id

    def test_worker_lost_pickles_round_trip(self):
        import pickle

        original = WorkerLost("q-7", exitcode=-9, detail="EOFError()")
        clone = pickle.loads(pickle.dumps(original))
        assert clone.request_id == "q-7"
        assert clone.exitcode == -9
        assert clone.detail == "EOFError()"


class TestGenerationCatchUp:
    def test_restart_across_publish_serves_new_generation(
        self, warehouse, tmp_path, monkeypatch
    ):
        """A worker restarted across a snapshot publish re-attaches the
        generation current at respawn time — never a stale pin."""
        supervision_timings(monkeypatch, heartbeat=0.05)
        config = _supervised_config(tmp_path)
        with warehouse.serve(config) as service:
            _wait_full_pool(service)
            victim = service.supervisor.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            service.update(
                'INSERT DATA { dm:freshly_published dm:hasName "freshly_published" }'
            )
            current = service.snapshots.generation
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                workers = [slot.worker for slot in service._slots]
                if (
                    service.supervisor.deficit() == 0
                    and all(w is not None and w.alive for w in workers)
                    and all(w.generation == current for w in workers)
                ):
                    break
                time.sleep(0.01)
            workers = [slot.worker for slot in service._slots]
            assert all(
                w is not None and w.generation == current for w in workers
            ), "a worker is pinned to a superseded generation"
            # every query from here on sees the published triple
            for _ in range(4):
                rows = service.query(
                    'SELECT ?s WHERE { ?s dm:hasName "freshly_published" }'
                )
                assert len(rows) == 1
            snap = service.metrics_snapshot()
            restarts = snap["worker_restarts"]
            assert restarts.get("crash", 0) + restarts.get("stale", 0) >= 1

"""The self-healing layer over the fork-worker fleet.

A crashed or hung fork worker used to shrink the pool permanently (the
owner thread only respawned lazily, at its *next* dequeue) and fail the
in-flight request with an opaque pipe error. The :class:`Supervisor`
closes that gap: a daemon thread heartbeats every worker slot each
:data:`HEARTBEAT_INTERVAL` seconds and

* **respawns** idle workers found dead (SIGKILL, segfault, OOM-kill) —
  cheap because children re-attach the published ``.mdws`` snapshot by
  ``mmap``;
* **retires** idle workers pinned to a superseded snapshot generation,
  so a publish drains stale children proactively instead of on first
  use (a worker restarted across a publish always re-attaches whatever
  generation is current *at respawn time* — never a stale pin);
* **kills** busy workers whose progress watermark went stale past
  :data:`HANG_TIMEOUT` — the owner thread's poll then observes an
  ordinary death, maps it to :class:`~repro.server.errors.WorkerLost`,
  and the service requeues the request onto a healthy worker.

A request that is merely slow is left to its deadline: the evaluator's
cooperative checks, then the caller's backstop wait.

The supervisor never completes futures and never touches a busy slot's
worker except to kill it; all request-level bookkeeping stays with the
owner threads, so the heartbeat loop adds nothing to the hot path.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.resilience import faults

#: Seconds between two heartbeat ticks.
HEARTBEAT_INTERVAL = 0.25
#: Max heartbeat age of a *busy* child before it is declared hung and
#: killed (its request requeues onto a healthy worker).
HANG_TIMEOUT = 5.0


class WorkerSlot:
    """The supervisor-visible state of one worker thread.

    ``lock`` guards the (worker, request) pair: the owner thread
    holds it only for the brief spawn-and-mark-busy window at dequeue,
    the supervisor for each inspection — so the two never race on a
    worker swap. While a request runs the lock is *free* (the owner is
    deep in ``run()``); the supervisor may then read the pair and kill
    the child, but never replace it.
    """

    __slots__ = ("name", "lock", "worker", "request")

    def __init__(self, name: str):
        self.name = name
        self.lock = threading.Lock()
        self.worker = None               # ForkWorker | InProcessWorker
        self.request = None              # Optional[QueryRequest]


class Supervisor:
    """Heartbeat, reap and respawn over a service's worker slots.

    Ticks every :data:`HEARTBEAT_INTERVAL` seconds; a *busy* child whose
    heartbeat is older than :data:`HANG_TIMEOUT` is declared stuck and
    killed. A kill funnels into the ordinary failover machinery: the
    owner thread sees the death, raises ``WorkerLost``, and the service
    requeues.
    """

    def __init__(self, service):
        self._service = service
        self._stop = threading.Event()
        self._ticks = 0
        self._thread = threading.Thread(
            target=self._loop,
            name=f"{service.config.name}-supervisor",
            daemon=True,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive() and not self._stop.is_set()

    def _loop(self) -> None:
        # first tick immediately: the pool reaches full size without
        # waiting out an interval after start
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception:
                # the supervisor must outlive anything a tick hits
                # (a slot torn down mid-inspection during close, a
                # registry swap in tests); next tick sees fresh state
                pass
            if self._stop.wait(HEARTBEAT_INTERVAL):
                break

    # -- the heartbeat tick ------------------------------------------------

    def _tick(self) -> None:
        service = self._service
        if service.closed:
            return
        self._ticks += 1
        generation = service.snapshots.generation
        for slot in service._slots:
            if not slot.lock.acquire(blocking=False):
                continue  # owner mid-swap; next tick
            try:
                self._inspect(slot, generation)
            finally:
                slot.lock.release()

    def _inspect(self, slot: WorkerSlot, generation: int) -> None:
        service = self._service
        worker = slot.worker
        if slot.request is None:
            # idle slot: keep the pool at size and at the current
            # generation. "crash" = found dead; "stale" = alive but
            # pinned to a superseded snapshot (drain-on-restart).
            reason = None
            if worker is not None and not worker.alive:
                reason = "crash"
            elif worker is not None and worker.generation != generation:
                reason = "stale"
            if worker is None or reason is not None:
                faults.fire("supervisor.respawn")
                if worker is not None:
                    worker.stop(grace=0.1)
                slot.worker = service._spawn_worker()
                if reason is not None:
                    service.metrics.on_worker_restart(reason)
            return
        # busy slot: the owner thread is inside run(); only ever *kill*
        # the child here — replacement happens at the owner's next
        # dequeue (or this supervisor's next idle tick).
        if worker is None or not worker.alive:
            return  # owner's poll surfaces the death within _POLL
        if worker.heartbeat_age() > HANG_TIMEOUT:
            # stuck outside every cooperative check point: watermark
            # stale while a request is in flight. SIGKILL converts the
            # hang into a death the owner already knows how to survive.
            faults.fire("supervisor.respawn")
            worker.kill_child()
            service.metrics.on_worker_restart("hang")

    # -- introspection -----------------------------------------------------

    def worker_pids(self) -> List[int]:
        """PIDs of the currently-live children (what a kill test targets)."""
        return self._service.worker_pids()

    def alive_children(self) -> int:
        return len(self.worker_pids())

    def deficit(self) -> int:
        """Worker slots currently without a live child."""
        return max(0, len(self._service._slots) - self.alive_children())

    def max_heartbeat_age(self) -> float:
        """The stalest busy child's heartbeat age (0.0 when none busy)."""
        oldest = 0.0
        for slot in self._service._slots:
            worker = slot.worker
            if slot.request is not None and worker is not None and worker.alive:
                oldest = max(oldest, worker.heartbeat_age())
        return oldest

    def stats(self) -> Dict[str, object]:
        metrics = self._service.metrics
        return {
            "running": self.running,
            "ticks": self._ticks,
            "restarts": metrics.restarts(),
            "alive_children": self.alive_children(),
            "deficit": self.deficit(),
            "heartbeat_interval": HEARTBEAT_INTERVAL,
            "hang_timeout": HANG_TIMEOUT,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"<Supervisor {state} interval={HEARTBEAT_INTERVAL}s "
            f"children={self.alive_children()}/{len(self._service._slots)}>"
        )

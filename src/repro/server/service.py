"""The concurrent query service over one warehouse.

The productive MDW is shared infrastructure: many analysts and batch
consumers hit the same model concurrently while release loads land.
:class:`QueryService` reproduces that operating mode over the library:

* a **worker pool** executes requests (``query`` / ``sql`` / ``search``
  / ``lineage``) against pinned snapshots, so readers never observe a
  half-applied write;
* a **bounded admission queue** rejects (never blocks) when full —
  :class:`~repro.server.errors.Overloaded` carries the depth so clients
  can back off;
* every request gets a :class:`~repro.sparql.cancel.CancelToken`; the
  evaluator's join loops observe it, so a deadline overrun aborts the
  query cooperatively instead of occupying the worker;
* writes go through :meth:`update` — serialized, audited with the
  request id, republishing the snapshot for subsequent readers.

Every worker runs a request through one call, ``run(request,
extras_sink) -> result``; the configured mode only picks which worker a
slot gets. ``thread`` (default) is the :class:`InProcessWorker`: cheap and
shares the process — right for I/O-mixed or short queries, but
CPU-bound evaluation serializes on the interpreter lock. ``fork`` is a
:class:`~repro.server.procpool.ForkWorker`, a forked child that attaches
the published snapshot file; evaluation then scales with cores at the
price of pickling results across the process boundary and respawning
workers after every write. The sharded gateway's shard router is a
third worker, settled through the same front door (:class:`_FrontDoor`).
"""

from __future__ import annotations

import itertools
import queue
import tempfile
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.vocabulary import TERMS
from repro.obs.profile import QueryProfile, profile_scope
from repro.obs.registry import get_registry
from repro.obs.trace import active_tracer, capture, span
from repro.rdf.terms import Literal, Term
from repro.resilience import faults
from repro.resilience.breaker import CLOSED, HALF_OPEN, CircuitBreaker
from repro.server.errors import (
    Cancelled,
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    QueryServiceError,
    ServiceClosed,
    UnknownItem,
    WorkerLost,
    is_request_error,
)
from repro.server.metrics import ServiceMetrics, SlowQuery
from repro.server.snapshot import SnapshotManager
from repro.server.supervisor import Supervisor, WorkerSlot
from repro.sparql.cancel import CancelToken, cancel_scope

_UNSET = object()

#: The payload keys each request kind takes (update is a separate, write
#: path). ``lookup`` is the name→term resolution the sharded gateway
#: (:mod:`repro.server.sharding`) scatters before routing a lineage.
PAYLOAD_KEYS = {
    "query": frozenset({"text", "rulebases"}),
    "sql": frozenset({"sql"}),
    "search": frozenset({"term", "filters", "expand_synonyms", "regex"}),
    "lineage": frozenset({"item", "direction", "max_depth"}),
    "lookup": frozenset({"name"}),
}

#: Request kinds the service dispatches.
KINDS = tuple(PAYLOAD_KEYS)


def check_payload(kind: str, payload: Dict[str, object]) -> None:
    """Reject payload keys ``kind`` does not take — a misspelt or
    retired option must fail loudly, not run with the option dropped."""
    unknown = payload.keys() - PAYLOAD_KEYS[kind]
    if unknown:
        raise QueryServiceError(
            f"{kind!r} request takes no option {sorted(unknown)}; "
            f"expected a subset of {sorted(PAYLOAD_KEYS[kind])}"
        )


def dispatch(warehouse, kind: str, payload: Dict[str, object]):
    """Run one read request against a warehouse (facade or live).

    Shared by thread workers (against a pinned snapshot facade) and
    fork-mode children (against the snapshot file they attached).
    """
    if kind == "query":
        return warehouse.query(
            payload["text"], rulebases=payload.get("rulebases", ())
        )
    if kind == "sql":
        return warehouse.sem_sql(payload["sql"])
    if kind == "search":
        return warehouse.search.search(
            payload["term"],
            filters=payload.get("filters"),
            expand_synonyms=bool(payload.get("expand_synonyms", False)),
            regex=bool(payload.get("regex", False)),
        )
    if kind == "lookup":
        return sorted(
            warehouse.graph.subjects(
                TERMS.has_name, Literal(str(payload["name"]))
            ),
            key=lambda t: t.sort_key(),
        )
    if kind == "lineage":
        item = payload["item"]
        if not isinstance(item, Term):
            item = first_match(item, dispatch(warehouse, "lookup", {"name": item}))
        return warehouse.lineage.trace(
            item,
            payload.get("direction", "upstream"),
            max_depth=payload.get("max_depth"),
        )
    raise QueryServiceError(f"unknown request kind {kind!r}; expected one of {KINDS}")


def first_match(name, matches: List[Term]) -> Term:
    """The item a name-addressed lineage request means: the first of the
    sorted ``lookup`` matches."""
    if not matches:
        raise UnknownItem(f"no item named {name!r} (names are dm:hasName values)")
    return matches[0]


def _statement_of(kind: str, payload: Dict[str, object]) -> str:
    """A printable one-line form of the request, for the slow-query log."""
    if kind == "query":
        return str(payload.get("text", ""))
    if kind == "sql":
        return str(payload.get("sql", ""))
    if kind == "search":
        return f"search {payload.get('term', '')!r}"
    if kind == "lineage":
        return f"lineage {payload.get('item', '')!r} {payload.get('direction', 'upstream')}"
    if kind == "lookup":
        return f"lookup {payload.get('name', '')!r}"
    return repr(payload)


#: Total executions one request may consume across worker deaths before
#: the in-process fallback answers it (flagged degraded).
MAX_ATTEMPTS = 3
#: Consecutive infrastructure failures on one endpoint that trip its
#: circuit breaker, and the seconds it sheds before a half-open probe.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN = 30.0


@dataclass
class ServingConfig:
    """The serving block every front door shares, declared once.

    :class:`ServiceConfig` adds the pool size and shard label;
    :class:`~repro.server.sharding.ShardedConfig` adds the topology and
    passes this block down to each shard's service.

    ``max_queue`` bounds *waiting* requests (running ones occupy
    workers, not the queue). ``default_timeout`` applies when a request
    names none; ``None`` disables the deadline. ``slow_query_threshold``
    is the latency (seconds) past which a request is captured in the
    slow-query log together with its evaluation plan.

    Each endpoint has a circuit breaker: :data:`BREAKER_THRESHOLD`
    consecutive infrastructure failures trip it, and further
    submissions of that kind are shed with
    :class:`~repro.server.errors.CircuitOpen` until a half-open probe
    succeeds :data:`BREAKER_COOLDOWN` seconds later.

    ``supervise=True`` (fork mode only) starts a
    :class:`~repro.server.supervisor.Supervisor` that respawns dead or
    generation-stale children and kills hung ones. A request orphaned
    by a dying worker is requeued transparently up to
    :data:`MAX_ATTEMPTS` total executions; past the budget it is
    answered in-process and flagged ``degraded`` — the caller sees
    added latency, never a lost request.
    """

    max_queue: int = 64
    default_timeout: Optional[float] = None
    slow_query_threshold: float = 0.25
    worker_mode: str = "thread"  # "thread" | "fork"
    name: str = "mdw"
    #: Where every snapshot publication also writes a binary snapshot
    #: file for fork workers to attach (mmap). A fork-mode service
    #: without one publishes into a temporary directory it owns.
    snapshot_dir: Optional[str] = None
    #: Self-healing worker fleet (fork mode): heartbeat, reap, respawn.
    supervise: bool = False

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if self.worker_mode not in ("thread", "fork"):
            raise ValueError("worker_mode must be 'thread' or 'fork'")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        if self.slow_query_threshold < 0:
            raise ValueError("slow_query_threshold must be non-negative")
        if self.supervise and self.worker_mode != "fork":
            raise ValueError(
                "supervise requires worker_mode='fork': thread workers "
                "share the process and cannot be reaped or respawned"
            )


@dataclass
class ServiceConfig(ServingConfig):
    """Tuning knobs of a :class:`QueryService`: the shared
    :class:`ServingConfig` block plus the pool size and shard label."""

    max_workers: int = 4
    #: Shard index this service serves (as a metric label value), or ""
    #: for an unsharded deployment. Set by the sharded gateway so one
    #: Prometheus scrape separates the per-shard series.
    shard: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.max_workers < 1:
            raise ValueError("max_workers must be positive")


class QueryRequest:
    """One admitted request travelling from queue to worker.

    ``trace_ctx`` is the submitter's span context captured at admission
    (so the worker's request span nests under the caller's trace even
    across the thread handoff); ``profile`` is the executing worker's
    :class:`~repro.obs.profile.QueryProfile` (operator row counts, cache
    hits — a few counter bumps per BGP stage) that slow-query log
    entries carry.

    One request may be *executed* more than once — requeued after its
    worker died — and a late execution can race the caller's deadline
    backstop, but it completes exactly once: every settlement races
    through :meth:`claim` and only the winner touches the future.
    ``attempts`` counts executions started (the failover budget).
    """

    __slots__ = (
        "request_id", "kind", "payload", "token", "future",
        "submitted_at", "trace_ctx", "profile",
        "attempts", "started", "_completed", "_completion_lock",
    )

    def __init__(self, request_id, kind, payload, token, future):
        self.request_id = request_id
        self.kind = kind
        self.payload = payload
        self.token = token
        self.future = future
        self.submitted_at = time.monotonic()
        self.trace_ctx = capture()
        self.profile: Optional[QueryProfile] = None
        self.attempts = 0
        self.started = False
        self._completed = False
        self._completion_lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._completed

    def begin(self) -> str:
        """Open one execution attempt at dequeue time.

        Returns ``"run"`` (execute it — the attempt is counted),
        ``"skip"`` (already settled — the deadline backstop failed it
        while it waited), or ``"cancelled"``
        (the caller cancelled it while queued, before any execution).
        """
        with self._completion_lock:
            if self._completed:
                return "skip"
            if not self.started:
                if not self.future.set_running_or_notify_cancel():
                    self._completed = True
                    return "cancelled"
                self.started = True
            self.attempts += 1
            return "run"

    def claim(self) -> bool:
        """Win (or lose) the right to complete the future — exactly one
        execution ever gets True."""
        with self._completion_lock:
            if self._completed:
                return False
            self._completed = True
            return True

    def abort(self, exc: BaseException) -> None:
        """Complete with ``exc`` unless already completed or cancelled
        (shutdown path for drained queue entries)."""
        with self._completion_lock:
            if self._completed:
                return
            if not self.started:
                if not self.future.set_running_or_notify_cancel():
                    self._completed = True
                    return
                self.started = True
            self._completed = True
        self.future.set_exception(exc)


class QueryTicket:
    """The caller's handle on a submitted request.

    Carries the request id, the future and the cancel token, so a
    caller can ``cancel()`` an in-flight query (takes effect at the
    evaluator's next check point). :meth:`result` and :meth:`exception`
    are the one wait path of the service: ``execute()`` is
    ``submit(...).result()``.
    """

    __slots__ = ("request_id", "kind", "future", "token", "_request", "_service")

    def __init__(self, request: QueryRequest, service: "QueryService"):
        self.request_id = request.request_id
        self.kind = request.kind
        self.future = request.future
        self.token = request.token
        self._request = request
        self._service = service

    def _settled(self, timeout: Optional[float]) -> Future:
        """Wait for the future within the request's deadline.

        The cooperative checks inside the evaluator normally surface a
        deadline overrun well before the budget is gone; the wait adds a
        slack backstop (what is left ``* 1.2 + 50 ms``) so a worker stuck
        outside any check point — or a queue that never drains — still
        yields a typed :class:`DeadlineExceeded`, with the token
        cancelled, instead of hanging the caller. The backstop settles
        the request here, so it is counted once, as a timeout. A
        ``timeout`` shorter than the backstop is the caller's own wait
        limit and settles nothing.
        """
        remaining = self.token.remaining()
        if remaining is None:
            return self.future
        backstop = max(remaining, 0.0) * 1.2 + 0.05
        if timeout is not None and timeout < backstop:
            return self.future
        try:
            self.future.exception(timeout=backstop)
        except FutureTimeoutError:
            self.token.cancel()
            exc = DeadlineExceeded(self.token.timeout, self.token.elapsed())
            request = self._request
            self._service._fail(request, exc, request.submitted_at, {})
        return self.future

    def result(self, timeout: Optional[float] = None):
        return self._settled(timeout).result(timeout=timeout)

    def exception(self, timeout: Optional[float] = None):
        return self._settled(timeout).exception(timeout=timeout)

    def done(self) -> bool:
        return self.future.done()

    def cancel(self) -> bool:
        """Cancel the request: dequeued-but-unstarted requests are dropped,
        running ones abort at the next evaluator check point."""
        self.token.cancel()
        return self.future.cancel() or not self.future.done()

    def __repr__(self) -> str:
        state = "done" if self.future.done() else "pending"
        return f"<QueryTicket {self.request_id} {self.kind} {state}>"


_STOP = object()


class _Superseded(Exception):
    """Raised out of a worker run whose request another settlement
    owns: it went back into the queue, or the caller's deadline
    backstop already failed it."""


class InProcessWorker:
    """The thread-mode worker: runs a request in the calling thread.

    It pins the current snapshot per request, so it is never stale and
    never dies; one instance serves every slot of a thread-mode pool and
    answers the fork pool's in-process fallback after a
    :class:`WorkerLost`.
    """

    alive = True
    pid = None

    def __init__(self, snapshots: SnapshotManager):
        self._snapshots = snapshots

    @property
    def generation(self) -> int:
        return self._snapshots.generation

    def run(self, request: QueryRequest, extras_sink: List[dict]):
        with self._snapshots.read() as snap:
            with cancel_scope(request.token), profile_scope(request.profile):
                return dispatch(snap.warehouse, request.kind, request.payload)

    def stop(self, grace: float = 0.0) -> None:
        pass


class _FrontDoor:
    """The one read lifecycle: admission, then settlement.

    :meth:`_admit` checks the kind and payload, refuses work after
    close, and builds the request with its :class:`CancelToken` (which
    validates the timeout). :meth:`_settle` runs a worker inside the
    ``request`` span and completes the future exactly once with its
    accounting: metrics, degraded flag, slow-query log. The worker pool
    wraps its breaker, queue and failover around the two steps; the
    sharded gateway settles inline, with its shard router as the worker.

    Each front door says which ``KINDS`` it routes and answers two
    questions about a settled answer: ``_degraded_shards(request,
    result, worker)`` — None for a full answer, else the shards that
    could not contribute (empty: blame its own shard) — and
    ``_slow_detail(request, worker)`` — the ``(plan, statement
    suffix)`` of its slow-query log entry.
    """

    KINDS: Tuple[str, ...] = KINDS
    _SPAN_CATEGORY = "service"
    _ID_PREFIX = "q"

    def _admit(self, kind: str, timeout, payload: Dict[str, object]) -> QueryRequest:
        if kind not in self.KINDS:
            raise QueryServiceError(
                f"{type(self).__name__} cannot route {kind!r} (unknown "
                f"request kind); expected one of {self.KINDS}"
            )
        check_payload(kind, payload)
        if self._closed:
            raise ServiceClosed()
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        token = CancelToken(timeout=timeout)
        request_id = f"{self._ID_PREFIX}-{next(self._read_seq)}"
        return QueryRequest(request_id, kind, payload, token, Future())

    def _settle(self, request: QueryRequest, worker) -> None:
        start = time.monotonic()
        request.profile = QueryProfile()
        # the child's spans/profile land here and are absorbed only
        # after the exactly-once claim is won, so a late execution (one
        # the caller's deadline backstop already failed) never grafts
        # its spans into the request's trace
        extras_sink: List[dict] = []
        with span("request", self._SPAN_CATEGORY, parent=request.trace_ctx,
                  kind=request.kind, request_id=request.request_id,
                  shard=self.metrics.shard) as span_attrs:
            try:
                request.token.check()  # deadline spent before a worker took it
                result = self._run(request, worker, extras_sink)
            except _Superseded:
                span_attrs["error"] = "WorkerLost"
                return
            except BaseException as exc:  # typed errors travel to the caller
                self._fail(request, exc, start, span_attrs, extras_sink)
                return
            if not request.claim():
                # settled first elsewhere; drop this answer and its
                # child spans — only the winner's attempt grafts
                span_attrs["outcome"] = "superseded"
                return
            self._absorb_extras(request, extras_sink)
            self._report(request.kind, None)
            elapsed = time.monotonic() - start
            self.metrics.on_complete(request.kind, elapsed)
            if elapsed >= self.config.slow_query_threshold:
                plan, suffix = self._slow_detail(request, worker)
                self._log_slow(request, elapsed, suffix=suffix, plan=plan)
            shards = self._degraded_shards(request, result, worker)
            if shards is not None:
                # one degraded response however many reasons it has;
                # a bare list (lookup) cannot carry the flag
                span_attrs["degraded"] = True
                try:
                    result.degraded = True
                except AttributeError:
                    pass
                self.metrics.on_degraded(request.kind, shards)
            request.future.set_result(result)

    def _fail(
        self, request: QueryRequest, exc: BaseException, start: float, span_attrs,
        extras_sink=(),
    ) -> None:
        """Fail the request's future (once) with full accounting."""
        if not request.claim():
            span_attrs["outcome"] = "superseded"
            return  # already settled elsewhere; drop it
        self._absorb_extras(request, extras_sink)
        span_attrs["error"] = type(exc).__name__
        if isinstance(exc, DeadlineExceeded):
            self.metrics.on_timeout()
        elif isinstance(exc, Cancelled):
            self.metrics.on_cancel()
        self._report(request.kind, exc)
        self.metrics.on_failure(request.kind, time.monotonic() - start)
        request.future.set_exception(exc)

    @staticmethod
    def _absorb_extras(request: QueryRequest, extras_sink) -> None:
        """Graft fork-child observability payloads (spans, profile)
        collected during this execution — called only after the
        exactly-once claim is won."""
        for extras in extras_sink:
            tracer = active_tracer()
            if extras.get("spans") and tracer is not None:
                tracer.adopt(extras["spans"])
            request.profile.merge_snapshot(extras["profile"])

    def _log_slow(
        self, request: QueryRequest, elapsed: float, prefix="", suffix="", plan=None
    ) -> None:
        profile = None
        if request.profile.operators:
            profile = request.profile.render()
        statement = _statement_of(request.kind, request.payload)
        self.metrics.slow_queries.record(
            SlowQuery(
                request_id=request.request_id,
                kind=request.kind,
                statement=prefix + statement + suffix,
                elapsed=elapsed,
                timestamp=time.time(),
                plan=plan,
                profile=profile,
            )
        )

    # -- what each front door adds -----------------------------------------

    def _run(self, request: QueryRequest, worker, extras_sink: List[dict]):
        return worker.run(request, extras_sink)

    def _report(self, kind: str, exc: Optional[BaseException]) -> None:
        """Endpoint health after a settled request (``exc`` None = ok)."""

    # -- the synchronous surface both front doors share ----------------------

    def search(self, term: str, *, timeout=_UNSET, **options):
        """Synchronous search (use case IV.A)."""
        return self.execute("search", timeout=timeout, term=term, **options)

    def lineage(self, item, *, timeout=_UNSET, **options):
        """Synchronous lineage trace (use case IV.B); ``item`` is a term
        or a ``dm:hasName`` value."""
        return self.execute("lineage", timeout=timeout, item=item, **options)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)


class QueryService(_FrontDoor):
    """Worker pool + admission control + deadlines over one warehouse.

    >>> service = QueryService(mdw, ServiceConfig(max_workers=4))   # doctest: +SKIP
    >>> ticket = service.submit("query", text="SELECT ...")         # doctest: +SKIP
    >>> rows = ticket.result()                                      # doctest: +SKIP

    Use as a context manager to guarantee shutdown. All reads run
    against pinned snapshots; :meth:`update` is the only write path and
    is serialized by the snapshot manager's writer lock.
    """

    def __init__(self, warehouse, config: Optional[ServiceConfig] = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ServiceConfig or keyword overrides, not both")
        self.config = config
        self.warehouse = warehouse
        self.plan_cache = warehouse.plan_cache
        snapshot_dir = config.snapshot_dir
        # fork workers attach the published file, so a fork service
        # always publishes one — into a directory it owns if none is set
        self._owned_tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if config.worker_mode == "fork" and snapshot_dir is None:
            self._owned_tmpdir = tempfile.TemporaryDirectory(prefix="mdw-snapshots-")
            snapshot_dir = self._owned_tmpdir.name
        self.snapshots = SnapshotManager(warehouse, snapshot_dir=snapshot_dir)
        self.metrics = ServiceMetrics(name=config.name, shard=config.shard)
        self._breakers: Dict[str, CircuitBreaker] = {
            kind: CircuitBreaker(
                kind,
                threshold=BREAKER_THRESHOLD,
                cooldown=BREAKER_COOLDOWN,
                shard=config.shard,
            )
            for kind in (*KINDS, "update")
        }
        self._supervisor: Optional[Supervisor] = None
        self._register_gauges()
        self._queue: "queue.Queue" = queue.Queue(maxsize=config.max_queue)
        self._closed = False
        self._close_lock = threading.Lock()
        self._read_seq = itertools.count(1)
        self._write_seq = itertools.count(1)
        self._inline = InProcessWorker(self.snapshots)
        self._slots: List[WorkerSlot] = [
            WorkerSlot(f"{config.name}-worker-{i}")
            for i in range(config.max_workers)
        ]
        self._workers: List[threading.Thread] = []
        for slot in self._slots:
            worker = threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=slot.name,
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        if config.supervise:
            self._supervisor = Supervisor(self)
            self._supervisor.start()

    def _register_gauges(self) -> None:
        """Expose scrape-time computed gauges through the global registry.

        Callback gauges are resolved at collection time, so the exporter
        always reports the live plan-cache hit rate, snapshot
        generation/pin counts, and breaker states without any hot-path
        bookkeeping. Last registration wins: a newer service instance
        with the same name simply takes over the series.
        """
        registry = get_registry()
        name = self.config.name
        registry.gauge(
            "mdw_plan_cache_hit_rate",
            "Fraction of plan-cache prepare() calls answered from cache",
            labels=("service",),
        ).set_function(self.plan_cache.hit_rate, service=name)
        registry.gauge(
            "mdw_snapshot_generation",
            "Generation of the published read snapshot",
            labels=("service",),
        ).set_function(lambda: self.snapshots.generation, service=name)
        registry.gauge(
            "mdw_snapshot_pins",
            "Read snapshots currently pinned by in-flight requests",
            labels=("service",),
        ).set_function(lambda: self.snapshots.stats()["active_pins"], service=name)
        registry.gauge(
            "mdw_worker_heartbeat_age_seconds",
            "Stalest busy fork worker's progress-watermark age",
            labels=("service",),
        ).set_function(
            lambda: (
                self._supervisor.max_heartbeat_age()
                if self._supervisor is not None
                else 0.0
            ),
            service=name,
        )
        states = {CLOSED: 0.0, HALF_OPEN: 1.0}
        breaker_gauge = registry.gauge(
            "mdw_breaker_state",
            "Circuit-breaker state per endpoint (0 closed, 1 half-open, 2 open)",
            labels=("service", "endpoint", "shard"),
        )
        for kind, breaker in self._breakers.items():
            breaker_gauge.set_function(
                lambda b=breaker: states.get(b.snapshot()["state"], 2.0),
                service=name,
                endpoint=kind,
                shard=self.config.shard,
            )

    # -- admission ---------------------------------------------------------

    def _enqueue(self, kind: str, timeout, payload: Dict[str, object]) -> QueryRequest:
        # admission first: an invalid timeout must fail before the
        # breaker reserves a half-open probe nothing would give back
        request = self._admit(kind, timeout, payload)
        breaker = self._breakers[kind]
        if not breaker.allow():
            self.metrics.on_breaker_reject()
            raise CircuitOpen(kind, breaker.retry_after())
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            breaker.release()  # the admitted probe never ran
            self.metrics.on_reject()
            raise Overloaded(self._queue.qsize(), self.config.max_queue) from None
        self.metrics.on_submit(self._queue.qsize())
        return request

    def submit(self, kind: str, *, timeout=_UNSET, **payload) -> QueryTicket:
        """Admit a read request; returns immediately with a ticket.

        Raises :class:`Overloaded` when the admission queue is full,
        :class:`ServiceClosed` after :meth:`close`, and
        :class:`CircuitOpen` while the endpoint's breaker is shedding —
        never blocks the submitter. The deadline clock starts *now*:
        time spent waiting in the queue counts against the request's
        budget.
        """
        return QueryTicket(self._enqueue(kind, timeout, payload), self)

    def execute(self, kind: str, *, timeout=_UNSET, **payload):
        """Submit and wait (:meth:`QueryTicket.result`); the synchronous
        front door."""
        return self.submit(kind, timeout=timeout, **payload).result()

    # -- convenience read endpoints ---------------------------------------

    def query(self, text: str, *, timeout=_UNSET, **options):
        """Synchronous SPARQL query (see :meth:`MetadataWarehouse.query`)."""
        return self.execute("query", timeout=timeout, text=text, **options)

    def sem_sql(self, sql: str, *, timeout=_UNSET):
        """Synchronous SEM_MATCH SQL statement (the paper's listings)."""
        return self.execute("sql", timeout=timeout, sql=sql)

    # -- writes ------------------------------------------------------------

    def update(self, text: str):
        """Run SPARQL Update against the live model.

        Serialized with other writes; in-flight readers keep their
        pinned snapshots, later requests see the new state. The audit
        journal (when enabled) attributes the change to this request's
        id. Fork-mode workers are respawned lazily: each notices the
        new generation at its next dequeue.
        """
        if self._closed:
            raise ServiceClosed()
        breaker = self._breakers["update"]
        if not breaker.allow():
            self.metrics.on_breaker_reject()
            raise CircuitOpen("update", breaker.retry_after())
        request_id = f"w-{next(self._write_seq)}"
        start = time.monotonic()
        self.metrics.on_submit(self._queue.qsize())
        audit = self.warehouse.audit

        def apply(mdw):
            if audit is not None:
                with audit.request_context(request_id):
                    return mdw.update(text)
            return mdw.update(text)

        try:
            result = self.snapshots.write(apply)
        except Exception as exc:
            self._report("update", exc)
            self.metrics.on_failure("update", time.monotonic() - start)
            raise
        self._report("update", None)
        self.metrics.on_complete("update", time.monotonic() - start)
        return result

    # -- worker loop -------------------------------------------------------

    def _worker_loop(self, slot: WorkerSlot) -> None:
        try:
            while True:
                request = self._queue.get()
                if request is _STOP:
                    break
                self.metrics.on_dequeue(self._queue.qsize())
                verdict = request.begin()
                if verdict == "cancelled":
                    self._breakers[request.kind].release()
                    continue  # cancelled while queued, never executed
                if verdict == "skip":
                    continue  # already settled while it waited
                # the slot lock makes the (worker, request) pair atomic
                # for the supervisor: it inspects under the same lock
                # and only swaps workers in *idle* slots
                with slot.lock:
                    slot.worker = self._ensure_worker(slot.worker)
                    slot.request = request
                    worker = slot.worker
                try:
                    self._settle(request, worker)
                finally:
                    with slot.lock:
                        slot.request = None
        finally:
            with slot.lock:
                if slot.worker is not None:
                    slot.worker.stop()
                    slot.worker = None

    def _ensure_worker(self, worker):
        """(Re)spawn this slot's worker when absent, dead or stale."""
        generation = self.snapshots.generation
        if worker is not None and worker.alive and worker.generation == generation:
            return worker
        if worker is not None:
            reason = "stale" if worker.alive else "crash"
            worker.stop()
            self.metrics.on_worker_restart(reason)
        return self._spawn_worker()

    def _spawn_worker(self):
        """The slot worker factory: the one place ``worker_mode`` is read.

        A fork child is pinned to the *current* snapshot at spawn time —
        a worker restarted across a publish attaches the new generation,
        never the stale image its predecessor served.
        """
        if self.config.worker_mode == "thread":
            return self._inline
        from repro.server.procpool import ForkWorker

        with self.snapshots.read() as snap:
            worker = ForkWorker(snap, dispatch, name=self.config.name)
        self.metrics.on_fork_worker()
        return worker

    def _run(self, request: QueryRequest, worker, extras_sink: List[dict]):
        """Run on the slot's worker, failing over when it dies.

        A :class:`WorkerLost` (SIGKILL, crash, torn pipe) is logged with
        the child's exit code; under supervision the request is then
        requeued within its attempt budget or — past it, at shutdown,
        with no queue room — answered in this thread and flagged
        degraded. The caller never loses a request to a dead worker
        while supervision is on.
        """
        start = time.monotonic()
        faults.fire("worker.execute")
        try:
            return worker.run(request, extras_sink)
        except WorkerLost as exc:
            self.metrics.on_worker_lost()
            # the incident trail: "why was this query slow / retried"
            lost = f"[worker lost: exit {exc.exitcode}, attempt {request.attempts}] "
            self._log_slow(request, time.monotonic() - start, prefix=lost)
            if self._supervisor is None:
                raise
        # only a supervised WorkerLost gets here
        if request.done:
            raise _Superseded()  # the deadline backstop already settled it
        if request.attempts < MAX_ATTEMPTS and not self._closed:
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                pass  # no queue room: fall through to the inline answer
            else:
                self.metrics.on_requeue()
                raise _Superseded()  # a healthy worker finishes the job
        result = self._inline.run(request, extras_sink)
        try:
            result.degraded = True
        except AttributeError:
            pass
        return result

    def _report(self, kind: str, exc: Optional[BaseException]) -> None:
        """Feed ``kind``'s breaker: a request error (bad input, a
        caller's cancel — :func:`is_request_error`) gives back its probe
        and says nothing about the endpoint; anything else, deadline
        overruns included, is the endpoint's ill health."""
        breaker = self._breakers[kind]
        if exc is None:
            breaker.on_success()
        elif is_request_error(exc):
            breaker.release()
        else:
            breaker.on_failure()

    def _degraded_shards(self, request, result, worker) -> Optional[Sequence[str]]:
        # only the in-process fallback after the attempt budget flags
        # it; search and lineage read the base model, never an
        # entailment index, so a stale index does not degrade them
        if getattr(result, "degraded", False):
            return ()
        return None

    def _slow_detail(self, request, worker) -> Tuple[Optional[str], str]:
        if request.kind == "query":
            try:  # best effort: the plan is diagnostics, not the answer
                with self.snapshots.read() as snap:
                    plan = snap.warehouse.explain(
                        request.payload["text"],
                        rulebases=list(request.payload.get("rulebases", ())),
                    )
                return plan, ""
            except Exception:
                pass
        return None, ""

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop admitting, then stop the workers.

        ``wait=True`` drains already-admitted requests first;
        ``wait=False`` cancels queued requests (their futures fail with
        :class:`ServiceClosed`) and interrupts running ones via their
        tokens. Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._supervisor is not None:
            # stop the healer first, or it respawns workers mid-teardown
            self._supervisor.stop()
        if not wait:
            self._abort_queued()
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=30)
        # a failover requeue racing with shutdown may have landed behind
        # the stop sentinels; nothing will ever run it — fail it typed
        # instead of leaving the caller waiting forever
        self._abort_queued()
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None

    def _abort_queued(self) -> None:
        """Fail every queued request with :class:`ServiceClosed`."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                item.token.cancel()
                item.abort(ServiceClosed())

    # -- health ------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """One self-describing health document for operators.

        ``status`` is ``"healthy"`` when the service accepts work,
        every breaker is closed, no entailment index is stale, and the
        supervised worker pool (when supervision is on) is at full
        strength; ``"degraded"`` when it still serves but some endpoint
        is shedding or an entailment index lags the model (a ``query``
        naming its rulebase reads it); ``"recovering"``
        while the supervisor is respawning dead workers back to the
        configured pool size; ``"closed"`` after shutdown.

        The schema is stable regardless of mode: ``endpoints`` maps
        every request kind to its breaker snapshot, and ``workers``
        always carries the same keys — ``supervised`` and ``deficit``
        just stay at their zero values when no supervisor runs, while
        ``restarts`` is the service metrics' own number (a lazy respawn
        at dequeue shows here too). The sharded gateway
        embeds one such document per shard (under its own ``shards``
        key) and aggregates the statuses, so a fleet scrape reads one
        shape at every level.
        """
        endpoints = {
            kind: {"breaker": b.snapshot()}
            for kind, b in sorted(self._breakers.items())
        }
        mdw = self.warehouse
        stale = [  # rulebases whose entailment index lags the live model
            rulebase
            for rulebase in mdw.indexes.rulebases(mdw.model_name)
            if mdw.indexes.is_stale(mdw.model_name, rulebase)
        ]
        supervisor = (
            self._supervisor.stats() if self._supervisor is not None else None
        )
        workers: Dict[str, object] = {
            "configured": self.config.max_workers,
            "mode": self.config.worker_mode,
            "supervised": supervisor is not None,
            "alive_children": len(self.worker_pids()),
            "deficit": supervisor["deficit"] if supervisor else 0,
            "restarts": self.metrics.restarts(),
        }
        if self._closed:
            status = "closed"
        elif stale or any(
            doc["breaker"]["state"] != CLOSED for doc in endpoints.values()
        ):
            status = "degraded"
        elif supervisor is not None and supervisor["deficit"] > 0:
            status = "recovering"
        else:
            status = "healthy"
        return {
            "status": status,
            "shard": self.config.shard or None,
            "generation": self.snapshots.generation,
            "queue_depth": self._queue.qsize(),
            "workers": workers,
            "endpoints": endpoints,
            "stale_indexes": stale,
            "supervisor": supervisor,
        }

    def breaker(self, kind: str) -> CircuitBreaker:
        """The breaker guarding ``kind``."""
        return self._breakers[kind]

    @property
    def supervisor(self) -> Optional[Supervisor]:
        """The self-healing layer (None unless ``supervise=True``)."""
        return self._supervisor

    def worker_pids(self) -> List[int]:
        """PIDs of the live fork children (empty in thread mode)."""
        pids: List[int] = []
        for slot in self._slots:
            worker = slot.worker
            if worker is not None and worker.alive and worker.pid is not None:
                pids.append(worker.pid)
        return pids

    # -- reporting ---------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        snap = self.metrics.snapshot(plan_cache=self.plan_cache)
        snap["snapshots"] = self.snapshots.stats()
        snap["breakers"] = {
            kind: b.snapshot() for kind, b in sorted(self._breakers.items())
        }
        if self._supervisor is not None:
            snap["supervisor"] = self._supervisor.stats()
        return snap

    def metrics_report(self) -> str:
        report = self.metrics.render(plan_cache=self.plan_cache)
        stats = self.snapshots.stats()
        report += (
            f"\n  snapshots: generation {stats['generation']}, "
            f"{stats['publications']} published, {stats['writes']} writes, "
            f"{stats['active_pins']} pinned"
        )
        return report

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<QueryService {self.config.name!r} {state} "
            f"workers={self.config.max_workers} mode={self.config.worker_mode} "
            f"queued={self._queue.qsize()}>"
        )

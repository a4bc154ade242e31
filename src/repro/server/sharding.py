"""Sharded scatter-gather serving: the N-shard topology and its gateway.

One :class:`~repro.server.service.QueryService` scales until a single
worker's scan of the full fact graph is the bottleneck. This module
splits the warehouse across N *shards* — each a supervised fork-worker
pool over a hash-partitioned slice written by
:mod:`repro.storage.partition` — and puts a :class:`ShardedQueryService`
gateway in front:

* **point lookups** (``lookup``, and downstream lineage expansion) go
  only to the owning shard, computed with the same
  :func:`~repro.storage.partition.shard_of` hash the partitioner used;
* **Listing-1 search** scatters to every healthy shard and gathers: hit
  lists concatenate (placement is disjoint, so no dedup is needed) and
  re-sort into the single-node order; the per-class group counts of
  Figure 6 then merge trivially because they are derived from the hits;
* **Listing-2 lineage** runs as an *iterative frontier exchange*: the
  gateway holds the BFS state (visited set, depths — which makes
  cross-shard cycles terminate) and each round asks shards for one
  level of ``isMappedTo`` edges. Downstream rounds route each frontier
  item to its owner shard; upstream rounds scatter, because a remote
  edge lives with its *source*. Rounds are bounded and the request
  deadline propagates into every sub-request.

Admission control, per-request deadlines, endpoint breakers, snapshot
generations, and supervision (heartbeats, respawn, hedged dispatch for
stragglers) all stay *per shard* — each shard is a full PR-8 service.
The gateway adds one client-side :class:`CircuitBreaker` per shard:
when a shard keeps failing (workers unreachable, queue full, service
gone) its breaker opens and the gateway simply *skips* it, returning
partial results flagged ``degraded=True`` — a dead shard degrades
answers, it never errors them. ``replace_shard`` (the runbook path) and
``rebalance`` (the incremental-release path, replacing only shards the
delta touched) restore full answers.
"""

from __future__ import annotations

import itertools
import tempfile
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.fleet import SloEngine, get_journal
from repro.obs.trace import span
from repro.rdf.terms import Literal, Term

from repro.resilience.breaker import CLOSED, CircuitBreaker
from repro.server.errors import (
    Cancelled,
    CircuitOpen,
    DeadlineExceeded,
    Overloaded,
    QueryServiceError,
    ServiceClosed,
)
from repro.server.metrics import ServiceMetrics, SlowQuery
from repro.server.service import (
    QueryService,
    QueryTicket,
    ServiceConfig,
    _UNSET,
    _statement_of,
    check_payload,
)
from repro.services.lineage import LineageEdge, LineageTrace
from repro.services.search import SearchResults
from repro.storage.partition import (
    ShardPlan,
    changed_shards,
    partition_store,
    shard_of,
    write_shard_snapshots,
)

__all__ = ["ShardedConfig", "ShardedQueryService"]

#: Request kinds the gateway can route/merge. ``query``/``sql`` need the
#: full graph on one node and stay on the unsharded service.
GATEWAY_KINDS = ("search", "lineage", "lookup")


@dataclass
class ShardedConfig:
    """Tuning knobs of a :class:`ShardedQueryService`.

    Per-shard serving knobs (``workers_per_shard``, ``max_queue``,
    deadlines, supervision, hedging) are passed down into each shard's
    :class:`~repro.server.service.ServiceConfig` unchanged. The
    gateway-level knobs are the per-shard *client* breakers
    (``shard_breaker_*`` — these are what turn a dead shard into
    partial results instead of errors) and ``max_rounds``, the bound on
    lineage frontier-exchange iterations (a cycle-safety backstop on
    top of the visited set; a trace cut short by it comes back
    ``degraded``).
    """

    n_shards: int = 2
    workers_per_shard: int = 2
    name: str = "mdw-sharded"
    #: Root directory for shard snapshot files; each shard also gets a
    #: ``shard-<i>/`` subdirectory for its generation snapshots. When
    #: None the gateway owns a temporary directory.
    snapshot_dir: Optional[str] = None
    worker_mode: str = "fork"
    max_queue: int = 64
    default_timeout: Optional[float] = None
    supervise: bool = True
    heartbeat_interval: float = 0.25
    hang_timeout: float = 5.0
    hedge_after: Optional[float] = None
    max_attempts: int = 3
    #: per-shard *service* endpoint breakers (inside each shard)
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0
    #: gateway-side per-shard client breakers: consecutive sub-request
    #: infrastructure failures before the shard is skipped entirely
    shard_breaker_threshold: int = 3
    shard_breaker_cooldown: float = 5.0
    #: lineage frontier-exchange round bound
    max_rounds: int = 64
    #: gateway slow-request threshold (seconds). A slow sharded request
    #: is logged ONCE here, with its per-shard timing breakdown —
    #: shard-local slow logs are disabled so it does not also show up
    #: N times as shard entries.
    slow_query_threshold: float = 0.25
    #: rolling window (seconds) of the gateway's SLO engine
    slo_window: float = 300.0

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if self.workers_per_shard < 1:
            raise ValueError("workers_per_shard must be positive")
        if self.worker_mode not in ("thread", "fork"):
            raise ValueError("worker_mode must be 'thread' or 'fork'")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if self.shard_breaker_threshold < 1:
            raise ValueError("shard_breaker_threshold must be positive")
        if self.shard_breaker_cooldown <= 0:
            raise ValueError("shard_breaker_cooldown must be positive")
        if self.slow_query_threshold <= 0:
            raise ValueError("slow_query_threshold must be positive")
        if self.slo_window <= 0:
            raise ValueError("slo_window must be positive")


class _GatewayCall:
    """Per-request accumulator the gateway threads through its fan-out.

    ``timings`` collects wall-clock seconds per shard (summed across
    lineage rounds); ``failed`` the distinct shards that could not
    answer. Both feed the unified slow-query entry and the per-shard
    ``mdw_service_degraded_total`` attribution.
    """

    __slots__ = ("timings", "failed")

    def __init__(self):
        self.timings: Dict[int, float] = {}
        self.failed: Set[int] = set()


class ShardedQueryService:
    """The scatter-gather gateway over N hash-partitioned shards.

    Built from a live warehouse: the constructor partitions the model
    deterministically, writes one ``.mdws`` snapshot per shard, and
    starts one supervised :class:`QueryService` per slice. The gateway
    itself holds no graph data — only the routing hash, the merge
    operators, and one client breaker per shard.
    """

    def __init__(self, warehouse, config: Optional[ShardedConfig] = None, **overrides):
        if config is None:
            config = ShardedConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ShardedConfig or keyword overrides")
        self.config = config
        self.model = warehouse.model_name
        self._schema_ns = warehouse.schema.namespace
        self._instance_ns = warehouse.facts.namespace
        self._warehouse_type = type(warehouse)
        self._closed = False
        self._owned_tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if config.snapshot_dir is None:
            self._owned_tmpdir = tempfile.TemporaryDirectory(prefix="mdw-shards-")
            self._root = Path(self._owned_tmpdir.name)
        else:
            self._root = Path(config.snapshot_dir)
            self._root.mkdir(parents=True, exist_ok=True)

        self._plan: ShardPlan = partition_store(
            warehouse.store, config.n_shards, self.model
        )
        self.shard_paths = write_shard_snapshots(self._plan, self._root)
        self._shard_breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                f"shard-{i}",
                threshold=config.shard_breaker_threshold,
                cooldown=config.shard_breaker_cooldown,
                shard=str(i),
            )
            for i in range(config.n_shards)
        ]
        self._shards: List[QueryService] = [
            self._build_shard(i) for i in range(config.n_shards)
        ]
        # Gateway-level observability: its own metrics identity (shard
        # label "gateway" keeps it distinct from the per-shard series),
        # a request-id sequence for trace/slow-log attribution, and the
        # fleet SLO engine reading every service under this name.
        self.metrics = ServiceMetrics(name=config.name, shard="gateway")
        self.slo = SloEngine(
            window=config.slo_window, service_prefix=config.name
        )
        self._gateway_seq = itertools.count(1)

    # -- topology ----------------------------------------------------------

    def _build_shard(self, index: int) -> QueryService:
        config = self.config
        shard_dir = self._root / f"shard-{index}"
        shard_dir.mkdir(parents=True, exist_ok=True)
        mdw = self._warehouse_type(
            model=self.model,
            store=self._plan.stores[index],
            schema_ns=self._schema_ns,
            instance_ns=self._instance_ns,
        )
        service_config = ServiceConfig(
            max_workers=config.workers_per_shard,
            max_queue=config.max_queue,
            default_timeout=config.default_timeout,
            worker_mode=config.worker_mode,
            name=f"{config.name}-shard{index}",
            snapshot_dir=str(shard_dir),
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            supervise=config.supervise and config.worker_mode == "fork",
            heartbeat_interval=config.heartbeat_interval,
            hang_timeout=config.hang_timeout,
            hedge_after=config.hedge_after,
            max_attempts=config.max_attempts,
            shard=str(index),
            # one unified slow entry at the gateway, not N shard-local ones
            log_slow_queries=False,
        )
        return QueryService(mdw, service_config)

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    def shard_service(self, index: int) -> QueryService:
        """The per-shard service (chaos harnesses kill its workers)."""
        return self._shards[index]

    def shard_breaker(self, index: int) -> CircuitBreaker:
        """The gateway-side client breaker guarding one shard."""
        return self._shard_breakers[index]

    def owner_of(self, term: Term) -> int:
        """The shard that owns ``term``'s facts (routing hash)."""
        return shard_of(term, self.config.n_shards)

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        for service in self._shards:
            try:
                service.close(wait=wait)
            except Exception:
                pass
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)

    # -- deadline bookkeeping ----------------------------------------------

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.monotonic() + timeout

    @staticmethod
    def _remaining(
        deadline: Optional[float], timeout: Optional[float]
    ) -> Optional[float]:
        """Budget left, or a typed :class:`DeadlineExceeded` when spent."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(timeout, timeout - remaining)
        return remaining

    # -- scatter-gather core -----------------------------------------------

    def _scatter(
        self,
        shard_ids: Sequence[int],
        kind: str,
        payloads: Dict[int, Dict[str, object]],
        deadline: Optional[float],
        timeout: Optional[float],
        call: Optional[_GatewayCall] = None,
    ) -> Tuple[Dict[int, object], List[int]]:
        """Submit one sub-request per shard; gather what the healthy ones say.

        Returns ``(results_by_shard, failed_shard_ids)``. A shard whose
        client breaker is open is skipped outright (that *is* the
        degraded mode); a shard that fails here feeds its breaker.
        Deadline overruns and cancellations are the caller's problem and
        re-raise typed — they say nothing about shard health. When a
        :class:`_GatewayCall` is passed, per-shard wall time and failed
        shard ids accumulate into it across rounds.
        """
        started = time.monotonic()
        tickets: Dict[int, QueryTicket] = {}
        failed: List[int] = []
        for index in shard_ids:
            breaker = self._shard_breakers[index]
            if not breaker.allow():
                failed.append(index)
                continue
            budget = self._remaining(deadline, timeout)
            try:
                tickets[index] = self._shards[index].submit(
                    kind, timeout=budget, **payloads[index]
                )
            except (Overloaded, CircuitOpen, ServiceClosed):
                breaker.on_failure()
                failed.append(index)
        results: Dict[int, object] = {}
        for index, ticket in tickets.items():
            breaker = self._shard_breakers[index]
            if deadline is None:
                wait = None
            else:
                # mirror QueryService.execute's slack backstop so a
                # wedged shard surfaces a typed deadline, not a hang
                wait = max(deadline - time.monotonic(), 0.0) * 1.2 + 0.05
            try:
                results[index] = ticket.result(timeout=wait)
            except FutureTimeoutError:
                ticket.cancel()
                raise DeadlineExceeded(
                    timeout, timeout + (time.monotonic() - deadline)
                ) from None
            except (DeadlineExceeded, Cancelled):
                raise
            except Exception:
                # WorkerLost past its attempt budget, a shard closing
                # under us, or anything unexpected: shard-level failure
                breaker.on_failure()
                failed.append(index)
            else:
                breaker.on_success()
            if call is not None:
                # submit→gather wall time attributed to this shard,
                # summed across lineage rounds
                elapsed = time.monotonic() - started
                call.timings[index] = call.timings.get(index, 0.0) + elapsed
        if call is not None:
            call.failed.update(failed)
        return results, failed

    # -- public API --------------------------------------------------------

    def execute(self, kind: str, *, timeout=_UNSET, **payload):
        """Route/scatter one read request; the synchronous front door.

        Matches ``QueryService.execute`` for the sharded kinds
        (``search``, ``lineage``, ``lookup``); results are bit-identical
        to the unsharded service when every shard answers, and flagged
        ``degraded=True`` (never an error) when some shards could not.
        """
        if self._closed:
            raise ServiceClosed()
        if kind not in GATEWAY_KINDS:
            raise QueryServiceError(
                f"sharded gateway cannot route {kind!r}; expected one of "
                f"{GATEWAY_KINDS} (run query/sql on an unsharded replica)"
            )
        check_payload(kind, payload)
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        deadline = self._deadline(timeout)
        call = _GatewayCall()
        request_id = f"g-{next(self._gateway_seq)}"
        start = time.monotonic()
        self.metrics.on_submit(0)
        # The gateway root span: every shard sub-request captures it (or
        # the per-round frontier span below it) as its parent, so one
        # Chrome trace nests gateway ⊃ frontier rounds ⊃ shard requests
        # ⊃ operators across process boundaries.
        with span(
            "request", "gateway", kind=kind, request_id=request_id
        ) as span_attrs:
            try:
                if kind == "search":
                    result = self._search(payload, deadline, timeout, call)
                elif kind == "lookup":
                    matches, _ = self._lookup(
                        str(payload["name"]), deadline, timeout, call
                    )
                    result = matches
                else:
                    result = self._lineage(payload, deadline, timeout, call)
            except BaseException as exc:
                span_attrs["outcome"] = "error"
                span_attrs["error"] = type(exc).__name__
                self.metrics.on_failure(kind, time.monotonic() - start)
                if isinstance(exc, DeadlineExceeded):
                    self.metrics.on_timeout()
                raise
            degraded = bool(call.failed) or bool(
                getattr(result, "degraded", False)
            )
            span_attrs["shards"] = self.config.n_shards
            if degraded:
                span_attrs["degraded"] = True
        elapsed = time.monotonic() - start
        self.metrics.on_complete(kind, elapsed)
        if degraded:
            # one degraded response, attributed to every shard that could
            # not answer (breaker-shed / dead) — or to the gateway itself
            # for round-bound cut-offs and shard-flagged partials
            self.metrics.on_degraded(kind, [str(i) for i in sorted(call.failed)])
        if elapsed >= self.config.slow_query_threshold:
            self._log_slow(request_id, kind, payload, elapsed, call)
        return result

    def search(self, term: str, *, timeout=_UNSET, **options):
        return self.execute("search", timeout=timeout, term=term, **options)

    def lineage(self, item, *, timeout=_UNSET, **options):
        return self.execute("lineage", timeout=timeout, item=item, **options)

    def _log_slow(self, request_id, kind, payload, elapsed, call) -> None:
        """One unified slow-query entry at the gateway.

        Shard-local slow logs are off (``log_slow_queries=False``), so a
        slow sharded request shows up exactly once — here — with the
        per-shard timing breakdown and any failed shard ids appended to
        the statement.
        """
        breakdown = ", ".join(
            f"shard{i}={call.timings[i] * 1e3:.1f}ms"
            for i in sorted(call.timings)
        )
        statement = "{} [{}{}]".format(
            _statement_of(kind, payload),
            breakdown or "no shard calls",
            f"; failed shards: {sorted(call.failed)}" if call.failed else "",
        )
        self.metrics.slow_queries.record(
            SlowQuery(
                request_id=request_id,
                kind=kind,
                statement=statement,
                elapsed=elapsed,
                timestamp=time.time(),
            )
        )

    # -- search: scatter + order-preserving merge ---------------------------

    def _search(self, payload, deadline, timeout, call=None) -> SearchResults:
        all_shards = range(self.config.n_shards)
        results, failed = self._scatter(
            all_shards,
            "search",
            {i: payload for i in all_shards},
            deadline,
            timeout,
            call,
        )
        term = str(payload.get("term", ""))
        if not results:
            empty = SearchResults(term, [term], [], {}, [])
            empty.degraded = True
            return empty
        parts = [results[i] for i in sorted(results)]
        hits = sorted(
            (hit for part in parts for hit in part.hits),
            key=lambda hit: hit.instance.sort_key(),
        )
        labels: Dict[object, str] = {}
        for part in parts:
            for hit in part.hits:
                for cls in hit.all_classes:
                    if cls not in labels:
                        labels[cls] = part.label(cls)
        # thesaurus and homonym data are replicated: any shard's answer
        # is the global one
        merged = SearchResults(
            parts[0].term,
            list(parts[0].expanded_terms),
            hits,
            labels,
            list(parts[0].homonym_warnings),
        )
        merged.degraded = bool(failed) or any(p.degraded for p in parts)
        return merged

    # -- point lookup -------------------------------------------------------

    def _lookup(self, name, deadline, timeout, call=None) -> Tuple[List[Term], bool]:
        all_shards = range(self.config.n_shards)
        results, failed = self._scatter(
            all_shards,
            "lookup",
            {i: {"name": name} for i in all_shards},
            deadline,
            timeout,
            call,
        )
        matches = sorted(
            (term for part in results.values() for term in part),
            key=lambda t: t.sort_key(),
        )
        return matches, bool(failed)

    # -- lineage: iterative frontier exchange --------------------------------

    def _lineage(self, payload, deadline, timeout, call=None) -> LineageTrace:
        direction = payload.get("direction", "upstream")
        if direction not in ("upstream", "downstream"):
            raise ValueError("direction must be 'upstream' or 'downstream'")
        max_depth = payload.get("max_depth")
        item = payload["item"]
        degraded = False
        if not isinstance(item, Term):
            matches, lookup_failed = self._lookup(
                str(item), deadline, timeout, call
            )
            if not matches:
                if lookup_failed:
                    # the owner shard may be the one that is down: an
                    # empty degraded trace, never an error
                    trace = LineageTrace(
                        start=Literal(str(item)), direction=direction
                    )
                    trace.degraded = True
                    return trace
                raise QueryServiceError(
                    f"no item named {item!r} (names are dm:hasName values)"
                )
            degraded = lookup_failed
            item = matches[0]

        # The gateway replays LineageService.trace exactly, except that
        # each BFS level's edges come from the shards: state here, scans
        # there. Holding visited/depth centrally is what makes a cycle
        # whose items live on different shards terminate.
        trace = LineageTrace(start=item, direction=direction)
        trace.depth[item] = 0
        frontier: List[Term] = [item]
        visited = {item}
        rounds = 0
        n = self.config.n_shards
        while frontier:
            active = [
                current
                for current in frontier
                if max_depth is None or trace.depth[current] < max_depth
            ]
            if not active:
                break
            rounds += 1
            if rounds > self.config.max_rounds:
                degraded = True  # bounded rounds: cut short, flagged
                break
            if direction == "downstream":
                # a downstream edge lives with its source: point-route
                # each item to its owner shard only
                sent: Dict[int, List[Term]] = {}
                for current in active:
                    sent.setdefault(shard_of(current, n), []).append(current)
            else:
                # upstream edges are keyed by the (unknown) remote
                # source: every shard reports what its slice knows
                sent = {i: list(active) for i in range(n)}
            # one span per BFS round; sub-requests are submitted inside
            # it, so every shard's frontier handling nests underneath
            with span(
                "frontier",
                "gateway",
                round=rounds,
                fan_out=len(sent),
                frontier=len(active),
                direction=direction,
            ):
                results, failed = self._scatter(
                    list(sent),
                    "frontier",
                    {
                        i: {"items": items, "direction": direction}
                        for i, items in sent.items()
                    },
                    deadline,
                    timeout,
                    call,
                )
            degraded = degraded or bool(failed)
            edges_of: Dict[Term, List[LineageEdge]] = {c: [] for c in active}
            for index, level in results.items():
                for current, edges in zip(sent[index], level):
                    edges_of[current].extend(edges)
            nxt: List[Term] = []
            for current in frontier:
                if max_depth is not None and trace.depth[current] >= max_depth:
                    continue
                merged = sorted(
                    edges_of[current],
                    key=lambda edge: (
                        edge.target if direction == "downstream" else edge.source
                    ).sort_key(),
                )
                for edge in merged:
                    neighbour = (
                        edge.target if direction == "downstream" else edge.source
                    )
                    trace.edges.append(edge)
                    if neighbour not in visited:
                        visited.add(neighbour)
                        trace.depth[neighbour] = trace.depth[current] + 1
                        nxt.append(neighbour)
            frontier = nxt
        trace.degraded = degraded
        return trace

    # -- health and operations ----------------------------------------------

    def health(self) -> Dict[str, object]:
        """The aggregated fleet health document.

        Per-shard documents are the stable ``QueryService.health``
        schema plus the gateway's client-breaker snapshot; the overall
        ``status`` is the worst of the shard statuses (an open client
        breaker makes its shard — and so the fleet — ``degraded``).
        """
        shards: Dict[str, Dict[str, object]] = {}
        statuses: List[str] = []
        for index, service in enumerate(self._shards):
            doc = service.health()
            breaker = self._shard_breakers[index].snapshot()
            doc["gateway_breaker"] = breaker
            status = doc["status"]
            if breaker["state"] != CLOSED or status == "closed":
                status = "degraded"
            shards[str(index)] = doc
            statuses.append(status)
        if self._closed:
            overall = "closed"
        elif any(status == "degraded" for status in statuses):
            overall = "degraded"
        elif any(status == "recovering" for status in statuses):
            overall = "recovering"
        else:
            overall = "healthy"
        return {
            "status": overall,
            "n_shards": self.config.n_shards,
            "shards": shards,
            "slo": self.slo.report(),
        }

    def replace_shard(self, index: int) -> QueryService:
        """Tear down and rebuild one shard from its retained partition.

        The operations runbook's dead-shard path: close whatever is
        left of the old service, start a fresh supervised pool over the
        same slice, and reset the gateway breaker so traffic flows back
        immediately (rather than waiting out the cooldown probe).
        """
        old = self._shards[index]
        try:
            old.close(wait=False)
        except Exception:
            pass
        replacement = self._build_shard(index)
        self._shards[index] = replacement
        self._shard_breakers[index].reset()
        get_journal().record(
            "shard-replace",
            severity="warning",
            service=self.config.name,
            shard=str(index),
        )
        return replacement

    def rebalance(self, store) -> Dict[str, object]:
        """Re-partition after a release and replace only changed shards.

        ``store`` is the post-release TripleStore. Hash placement is
        sticky, so an incremental release touching K subjects changes at
        most the shards owning those K subjects — the rest keep serving
        the generation they have. Returns which shards were replaced.
        """
        new_plan = partition_store(store, self.config.n_shards, self.model)
        changed = changed_shards(self._plan, new_plan)
        self._plan = new_plan
        self.shard_paths = write_shard_snapshots(self._plan, self._root)
        for index in changed:
            self.replace_shard(index)
        get_journal().record(
            "shard-rebalance",
            service=self.config.name,
            changed=sorted(changed),
            n_shards=self.config.n_shards,
        )
        return {
            "changed": changed,
            "unchanged": [
                i for i in range(self.config.n_shards) if i not in changed
            ],
        }

    # -- reporting ----------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        return {
            "n_shards": self.config.n_shards,
            "gateway": self.metrics.snapshot(),
            "gateway_breakers": {
                str(i): breaker.snapshot()
                for i, breaker in enumerate(self._shard_breakers)
            },
            "shards": {
                str(i): service.metrics_snapshot()
                for i, service in enumerate(self._shards)
            },
        }

    def worker_pids(self) -> List[int]:
        """Every live fork child across all shards."""
        pids: List[int] = []
        for service in self._shards:
            pids.extend(service.worker_pids())
        return pids

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<ShardedQueryService {self.config.name!r} "
            f"shards={self.config.n_shards} {state}>"
        )

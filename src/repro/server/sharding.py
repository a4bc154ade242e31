"""Sharded scatter-gather serving: the N-shard topology and its gateway.

One :class:`~repro.server.service.QueryService` scales until a single
worker's scan of the full fact graph is the bottleneck. This module
splits the warehouse across N *shards* — each a supervised fork-worker
pool over a hash-partitioned slice cut by
:mod:`repro.storage.partition` — and puts a :class:`ShardedQueryService`
gateway in front:

* **Listing-1 search** and name ``lookup`` scatter to every healthy
  shard and gather: hit lists concatenate (placement is disjoint, so no
  dedup is needed) and re-sort into the single-node order; the
  per-class group counts of Figure 6 then merge trivially because they
  are derived from the hits;
* **Listing-2 lineage** is a point request: the partitioner keeps each
  ``isMappedTo`` component on one shard, so the gateway resolves a name
  (one lookup scatter), asks the plan which shard owns the item and
  sends that shard an ordinary ``lineage`` request — the same
  :meth:`~repro.services.lineage.LineageService.trace` a single node
  runs, bit-identical by construction.

The gateway admits, times and settles a read through the same front
door as :class:`QueryService` (one lifecycle: admission, ``request``
span, exactly-once accounting, slow-query log) — inline in the caller's
thread, with the shard router as its worker, so it has no queue, no
worker threads and no breakers of its own. Queues, endpoint breakers,
snapshot generations and supervision (heartbeats, respawn, requeue)
stay *per shard* — each shard is a full :class:`QueryService`. A shard
that cannot answer (queue full, endpoint breaker open, service gone,
workers lost past the attempt budget) is left out of the merge, and
the answer is flagged ``degraded=True`` — a dead shard degrades
answers, it never errors them. ``replace_shard`` (the runbook path)
and ``rebalance`` (the incremental-release path, replacing only shards
the delta touched) restore full answers.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidOption
from repro.obs.fleet import SloEngine, get_journal
from repro.rdf.terms import Literal, Term
from repro.server.errors import (
    Cancelled,
    CircuitOpen,
    Overloaded,
    ServiceClosed,
    is_request_error,
)
from repro.server.metrics import ServiceMetrics
from repro.server.service import (
    QueryService,
    QueryTicket,
    ServiceConfig,
    ServingConfig,
    _FrontDoor,
    _UNSET,
    first_match,
)
from repro.services.lineage import LineageTrace
from repro.services.search import SearchResults
from repro.sparql.cancel import CancelToken
from repro.storage.partition import ShardPlan, changed_shards, partition_store

__all__ = ["ShardedConfig", "ShardedQueryService"]


@dataclass
class ShardedConfig(ServingConfig):
    """Tuning knobs of a :class:`ShardedQueryService`.

    The shared :class:`~repro.server.service.ServingConfig` block
    (``max_queue``, deadlines, worker mode, supervision) is passed down
    into each shard's :class:`~repro.server.service.ServiceConfig`
    unchanged — except ``slow_query_threshold``, which is the gateway's:
    a slow request is logged once, at the gateway, with its per-shard
    timing breakdown, and shard-local latency logs are off. The
    gateway's own knobs are the topology and the SLO window.
    ``snapshot_dir`` is the root for shard snapshot files, one
    ``shard-<i>/`` subdirectory each; when None the gateway owns a
    temporary directory.
    """

    name: str = "mdw-sharded"
    worker_mode: str = "fork"
    supervise: bool = True
    n_shards: int = 2
    workers_per_shard: int = 2
    #: rolling window (seconds) of the gateway's SLO engine
    slo_window: float = 300.0

    def __post_init__(self):
        super().__post_init__()
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        if self.workers_per_shard < 1:
            raise ValueError("workers_per_shard must be positive")
        if self.slo_window <= 0:
            raise ValueError("slo_window must be positive")


class _ShardRouter:
    """The gateway's worker: routes one read to the shards and merges.

    Built per request. ``timings`` collects wall-clock seconds per shard
    (summed across the request's sub-requests — a name-addressed lineage
    asks the owner twice), ``failed`` the distinct shards that
    could not answer; both feed the gateway's slow-query entry and the
    per-shard ``mdw_service_degraded_total`` attribution.
    """

    __slots__ = ("_gateway", "timings", "failed")

    def __init__(self, gateway: "ShardedQueryService"):
        self._gateway = gateway
        self.timings: Dict[int, float] = {}
        self.failed: Set[int] = set()

    def run(self, request, extras_sink):
        payload, token = request.payload, request.token
        if request.kind == "search":
            return self._search(payload, token)
        if request.kind == "lookup":
            return self._lookup(str(payload["name"]), token)
        return self._lineage(payload, token)

    def breakdown(self) -> str:
        """Per-shard timings and failed shard ids, as a statement suffix."""
        timings = ", ".join(
            f"shard{i}={self.timings[i] * 1e3:.1f}ms" for i in sorted(self.timings)
        )
        failed = f"; failed shards: {sorted(self.failed)}" if self.failed else ""
        return f" [{timings or 'no shard calls'}{failed}]"

    # -- scatter-gather core -----------------------------------------------

    def _scatter(
        self,
        shard_ids: Sequence[int],
        kind: str,
        payloads: Dict[int, Dict[str, object]],
        token: CancelToken,
    ) -> Dict[int, object]:
        """Submit one sub-request per shard; gather what the healthy ones say.

        Returns the results by shard; the shards that could not answer
        — refused at submit or failed while gathering — join
        :attr:`failed` (the settlement flags the answer degraded).
        Deadline overruns, cancellations and request errors
        (:func:`~repro.server.errors.is_request_error`) are the caller's
        problem and re-raise typed — they say nothing about shard
        health — and every outstanding ticket is cancelled on the way
        out.
        """
        shards = self._gateway._shards
        started = time.monotonic()
        tickets: Dict[int, QueryTicket] = {}
        results: Dict[int, object] = {}
        try:
            for index in shard_ids:
                budget = token.remaining()
                # a check that passes leaves ``budget`` positive
                token.check()
                try:
                    tickets[index] = shards[index].submit(
                        kind, timeout=budget, **payloads[index]
                    )
                except (Overloaded, CircuitOpen, ServiceClosed):
                    self.failed.add(index)
            for index, ticket in list(tickets.items()):
                try:
                    results[index] = ticket.result()
                except Cancelled:
                    raise  # DeadlineExceeded included
                except Exception as exc:
                    if is_request_error(exc):
                        raise  # every healthy shard would refuse it alike
                    # WorkerLost past its attempt budget, a shard closing
                    # under us, or anything unexpected: shard-level failure
                    self.failed.add(index)
                del tickets[index]
                # submit→gather wall time, summed across sub-requests
                elapsed = time.monotonic() - started
                self.timings[index] = self.timings.get(index, 0.0) + elapsed
        finally:
            for ticket in tickets.values():
                ticket.cancel()
        return results

    # -- search: scatter + order-preserving merge ---------------------------

    def _search(self, payload, token) -> SearchResults:
        all_shards = range(self._gateway.n_shards)
        results = self._scatter(
            all_shards, "search", {i: payload for i in all_shards}, token
        )
        if not results:
            term = str(payload.get("term", ""))
            return SearchResults(term, [term], [], {}, [])
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
        merged.degraded = any(p.degraded for p in parts)
        return merged

    # -- point lookup -------------------------------------------------------

    def _lookup(self, name, token) -> List[Term]:
        all_shards = range(self._gateway.n_shards)
        results = self._scatter(
            all_shards, "lookup", {i: {"name": name} for i in all_shards}, token
        )
        return sorted(
            (term for part in results.values() for term in part),
            key=lambda t: t.sort_key(),
        )

    # -- lineage: one request to the component's shard ------------------------

    def _lineage(self, payload, token) -> LineageTrace:
        direction = payload.get("direction", "upstream")
        if direction not in ("upstream", "downstream"):
            raise InvalidOption("direction must be 'upstream' or 'downstream'")
        item = payload["item"]
        if not isinstance(item, Term):
            matches = self._lookup(str(item), token)
            if not matches and self.failed:
                # the owner shard may be the one that is down: an empty
                # degraded trace, never an error
                return LineageTrace(start=Literal(str(item)), direction=direction)
            item = first_match(item, matches)
        # the item's whole isMappedTo component lives on its owner shard,
        # which runs the single-node trace
        owner = self._gateway.owner_of(item)
        results = self._scatter(
            [owner], "lineage", {owner: dict(payload, item=item)}, token
        )
        if owner in results:
            return results[owner]
        # the owner shard is down: an empty degraded trace, never an error
        return LineageTrace(start=item, direction=direction)


class ShardedQueryService(_FrontDoor):
    """The scatter-gather gateway over N hash-partitioned shards.

    Built from a live warehouse: the constructor partitions the model
    deterministically and starts one supervised :class:`QueryService`
    per slice (each publishes the snapshot its fork workers attach under
    ``shard-<i>/``). The gateway routes by the plan's placement
    (:meth:`owner_of`) and merges.
    """

    #: what the gateway routes/merges: ``query``/``sql`` need the full
    #: graph on one node and stay on an unsharded service
    KINDS = ("search", "lineage", "lookup")
    _SPAN_CATEGORY = "gateway"
    _ID_PREFIX = "g"

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
        self._read_seq = itertools.count(1)

    # -- topology ----------------------------------------------------------

    def _build_shard(self, index: int) -> QueryService:
        shard_dir = self._root / f"shard-{index}"
        shard_dir.mkdir(parents=True, exist_ok=True)
        mdw = self._warehouse_type(
            model=self.model,
            store=self._plan.stores[index],
            schema_ns=self._schema_ns,
            instance_ns=self._instance_ns,
        )
        shared = {f.name: getattr(self.config, f.name) for f in fields(ServingConfig)}
        shared.update(
            name=f"{self.config.name}-shard{index}",
            snapshot_dir=str(shard_dir),
            # one unified slow entry at the gateway, not N shard-local ones
            slow_query_threshold=math.inf,
        )
        return QueryService(
            mdw,
            ServiceConfig(
                max_workers=self.config.workers_per_shard, shard=str(index), **shared
            ),
        )

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    def shard_service(self, index: int) -> QueryService:
        """The per-shard service (tests kill its workers and close it)."""
        return self._shards[index]

    def owner_of(self, term: Term) -> int:
        """The shard that owns ``term``'s facts, as the partitioner
        placed them (a mapped item's whole lineage component)."""
        return self._plan.owner_of(term)

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

    # -- public API --------------------------------------------------------

    def execute(self, kind: str, *, timeout=_UNSET, **payload):
        """Route/scatter one read request; the synchronous front door.

        Matches ``QueryService.execute`` for the sharded kinds
        (``search``, ``lineage``, ``lookup``) — the same admission (a
        ``timeout`` <= 0 is a ``ValueError``), deadline and accounting —
        and settles inline in the caller's thread. Results are
        bit-identical to the unsharded service when every shard answers,
        and flagged ``degraded=True`` (never an error) when some shards
        could not.
        """
        request = self._admit(kind, timeout, payload)
        self.metrics.on_submit(0)
        # Every shard sub-request captures the gateway's request span as
        # its parent, so one Chrome trace nests gateway ⊃ shard requests
        # ⊃ operators across process boundaries.
        self._settle(request, _ShardRouter(self))
        return request.future.result()

    def _degraded_shards(self, request, result, router) -> Optional[List[str]]:
        # one degraded response, attributed to every shard that could
        # not answer — or to the gateway itself
        # for shard-flagged partials
        if router.failed or getattr(result, "degraded", False):
            return [str(i) for i in sorted(router.failed)]
        return None

    def _slow_detail(self, request, router) -> Tuple[Optional[str], str]:
        return None, router.breakdown()

    # -- health and operations ----------------------------------------------

    def health(self) -> Dict[str, object]:
        """The aggregated fleet health document.

        Per-shard documents are the stable ``QueryService.health``
        schema; the overall ``status`` is the worst of the shard
        statuses (a closed shard counts as ``degraded``: the gateway
        still answers, partially).
        """
        shards: Dict[str, Dict[str, object]] = {}
        statuses: List[str] = []
        for index, service in enumerate(self._shards):
            doc = service.health()
            shards[str(index)] = doc
            statuses.append("degraded" if doc["status"] == "closed" else doc["status"])
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
        left of the old service and start a fresh supervised pool over
        the same slice; the next request reaches it.
        """
        old = self._shards[index]
        try:
            old.close(wait=False)
        except Exception:
            pass
        replacement = self._build_shard(index)
        self._shards[index] = replacement
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
        sticky, so an incremental release touching K subjects changes
        only the shards their lineage components live on (before and
        after) — the rest keep serving the generation they have. Returns
        which shards were replaced.
        """
        new_plan = partition_store(store, self.config.n_shards, self.model)
        changed = changed_shards(self._plan, new_plan)
        self._plan = new_plan
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

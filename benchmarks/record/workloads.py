"""The four lifecycle workloads of the benchmark of record.

Each workload is a closed loop: a caller sends its next request only when
the previous one has been answered (analysts wait for their reply), and no
workload keeps more than ``nproc`` client threads or more than ``nproc``
worker processes busy. Why each one exists is stated in ``BENCHMARK.json``
and in the README next to this file.

A workload object owns its set-up, plays one round at a time, notes every
answer's digest *outside* the timed windows, and verifies them against an
independent reference after the timed phase.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.warehouse import MetadataWarehouse
from repro.etl.pipeline import EtlOrchestrator
from repro.rdf.ntriples import serialize_ntriples
from repro.server import QueryService, ServiceConfig, ShardedConfig, ShardedQueryService
from repro.server.service import dispatch
from repro.server.snapshot import SnapshotManager
from repro.storage import publish_segment

from . import check, inputs, queries
from .estimator import RoundSample, all_values, median, p95, run_values, timed_ms
from .inputs import Op
from .spans import Recorder

#: at most this many client threads / busy worker processes (the recorded
#: box has two cores; an open-loop generator would compete with the service)
CLIENTS = 2


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"record:{seed}:{index}")


def fork_service_config(snapshot_dir: Path, name: str = "record-fork") -> ServiceConfig:
    return ServiceConfig(
        worker_mode="fork",
        max_workers=CLIENTS,
        supervise=True,
        snapshot_dir=str(snapshot_dir),
        max_queue=256,
        name=name,
    )


def sharded_config(snapshot_dir: Path, n_shards: int, name: str = "record-gateway") -> ShardedConfig:
    return ShardedConfig(
        n_shards=n_shards,
        workers_per_shard=1,
        snapshot_dir=str(snapshot_dir),
        max_queue=256,
        name=name,
    )


class Workload:
    """Set-up, rounds, answer bookkeeping and verification of one workload."""

    name = ""
    #: set-up is repeated this many times in one run and the median reported
    setups = 3
    #: processes the workload keeps busy = lanes of the calibration kernel
    lanes = 1

    def __init__(self, scale: str, seed: int, workdir: Path, recorder: Recorder):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.rec = recorder
        self.warehouse: Optional[MetadataWarehouse] = None
        self.index_report = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.answers: Dict[str, str] = {}
        self.attempts: Counter = Counter()
        self._setup_count = 0

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        """Everything from nothing to "the warm-up round was answered"."""
        self._setup_count += 1
        self.answers.clear()
        self.attempts.clear()
        self.warehouse, self.index_report = inputs.build_landscape(self.scale, self.rec)
        with self.rec.span("inputs.ops"):
            self.make_ops(random.Random(f"record:{self.seed}:ops"))
        self.start()
        with self.rec.span("warmup.round"):
            self.run_round(-1)
        # the warm-up round's ops are not part of the measurement
        self.attempted = 0
        self.attempts.clear()

    def fresh_dir(self, label: str) -> Path:
        path = self.workdir / f"{label}-{self._setup_count}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def make_ops(self, rng: random.Random) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Start whatever serves the ops (nothing for in-process loads)."""

    def teardown(self) -> None:
        """Stop every process and thread the workload started."""

    def run_round(self, index: int) -> RoundSample:
        raise NotImplementedError

    def rss_pids(self) -> List[int]:
        """Worker processes whose peak memory counts toward the workload."""
        return []

    def layer_stats(self, rounds, ref_ms: float) -> Dict[str, float]:
        """Per-layer metrics the workload's own service and rounds give
        (traced run); they replace the layer ladder's stand-ins."""
        return {}

    # -- answers -----------------------------------------------------------

    def note(self, op: Op, outcome) -> None:
        """Book one answered (or failed) op; called outside timed windows."""
        self.attempted += 1
        self.attempts[op.key] += 1
        if isinstance(outcome, BaseException):
            self.fail(f"{op.key}: {type(outcome).__name__}: {outcome}")
            return
        if check.is_degraded(outcome):
            self.fail(f"{op.key}: degraded answer")
            return
        got = check.answer_digest(op.kind, outcome)
        if self.answers.setdefault(op.key, got) != got:
            self.fail(f"{op.key}: answer differs across rounds")

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_reference(self, key: str, reference_form) -> None:
        """Compare a noted answer with its independent reference."""
        if key in self.answers and self.answers[key] != check.digest(reference_form):
            self.fail(f"{key}: differs from the reference", self.attempts[key] or 1)

    def verify(self) -> None:
        raise NotImplementedError


# -- paper_direct ---------------------------------------------------------------


class PaperDirect(Workload):
    """The paper's two listings, in process, on the largest landscape the
    run-time cap affords (half the paper's application count)."""

    name = "paper_direct"
    setups = 1  # one set-up is ~12 s; a run cannot afford three
    #: rotated one per round; the warm-up round plus the minimum of three
    #: measured rounds play all four, so the answer digest is complete
    listing1_terms = 4
    blocks = 4
    block_size = 50

    def make_ops(self, rng):
        graph = self.warehouse.graph
        terms = inputs.stratified_pick(inputs.term_pool(graph), self.listing1_terms, rng)
        self.listing1 = [
            inputs.make_op("sql", f"listing1:{term}", sql=queries.LISTING_1.format(term=term))
            for term in terms
        ]
        self.terms = terms
        sources = inputs.stratified_pick(
            inputs.probe_source_pool(graph), self.blocks * self.block_size, rng
        )
        self.sources = sources
        self.probes = [
            inputs.make_op(
                "sql", f"listing2:{i}:{source}", sql=queries.LISTING_2.format(source=source)
            )
            for i, source in enumerate(sources)
        ]

    def run_round(self, index):
        mdw = self.warehouse
        rng = round_rng(self.seed, index)
        search_op = self.listing1[index % len(self.listing1)]
        probes = list(self.probes)
        rng.shuffle(probes)
        units: List[Tuple[str, Sequence[Op]]] = [("search", [search_op])]
        units += [
            ("lineage", probes[i : i + self.block_size])
            for i in range(0, len(probes), self.block_size)
        ]
        rng.shuffle(units)
        latencies: Dict[str, List[float]] = {"search": [], "lineage": []}
        outcomes: List[Tuple[Op, object]] = []
        with self.rec.span("round", request=f"round-{index}", workload=self.name):
            started = time.perf_counter()
            for family, ops in units:
                calls = [op.kwargs() for op in ops]
                with self.rec.span(f"op.{family}", block=len(ops)):
                    elapsed, results = timed_ms(lambda: _call_all(mdw.sem_sql, calls))
                latencies[family].append(elapsed / len(ops))
                outcomes.extend(zip(ops, results))
            wall = time.perf_counter() - started
        for op, outcome in outcomes:
            self.note(op, outcome)
        return RoundSample(wall, len(outcomes), latencies)

    def verify(self):
        for term, op in zip(self.terms, self.listing1):
            self.check_reference(op.key, check.listing1_reference(self.warehouse, term))
        for source, op in zip(self.sources, self.probes):
            self.check_reference(op.key, check.listing2_reference(self.warehouse, source))


def _call_all(fn: Callable, calls: Sequence[Dict[str, object]]) -> List[object]:
    """Call ``fn(**kwargs)`` for each of ``calls`` back to back; an
    exception becomes that call's outcome."""
    results: List[object] = []
    for kwargs in calls:
        try:
            results.append(fn(**kwargs))
        except Exception as exc:  # the op failed; the round goes on
            results.append(exc)
    return results


# -- served workloads -------------------------------------------------------------


class Served(Workload):
    """Closed-loop clients against a service; subclasses pick the service
    and the mix. Lineage requests are sub-millisecond on the fork service,
    so each client issues its share as one consecutive block."""

    service = None
    lanes = CLIENTS

    def execute(self, op: Op):
        return self.service.execute(op.kind, **op.kwargs())

    def teardown(self):
        if self.service is not None:
            self.service.close()
            self.service = None

    def rss_pids(self):
        return list(self.service.worker_pids()) if self.service is not None else []

    def run_round(self, index):
        """Two phases, each released from a barrier: every client's
        lineage block, then the shuffled rest. Were the blocks dropped at
        random positions, a lineage request would sometimes queue behind
        the other client's 30 ms search and sometimes not, and its p50
        would sit between two modes."""
        rng = round_rng(self.seed, index)
        singles = [op for op in self.ops if op.kind != "lineage"]
        lineage = [op for op in self.ops if op.kind == "lineage"]
        rng.shuffle(singles)
        rng.shuffle(lineage)
        phases = [
            [[lineage[client::CLIENTS]] for client in range(CLIENTS)],
            [[[op] for op in singles[client::CLIENTS]] for client in range(CLIENTS)],
        ]
        wall = 0.0
        timed = []
        with self.rec.span("round", request=f"round-{index}", workload=self.name) as round_span:
            for plans in phases:
                phase_wall, phase_timed = drive(self.execute, plans, self.rec, round_span)
                wall += phase_wall
                timed += phase_timed
        latencies: Dict[str, List[float]] = {}
        ops = 0
        for unit, elapsed_ms, results in timed:
            latencies.setdefault(_family(unit[0]), []).append(elapsed_ms / len(unit))
            for op, outcome in zip(unit, results):
                self.note(op, outcome)
                ops += 1
        return RoundSample(wall, ops, latencies)

    def verify(self):
        for op in self.ops:
            try:
                reference = dispatch(self.warehouse, op.kind, op.kwargs())
            except Exception as exc:
                self.fail(f"{op.key}: reference raised {exc!r}", self.attempts[op.key] or 1)
                continue
            self.check_reference(op.key, check.canonical(op.kind, reference))


def _family(op: Op) -> str:
    """Latency family of a singly-timed op."""
    if op.kind == "query":
        return "schema" if op.key.startswith("query:schema") else "query"
    return op.kind


def drive(execute, plans, recorder: Recorder, parent):
    """Play ``plans`` (one list of op units per client) from one thread
    per client, all released together. Returns the wall time from release
    to the last answer, and (unit, elapsed ms, outcomes) per unit."""
    timed: List[Tuple[Sequence[Op], float, List[object]]] = []
    lock = threading.Lock()
    barrier = threading.Barrier(len(plans) + 1)

    def client(units):
        mine = []
        barrier.wait(timeout=60)
        for unit in units:
            with recorder.span(f"op.{unit[0].kind}", parent=parent, block=len(unit)):
                started = time.perf_counter()
                results = []
                for op in unit:
                    try:
                        results.append(execute(op))
                    except Exception as exc:  # the op failed; the client goes on
                        results.append(exc)
                elapsed = (time.perf_counter() - started) * 1e3
            mine.append((unit, elapsed, results))
        with lock:
            timed.extend(mine)

    threads = [
        threading.Thread(target=client, args=(units,), name=f"record-client-{i}", daemon=True)
        for i, units in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a benchmark client did not finish within 600 s")
    return wall, timed


class ServedFork(Served):
    """The mixed Listing-1/2 request stream against the supervised fork
    service: cheap queries, so the serving tax is a large share."""

    name = "served_fork"
    # lineage requests cost ~1 ms here: 72 of them (one block of 36 per
    # client) are a tenth of a round's time, and a long enough block to time
    mix = {"sql": 18, "one_hop": 15, "search": 12, "lineage": 72, "schema": 3}

    def make_ops(self, rng):
        self.ops = inputs.served_ops(self.warehouse.graph, rng, self.mix)

    def start(self):
        with self.rec.span("server.start"):
            self.service = QueryService(
                self.warehouse, fork_service_config(self.fresh_dir("fork"))
            )

    def layer_stats(self, rounds, ref_ms):
        stats = server_counters(self.service.metrics_snapshot())
        stats["server.sql_p50_ms"] = median(run_values(rounds, "sql", ref_ms))
        stats["server.query_p50_ms"] = median(run_values(rounds, "query", ref_ms))
        stats["server.search_p95_ms"] = p95(all_values(rounds, "search", ref_ms))
        stats["server.lineage_p95_ms"] = p95(all_values(rounds, "lineage", ref_ms))
        return stats


class ShardedGateway(Served):
    """Search and lineage through partition, scatter-gather and frontier
    exchange: two shards, one fork worker each."""

    name = "sharded_gateway"
    n_search = 24
    n_up, n_down = 33, 15  # one block of 24 per client and round

    def make_ops(self, rng):
        graph = self.warehouse.graph
        self.ops = inputs.search_ops(graph, self.n_search, rng) + inputs.lineage_ops(
            graph, self.n_up, self.n_down, rng
        )

    def start(self):
        with self.rec.span("sharding.start"):
            self.service = ShardedQueryService(
                self.warehouse, sharded_config(self.fresh_dir("shards"), n_shards=CLIENTS)
            )

    def layer_stats(self, rounds, ref_ms):
        stats = gateway_counters(self.service.metrics_snapshot())
        stats["sharding.search_p95_ms"] = p95(all_values(rounds, "search", ref_ms))
        stats["sharding.lineage_p95_ms"] = p95(all_values(rounds, "lineage", ref_ms))
        return stats


def server_counters(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Failure/retry counters of one ``QueryService.metrics_snapshot()``."""
    return {
        "server.queue_high_water": float(snapshot["queue_high_water"]),
        "server.rejected": float(snapshot["rejected"]),
        "server.requeued": float(snapshot["requeued"]),
        "server.worker_restarts": float(sum(snapshot["worker_restarts"].values())),
        "server.degraded_responses": float(snapshot["degraded_responses"]),
    }


def gateway_counters(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Sub-request fan-out and degraded answers of a gateway snapshot."""
    gateway = snapshot["gateway"]
    submitted = sum(shard["submitted"] for shard in snapshot["shards"].values())
    return {
        "sharding.subrequests_per_op": submitted / max(1, gateway["completed"]),
        "sharding.degraded_responses": float(gateway["degraded_responses"]),
    }


# -- release_cycle ----------------------------------------------------------------


class ReleaseCycle(Workload):
    """The write beside the reads: apply a ~2 % release, republish, then
    probe on caches the apply just invalidated — and back again."""

    name = "release_cycle"
    n_lineage = 192

    def make_ops(self, rng):
        mdw = self.warehouse
        graph = mdw.graph
        with self.rec.span("inputs.release_states"):
            self.states = {"A": graph.copy(name="release-A"), "B": inputs.make_release(graph)}
        self.search_ops = dict(zip("BA", inputs.search_ops(graph, 2, rng)))
        self.items = inputs.stratified_pick(
            inputs.lineage_pool(graph, "upstream"), self.n_lineage, rng
        )
        self.lineage_ops = {
            state: [
                inputs.make_op("lineage", f"{state}:{i}:{item.n3()}")
                for i, item in enumerate(self.items)
            ]
            for state in "AB"
        }
        self.trace_calls = [
            {"item": item, "direction": "upstream", "max_depth": 4} for item in self.items
        ]

    def start(self):
        self.orchestrator = EtlOrchestrator(self.warehouse, validate=False)
        self.manager = SnapshotManager(self.warehouse)
        self.segment_dir = self.fresh_dir("segments")

    def apply(self, state: str):
        """One release application as the operator sees it: converge the
        live model, republish the read snapshot, publish the segment."""
        before = self.manager.pin()
        try:
            with self.rec.span("etl.apply_release", state=state):
                result = self.orchestrator.apply_release(
                    desired=self.states[state], mode="incremental"
                )
            with self.rec.span("server.publish"):
                after = self.manager.refresh()
            with self.rec.span("storage.publish_segment"):
                publish_segment(
                    before.warehouse.store,
                    after.warehouse.store,
                    self.segment_dir / "delta.seg",
                    before.generation,
                    after.generation,
                )
        finally:
            self.manager.release(before)
        return result

    def run_round(self, index):
        mdw = self.warehouse
        latencies: Dict[str, List[float]] = {"apply": [], "search": [], "lineage": []}
        outcomes: List[Tuple[Op, object]] = []
        applied = []
        with self.rec.span("round", request=f"round-{index}", workload=self.name):
            started = time.perf_counter()
            for state in "BA":
                with self.rec.span("op.apply", state=state):
                    elapsed, result = timed_ms(lambda: self.apply(state))
                latencies["apply"].append(elapsed)
                applied.append(result)
                search_op = self.search_ops[state]
                search_call = [search_op.kwargs()]
                with self.rec.span("op.search", state=state):
                    elapsed, hits = timed_ms(lambda: _call_all(mdw.search.search, search_call))
                latencies["search"].append(elapsed)
                outcomes.append((search_op, hits[0]))
                with self.rec.span("op.lineage", state=state, block=len(self.items)):
                    elapsed, traces = timed_ms(
                        lambda: _call_all(mdw.lineage.trace, self.trace_calls)
                    )
                latencies["lineage"].append(elapsed / len(self.items))
                outcomes.extend(zip(self.lineage_ops[state], traces))
            wall = time.perf_counter() - started
        for result in applied:
            self.attempted += 1
            if not result.ok:
                self.fail(f"apply: {result.summary()}")
        for op, outcome in outcomes:
            self.note(op, outcome)
        return RoundSample(wall, len(applied) + len(outcomes), latencies)

    def verify(self):
        """Answers against a full rebuild of each state, and the final
        model + OWLPRIME index against ``mode="full"``."""
        reference = MetadataWarehouse()
        reference.graph.add_all(self.states["A"])
        reference.build_entailment_index()
        rebuild = EtlOrchestrator(reference, validate=False)
        for state in "BA":
            rebuild.apply_release(desired=self.states[state], mode="full")
            search_op = self.search_ops[state]
            self.check_reference(
                search_op.key,
                check.canonical("search", reference.search.search(**search_op.kwargs())),
            )
            for op, item in zip(self.lineage_ops[state], self.items):
                self.check_reference(
                    op.key,
                    check.canonical(
                        "lineage", reference.lineage.trace(item, "upstream", max_depth=4)
                    ),
                )
        live = self.warehouse
        self.attempted += 2
        if serialize_ntriples(live.graph) != serialize_ntriples(reference.graph):
            self.fail("final model differs from the full rebuild")
        if serialize_ntriples(live.store.index(live.model_name, "OWLPRIME")) != serialize_ntriples(
            reference.store.index(reference.model_name, "OWLPRIME")
        ):
            self.fail("final OWLPRIME index differs from the full rebuild")


WORKLOADS = {
    cls.name: cls for cls in (PaperDirect, ServedFork, ShardedGateway, ReleaseCycle)
}

"""Per-layer metrics of the traced run, all measured from outside.

Three instruments, each wrapping calls into public functions in spans:

* two **staged replays** call a request's stages one by one — Listing 1
  (``parse_sem_sql`` → ``parse`` → ``prepare`` → ``execute`` → row
  decode) and a release (``diff_graphs`` → apply → ``refresh_indexes`` →
  ``SnapshotManager.refresh`` → ``publish_segment``) — and compare the sum
  of the stages with the one-shot call (``ladder.*_sum_ratio``);
* a **layer ladder** replays one op list through ``dispatch()`` → thread
  ``QueryService`` → fork ``QueryService`` → 1-shard gateway → 2-shard
  gateway; each rung's p50 minus the rung below is that layer's tax;
* direct probes of the rdf and storage layers.

The query-side instruments run on the workload's own warehouse (paper
scale for ``paper_direct``); the serving-side ones need a service fleet
per rung and always run at the serving scale. Every timing is brought to
reference speed by the calibration kernel read around its group.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.core.vocabulary import TERMS
from repro.core.warehouse import MetadataWarehouse
from repro.etl.pipeline import EtlOrchestrator
from repro.history.diff import diff_graphs
from repro.obs.profile import profile_scope
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.oracle import parse_sem_sql
from repro.rdf.namespace import NamespaceManager
from repro.server import QueryService, ServiceConfig, ShardedQueryService
from repro.server.service import dispatch
from repro.server.snapshot import SnapshotManager
from repro.sparql import BGP, Filter, PlanCache, evaluate, parse_query, plan_bgp
from repro.storage import partition_store, publish_segment, write_shard_snapshots

from . import estimator, inputs, queries
from .estimator import Calibrator, iqr_ratio, median, p95, timed_ms
from .metrics import PER_LAYER_UNITS, TIME_UNITS
from .spans import Recorder
from .workloads import (
    CLIENTS,
    Workload,
    fork_service_config,
    gateway_counters,
    server_counters,
    sharded_config,
)

REPEATS = 3


def repeats_for(first_ms: float) -> int:
    """How often to repeat a replay whose first (cold) iteration took
    ``first_ms``: about 1.5 s worth, between 3 and 15 times."""
    return max(REPEATS, min(15, int(1500.0 / max(first_ms, 1.0))))


def layer_metrics(
    workload: Workload,
    rounds,
    calibrator: Calibrator,
    recorder: Recorder,
    workdir: Path,
    setup_raw: Sequence[float],
    values: Dict[str, float],
    serving_scale: str,
) -> Dict[str, float]:
    """Every per-layer metric for ``workload``'s traced run."""
    ref = calibrator.ref_ms
    out: Dict[str, float] = {}
    out.update(_run_health(rounds, calibrator, setup_raw, values))
    out.update(_setup_layers(recorder, workload, values["setup_s"] / median(setup_raw)))

    query_mdw = workload.warehouse
    if workload.scale == serving_scale:
        serving_mdw = query_mdw
    else:
        with recorder.span("probe.serving_landscape"):
            serving_mdw, _ = inputs.build_landscape(serving_scale, recorder)
    rng = random.Random(f"record:{workload.seed}:probes")

    groups: List[Callable[[], Dict[str, float]]] = [
        lambda: rdf_probes(query_mdw, recorder),
        lambda: listing1_replay(query_mdw, recorder, rng),
        lambda: storage_probes(serving_mdw, recorder, workdir, rng),
        lambda: release_replay(serving_mdw, recorder, workdir, rng),
        lambda: serving_ladder(serving_mdw, recorder, workdir, rng),
    ]
    for group in groups:
        # as after set-up: what earlier groups left behind must not be
        # re-walked by every collection the next group's allocations trigger
        gc.collect()
        gc.freeze()
        before = calibrator.read()
        raw = group()
        factor = ref / ((before + calibrator.read()) / 2.0)
        for name, value in raw.items():
            timed = PER_LAYER_UNITS[name] in TIME_UNITS
            out[name] = value * factor if timed else value
    return out


# -- the run's own health --------------------------------------------------------


def _run_health(rounds, calibrator, setup_raw, values) -> Dict[str, float]:
    ref = calibrator.ref_ms
    traced = [r.wall_s * r.speed(ref) for r in rounds if r.traced]
    untraced = [r.wall_s * r.speed(ref) for r in rounds if not r.traced]
    return {
        "trace.overhead_ratio": median(traced) / median(untraced) if untraced else 1.0,
        "noise.calib_ms": median(calibrator.readings_ms),
        "noise.calib_iqr_ratio": iqr_ratio(calibrator.readings_ms),
        "noise.round_iqr_ratio": iqr_ratio([r.wall_s * r.speed(ref) for r in rounds]),
        "raw.setup_s": median(setup_raw),
        "raw.search_p50_ms": median(estimator.run_values(rounds, "search", ref, normalise=False)),
        "raw.lineage_p50_ms": median(estimator.run_values(rounds, "lineage", ref, normalise=False)),
        "raw.throughput_rps": median(estimator.throughput_values(rounds, ref, normalise=False)),
    }


def _setup_layers(recorder: Recorder, workload: Workload, factor: float) -> Dict[str, float]:
    """Set-up phases every workload goes through, from the set-up spans."""
    return {
        "synth.generate_s": median([s.seconds for s in recorder.named("synth.generate")]) * factor,
        "reasoning.build_index_s": median(
            [s.seconds for s in recorder.named("reasoning.build_index")]
        )
        * factor,
        "reasoning.derived_triples": float(workload.index_report.derived_triples),
    }


def _report_ladder(name: str, staged_ms: float, one_shot_ms: float) -> None:
    """Print a ladder ratio with its bases; the stages should add up to
    the one-shot call within a tenth."""
    ratio = staged_ms / one_shot_ms
    verdict = "" if 0.9 <= ratio <= 1.1 else "  WARNING: outside 0.9-1.1"
    print(
        f"record: ladder.{name}_sum_ratio = {ratio:.3f} "
        f"(stages {staged_ms:.3f} ms / one-shot {one_shot_ms:.3f} ms){verdict}",
        file=sys.stderr,
    )


# -- rdf -------------------------------------------------------------------------


def rdf_probes(mdw, recorder: Recorder) -> Dict[str, float]:
    graph = mdw.graph
    subjects = inputs.thinned(
        sorted(graph.subjects(TERMS.has_name, None), key=lambda t: t.sort_key()), 2000
    )
    scans, lookups = [], []
    for i in range(3 * REPEATS):
        with recorder.span("rdf.name_scan", request=f"rdf-{i}"):
            elapsed, _ = timed_ms(
                lambda: sum(1 for _ in graph.triples(None, TERMS.has_name, None))
            )
        scans.append(elapsed)
        with recorder.span("rdf.point_lookups", request=f"rdf-{i}", block=len(subjects)):
            elapsed, _ = timed_ms(
                lambda: [graph.value(s, TERMS.has_name, None) for s in subjects]
            )
        lookups.append(elapsed * 1e3 / len(subjects))
    return {
        "rdf.triples": float(len(graph)),
        "rdf.name_scan_ms": median(scans),
        "rdf.point_lookup_us": median(lookups),
    }


# -- Listing 1, stage by stage ------------------------------------------------------


def listing1_replay(mdw, recorder: Recorder, rng) -> Dict[str, float]:
    """Listing 1 one-shot through ``sem_sql`` against the same statement
    called stage by stage the way ``repro.oracle`` strings them together."""
    term = inputs.stratified_pick(inputs.term_pool(mdw.graph), 1, rng)[0]
    sql = queries.LISTING_1.format(term=term)
    store = mdw.store
    cache = PlanCache()

    # what ``sem_match`` derives from the statement before it evaluates
    parsed = parse_sem_sql(sql)
    nsm = NamespaceManager()
    for alias in parsed.aliases:
        nsm.bind(alias.prefix, alias.namespace)
    text = f"SELECT * WHERE {{ {parsed.pattern.strip()[1:-1]} }}"
    view = store.view(list(parsed.models), rulebases=list(parsed.rulebases))

    def replay(i: int):
        """One staged pass and one one-shot call; returns the stage
        timings, the one-shot time, rows examined and rows returned."""
        timings: Dict[str, float] = {}
        with recorder.span("listing1.staged", request=f"listing1-staged-{i}"):
            with recorder.span("oracle.parse_sem_sql"):
                timings["parse_sem_sql"], _ = timed_ms(lambda: parse_sem_sql(sql))
            with recorder.span("sparql.parse"):
                timings["parse"], _ = timed_ms(lambda: cache.parse(text, nsm=nsm))
            with recorder.span("sparql.prepare"):
                timings["prepare"], plan = timed_ms(lambda: cache.prepare(view, text, nsm=nsm))
            with recorder.span("sparql.execute"):
                with profile_scope() as profile:
                    timings["execute"], solutions = timed_ms(
                        lambda: evaluate(view, plan.query, plan=plan)
                    )
            with recorder.span("oracle.row_decode"):
                timings["decode"], bindings = timed_ms(lambda: list(solutions.iter_bindings()))
        with recorder.span("listing1.one_shot", request=f"listing1-oneshot-{i}"):
            elapsed, answer = timed_ms(lambda: mdw.sem_sql(sql))
        rows = sum(op.rows_out for op in profile.operators) + len(bindings)
        return timings, elapsed, rows, len(answer)

    cold_timings, cold_elapsed, _, _ = replay(0)  # fills the caches; not counted
    stage_ms: Dict[str, List[float]] = {}
    one_shot, examined = [], []
    rows_returned = 0
    for i in range(1, repeats_for(cold_elapsed + sum(cold_timings.values())) + 1):
        timings, elapsed, rows, rows_returned = replay(i)
        for stage, value in timings.items():
            stage_ms.setdefault(stage, []).append(value)
        one_shot.append(elapsed)
        examined.append(rows)

    # cold costs: a parse and a plan nothing has cached
    bgp = cache.prepare(view, text, nsm=nsm).query.pattern
    while isinstance(bgp, Filter):
        bgp = bgp.pattern
    if not isinstance(bgp, BGP):
        raise RuntimeError("Listing 1 no longer parses to a basic graph pattern")
    n = 200  # both are tens of microseconds: timed as blocks
    with recorder.span("sparql.parse_cold", request="listing1-cold", block=n):
        parse_cold_ms, _ = timed_ms(lambda: [parse_query(text, nsm=nsm) for _ in range(n)])
    with recorder.span("sparql.plan_cold", request="listing1-cold", block=n):
        plan_cold_ms, _ = timed_ms(
            lambda: [plan_bgp(view, list(bgp.patterns)) for _ in range(n)]
        )
    parse_cold_ms /= n
    plan_cold_ms /= n

    n = 500
    with recorder.span("sparql.prepare_hits", request="listing1-hits", block=n):
        hits_ms, _ = timed_ms(lambda: [cache.prepare(view, text, nsm=nsm) for _ in range(n)])
    with recorder.span("oracle.parse_sem_sql_block", request="listing1-hits", block=n):
        parse_sql_ms, _ = timed_ms(lambda: [parse_sem_sql(sql) for _ in range(n)])

    stages = {stage: median(values) for stage, values in stage_ms.items()}
    whole = median(one_shot)
    _report_ladder("listing1", sum(stages.values()), whole)
    return {
        "sparql.parse_ms": parse_cold_ms,
        "sparql.plan_cold_ms": plan_cold_ms,
        "sparql.execute_listing1_ms": stages["execute"],
        "sparql.rows_per_result": median(examined) / max(1, rows_returned),
        "sparql.prepare_hit_us": hits_ms * 1e3 / n,
        "sparql.plan_cache_hit_rate": cache.hit_rate(),
        "oracle.parse_sem_sql_us": parse_sql_ms * 1e3 / n,
        "oracle.sem_sql_overhead_ms": whole - stages["execute"],
        "ladder.listing1_sum_ratio": sum(stages.values()) / whole,
    }


# -- storage -----------------------------------------------------------------------


def storage_probes(mdw, recorder: Recorder, workdir: Path, rng) -> Dict[str, float]:
    term = inputs.stratified_pick(inputs.term_pool(mdw.graph), 1, rng)[0]
    path = workdir / "probe.mdws"
    shard_dir = workdir / "probe-shards"
    save, attach, mapped, partition, write = [], [], [], [], []
    for i in range(REPEATS):
        request = f"storage-{i}"
        with recorder.span("storage.save_snapshot", request=request):
            save.append(timed_ms(lambda: mdw.save_snapshot(path))[0] / 1e3)
        with recorder.span("storage.attach", request=request):
            elapsed, attached = timed_ms(lambda: _attach_and_touch(path))
        attach.append(elapsed)
        with recorder.span("storage.mapped_search", request=request):
            mapped.append(timed_ms(lambda: attached.search.search(term))[0])
        with recorder.span("storage.partition", request=request):
            elapsed, plan = timed_ms(
                lambda: partition_store(mdw.store, CLIENTS, mdw.model_name)
            )
        partition.append(elapsed / 1e3)
        with recorder.span("storage.write_shards", request=request):
            write.append(timed_ms(lambda: write_shard_snapshots(plan, shard_dir))[0] / 1e3)
    return {
        "storage.save_snapshot_s": median(save),
        "storage.snapshot_bytes": float(path.stat().st_size),
        "storage.attach_ms": median(attach),
        "storage.mapped_search_ms": median(mapped),
        "storage.partition_s": median(partition),
        "storage.write_shards_s": median(write),
    }


def _attach_and_touch(path: Path) -> MetadataWarehouse:
    """Attach a snapshot and answer one point question from it."""
    attached = MetadataWarehouse.attach_snapshot(path)
    next(iter(attached.graph.triples(None, TERMS.is_mapped_to, None)), None)
    return attached


# -- a release, stage by stage -------------------------------------------------------


def release_replay(mdw, recorder: Recorder, workdir: Path, rng) -> Dict[str, float]:
    """Apply B then A, once stage by stage and once through
    ``apply_release``, on a private copy of the serving warehouse."""
    with recorder.span("release.private_copy", request="release-setup"):
        live = MetadataWarehouse()
        live.graph.add_all(mdw.graph)
        live.build_entailment_index()
        states = {"A": live.graph.copy(name="release-A"), "B": inputs.make_release(live.graph)}
    gc.collect()
    gc.freeze()
    orchestrator = EtlOrchestrator(live, validate=False)
    manager = SnapshotManager(live)
    segment = workdir / "probe.seg"
    term = inputs.stratified_pick(inputs.term_pool(live.graph), 1, rng)[0]

    def publish(before, after):
        return publish_segment(
            before.warehouse.store, after.warehouse.store, segment,
            before.generation, after.generation,
        )

    stage_ms: Dict[str, List[float]] = {}
    staged_total, one_shot_total, apply_ms, delta, hit_rates = [], [], [], [], []
    for i in range(REPEATS + 1):  # cycle 0 warms both directions
        staged_cycle = one_shot_cycle = 0.0
        for state in "BA":
            request = f"release-staged-{i}-{state}"
            timings: Dict[str, float] = {}
            before = manager.pin()
            with recorder.span("release.staged", request=request, state=state):
                with recorder.span("history.diff_graphs"):
                    timings["diff"], diff = timed_ms(
                        lambda: diff_graphs(live.graph, states[state])
                    )
                with recorder.span("etl.apply_in_place"):
                    timings["apply"], changed = timed_ms(
                        lambda: diff.apply_in_place(live.graph)
                    )
                with recorder.span("reasoning.refresh_indexes"):
                    timings["dred"], _ = timed_ms(live.refresh_indexes)
                with recorder.span("server.snapshot_refresh"):
                    timings["publish"], after = timed_ms(manager.refresh)
                with recorder.span("storage.publish_segment"):
                    timings["segment"], _ = timed_ms(lambda: publish(before, after))
            manager.release(before)
            with profile_scope() as profile:
                live.search.search(term)
            if i:
                for stage, value in timings.items():
                    stage_ms.setdefault(f"{stage}:{state}", []).append(value)
                staged_cycle += sum(timings.values())
                delta.append(sum(changed))
                probes = profile.hierarchy_cache_hits + profile.hierarchy_cache_misses
                hit_rates.append(profile.hierarchy_cache_hits / probes if probes else 0.0)
        for state in "BA":
            before = manager.pin()
            with recorder.span("release.one_shot", request=f"release-oneshot-{i}-{state}"):
                with recorder.span("etl.apply_release"):
                    applied, _ = timed_ms(
                        lambda: orchestrator.apply_release(
                            desired=states[state], mode="incremental"
                        )
                    )
                with recorder.span("server.snapshot_refresh"):
                    refreshed, after = timed_ms(manager.refresh)
                with recorder.span("storage.publish_segment"):
                    published, _ = timed_ms(lambda: publish(before, after))
            manager.release(before)
            if i:
                apply_ms.append(applied)
                one_shot_cycle += applied + refreshed + published
        if i:
            staged_total.append(staged_cycle)
            one_shot_total.append(one_shot_cycle)

    _report_ladder("release", median(staged_total), median(one_shot_total))

    def stage(name: str) -> float:
        """Mean over the two directions of the per-direction medians."""
        return (median(stage_ms[f"{name}:B"]) + median(stage_ms[f"{name}:A"])) / 2.0

    return {
        "history.diff_ms": stage("diff"),
        "reasoning.dred_refresh_ms": stage("dred"),
        "server.publish_ms": stage("publish"),
        "storage.publish_segment_ms": stage("segment"),
        "storage.segment_bytes": float(segment.stat().st_size),
        "etl.apply_release_p50_ms": median(apply_ms),
        "etl.delta_triples": median(delta),
        "core.hierarchy_hit_rate": median(hit_rates),
        "ladder.release_sum_ratio": median(staged_total) / median(one_shot_total),
    }


# -- the layer ladder ------------------------------------------------------------------


def serving_ladder(mdw, recorder: Recorder, workdir: Path, rng) -> Dict[str, float]:
    """One op list through every serving layer, one client, no queueing:
    what each layer adds to a request that never waits."""
    graph = mdw.graph
    searches = inputs.search_ops(graph, 4, rng)
    lineage = inputs.lineage_ops(graph, 8, 4, rng)
    extras = inputs.served_ops(
        graph, rng, {"sql": 3, "one_hop": 3, "search": 0, "lineage": 0, "schema": 0}
    )

    def passes(execute, label: str, n: int = 2 * REPEATS, with_extras: bool = False):
        """``n`` measured passes (after one warm pass) of the op list."""
        samples: Dict[str, List[float]] = {}
        walls: List[float] = []
        answers: Dict[str, object] = {}
        for i in range(n + 1):
            started = time.perf_counter()
            with recorder.span(f"ladder.{label}", request=f"ladder-{label}-{i}"):
                for op in searches + (extras if with_extras else []):
                    with recorder.span(f"op.{op.kind}"):
                        elapsed, answer = timed_ms(lambda: execute(op))
                    if i:
                        samples.setdefault(op.kind, []).append(elapsed)
                    answers[op.key] = answer
                with recorder.span("op.lineage", block=len(lineage)):
                    elapsed, traces = timed_ms(lambda: [execute(op) for op in lineage])
                if i:
                    samples.setdefault("lineage", []).append(elapsed / len(lineage))
                answers.update(zip((op.key for op in lineage), traces))
            if i:
                walls.append(time.perf_counter() - started)
        return samples, walls, answers

    def first_answer(build):
        """Seconds from building a service to its first answer."""
        started = time.perf_counter()
        service = build()
        service.execute(searches[0].kind, **searches[0].kwargs())
        return service, time.perf_counter() - started

    def via(service):
        return lambda op: service.execute(op.kind, **op.kwargs())

    out: Dict[str, float] = {}
    rungs: Dict[str, Dict[str, List[float]]] = {}

    rungs["direct"], _, answers = passes(
        lambda op: dispatch(mdw, op.kind, op.kwargs()), "direct"
    )
    out["services.search_hits"] = median(
        [float(len(answers[op.key].hits)) for op in searches]
    )
    out["server.response_pickle_bytes_search"] = median(
        [float(len(pickle.dumps(answers[op.key]))) for op in searches]
    )
    out["server.response_pickle_bytes_lineage"] = median(
        [float(len(pickle.dumps(answers[op.key]))) for op in lineage]
    )

    with QueryService(mdw, ServiceConfig(max_workers=CLIENTS, max_queue=256, name="ladder-thread")) as service:
        rungs["thread"], _, _ = passes(via(service), "thread")
        # the repo's tracer installed but sampling nothing, against no
        # tracer at all: alternating pairs on the same service
        plain, unsampled = [], []
        for _ in range(REPEATS):
            plain += passes(via(service), "thread-plain", n=1)[1]
            install_tracer(Tracer(sample_rate=0.0))
            try:
                unsampled += passes(via(service), "thread-unsampled", n=1)[1]
            finally:
                uninstall_tracer()
        out["obs.unsampled_overhead_ratio"] = median(unsampled) / median(plain)

    service, out["server.start_s"] = first_answer(
        lambda: QueryService(mdw, fork_service_config(workdir / "ladder-fork", "ladder-fork"))
    )
    with service:
        rungs["fork"], _, _ = passes(via(service), "fork", with_extras=True)
        out.update(server_counters(service.metrics_snapshot()))

    for n_shards, label in ((1, "gateway1"), (CLIENTS, "gateway2")):
        service, started_s = first_answer(
            lambda: ShardedQueryService(
                mdw, sharded_config(workdir / f"ladder-{label}", n_shards, f"ladder-{label}")
            )
        )
        with service:
            rungs[label], _, _ = passes(via(service), label)
            if n_shards > 1:
                out["sharding.start_s"] = started_s
                out.update(gateway_counters(service.metrics_snapshot()))

    def p50(rung: str, family: str) -> float:
        return median(rungs[rung][family])

    out["services.search_ms"] = p50("direct", "search")
    out["services.lineage_us"] = p50("direct", "lineage") * 1e3
    for metric, upper, lower in (
        ("server.thread_tax", "thread", "direct"),
        ("server.fork_tax", "fork", "thread"),
        ("sharding.gateway_tax", "gateway1", "fork"),
        ("sharding.scatter_tax", "gateway2", "gateway1"),
    ):
        for family in ("search", "lineage"):
            out[f"{metric}_{family}_ms"] = p50(upper, family) - p50(lower, family)
    out["server.sql_p50_ms"] = p50("fork", "sql")
    out["server.query_p50_ms"] = p50("fork", "query")
    out["server.search_p95_ms"] = p95(rungs["fork"]["search"])
    out["server.lineage_p95_ms"] = p95(rungs["fork"]["lineage"])
    out["sharding.search_p95_ms"] = p95(rungs["gateway2"]["search"])
    out["sharding.lineage_p95_ms"] = p95(rungs["gateway2"]["lineage"])
    return out

"""``repro-mdw`` — the meta-data warehouse command line.

A thin operational frontend over the library, working against a store —
one snapshot file (see :mod:`repro.storage`)::

    repro-mdw generate ./wh.mdws --scale small --seed 2009
    repro-mdw stats ./wh.mdws
    repro-mdw validate ./wh.mdws
    repro-mdw search ./wh.mdws customer --area mart --synonyms
    repro-mdw lineage ./wh.mdws customer_id --direction upstream
    repro-mdw flows ./wh.mdws --granularity 2
    repro-mdw index ./wh.mdws
    repro-mdw load ./wh.mdws release/*.xml --version 2026.R2
    repro-mdw snapshot ./wh.mdws 2026.R1
    repro-mdw versions ./wh.mdws
    repro-mdw sql ./wh.mdws query.sql

Every command exits 0 on success and 2 on a user error (bad arguments,
unknown item, non-conformant graph for ``validate``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import MetadataWarehouse, TERMS
from repro.core.vocabulary import MDW
from repro.errors import InvalidOption, InvalidRequest
from repro.services import SearchFilters

_AREAS = {
    "inbound": TERMS.area_inbound,
    "staging": TERMS.area_inbound,
    "integration": TERMS.area_integration,
    "mart": TERMS.area_mart,
}


class CliError(Exception):
    """A user-facing CLI error (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mdw",
        description="Meta-data warehouse operations (Credit Suisse MDW reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic landscape into a store file")
    generate.add_argument("store", help="store (snapshot) file to create/overwrite")
    generate.add_argument("--scale", choices=["tiny", "small", "medium", "paper"], default="small")
    generate.add_argument("--seed", type=int, default=2009)
    generate.add_argument("--extended", action="store_true", help="include the Figure 9 extended scope")
    generate.add_argument("--with-index", action="store_true", help="build the OWLPRIME entailment index")

    stats = sub.add_parser(
        "stats", help="node/edge composition (Table I) and process metrics"
    )
    stats.add_argument("store")
    stats.add_argument(
        "--metrics", action="store_true",
        help="also print the process metrics registry as JSON",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="also print the metrics registry in Prometheus text format",
    )

    validate = sub.add_parser("validate", help="audit the graph against Table I")
    validate.add_argument("store")

    search = sub.add_parser("search", help="the search facility (use case IV.A)")
    search.add_argument("store")
    search.add_argument("term")
    search.add_argument("--class", dest="classes", action="append", default=[], help="hierarchy class filter (repeatable)")
    search.add_argument("--area", choices=sorted(_AREAS), default=None)
    search.add_argument("--synonyms", action="store_true", help="expand the term with synonyms")
    search.add_argument("--expand", metavar="LABEL", default=None, help="expand one result group")
    search.add_argument("--regex", action="store_true", help="treat TERM as a regular expression")
    search.add_argument(
        "--freshness", action="append", default=[],
        help="keep only items with this freshness guarantee (repeatable)",
    )
    search.add_argument(
        "--min-quality", type=float, default=None,
        help="drop items with a quality score below this value",
    )

    lineage = sub.add_parser("lineage", help="the provenance tool (use case IV.B)")
    lineage.add_argument("store")
    lineage.add_argument("item", help="item display name (dm:hasName)")
    lineage.add_argument("--direction", choices=["upstream", "downstream"], default="upstream")
    lineage.add_argument("--depth", type=int, default=None)
    lineage.add_argument("--condition", default=None, help="keep only mapping edges whose rule condition contains this text (unconditional edges always pass)")

    flows = sub.add_parser("flows", help="the Figure 7 data-flow panes")
    flows.add_argument("store")
    flows.add_argument("--granularity", type=int, default=0, help="containment levels to lift both sides")
    flows.add_argument("--rows", type=int, default=20)

    load = sub.add_parser(
        "load",
        help="apply a complete release (XML feeds + optional ontology) to the store",
    )
    load.add_argument("store")
    load.add_argument("files", nargs="+", help="XML metadata feed files describing the full release state")
    load.add_argument("--ontology", default=None, help="ontology file staged alongside the feeds")
    load_mode = load.add_mutually_exclusive_group()
    load_mode.add_argument(
        "--incremental", action="store_true",
        help="force delta application (default: auto — incremental when a prior version exists)",
    )
    load_mode.add_argument(
        "--full-rebuild", action="store_true",
        help="escape hatch: clear the model, reload everything, rebuild all indexes",
    )
    load.add_argument("--version", default=None, help="historize the result under this version name")
    load.add_argument("--no-validate", action="store_true", help="skip Table I validation")

    index = sub.add_parser("index", help="build/refresh an entailment index")
    index.add_argument("store")
    index.add_argument("--rulebase", default="OWLPRIME")

    snapshot = sub.add_parser(
        "snapshot",
        help="binary snapshot files, delta segments, and historized versions",
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    s_hist = snap_sub.add_parser(
        "historize", help="historize the current model under a version name"
    )
    s_hist.add_argument("store")
    s_hist.add_argument("version", help="version name, e.g. 2026.R1")

    s_attach = snap_sub.add_parser(
        "attach", help="attach (mmap) a snapshot file and print what it serves"
    )
    s_attach.add_argument("file", help="snapshot file to attach")
    s_attach.add_argument(
        "--segment", action="append", default=[], metavar="FILE",
        help="delta segment to layer on top (repeatable, chain order)",
    )

    s_info = snap_sub.add_parser(
        "info", help="header and table of contents of a snapshot file"
    )
    s_info.add_argument("file", help="snapshot file to inspect")
    s_info.add_argument(
        "--verify", action="store_true",
        help="also recompute every section checksum",
    )

    versions = sub.add_parser("versions", help="list historized versions")
    versions.add_argument("store")

    sql = sub.add_parser("sql", help="run a SEM_MATCH SQL statement (file or '-')")
    sql.add_argument("store")
    sql.add_argument("file", help="path to the .sql file, or '-' for stdin")
    sql.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    update = sub.add_parser("update", help="run SPARQL Update statements (file or '-')")
    update.add_argument("store")
    update.add_argument("file", help="path to the .ru file, or '-' for stdin")

    overview = sub.add_parser("overview", help="the Figure 1 subject-area overview")
    overview.add_argument("store")

    explain = sub.add_parser("explain", help="show a SPARQL query's evaluation plan")
    explain.add_argument("store")
    explain.add_argument("query", help="the query text, or a path to a .rq file")
    explain.add_argument("--rulebase", action="append", default=[], help="include an entailment index")
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query and append the runtime profile (EXPLAIN ANALYZE)",
    )

    serve = sub.add_parser(
        "serve",
        help="run statements from stdin through the concurrent query service",
    )
    serve.add_argument("store")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--mode", choices=["thread", "fork"], default="thread")
    serve.add_argument("--timeout", type=float, default=None, help="per-statement deadline in seconds")
    serve.add_argument("--queue", type=int, default=64, help="admission queue bound")
    serve.add_argument(
        "--supervise", action="store_true",
        help="self-healing worker fleet (fork mode only): heartbeat, "
        "reap and respawn dead or hung workers, requeue their requests",
    )

    workload = sub.add_parser(
        "workload",
        help="drive a synthetic client mix against the query service",
    )
    workload.add_argument("store")
    workload.add_argument("--workers", type=int, default=4)
    workload.add_argument("--clients", type=int, default=8, help="concurrent client threads")
    workload.add_argument("--requests", type=int, default=200, help="total requests across clients")
    workload.add_argument("--mode", choices=["thread", "fork"], default="thread")
    workload.add_argument("--timeout", type=float, default=None, help="per-request deadline in seconds")
    workload.add_argument("--seed", type=int, default=42)
    workload.add_argument(
        "--supervise", action="store_true",
        help="run the workload under the self-healing supervisor (fork mode only)",
    )
    workload.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="trace the run, validate the span tree, and write the "
        "Chrome trace JSON here",
    )
    workload.add_argument(
        "--sample", type=float, default=1.0,
        help="trace sampling rate in [0, 1] (with --trace-out)",
    )
    workload.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the process metrics registry as JSON here",
    )
    workload.add_argument(
        "--prometheus-out", default=None, metavar="FILE",
        help="also write a Prometheus scrape of the metrics registry",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.storage import StorageError

    args = build_parser().parse_args(argv)
    try:
        handler = _HANDLERS[args.command]
        handler(args)
        return 0
    except (CliError, StorageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _open(args) -> MetadataWarehouse:
    """Attach the store file, mapped and read-only."""
    return MetadataWarehouse.attach_snapshot(args.store)


def _open_writable(args) -> MetadataWarehouse:
    """Attach the store file with its unfrozen models materialized, for
    the commands that change the store and re-save it (atomically: temp
    file + rename) to the same path."""
    return MetadataWarehouse.attach_snapshot(args.store, mutable_models=None)


def _find_item(mdw: MetadataWarehouse, name: str):
    from repro.rdf.terms import Literal

    matches = sorted(
        mdw.graph.subjects(TERMS.has_name, Literal(name)), key=lambda t: t.sort_key()
    )
    if not matches:
        raise CliError(f"no item named {name!r} (names are dm:hasName values)")
    if len(matches) > 1:
        print(f"note: {len(matches)} items named {name!r}; using {matches[0].n3()}")
    return matches[0]


def cmd_generate(args) -> None:
    from repro.synth import LandscapeConfig, generate_landscape

    factory = {
        "tiny": LandscapeConfig.tiny,
        "small": LandscapeConfig.small,
        "medium": LandscapeConfig.medium,
        "paper": LandscapeConfig.paper_scale,
    }[args.scale]
    config = factory(seed=args.seed)
    if args.extended:
        config = config.with_extended_scope()
    landscape = generate_landscape(config)
    if args.with_index:
        report = landscape.warehouse.build_entailment_index()
        print(report.summary())
    landscape.warehouse.save_snapshot(args.store)
    print(f"generated {landscape.summary()}")
    print(f"saved to {args.store}")


def cmd_stats(args) -> None:
    mdw = _open(args)
    print(mdw.statistics().render_table_i())
    if args.metrics:
        import json

        from repro.obs import snapshot_json

        print(json.dumps(snapshot_json(), indent=2, sort_keys=True))
    if args.prometheus:
        from repro.obs import render_prometheus

        print(render_prometheus(), end="")


def cmd_validate(args) -> None:
    mdw = _open(args)
    report = mdw.validate()
    print(report.summary())
    for issue in report.issues[:20]:
        print(f"  {issue.describe()}")
    if not report.conformant:
        raise CliError(f"{report.violation_count} edge(s) outside Table I")


def cmd_search(args) -> None:
    from repro.ui import render_search_results

    mdw = _open(args)
    filters = SearchFilters(
        classes=list(args.classes),
        areas=[_AREAS[args.area]] if args.area else (),
        freshness=list(args.freshness),
        min_quality=args.min_quality,
    )
    try:
        results = mdw.search.search(
            args.term, filters, expand_synonyms=args.synonyms, regex=args.regex
        )
    except (KeyError, InvalidOption) as exc:
        raise CliError(str(exc)) from None
    print(render_search_results(results, expand=args.expand))


def cmd_lineage(args) -> None:
    from repro.ui import render_trace

    mdw = _open(args)
    item = _find_item(mdw, args.item)
    condition_filter = None
    if args.condition is not None:
        needle = args.condition

        def condition_filter(edge):
            return edge.condition is None or needle in edge.condition

    trace = mdw.lineage.trace(
        item, args.direction, max_depth=args.depth, condition_filter=condition_filter
    )
    print(render_trace(mdw, trace))


def cmd_flows(args) -> None:
    from repro.ui import render_lineage_panes

    mdw = _open(args)
    print(
        render_lineage_panes(
            mdw,
            source_granularity=args.granularity,
            target_granularity=args.granularity,
            max_rows=args.rows,
        )
    )


def cmd_load(args) -> None:
    """Apply a complete release to the store (auto-incremental)."""
    from repro.etl.pipeline import EtlOrchestrator

    mdw = _open_writable(args)
    documents = []
    for name in args.files:
        path = Path(name)
        if not path.exists():
            raise CliError(f"no such file: {path}")
        documents.append(path.read_text(encoding="utf-8"))
    ontology = None
    if args.ontology is not None:
        ontology_path = Path(args.ontology)
        if not ontology_path.exists():
            raise CliError(f"no such file: {ontology_path}")
        ontology = ontology_path.read_text(encoding="utf-8")
    mode = "auto"
    if args.incremental:
        mode = "incremental"
    elif args.full_rebuild:
        mode = "full"
    historizer = None
    if args.version is not None:
        from repro.history import Historizer

        historizer = Historizer(mdw.store, model=mdw.model_name)
    from repro.etl.xml_source import XmlSourceError
    from repro.rdf import TurtleParseError

    orchestrator = EtlOrchestrator(mdw, validate=not args.no_validate)
    try:
        result = orchestrator.apply_release(
            documents,
            ontology_text=ontology,
            mode=mode,
            version=args.version,
            historizer=historizer,
        )
    except (XmlSourceError, TurtleParseError) as exc:
        raise CliError(str(exc)) from None
    print(result.summary())
    if not result.ok:
        raise CliError("release load failed; store NOT saved")
    mdw.save_snapshot(args.store)


def cmd_index(args) -> None:
    mdw = _open_writable(args)
    try:
        report = mdw.indexes.build(mdw.model_name, args.rulebase)
    except KeyError as exc:
        raise CliError(str(exc)) from None
    print(report.summary())
    mdw.save_snapshot(args.store)


def cmd_snapshot(args) -> None:
    {
        "historize": _snapshot_historize,
        "attach": _snapshot_attach,
        "info": _snapshot_info,
    }[args.snapshot_command](args)


def _snapshot_historize(args) -> None:
    from repro.history import HistorizationError, Historizer

    mdw = _open_writable(args)
    historizer = Historizer(mdw.store)
    try:
        version = historizer.snapshot(args.version)
    except HistorizationError as exc:
        raise CliError(str(exc)) from None
    mdw.save_snapshot(args.store)
    print(version.summary())


def _snapshot_attach(args) -> None:
    mdw = MetadataWarehouse.attach_snapshot(args.file, segments=args.segment)
    for name in mdw.store.model_names():
        print(f"model {name:<16} {len(mdw.store.model(name)):>10} triple(s)")
    for model, rulebase in mdw.store.index_names():
        derived = mdw.store.index(model, rulebase)
        print(f"index {model}[{rulebase}] {len(derived):>10} triple(s)")
    print(mdw.statistics().render_table_i())


def _snapshot_info(args) -> None:
    import json

    from repro.storage import MappedSnapshot

    snap = MappedSnapshot.open(args.file)
    try:
        info = snap.info()
        if args.verify:
            info["checksums"] = "ok" if snap.verify() else "MISMATCH"
        print(json.dumps(info, indent=2, sort_keys=True))
        if info.get("checksums") == "MISMATCH":
            raise CliError(f"{args.file}: section checksum mismatch")
    finally:
        snap.close()


def cmd_versions(args) -> None:
    mdw = _open(args)
    hist_models = [m for m in mdw.store.model_names() if m.startswith("HIST_")]
    if not hist_models:
        print("no historized versions")
        return
    for model in hist_models:
        graph = mdw.store.model(model)
        print(f"{model[5:]:<16} {graph.node_count():>8} nodes {len(graph):>10} edges")


def cmd_sql(args) -> None:
    mdw = _open(args)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.file)
        if not path.exists():
            raise CliError(f"no such file: {path}")
        text = path.read_text(encoding="utf-8")
    try:
        rows = mdw.sem_sql(text)
    except InvalidRequest as exc:
        # SemSqlError, or the SparqlParseError of the statement's pattern
        raise CliError(str(exc)) from None
    if args.csv:
        print(rows.to_csv(), end="")
    else:
        print(rows.as_table())
        print(f"({len(rows)} row(s))")


def cmd_update(args) -> None:
    mdw = _open_writable(args)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.file)
        if not path.exists():
            raise CliError(f"no such file: {path}")
        text = path.read_text(encoding="utf-8")
    from repro.sparql import SparqlParseError

    try:
        result = mdw.update(text)
    except SparqlParseError as exc:
        raise CliError(str(exc)) from None
    report = mdw.validate(max_issues=5)
    if not report.conformant:
        raise CliError(
            f"update would leave {report.violation_count} edge(s) outside "
            "Table I; store NOT saved — first offender: "
            + report.issues[0].describe()
        )
    mdw.save_snapshot(args.store)
    print(result.summary())


def cmd_overview(args) -> None:
    from repro.core.statistics import collect_statistics
    from repro.ui import render_landscape_overview

    mdw = _open(args)
    # recover subject-area counts from the graph itself: class instances
    # per subject-area keyword are not persisted, so approximate from the
    # per-class instance counts
    counts = _subject_area_counts(mdw)
    print(render_landscape_overview(counts))
    stats = collect_statistics(mdw.graph)
    print(f"\ntotal: {stats.nodes} nodes, {stats.edges} edges")


def _subject_area_counts(mdw: MetadataWarehouse):
    """Approximate Figure 1 counts from class labels in a loaded store."""
    from repro.rdf.namespace import RDF

    label_to_key = {
        "Application": "applications",
        "Database": "databases",
        "Schema": "schemas",
        "Table": "tables",
        "Column": "columns",
        "File": "files",
        "Interface": "interfaces",
        "Role": "roles",
        "User": "users",
        "Report": "reports",
        "Report Attribute": "report attributes",
        "Domain": "domains",
        "Log File": "log files",
    }
    counts = {}
    for cls in mdw.schema.classes():
        key = label_to_key.get(mdw.schema.label(cls) or "")
        if key:
            n = mdw.graph.count(None, RDF.type, cls)
            if n:
                counts[key] = counts.get(key, 0) + n
    from repro.core import TERMS

    flows = mdw.graph.count(None, TERMS.is_mapped_to, None)
    if flows:
        counts["data flows"] = flows
    return counts


def cmd_explain(args) -> None:
    mdw = _open(args)
    text = args.query
    path = Path(text)
    if path.suffix == ".rq" and path.exists():
        text = path.read_text(encoding="utf-8")
    from repro.sparql import SparqlParseError

    try:
        print(mdw.explain(text, rulebases=args.rulebase, analyze=args.analyze))
    except SparqlParseError as exc:
        raise CliError(str(exc)) from None


def cmd_serve(args) -> None:
    """Feed blank-line-separated statements from stdin to a query service.

    Statements containing ``SEM_MATCH`` run through the SQL layer, the
    rest as SPARQL. At EOF the service's metrics report is printed.
    """
    mdw = _open(args)
    from repro.server import DeadlineExceeded, Overloaded, QueryServiceError

    config = _service_config(
        max_workers=args.workers,
        max_queue=args.queue,
        default_timeout=args.timeout,
        worker_mode=args.mode,
        supervise=args.supervise,
    )
    statements = [
        block.strip()
        for block in sys.stdin.read().split("\n\n")
        if block.strip() and not block.lstrip().startswith("#")
    ]
    failures = 0
    with mdw.serve(config) as service:
        for number, statement in enumerate(statements, start=1):
            kind = "sql" if "SEM_MATCH" in statement.upper() else "query"
            try:
                if kind == "sql":
                    rows = service.sem_sql(statement)
                else:
                    rows = service.query(statement)
            except (DeadlineExceeded, Overloaded, QueryServiceError) as exc:
                failures += 1
                print(f"-- statement {number}: {type(exc).__name__}: {exc}")
                continue
            print(f"-- statement {number} ({kind}, {len(rows)} row(s))")
            print(rows.as_table())
        print(service.metrics_report())
        health = service.health()
        line = f"health: {health['status']}"
        supervisor = health.get("supervisor")
        if supervisor:
            restarts = sum((supervisor.get("restarts") or {}).values())
            line += (
                f" (supervisor: {supervisor['alive_children']} worker(s) live, "
                f"{restarts} restart(s))"
            )
        print(line)
    if failures:
        raise CliError(f"{failures} of {len(statements)} statement(s) failed")


def _service_config(**settings):
    """The query service's config; an invalid combination of options
    (``--supervise`` without ``--mode fork``, a non-positive bound) is a
    clean command-line error."""
    from repro.server import ServiceConfig

    try:
        return ServiceConfig(**settings)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _drive_workload(mdw, *, workers, clients, requests, mode, timeout, seed, supervise=False):
    """Run the synthetic client mix; returns (ops, errors, elapsed, report)."""
    import threading
    import time

    from repro.server import QueryServiceError
    from repro.synth import make_service_workload

    config = _service_config(
        max_workers=workers,
        max_queue=max(64, requests),
        default_timeout=timeout,
        worker_mode=mode,
        supervise=supervise,
    )
    ops = make_service_workload(mdw, n_ops=requests, seed=seed)
    shards = [ops[i::clients] for i in range(clients)]
    errors: List[str] = []
    errors_lock = threading.Lock()

    with mdw.serve(config) as service:

        def client(shard):
            for op in shard:
                try:
                    service.execute(op.kind, **op.payload)
                except QueryServiceError as exc:
                    with errors_lock:
                        errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=client, args=(shard,), daemon=True)
            for shard in shards
            if shard
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        report = service.metrics_report()
    return ops, errors, elapsed, report


def _traced(args, stack):
    """Install a tracer for the run when ``--trace-out`` asks for one."""
    if args.trace_out is None:
        return None
    if not 0.0 <= args.sample <= 1.0:
        raise CliError("--sample must be in [0, 1]")
    from repro.obs import Tracer, trace_scope

    return stack.enter_context(trace_scope(Tracer(sample_rate=args.sample)))


def _write_artifacts(args, tracer) -> None:
    """Write the side outputs the command line named: the (validated)
    Chrome trace, a Prometheus scrape, the registry as JSON. The CI
    observability job parses all three."""
    import json

    from repro.obs import render_prometheus, snapshot_json, validate_chrome_trace

    if tracer is not None:
        data = tracer.to_chrome()
        # a sampled-out run has no spans to check
        roots = validate_chrome_trace(data)["roots"] if data["traceEvents"] else 0
        Path(args.trace_out).write_text(json.dumps(data), encoding="utf-8")
        print(
            f"wrote {len(data['traceEvents'])} trace event(s) "
            f"({roots} root(s)) to {args.trace_out}"
        )
    if args.prometheus_out is not None:
        Path(args.prometheus_out).write_text(render_prometheus(), encoding="utf-8")
        print(f"wrote Prometheus scrape to {args.prometheus_out}")
    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(
            json.dumps(snapshot_json(), indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"wrote metrics snapshot to {args.metrics_out}")


def cmd_workload(args) -> None:
    """Drive a deterministic mixed workload with concurrent clients."""
    from contextlib import ExitStack

    mdw = _open(args)
    with ExitStack() as stack:
        tracer = _traced(args, stack)
        ops, errors, elapsed, report = _drive_workload(
            mdw,
            workers=args.workers,
            clients=args.clients,
            requests=args.requests,
            mode=args.mode,
            timeout=args.timeout,
            seed=args.seed,
            supervise=args.supervise,
        )
    print(
        f"{len(ops)} request(s), {args.clients} client(s), "
        f"{args.workers} {args.mode} worker(s): "
        f"{elapsed:.2f}s ({len(ops) / elapsed:.1f} req/s)"
    )
    print(report)
    _write_artifacts(args, tracer)
    if errors:
        for line in errors[:10]:
            print(f"  failed {line}", file=sys.stderr)
        raise CliError(f"{len(errors)} of {len(ops)} request(s) failed")


_HANDLERS = {
    "generate": cmd_generate,
    "stats": cmd_stats,
    "validate": cmd_validate,
    "search": cmd_search,
    "lineage": cmd_lineage,
    "flows": cmd_flows,
    "index": cmd_index,
    "load": cmd_load,
    "snapshot": cmd_snapshot,
    "versions": cmd_versions,
    "sql": cmd_sql,
    "overview": cmd_overview,
    "explain": cmd_explain,
    "update": cmd_update,
    "serve": cmd_serve,
    "workload": cmd_workload,
}


if __name__ == "__main__":
    sys.exit(main())

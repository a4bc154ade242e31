"""The chaos harness: randomized crash / recover / verify loops.

The release drill (:func:`run_chaos`) applies the same synthetic
release twice: once cleanly as a full rebuild (the reference), once
incrementally with a seeded fault armed at a random site of
``apply_release``. After the injected crash, the one recovery procedure
runs — apply the same release again — and the harness asserts
**bit-identical convergence**: the recovered model, every entailment
index, and a probe query's answers must equal the reference exactly.
The snapshot, supervisor and sharded drills run the same loop over the
storage and serving tiers.

Everything derives from one seed, so a red chaos run is a repro recipe,
not an anecdote: ``repro-mdw chaos --seed 1234`` replays it.
"""

from __future__ import annotations

import os
import random
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.rdf.ntriples import serialize_ntriples

from repro.resilience.faults import FaultInjector, InjectedFault, fault_scope

#: The sites a release application passes through
#: (``EtlOrchestrator.apply_release``): staging, the delta apply itself
#: (incremental mode only), index refresh or DRed maintenance, and
#: validation.
RELEASE_SITES = [
    "staging.stage",
    "release.apply",
    "index.refresh",
    "etl.validate",
]

#: The storage-tier sites a snapshot chaos iteration may kill at: mid
#: snapshot-file save (after fsync, before the atomic rename) and while
#: opening (mmap + validate) a snapshot file.
SNAPSHOT_SITES = [
    "snapshot.save",
    "snapshot.attach",
]

#: The serving-tier "site" a supervisor chaos iteration kills at. Not a
#: fault-injection point: the harness SIGKILLs live fork workers from
#: outside, exactly like the OOM killer would.
SUPERVISOR_SITE = "worker.kill"

#: The sharded-gateway "site": one shard's workers are SIGKILLed under
#: load, then the whole shard is hard-downed and replaced.
SHARD_SITE = "shard.kill"

#: The probe query both sides answer after the dust settles (exercises
#: the plan cache and, via the rulebase, the entailment index).
PROBE_QUERY = "SELECT ?s ?name WHERE { ?s dm:hasName ?name }"

_CLASS_POOL = ["Application", "Database", "Table", "Column", "Report"]


def make_release_feeds(
    rng: random.Random, documents: int = 4, instances: int = 10
) -> List[str]:
    """Deterministic synthetic XML release feeds (classes, instances,
    links, mappings) — varied by the rng, stable for a given seed."""
    feeds: List[str] = []
    all_names: List[str] = []
    for d in range(documents):
        lines = [f'<metadata source="feed-{d}">']
        for cls in _CLASS_POOL:
            lines.append(f'  <class name="{cls}" world="technical"/>')
        lines.append('  <property name="hasOwner" world="business"/>')
        names = [f"item_{d}_{i}_{rng.randint(0, 999)}" for i in range(instances)]
        for i, name in enumerate(names):
            cls = _CLASS_POOL[rng.randrange(len(_CLASS_POOL))]
            lines.append(f'  <instance name="{name}" class="{cls}" area="integration">')
            lines.append(f'    <value property="hasOwner">owner_{rng.randint(0, 9)}</value>')
            if all_names and rng.random() < 0.6:
                target = all_names[rng.randrange(len(all_names))]
                lines.append(
                    f'    <mapping target="{target}" rule="rule-{d}-{i}" '
                    f'condition="region=\'{rng.choice("ABC")}\'"/>'
                )
            lines.append("  </instance>")
        all_names.extend(names)
        lines.append("</metadata>")
        feeds.append("\n".join(lines))
    return feeds


@dataclass
class ChaosIteration:
    """One crash/recover/verify round."""

    index: int
    seed: int
    site: str
    skip: int
    crashed: bool = False
    recovery_action: str = "none"
    reran: bool = False
    converged: bool = False
    detail: str = ""

    def summary(self) -> str:
        crash = f"crashed at {self.site}(skip={self.skip})" if self.crashed else "no crash"
        verdict = "converged" if self.converged else f"DIVERGED: {self.detail}"
        rerun = ", reran load" if self.reran else ""
        return (
            f"iteration {self.index}: {crash}, "
            f"recovery={self.recovery_action}{rerun} → {verdict}"
        )


@dataclass
class ChaosReport:
    seed: int
    iterations: List[ChaosIteration] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it.converged for it in self.iterations)

    @property
    def crashes(self) -> int:
        return sum(1 for it in self.iterations if it.crashed)

    def verdict(self) -> str:
        verdict = "all converged" if self.ok else "DIVERGENCE DETECTED"
        return (
            f"chaos seed {self.seed}: {len(self.iterations)} iteration(s), "
            f"{self.crashes} crash(es), {verdict}"
        )

    def summary(self) -> str:
        return "\n".join([it.summary() for it in self.iterations] + [self.verdict()])


def _fingerprint(mdw) -> dict:
    """Bit-exact state: model + every entailment index, serialized."""
    out = {"model": serialize_ntriples(mdw.graph)}
    for model, rulebase in mdw.store.index_names(mdw.model_name):
        out[f"index:{rulebase}"] = serialize_ntriples(mdw.store.index(model, rulebase))
    return out


def _probe(mdw) -> List[tuple]:
    rows = mdw.query(PROBE_QUERY, rulebases=("OWLPRIME",))
    return sorted(
        tuple(str(binding.get(c)) for c in ("s", "name"))
        for binding in rows.iter_bindings()
    )


def _verdict(
    it: ChaosIteration, expected: dict, expected_probe, actual: dict, actual_probe
) -> ChaosIteration:
    """Settle ``it``: converged only when the recovered state (model +
    every index) and the probe answers equal the reference exactly."""
    if actual != expected:
        diverged = sorted(
            k for k in set(expected) | set(actual) if expected.get(k) != actual.get(k)
        )
        it.detail = f"state mismatch in {diverged}"
    elif actual_probe != expected_probe:
        it.detail = "probe query answers differ"
    else:
        it.converged = True
    return it


def _run_iterations(
    seed: int,
    iterations: int,
    workdir: Optional[Path],
    log: Optional[Callable[[str], None]],
    run_iteration: Callable[..., ChaosIteration],
    *params,
) -> ChaosReport:
    """The one chaos loop: a seeded rng per iteration, a scratch root
    (``workdir`` or a temp dir), and a report that streams to ``log``.
    ``run_iteration(i, iteration_seed, rng, root, *params)`` runs one."""
    report = ChaosReport(seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(workdir) if workdir is not None else Path(tmp)
        for i in range(iterations):
            iteration_seed = seed * 100_003 + i
            rng = random.Random(iteration_seed)
            it = run_iteration(i, iteration_seed, rng, root, *params)
            report.iterations.append(it)
            if log is not None:
                log(it.summary())
    return report


def _build_release_base(feeds: List[str]):
    """A fresh warehouse with an OWLPRIME index and ``feeds`` applied as
    a full release."""
    from repro.core.warehouse import MetadataWarehouse
    from repro.etl.pipeline import EtlOrchestrator

    mdw = MetadataWarehouse()
    mdw.build_entailment_index("OWLPRIME")
    EtlOrchestrator(mdw).apply_release(feeds, mode="full")
    return mdw


def _run_release_iteration(
    i: int,
    iteration_seed: int,
    rng: random.Random,
    root: Path,
    documents: int,
    instances: int,
) -> ChaosIteration:
    """One crash/recover/verify round through the release path.

    Release 2 drops one feed of release 1 and brings a fresh one, so the
    delta has both adds and removes. The reference applies release 2 as
    a **full rebuild**; the victim applies it incrementally, crashes at
    an armed fault site, and recovers by simply re-applying the release
    (delta application is convergent). Convergence is asserted
    bit-identically against the full-rebuild reference — so the check
    doubles as an incremental-vs-full equivalence proof under crashes.
    """
    from repro.etl.pipeline import EtlOrchestrator

    feeds1 = make_release_feeds(rng, documents=documents, instances=instances)
    feeds2 = feeds1[:-1] + make_release_feeds(rng, documents=1, instances=instances)

    reference = _build_release_base(feeds1)
    EtlOrchestrator(reference).apply_release(feeds2, mode="full")
    expected = _fingerprint(reference)
    expected_probe = _probe(reference)

    # census pass: count how often each fault point fires during a clean
    # incremental apply, so the armed fault below always triggers
    census = FaultInjector(seed=iteration_seed)
    clean = _build_release_base(feeds1)
    with fault_scope(census):
        EtlOrchestrator(clean).apply_release(feeds2, mode="incremental")

    injector = FaultInjector(seed=iteration_seed)
    site = injector.choose_site(
        [s for s in RELEASE_SITES if census.hits(s) > 0] or RELEASE_SITES
    )
    skip = rng.randint(0, max(0, census.hits(site) - 1))
    injector.arm(site, "raise", times=1, skip=skip)
    it = ChaosIteration(index=i, seed=iteration_seed, site=site, skip=skip)

    victim = _build_release_base(feeds1)
    with fault_scope(injector):
        try:
            EtlOrchestrator(victim).apply_release(feeds2, mode="incremental")
        except InjectedFault:
            it.crashed = True
    # recovery for an incremental apply is a plain re-apply: the diff of
    # desired-vs-live shrinks to whatever the crash left unapplied, and a
    # torn index refresh has poisoned its tracker into a full rebuild
    EtlOrchestrator(victim).apply_release(feeds2, mode="incremental")
    it.recovery_action = "reapply"
    it.reran = True

    if _fingerprint(clean) != expected:
        it.detail = "clean incremental apply diverged from full rebuild"
        return it
    return _verdict(it, expected, expected_probe, _fingerprint(victim), _probe(victim))


def run_chaos(
    seed: int = 0,
    iterations: int = 5,
    documents: int = 4,
    instances: int = 10,
    workdir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """The randomized release drill (``repro-mdw chaos``): crash
    ``apply_release`` mid-stage, mid-diff-apply, mid-DRed-maintenance or
    mid-validation, recover by re-applying the release, and verify the
    result bit-identically against a full-rebuild reference."""
    return _run_iterations(
        seed, iterations, workdir, log, _run_release_iteration, documents, instances
    )


def _attach_fingerprint(path):
    """Fingerprint + probe of a warehouse attached from ``path``."""
    from repro.core.warehouse import MetadataWarehouse

    mdw = MetadataWarehouse.attach_snapshot(path)
    return _fingerprint(mdw), _probe(mdw)


def _run_snapshot_iteration(
    i: int,
    iteration_seed: int,
    rng: random.Random,
    root: Path,
    documents: int,
    instances: int,
) -> ChaosIteration:
    """One crash/recover/verify round through the *storage* path.

    A base release is saved as a snapshot file; a second release then
    tries to republish over it with a fault armed at a storage site. A
    crash mid-save must leave the previous snapshot file **bit
    identical** and attachable (the atomic temp + fsync + rename
    contract); a crash mid-attach must leave the file untouched and a
    retry must succeed. Either way, the retried publish must attach to
    exactly the evolved state.
    """
    feeds1 = make_release_feeds(rng, documents=documents, instances=instances)
    feeds2 = feeds1[:-1] + make_release_feeds(rng, documents=1, instances=instances)

    base = _build_release_base(feeds1)
    path = root / f"snap-{i}.mdws"
    base.save_snapshot(path)
    base_bytes = path.read_bytes()
    expected_base = _fingerprint(base)

    evolved = _build_release_base(feeds2)
    expected = _fingerprint(evolved)
    expected_probe = _probe(evolved)

    injector = FaultInjector(seed=iteration_seed)
    site = injector.choose_site(SNAPSHOT_SITES)
    injector.arm(site, "raise", times=1)
    it = ChaosIteration(index=i, seed=iteration_seed, site=site, skip=0)

    if site == "snapshot.save":
        with fault_scope(injector):
            try:
                evolved.save_snapshot(path)
            except InjectedFault:
                it.crashed = True
        # the crash landed between fsync and rename: the previous
        # snapshot must still be there, byte for byte, and attachable
        if path.read_bytes() != base_bytes:
            it.detail = "crashed save mutated the previous snapshot file"
            return it
        survived, _ = _attach_fingerprint(path)
        if survived != expected_base:
            it.detail = "previous snapshot no longer attaches to base state"
            return it
        # recovery: re-run the interrupted save without faults
        it.recovery_action = "retry-save"
        evolved.save_snapshot(path)
    else:
        evolved.save_snapshot(path)
        published_bytes = path.read_bytes()
        with fault_scope(injector):
            try:
                _attach_fingerprint(path)
            except InjectedFault:
                it.crashed = True
        if path.read_bytes() != published_bytes:
            it.detail = "failed attach mutated the snapshot file"
            return it
        it.recovery_action = "retry-attach"  # the fault-free attach below
    it.reran = True
    return _verdict(it, expected, expected_probe, *_attach_fingerprint(path))


def _canonical_service_result(kind: str, result) -> object:
    """An order-insensitive, degraded-flag-blind form of any endpoint's
    result: bound rows for ``query``/``sql``, (instance, name) pairs for
    ``search``, (source, target) edges for ``lineage``."""
    if kind in ("query", "sql"):
        return sorted(
            tuple(sorted((k, v.n3()) for k, v in row.asdict().items()))
            for row in result
        )
    if kind == "search":
        return sorted((hit.instance.n3(), hit.name) for hit in result.hits)
    if kind == "lineage":
        return sorted((edge.source.n3(), edge.target.n3()) for edge in result.edges)
    return repr(result)


def _wait_until(condition: Callable[[], bool], timeout: float) -> bool:
    """Poll ``condition`` every 10 ms; False if ``timeout`` passes first."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _kill_storm(
    service,
    lanes: List[List[int]],
    run_op: Callable[[int], None],
    kills: int,
    rng: random.Random,
) -> int:
    """Run ``run_op`` over each lane of op indices from its own client
    thread while a killer SIGKILLs random live fork workers of
    ``service``; returns how many kills landed."""
    done = threading.Event()
    killed = 0

    def client(indices: List[int]) -> None:
        for index in indices:
            run_op(index)

    def killer() -> None:
        nonlocal killed
        while killed < kills and not done.is_set():
            pids = service.worker_pids()
            if pids:
                try:
                    os.kill(rng.choice(pids), signal.SIGKILL)
                    killed += 1
                except OSError:
                    pass  # already reaped; pick again next round
            time.sleep(rng.uniform(0.01, 0.06))

    threads = [
        threading.Thread(target=client, args=(lane,), daemon=True)
        for lane in lanes
        if lane
    ]
    killer_thread = threading.Thread(target=killer, daemon=True)
    for thread in threads:
        thread.start()
    killer_thread.start()
    for thread in threads:
        thread.join(timeout=120)
    done.set()
    killer_thread.join(timeout=5)
    return killed


def _run_supervisor_iteration(
    i: int,
    iteration_seed: int,
    rng: random.Random,
    root: Path,
    documents: int,
    instances: int,
    n_ops: int,
    kills: int,
    clients: int = 3,
) -> ChaosIteration:
    """One kill/recover/verify round through the *serving* path.

    A supervised fork-mode service replays a deterministic Listing 1/2
    request mix from several client threads while a killer thread
    SIGKILLs random live workers — the closest harness analogue of the
    OOM killer visiting the productive warehouse. Three assertions:

    * **zero loss** — every request completes; none surfaces an error
      (orphans requeue, exhausted ones fall back in-process, degraded);
    * **bit-identical answers** — each op's canonicalized result equals
      a single-threaded direct run's (the degraded flag is ignored, the
      rows must match exactly);
    * **bounded recovery** — the pool is back at full strength within
      three heartbeat intervals of the workload draining.
    """
    from repro.server.service import QueryService, ServiceConfig, dispatch
    from repro.synth.workload import make_service_workload

    feeds = make_release_feeds(rng, documents=documents, instances=instances)
    mdw = _build_release_base(feeds)
    ops = make_service_workload(mdw, n_ops=n_ops, seed=iteration_seed)
    expected = [
        _canonical_service_result(op.kind, dispatch(mdw, op.kind, dict(op.payload)))
        for op in ops
    ]

    heartbeat_interval = 0.2
    config = ServiceConfig(
        name=f"chaos-sup-{i}",
        max_workers=4,
        max_queue=n_ops + 32,
        worker_mode="fork",
        snapshot_dir=str(root / f"sup-{i}"),
        supervise=True,
        heartbeat_interval=heartbeat_interval,
        hang_timeout=2.0,
        hedge_after=0.8,
        max_attempts=4,
        breaker_threshold=10_000,  # the breaker is not under test here
    )
    it = ChaosIteration(index=i, seed=iteration_seed, site=SUPERVISOR_SITE, skip=0)
    results: List[object] = [None] * len(ops)
    errors: List[str] = []

    service = QueryService(mdw, config)
    try:
        supervisor = service.supervisor
        if not _wait_until(
            lambda: supervisor.alive_children() >= config.max_workers, 5.0
        ):
            it.detail = "pool never reached full size before the workload"
            return it

        def run_op(index: int) -> None:
            op = ops[index]
            try:
                results[index] = _canonical_service_result(
                    op.kind, service.execute(op.kind, **op.payload)
                )
            except Exception as exc:  # noqa: BLE001 - the assertion *is* "no errors"
                errors.append(f"op {index} ({op.kind}): {exc!r}")

        lanes = [list(range(c, len(ops), clients)) for c in range(clients)]
        it.crashed = _kill_storm(service, lanes, run_op, kills, rng) > 0
        it.recovery_action = "respawn"

        # bounded recovery: full pool strength within 3 heartbeats
        recovered = _wait_until(
            lambda: supervisor.deficit() == 0, 3 * heartbeat_interval
        )

        mismatched = [
            index for index in range(len(ops)) if results[index] != expected[index]
        ]
        if errors:
            it.detail = f"{len(errors)} failed request(s): {errors[:3]}"
        elif not recovered:
            it.detail = (
                f"pool still {supervisor.deficit()} short after "
                f"3 heartbeat intervals"
            )
        elif mismatched:
            it.detail = f"result mismatch at ops {mismatched[:5]}"
        else:
            it.converged = True
        return it
    finally:
        service.close()


def run_supervisor_chaos(
    seed: int = 0,
    iterations: int = 5,
    documents: int = 3,
    instances: int = 8,
    n_ops: int = 36,
    kills: int = 3,
    workdir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Randomized kill/recover/verify over the supervised serving tier
    (``repro-mdw chaos --supervisor``): SIGKILL live fork workers under
    a client workload and assert zero lost requests, bit-identical
    answers, and pool recovery within three heartbeat intervals."""
    return _run_iterations(
        seed,
        iterations,
        workdir,
        log,
        _run_supervisor_iteration,
        documents,
        instances,
        n_ops,
        kills,
    )


def _run_sharded_iteration(
    i: int,
    iteration_seed: int,
    rng: random.Random,
    root: Path,
    documents: int,
    instances: int,
    n_ops: int,
    kills: int,
    n_shards: int = 3,
    clients: int = 3,
) -> ChaosIteration:
    """One shard-loss round through the *sharded* serving path.

    Three phases against one gateway over ``n_shards`` supervised
    fork-worker shards, replaying a deterministic Listing 1/2 mix whose
    per-op truth comes from a single-node direct run:

    1. **kill storm** — client threads drive the mix while a killer
       SIGKILLs the victim shard's workers. The shard's supervisor must
       hide every death: zero failed requests, bit-identical answers,
       pool back at strength within three heartbeats.
    2. **shard loss** — the victim shard is hard-downed (its service
       closed, as if the host vanished). Requests must keep succeeding
       as *partial* results flagged ``degraded=True`` — never an error
       — and the gateway's client breaker for the shard must trip open.
    3. **replacement** — ``replace_shard`` rebuilds the victim from its
       retained partition; answers must return to bit-identical and
       un-degraded.
    """
    from repro.server.service import dispatch
    from repro.server.sharding import ShardedConfig, ShardedQueryService
    from repro.synth.workload import make_scatter_workload

    feeds = make_release_feeds(rng, documents=documents, instances=instances)
    mdw = _build_release_base(feeds)
    ops = make_scatter_workload(mdw, n_ops=n_ops, seed=iteration_seed)
    expected = [
        _canonical_service_result(op.kind, dispatch(mdw, op.kind, dict(op.payload)))
        for op in ops
    ]
    victim = rng.randrange(n_shards)

    heartbeat_interval = 0.2
    shard_dir = root / f"sharded-{i}"
    config = ShardedConfig(
        name=f"chaos-sharded-{i}",
        n_shards=n_shards,
        workers_per_shard=2,
        max_queue=n_ops + 32,
        snapshot_dir=str(shard_dir),
        supervise=True,
        heartbeat_interval=heartbeat_interval,
        hang_timeout=2.0,
        max_attempts=4,
        breaker_threshold=10_000,  # per-shard endpoint breakers: not under test
        shard_breaker_threshold=2,
        shard_breaker_cooldown=60.0,  # stays open until replace_shard resets it
    )
    it = ChaosIteration(index=i, seed=iteration_seed, site=SHARD_SITE, skip=victim)
    third = max(1, len(ops) // 3)
    storm_ops = list(range(0, third))
    downed_ops = list(range(third, 2 * third))
    recovered_ops = list(range(2 * third, len(ops)))
    results: List[object] = [None] * len(ops)
    degraded_flags: List[Optional[bool]] = [None] * len(ops)
    errors: List[str] = []

    service = ShardedQueryService(mdw, config)
    try:
        shard = service.shard_service(victim)
        if not _wait_until(
            lambda: shard.supervisor.alive_children() >= config.workers_per_shard, 5.0
        ):
            it.detail = "victim shard never reached full size"
            return it

        def run_op(index: int) -> None:
            op = ops[index]
            try:
                result = service.execute(op.kind, **op.payload)
                results[index] = _canonical_service_result(op.kind, result)
                degraded_flags[index] = bool(getattr(result, "degraded", False))
            except Exception as exc:  # noqa: BLE001 - the assertion *is* "no errors"
                errors.append(f"op {index} ({op.kind}): {exc!r}")

        # -- phase 1: kill storm under concurrent load --------------------
        lanes = [storm_ops[c::clients] for c in range(clients)]
        it.crashed = _kill_storm(shard, lanes, run_op, kills, rng) > 0
        recovered = _wait_until(
            lambda: shard.supervisor.deficit() == 0, 3 * heartbeat_interval
        )

        # -- phase 2: the whole shard goes dark ---------------------------
        shard.close(wait=False)
        for index in downed_ops:
            run_op(index)
        breaker_open = service.shard_breaker(victim).state != "closed"
        health_degraded = service.health()["status"] == "degraded"
        unflagged = [index for index in downed_ops if not degraded_flags[index]]

        # -- phase 3: runbook replacement ---------------------------------
        it.recovery_action = "replace_shard"
        replacement = service.replace_shard(victim)
        _wait_until(
            lambda: replacement.supervisor is None
            or replacement.supervisor.alive_children() >= config.workers_per_shard,
            5.0,
        )
        for index in recovered_ops:
            run_op(index)
        it.reran = True

        mismatched = [
            index
            for index in storm_ops + recovered_ops
            if results[index] != expected[index]
        ]
        flagged_after = [index for index in recovered_ops if degraded_flags[index]]
        if errors:
            it.detail = f"{len(errors)} failed request(s): {errors[:3]}"
        elif not recovered:
            it.detail = (
                f"victim pool still {shard.supervisor.deficit()} short "
                f"after 3 heartbeat intervals"
            )
        elif not breaker_open:
            it.detail = "gateway breaker never opened for the dead shard"
        elif not health_degraded:
            it.detail = "gateway health never reported degraded"
        elif unflagged:
            it.detail = f"partial results not flagged degraded at ops {unflagged[:5]}"
        elif mismatched:
            it.detail = f"result mismatch at ops {mismatched[:5]}"
        elif flagged_after:
            it.detail = f"still degraded after replacement at ops {flagged_after[:5]}"
        else:
            it.converged = True
        return it
    finally:
        service.close(wait=False)


def run_sharded_chaos(
    seed: int = 0,
    iterations: int = 5,
    documents: int = 3,
    instances: int = 8,
    n_ops: int = 36,
    kills: int = 3,
    n_shards: int = 3,
    workdir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Randomized shard-loss rounds over the sharded gateway
    (``repro-mdw chaos --sharded``): SIGKILL one shard's workers under a
    mixed Listing 1/2 load, then hard-down and replace the shard —
    asserting zero lost requests, partial results flagged
    ``degraded=True`` while the shard's breaker is open, and full
    bit-identical recovery after the replacement."""
    return _run_iterations(
        seed,
        iterations,
        workdir,
        log,
        _run_sharded_iteration,
        documents,
        instances,
        n_ops,
        kills,
        n_shards,
    )


def run_snapshot_chaos(
    seed: int = 0,
    iterations: int = 5,
    documents: int = 4,
    instances: int = 10,
    workdir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Randomized crash/recover/verify over the snapshot storage tier
    (``repro-mdw chaos --snapshot``)."""
    return _run_iterations(
        seed, iterations, workdir, log, _run_snapshot_iteration, documents, instances
    )

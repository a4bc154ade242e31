"""Canonical answer forms, sharded-fleet and worker-kill helpers shared
by the serving-tier suites."""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

from repro.server import ShardedConfig, ShardedQueryService, service, supervisor
from repro.server.service import dispatch
from repro.storage import shard_of


def canonical_rows(rows):
    """Bound rows of a ``query`` / ``sql`` answer, order-insensitive."""
    return sorted(
        tuple(sorted((k, v.n3()) for k, v in row.asdict().items())) for row in rows
    )


def canonical(kind, result):
    """A comparable form of any read endpoint's answer: search hits and
    lineage edges keep their order (bit-identity), rows do not."""
    if kind in ("query", "sql"):
        return canonical_rows(result)
    if kind == "search":
        return [(h.instance, h.name, h.all_classes) for h in result.hits]
    return [(e.source, e.target, e.rule, e.condition) for e in result.edges]


def supervision_timings(monkeypatch, heartbeat=0.1, hang=5.0):
    """Set the supervisor's tick and hang limit for one test; returns the tick."""
    monkeypatch.setattr(supervisor, "HEARTBEAT_INTERVAL", heartbeat)
    monkeypatch.setattr(supervisor, "HANG_TIMEOUT", hang)
    return heartbeat


def breaker_settings(monkeypatch, threshold, cooldown=service.BREAKER_COOLDOWN):
    """Set the endpoint breakers' threshold and cooldown for one test."""
    monkeypatch.setattr(service, "BREAKER_THRESHOLD", threshold)
    monkeypatch.setattr(service, "BREAKER_COOLDOWN", cooldown)


def thread_service(mdw, **overrides):
    """A 2-shard gateway over unsupervised thread-mode shards."""
    base = dict(
        n_shards=2,
        workers_per_shard=1,
        worker_mode="thread",
        supervise=False,
    )
    base.update(overrides)
    return ShardedQueryService(mdw, ShardedConfig(**base))


def mint_instances(mdw, cls, shards_wanted, n_shards):
    """Instances whose routing hash lands on the requested shards.

    Probes candidate names with the :func:`shard_of` hash, so a test
    can make consecutive chain links hash to different shards — which
    the partitioner then overrides by placing the whole lineage
    component on one shard. Names grow with each pick, so the first
    item is its component's representative.
    """
    items, names = [], []
    k = 0
    for want in shards_wanted:
        while True:
            name = f"n{k:03d}"
            k += 1
            if shard_of(mdw.facts.namespace.term(name), n_shards) == want:
                items.append(mdw.facts.add_instance(name, cls))
                names.append(name)
                break
    return items, names


def direct_answers(mdw, ops):
    """Each op's canonical answer from a direct in-process dispatch."""
    return [canonical(op.kind, dispatch(mdw, op.kind, dict(op.payload))) for op in ops]


def served_answers(service, ops):
    """Each op's canonical answer from ``service``, one after another."""
    return [canonical(op.kind, service.execute(op.kind, **op.payload)) for op in ops]


def kill_storm(service, victim, ops, clients=3, kills=3):
    """Drive ``ops`` through ``service`` from ``clients`` threads while
    SIGKILLing the first live fork worker of ``victim`` ``kills`` times,
    50 ms apart, the way the OOM killer would. Returns how many kills
    landed and the canonical answers in op order; a failed request
    raises."""
    got = [None] * len(ops)
    with ThreadPoolExecutor(clients) as pool:
        lanes = [pool.submit(served_answers, service, ops[c::clients]) for c in range(clients)]
        landed = 0
        for _ in range(kills):
            pids = victim.worker_pids()
            if pids:
                try:
                    os.kill(pids[0], signal.SIGKILL)
                    landed += 1
                except ProcessLookupError:
                    pass  # reaped between the listing and the kill
            time.sleep(0.05)
        for c, lane in enumerate(lanes):
            got[c::clients] = lane.result(timeout=120)
    return landed, got


def wait_for(condition, timeout, message):
    """Poll ``condition`` every 5 ms; fail with ``message`` after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.005)

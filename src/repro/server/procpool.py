"""Fork-mode workers: one child process per worker thread.

Pure-Python query evaluation is CPU-bound, so thread workers cannot run
it in parallel — the interpreter lock serializes them. For throughput
scaling the service pairs each worker thread with a **forked child
process**: the child attaches the pinned snapshot's published ``.mdws``
file by ``mmap`` (no serialization of the model; the kernel shares the
page cache across every child), evaluates requests it receives over
one duplex pipe, and ships results back pickled on the same pipe. The
parent worker thread keeps owning admission, deadlines, and metrics
(the service's settlement); the child only computes.

The pipe is a plain ``Connection``: the owner thread ``send``s a
request and ``poll``s/``recv``s the reply, the child ``recv``s and
``send``s. No feeder thread runs on either side, so pickling happens in
the ``send`` call itself: a result or error that will not pickle raises
in the child, which answers with a typed :class:`QueryServiceError`
instead, and a request that will not pickle raises
:class:`UnpicklableRequest` in the parent before a byte is written.

Children are disposable by design:

* a deadline overrun or cancellation past the cooperative checks is
  enforced by killing the child and respawning it for the next request;
* a write republishes the snapshot, so each worker thread discards its
  child (attached to a superseded file) and forks a fresh one lazily.

Fork start method only (children inherit their pipe end and the armed
fault injector). On platforms without ``fork`` (Windows), use the
default thread mode.

Every child also maintains a **heartbeat watermark**: a shared double it
bumps when a request arrives and at every cooperative cancel check
inside evaluation (each BGP stage and every few thousand rows). The
process object's liveness answers "is it dead?"; the watermark answers
"is it stuck?" — a busy child whose watermark stops moving is hung
outside the cooperative check points, and the supervisor kills it so
the owner thread sees an ordinary :class:`WorkerLost` death.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.server.errors import (
    Cancelled,
    DeadlineExceeded,
    QueryServiceError,
    UnpicklableRequest,
    WorkerLost,
)

#: How often the parent polls the pipe while also watching the request's
#: cancel token and the child's liveness (seconds).
_POLL = 0.05


@dataclass
class _AttachSpec:
    """Everything a child needs to attach a published snapshot file.

    The child opens the file by ``mmap``: the kernel shares the page
    cache across every child, nothing is privatized by reference-count
    writes, and a respawn after a write epoch costs an attach
    (milliseconds).
    """

    path: str
    warehouse_type: type  # the parent's warehouse class, rebuilt in the child
    model: str
    schema_ns: object
    instance_ns: object

    def attach(self):
        from repro.storage import MappedSnapshot

        snap = MappedSnapshot.open(self.path)
        # () = keep every graph mapped and read-only: children only read
        store = snap.store(mutable_models=())
        return self.warehouse_type(
            model=self.model,
            store=store,
            schema_ns=self.schema_ns,
            instance_ns=self.instance_ns,
        )


def _child_extras(tracer, prof):
    """Observability payload shipped back with a response: the spans the
    child recorded (pid-qualified ids, so they graft into the parent's
    trace, when the request is traced) and the query-profile snapshot."""
    extras = {"profile": prof.snapshot()}
    if tracer is not None:
        extras["spans"] = tracer.drain()
    return extras


class _PulseToken:
    """A cancel token that bumps the heartbeat watermark on every check.

    The evaluator already calls ``token.check()`` at each join stage and
    every ``CHECK_STRIDE`` rows — exactly the cadence a progress
    watermark needs — so piggybacking on the cooperative cancellation
    hook adds one attribute store per check, nothing on the row loops.
    Built by composition (not subclassing) because ``CancelToken`` uses
    ``__slots__`` and the evaluator only ever calls these five members.
    """

    __slots__ = ("_inner", "_beat")

    def __init__(self, inner, beat):
        self._inner = inner
        self._beat = beat

    def check(self) -> None:
        self._beat()
        self._inner.check()

    @property
    def cancelled(self) -> bool:
        return self._inner.cancelled

    def cancel(self) -> None:
        self._inner.cancel()

    def elapsed(self) -> float:
        return self._inner.elapsed()

    def remaining(self):
        return self._inner.remaining()

    @property
    def timeout(self):
        return self._inner.timeout

    @property
    def expired(self) -> bool:
        return self._inner.expired


def _child_main(spec, dispatch, conn, heartbeat=None) -> None:
    """The forked child's request loop.

    ``spec`` names the published snapshot file the child attaches;
    ``dispatch(warehouse, kind, payload)`` runs each request on it. The
    parent's locks may have been held by unrelated threads at fork
    time, so every lock-bearing structure the child touches is created
    fresh here. (The metrics registry reinstalls its own locks through
    ``os.register_at_fork``.)

    Each request message carries the parent's trace context; the
    child traces/profiles locally and ships the
    spans and profile snapshot back in the response — the parent's
    tracer adopts them, so span parentage survives the process hop.

    ``heartbeat`` is the shared progress watermark (a raw double): it
    is bumped when a request arrives, at every cooperative cancel check
    during evaluation, and when the response ships. A supervisor reads
    its age to distinguish a busy child from a hung one.
    """
    from contextlib import ExitStack

    from repro.obs.profile import QueryProfile, profile_scope
    from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
    from repro.resilience import faults
    from repro.sparql.cancel import CancelToken, cancel_scope
    from repro.sparql.plancache import PlanCache
    import repro.sparql.expressions as _expressions

    _expressions._REGEX_CACHE_LOCK = threading.Lock()
    warehouse = spec.attach()
    warehouse.plan_cache = PlanCache()

    if heartbeat is not None:
        def _beat():
            heartbeat.value = time.monotonic()
    else:
        def _beat():
            pass

    while True:
        try:
            message = conn.recv()
        except EOFError:  # the parent closed its end
            break
        if message is None:
            break
        _beat()
        try:
            # fault sites for the supervision tests: ``worker.crash``
            # dies the way a segfault would (no cleanup, no goodbye on
            # the pipe), ``worker.hang`` (delay mode) stalls the child
            # outside any cooperative check so the watermark goes stale
            faults.fire("worker.crash")
        except BaseException:
            os._exit(70)
        faults.fire("worker.hang")
        kind, payload, budget, trace_ctx = message
        token = _PulseToken(CancelToken(timeout=budget), _beat)
        tracer = None
        if trace_ctx is not None:
            tracer = Tracer()
            install_tracer(tracer)
        prof = QueryProfile()
        try:
            with ExitStack() as stack:
                stack.enter_context(cancel_scope(token))
                stack.enter_context(profile_scope(prof))
                if tracer is not None:
                    # the bridge span: parents this process's spans to
                    # the request span in the serving process
                    stack.enter_context(
                        tracer.span("fork-dispatch", "service", parent=trace_ctx)
                    )
                result = dispatch(warehouse, kind, payload)
        except BaseException as exc:
            if tracer is not None:
                uninstall_tracer()
            extras = _child_extras(tracer, prof)
            try:
                conn.send((False, exc, extras))
            except Exception:
                # the error itself would not pickle; degrade to a typed
                # service error carrying its repr
                conn.send((False, QueryServiceError(repr(exc)), None))
            continue
        if tracer is not None:
            uninstall_tracer()
        extras = _child_extras(tracer, prof)
        _beat()
        try:
            conn.send((True, result, extras))
        except Exception as exc:
            conn.send((False, QueryServiceError(f"unpicklable result: {exc!r}"), None))


class ForkWorker:
    """One forked child plus the duplex pipe to talk to it.

    Owned by exactly one parent worker thread; not itself thread-safe.
    ``generation`` records which snapshot the child attached, so the
    owner can detect staleness after a write and respawn. The snapshot
    must have been published to a file (``snapshot.storage_path``).
    ``dispatch`` is the request runner the child calls
    (:func:`repro.server.service.dispatch`).
    """

    def __init__(self, snapshot, dispatch, name: str = "mdw"):
        if snapshot.storage_path is None:
            raise ValueError("a fork worker attaches a published snapshot file")
        ctx = multiprocessing.get_context("fork")
        self.generation = snapshot.generation
        mdw = snapshot.warehouse
        spec = _AttachSpec(
            path=str(snapshot.storage_path),
            warehouse_type=type(mdw),
            model=mdw.model_name,
            schema_ns=mdw.schema.namespace,
            instance_ns=mdw.facts.namespace,
        )
        self._conn, child_conn = ctx.Pipe()
        # the progress watermark: single writer (the child), readers only
        # in the parent — a raw shared double, no lock on the hot path
        self._heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        self._process = ctx.Process(
            target=_child_main,
            args=(spec, dispatch, child_conn, self._heartbeat),
            name=f"{name}-forked",
            daemon=True,
        )
        self._process.start()
        # only the child may hold its end: a dead child then reads as EOF
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def exitcode(self) -> Optional[int]:
        return self._process.exitcode

    def heartbeat_age(self) -> float:
        """Seconds since the child last proved progress.

        Only meaningful while the child is busy: an idle child blocks in
        its pipe ``recv`` and legitimately stops bumping.
        """
        return time.monotonic() - self._heartbeat.value

    def kill_child(self) -> None:
        """SIGKILL the child without touching the pipe.

        The supervisor's hammer for hung children. Pipe teardown stays
        with the owner thread (:meth:`run` / :meth:`stop`): it is the
        sole user of the pipe, so the kill is safe from any thread.
        """
        try:
            self._process.kill()
        except (OSError, AttributeError):  # already gone
            pass

    def run(self, request, extras_sink):
        """Execute one request in the child; enforce deadline/cancel.

        The worker contract every slot worker shares (see
        :class:`~repro.server.service.InProcessWorker`).

        Cooperative checks inside the child normally raise first; if the
        child blows past the budget anyway (stuck outside a check
        point), the parent kills it and raises the same typed error the
        cooperative path would have. A child that *dies* mid-request —
        SIGKILLed, crashed, pipe torn mid-pickle — surfaces as a typed
        :class:`WorkerLost` carrying the request id, never as a raw
        ``EOFError``/broken pipe.

        ``extras_sink`` receives the child's observability payload
        (spans, profile) rather than it being absorbed into the process
        immediately, so requeued or superseded dispatch grafts only the
        *winning* attempt's spans: the settlement absorbs the sink after
        the exactly-once claim succeeds, and a losing attempt's payload
        is simply dropped with its sink.
        """
        from repro.obs.trace import capture

        token = request.token
        # capture() here (not request.trace_ctx): run() executes inside
        # the worker's request span, so the child's spans nest under it
        conn = self._conn
        try:
            conn.send((request.kind, request.payload, token.remaining(), capture()))
        except OSError as exc:
            # the pipe is gone (the child died and its end closed)
            self._kill()
            raise WorkerLost(
                request.request_id, self._process.exitcode, detail=repr(exc)
            ) from None
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # send pickles the whole message before writing a byte, so
            # the pipe is still clean and the child keeps serving
            raise UnpicklableRequest(f"request will not pickle: {exc}") from None
        while True:
            try:
                if conn.poll(_POLL):
                    ok, value, extras = conn.recv()
                    break
            except (EOFError, OSError, pickle.UnpicklingError) as exc:
                # the child died (mid-send, or with the pipe empty): EOF
                # or a truncated pickle, same verdict as a clean death
                exitcode = self._process.exitcode
                self._kill()
                raise WorkerLost(
                    request.request_id, exitcode, detail=repr(exc)
                ) from None
            if token.cancelled:
                self._kill()
                raise Cancelled()
            remaining = token.remaining()
            if remaining is not None and remaining < -(token.timeout * 0.2 + 0.05):
                # grace past the deadline for the child's own
                # cooperative DeadlineExceeded to arrive first
                self._kill()
                raise DeadlineExceeded(token.timeout, token.elapsed())
            # a sibling forked before ``child_conn.close()`` holds a copy
            # of the child's end, so a death need not read as EOF
            if not self._process.is_alive() and not conn.poll():
                exitcode = self._process.exitcode
                self._kill()
                raise WorkerLost(request.request_id, exitcode)
        if extras:
            extras_sink.append(extras)
        if ok:
            return value
        raise value

    def stop(self, grace: float = 2.0) -> None:
        """Shut the child down, forcefully after ``grace`` seconds."""
        if self._process.is_alive():
            try:
                self._conn.send(None)
            except OSError:
                pass
            self._process.join(timeout=grace)
        self._kill()

    def _kill(self) -> None:
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=2.0)
        self._conn.close()

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<ForkWorker generation={self.generation} {state}>"

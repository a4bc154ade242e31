"""Typed errors of the concurrent query service.

Admission control and deadline enforcement communicate through these
instead of blocking: a full queue raises :class:`Overloaded` immediately
(carrying the depth the caller hit, so clients can back off
proportionally), and an overrun deadline raises
:class:`~repro.sparql.cancel.DeadlineExceeded` — re-exported here so
service callers need only this module.

All errors pickle cleanly: fork-mode workers ship them back to the
parent process verbatim.
"""

from __future__ import annotations

from repro.errors import InvalidRequest
from repro.sparql.cancel import Cancelled, DeadlineExceeded


class QueryServiceError(Exception):
    """Base class of every service-layer error."""


class UnknownItem(QueryServiceError, InvalidRequest):
    """A lineage request names an item no ``dm:hasName`` value matches."""


def is_request_error(exc: BaseException) -> bool:
    """True when ``exc`` is the request's own fault, not the endpoint's.

    An :class:`~repro.errors.InvalidRequest` — bad syntax, an unknown
    class or item, an option outside its domain — fails the same way on
    every healthy node, and a caller's cancel says nothing about the
    endpoint either. A deadline overrun is not the request's fault
    (``DeadlineExceeded`` subclasses ``Cancelled``, so it is excluded
    first), and neither is anything else. The worker pool's endpoint
    breakers and the gateway's scatter both decide with this.
    """
    if isinstance(exc, DeadlineExceeded):
        return False
    return isinstance(exc, (InvalidRequest, Cancelled))


class Overloaded(QueryServiceError):
    """The admission queue is full; the request was rejected, not queued.

    ``queue_depth`` is the number of requests waiting when the
    rejection happened, ``max_queue`` the configured bound. The service
    never blocks a submitter: rejecting with the depth attached lets a
    client implement load shedding or exponential backoff.
    """

    def __init__(self, queue_depth: int, max_queue: int):
        super().__init__(
            f"admission queue full ({queue_depth}/{max_queue} waiting); "
            "retry with backoff"
        )
        self.queue_depth = queue_depth
        self.max_queue = max_queue

    def __reduce__(self):
        return (Overloaded, (self.queue_depth, self.max_queue))


class ServiceClosed(QueryServiceError):
    """The service is shut down (or shutting down) and takes no work."""

    def __init__(self, message: str = "query service is closed"):
        super().__init__(message)

    def __reduce__(self):
        return (ServiceClosed, (str(self),))


class WorkerLost(QueryServiceError):
    """A fork-mode worker process died while executing a request.

    Before this error existed, a child killed mid-request surfaced as an
    opaque ``EOFError`` / broken pipe from the child's pipe. Now the
    parent maps every symptom of a dead child — the liveness check, a
    truncated pickle, a closed pipe — to this one typed error carrying
    the ``request_id`` it was executing (for slow-query-log attribution)
    and the child's ``exitcode`` (``-9`` for a SIGKILL).

    Under supervision the caller never sees it: the supervisor requeues
    the request onto a respawned worker (up to the configured attempt
    budget, then an in-process fallback answers it flagged degraded).
    Without supervision it travels to the caller as the typed verdict.
    """

    def __init__(self, request_id: str, exitcode=None, detail: str = ""):
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"forked worker died executing {request_id} "
            f"(exit code {exitcode}){suffix}"
        )
        self.request_id = request_id
        self.exitcode = exitcode
        self.detail = detail

    def __reduce__(self):
        return (WorkerLost, (self.request_id, self.exitcode, self.detail))


class CircuitOpen(QueryServiceError):
    """The endpoint's circuit breaker is open; the request was shed.

    ``kind`` names the unhealthy endpoint and ``retry_after`` is the
    seconds until the breaker's next half-open probe window — clients
    should back off at least that long instead of hammering a known-sick
    endpoint (the whole point of the breaker).
    """

    def __init__(self, kind: str, retry_after: float):
        super().__init__(
            f"circuit open for {kind!r}; retry after {retry_after:.1f}s"
        )
        self.kind = kind
        self.retry_after = retry_after

    def __reduce__(self):
        return (CircuitOpen, (self.kind, self.retry_after))


__all__ = [
    "Cancelled",
    "CircuitOpen",
    "DeadlineExceeded",
    "Overloaded",
    "QueryServiceError",
    "ServiceClosed",
    "UnknownItem",
    "WorkerLost",
    "is_request_error",
]

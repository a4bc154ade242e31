"""Per-endpoint circuit breakers for the serving tier.

When an endpoint starts failing repeatedly — a poisoned query template,
an exhausted worker, an injected fault storm — continuing to accept
traffic for it just burns workers that healthy endpoints need. The
breaker trips **open** after N consecutive failures, sheds that
endpoint's load instantly (callers get a typed error with a
retry-after), and after a cooldown lets a limited number of **half-open
probes** through; one probe success closes the circuit, one failure
re-opens it.

The clock is injectable: the state machine is tested under a fake clock
with zero real waiting.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

from repro.obs.registry import get_registry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


def _note_transition(name: str, to: str, shard: str = "") -> None:
    """Record a state transition in the process-global registry and
    the operational event journal.

    Transitions are rare by construction (trips need ``threshold``
    consecutive failures; recoveries need a cooldown), so this never
    shows up on the request hot path. Called outside the breaker lock.
    """
    get_registry().counter(
        "mdw_breaker_transitions_total",
        "Circuit-breaker state transitions, by breaker and target state",
        labels=("name", "to", "shard"),
    ).inc(name=name, to=to, shard=shard)
    from repro.obs.journal import get_journal

    get_journal().record(
        "breaker",
        severity="warning" if to == OPEN else "info",
        shard=shard,
        breaker=name,
        to=to,
    )


class CircuitBreaker:
    """A consecutive-failures breaker with half-open probing.

    ``allow()`` is the admission gate: True admits the call, False means
    shed it. The caller reports the outcome with ``on_success()`` /
    ``on_failure()``; only *service-fault* outcomes should be reported
    (a user's syntax error is not the endpoint's ill health).
    """

    def __init__(
        self,
        name: str,
        threshold: int = 5,
        cooldown: float = 30.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        shard: str = "",
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        #: metric label: which shard this breaker guards ("" unsharded)
        self.shard = shard
        self.threshold = threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._opens = 0      # lifetime count of trips
        self._shed = 0       # calls rejected while open

    # -- admission ---------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?

        Transitions open → half-open once the cooldown has elapsed and
        reserves a probe slot; while half-open, at most
        ``half_open_probes`` calls are admitted concurrently.
        """
        probing = False
        try:
            with self._lock:
                if self._state == CLOSED:
                    return True
                if self._state == OPEN:
                    if self._clock() - self._opened_at < self.cooldown:
                        self._shed += 1
                        return False
                    self._state = HALF_OPEN
                    self._probes_in_flight = 0
                    probing = True
                # half-open: ration the probes
                if self._probes_in_flight >= self.half_open_probes:
                    self._shed += 1
                    return False
                self._probes_in_flight += 1
                return True
        finally:
            if probing:
                _note_transition(self.name, HALF_OPEN, self.shard)

    def retry_after(self) -> float:
        """Seconds until the next half-open probe window (0 when closed)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    # -- outcomes ----------------------------------------------------------

    def on_success(self) -> None:
        closed = False
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._probes_in_flight = 0
                closed = True
            self._consecutive_failures = 0
        if closed:
            _note_transition(self.name, CLOSED, self.shard)

    def on_failure(self) -> None:
        tripped = False
        with self._lock:
            if self._state == HALF_OPEN:
                # the probe failed: straight back to open, cooldown restarts
                self._trip()
                tripped = True
            else:
                self._consecutive_failures += 1
                if (
                    self._state == CLOSED
                    and self._consecutive_failures >= self.threshold
                ):
                    self._trip()
                    tripped = True
        if tripped:
            _note_transition(self.name, OPEN, self.shard)

    def release(self) -> None:
        """Give back an ``allow()`` admission without recording an outcome.

        For callers whose admitted request dies before it runs (e.g.
        the admission queue turned out to be full): the half-open probe
        slot is returned so the next caller can still probe.
        """
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._opens += 1
        self._probes_in_flight = 0
        self._consecutive_failures = 0

    # -- introspection -----------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self.cooldown
            ):
                return HALF_OPEN  # would admit a probe on the next allow()
            return self._state

    def snapshot(self) -> Dict[str, object]:
        state = self.state  # computes the would-be-half-open view
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "opens": self._opens,
                "shed": self._shed,
                "retry_after": (
                    max(0.0, self.cooldown - (self._clock() - self._opened_at))
                    if self._state == OPEN
                    else 0.0
                ),
            }

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name!r} {self.state}>"

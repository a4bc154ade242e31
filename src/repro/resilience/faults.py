"""Deterministic fault injection.

A production warehouse is hardened by *rehearsing* its failures, not by
hoping they stay rare. This module gives the reproduction named **fault
points** — hooks compiled into the load and serving paths — and a
:class:`FaultInjector` that can raise, delay, or corrupt at any of
them. A plan fires on an exact hit count (``skip``, ``times``), so
every crash a test provokes lands at the same place on every run.

The hooks cost nothing when no injector is installed (one global ``is
None`` check), so they stay in the production code path permanently —
the sites the tests kill at are the sites production code passes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import get_registry

#: The fault-point catalog: every named site the injector can hit.
#: (Also rendered in docs/resilience.md — keep the two in sync.)
FAULT_POINTS: Dict[str, str] = {
    "staging.stage": "while transforming one source document into staging rows",
    "snapshot.publish": "while publishing a fresh read snapshot",
    "snapshot.save": "mid snapshot-file save, after fsync, before the atomic rename",
    "snapshot.attach": "while opening (mmap + validate) a snapshot file",
    "worker.execute": "inside a query-service worker, before dispatch",
    "worker.crash": "inside a fork-mode child, before dispatch (hard os._exit)",
    "worker.hang": "inside a fork-mode child, before dispatch (delay = stuck child)",
    "supervisor.respawn": "in the supervisor, before reaping/respawning a worker",
    "release.apply": "before applying a release delta to the live model",
    "index.refresh": "while (re)building an entailment index",
    "index.staleness": "override the entailment-index staleness verdict",
    "etl.validate": "before post-load graph validation",
}


def _fired_counter():
    """The process-global fault-activation counter family.

    Resolved through :func:`get_registry` on every (rare) activation so
    a fork-reinitialised or test-swapped registry is always the one
    being incremented.
    """
    return get_registry().counter(
        "mdw_fault_injections_total",
        "Fault-injection plans fired, by site and mode",
        labels=("site", "mode"),
    )


class InjectedFault(RuntimeError):
    """The error an armed ``raise`` fault point throws.

    Deliberately *not* a subclass of any domain error: production code
    must survive it the way it survives a segfaulting worker or a pulled
    plug — via re-running the load and the breakers, not via ``except`` clauses
    written for business errors.
    """

    def __init__(self, site: str, message: Optional[str] = None):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")

    def __reduce__(self):
        return (InjectedFault, (self.site, str(self)))


class FaultPlan:
    """One armed site: what to do and how often."""

    __slots__ = ("site", "mode", "remaining", "skip", "delay", "value", "error")

    def __init__(
        self,
        site: str,
        mode: str,
        times: Optional[int] = None,
        skip: int = 0,
        delay: float = 0.0,
        value: object = None,
        error: Optional[Callable[[], BaseException]] = None,
    ):
        if mode not in ("raise", "delay", "corrupt"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if skip < 0:
            raise ValueError("skip must be >= 0")
        self.site = site
        self.mode = mode
        self.remaining = times  # None = unlimited
        self.skip = skip        # hits to let through before firing
        self.delay = delay
        self.value = value
        self.error = error


class FaultInjector:
    """A registry of armed fault points.

    >>> inj = FaultInjector()
    >>> inj.arm("staging.stage", "raise", times=1, skip=2)
    >>> # the third document the load stages, it crashes

    Modes:

    * ``raise`` — throw :class:`InjectedFault` (or ``error()`` when an
      exception factory was supplied);
    * ``delay`` — sleep ``delay`` seconds (through the injectable
      ``sleep``, so tests stay fast);
    * ``corrupt`` — return ``value`` instead of the site's real payload
      (``value`` may be a callable applied to the payload).

    ``times`` bounds firings and ``skip`` ignores the first N hits, so a
    test can kill at the *k-th* document, not just the first.
    """

    def __init__(self, sleep: Callable[[float], None] = time.sleep):
        self._sleep = sleep
        self._lock = threading.Lock()
        self._plans: Dict[str, FaultPlan] = {}
        self._hits: Dict[str, int] = {}
        self.history: List[Tuple[str, str]] = []  # (site, mode) actually fired

    # -- arming ------------------------------------------------------------

    def arm(
        self,
        site: str,
        mode: str = "raise",
        *,
        times: Optional[int] = None,
        skip: int = 0,
        delay: float = 0.0,
        value: object = None,
        error: Optional[Callable[[], BaseException]] = None,
    ) -> None:
        """Arm one site; re-arming replaces the previous plan."""
        if site not in FAULT_POINTS:
            raise KeyError(
                f"unknown fault point {site!r}; catalog: {sorted(FAULT_POINTS)}"
            )
        plan = FaultPlan(
            site, mode, times=times, skip=skip, delay=delay, value=value, error=error
        )
        with self._lock:
            self._plans[site] = plan

    def disarm(self, site: Optional[str] = None) -> None:
        """Disarm one site, or every site when ``site`` is None."""
        with self._lock:
            if site is None:
                self._plans.clear()
            else:
                self._plans.pop(site, None)

    def armed(self, site: str) -> bool:
        with self._lock:
            return site in self._plans

    # -- firing ------------------------------------------------------------

    def fire(self, site: str, value: object = None) -> object:
        """Hit ``site``: maybe raise/delay/corrupt; returns the payload."""
        with self._lock:
            self._hits[site] = self._hits.get(site, 0) + 1
            plan = self._plans.get(site)
            if plan is None:
                return value
            if plan.skip > 0:
                plan.skip -= 1
                return value
            if plan.remaining is not None and plan.remaining <= 0:
                return value
            if plan.remaining is not None:
                plan.remaining -= 1
            self.history.append((site, plan.mode))
            mode, delay = plan.mode, plan.delay
            corrupt, error = plan.value, plan.error
        # only reached when a plan actually fired — rare by construction,
        # so a registry bump here never touches the unfaulted hot path
        _fired_counter().inc(site=site, mode=mode)
        if mode == "raise":
            raise error() if error is not None else InjectedFault(site)
        if mode == "delay":
            self._sleep(delay)
            return value
        # corrupt
        if callable(corrupt):
            return corrupt(value)
        return corrupt

    def hits(self, site: str) -> int:
        """Times ``site`` was reached (fired or not) since construction."""
        with self._lock:
            return self._hits.get(site, 0)

    def fired(self, site: Optional[str] = None) -> int:
        """Times a plan actually fired (at ``site``, or anywhere)."""
        with self._lock:
            if site is None:
                return len(self.history)
            return sum(1 for s, _ in self.history if s == site)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<FaultInjector armed={sorted(self._plans)} "
                f"fired={len(self.history)}>"
            )


# -- the ambient injector ----------------------------------------------------
#
# Production code calls the module-level ``fire``; when nothing is
# installed it is a single attribute load and None check. The injector
# is process-global on purpose: a test must reach the fault points of
# every worker thread (and, across fork, every child), not just its own.

_active: Optional[FaultInjector] = None


@contextmanager
def fault_scope(injector: FaultInjector):
    """Install ``injector`` for the duration of the block (test helper)."""
    global _active
    previous = _active
    _active = injector
    try:
        yield injector
    finally:
        _active = previous


def fire(site: str, value: object = None) -> object:
    """Hit a fault point on the ambient injector (no-op when none)."""
    injector = _active
    if injector is None:
        return value
    return injector.fire(site, value)

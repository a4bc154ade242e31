"""Entailment-index lifecycle over a :class:`TripleStore`.

Building an index computes the derived-only closure of a model and
attaches it under the rulebase name; queries opt in via
``SEM_RULEBASES`` (Section III.B of the paper). The manager tracks
staleness so a release load can refresh only what changed.

Staleness is tracked *incrementally*: per (model, rulebase) pair a
:class:`DeltaTracker` subscribes to the model graph's change events and
nets effective adds/removes since the index was last built or
maintained. ``is_stale`` is then an O(1) check of the netted delta
(a compensating add/remove pair correctly reads as *fresh* — the old
size fingerprint missed that), and ``refresh`` — the one maintenance
entry point — hands the netted delta to DRed maintenance
(:func:`~repro.reasoning.engine.maintain_closure`) instead of falling
back to a full ``closure()`` whenever a prior index exists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.trace import span
from repro.rdf.graph import Graph, IdTriple
from repro.rdf.store import TripleStore
from repro.reasoning.engine import (
    InferenceReport,
    closure,
    maintain_closure,
)
from repro.reasoning.rulebase import get_rulebase
from repro.resilience import faults

#: Netted deltas larger than ``max(_TRACKER_MIN_LIMIT, len(model))`` stop
#: being tracked triple-by-triple: at that churn a full rebuild is the
#: faster maintenance strategy anyway, so the tracker declares overflow.
_TRACKER_MIN_LIMIT = 4096


class DeltaTracker:
    """Nets a model graph's effective changes since the last mark.

    Subscribes to the graph's change notifications. Because the graph
    only notifies *effective* changes, events on one triple strictly
    alternate (add, remove, add, ...), so an even number of events nets
    to nothing — the tracker's dictionary holds exactly the id triples
    whose membership differs from the marked state.
    """

    __slots__ = ("_graph", "_net", "_overflown", "_limit")

    def __init__(self, graph: Graph):
        self._graph = graph
        self._net: Dict[IdTriple, str] = {}
        self._overflown = False
        self._limit = max(_TRACKER_MIN_LIMIT, len(graph))
        graph.subscribe(self._on_change)

    def close(self) -> None:
        self._graph.unsubscribe(self._on_change)

    def _on_change(self, action: str, s: int, p: int, o: int) -> None:
        if self._overflown:
            return
        sign = "+" if action == "add" else "-"
        row = (s, p, o)
        previous = self._net.pop(row, None)
        if previous is None:
            self._net[row] = sign
            if len(self._net) > self._limit:
                self._overflown = True
                self._net.clear()
        elif previous == sign:
            # impossible for effective events; declare defeat defensively
            self._overflown = True
            self._net.clear()

    @property
    def dirty(self) -> bool:
        """True when the graph's content differs from the marked state."""
        return self._overflown or bool(self._net)

    @property
    def overflown(self) -> bool:
        return self._overflown

    def peek(self) -> Tuple[List[IdTriple], List[IdTriple]]:
        """(added, removed) id triples since the mark, without consuming
        them."""
        added = [row for row, sign in self._net.items() if sign == "+"]
        removed = [row for row, sign in self._net.items() if sign == "-"]
        return added, removed

    def mark(self) -> None:
        """Declare the current graph state the new baseline."""
        self._net.clear()
        self._overflown = False
        self._limit = max(_TRACKER_MIN_LIMIT, len(self._graph))

    def __repr__(self) -> str:
        state = "overflown" if self._overflown else f"net={len(self._net)}"
        return f"<DeltaTracker {self._graph.name!r} {state}>"


def build_entailment_index(
    store: TripleStore, model: str, rulebase: str = "OWLPRIME"
) -> InferenceReport:
    """Build (or rebuild) the entailment index of ``model``.

    ``rulebase`` is resolved through the rulebase registry. Returns the
    inference report; the derived triples are attached to the store.
    """
    with span("index.build", "reasoning", model=model, rulebase=rulebase):
        faults.fire("index.refresh")
        rb = get_rulebase(rulebase)
        derived, report = closure(store.model(model), rb)
        store.attach_index(model, rb.name, derived)
    return report


class EntailmentIndexManager:
    """Tracks index freshness per (model, rulebase) pair.

    The store's models keep evolving between release loads; each built
    index carries a :class:`DeltaTracker` on its model, so staleness is
    answered in O(1) from the netted delta and refreshes run DRed
    maintenance over exactly those triples. A tracker that overflowed
    (delta comparable to the model itself) falls back to a full rebuild
    — at that churn the rebuild is the cheaper maintenance anyway.
    """

    def __init__(self, store: TripleStore):
        self._store = store
        self._trackers: Dict[Tuple[str, str], DeltaTracker] = {}
        # indexes already attached (a persisted store was saved with
        # model and index in one atomic pass, so they open consistent)
        # are fresh by construction; without this seed every restart
        # would report them stale and health() would cry degraded
        for key in store.index_names():
            self._trackers[key] = DeltaTracker(store.model(key[0]))

    def build(self, model: str, rulebase: str = "OWLPRIME") -> InferenceReport:
        report = build_entailment_index(self._store, model, rulebase)
        tracker = self._trackers.get((model, rulebase))
        if tracker is None:
            self._trackers[(model, rulebase)] = DeltaTracker(self._store.model(model))
        else:
            tracker.mark()
        return report

    def is_stale(self, model: str, rulebase: str = "OWLPRIME") -> bool:
        tracker = self._trackers.get((model, rulebase))
        stale = True if tracker is None else tracker.dirty
        # an armed injector can corrupt this verdict (force-stale) to
        # rehearse degraded-mode serving without mutating the model
        return bool(faults.fire("index.staleness", stale))

    def refresh(self, model: str, rulebase: str = "OWLPRIME") -> Optional[InferenceReport]:
        """Bring the index up to date; returns None when already fresh.

        With a prior index and a tracked delta this is DRed maintenance
        over the netted adds/removes — never a full ``closure()``. A
        missing index, untracked model, or overflown tracker rebuilds.
        """
        if not self.is_stale(model, rulebase):
            return None
        key = (model, rulebase)
        tracker = self._trackers.get(key)
        rb = get_rulebase(rulebase)
        derived = self._store.index(model, rb.name)
        if derived is None or tracker is None or tracker.overflown:
            return self.build(model, rulebase)
        added, removed = tracker.peek()
        # an index that arrived read-only (mapped snapshot, frozen copy)
        # must become writable before DRed maintenance mutates it; the
        # re-attach below registers the writable replacement
        if not isinstance(derived, Graph) or derived.frozen:
            derived = derived.copy()
        base = self._store.model(model)
        with span("index.refresh", "reasoning", model=model, rulebase=rulebase):
            faults.fire("index.refresh")
            try:
                report = maintain_closure(base, derived, added, removed, rb)
            except BaseException:
                # a fault (or bug) mid-maintenance leaves the index torn:
                # poison the tracker so the next refresh rebuilds from scratch
                tracker._overflown = True
                tracker._net.clear()
                raise
        tracker.mark()
        # re-attach to refresh the store's disjointness stamp (the index
        # object is unchanged; only its base-generation bookkeeping moves)
        self._store.attach_index(model, rb.name, derived)
        return report

    def rulebases(self, model: str) -> List[str]:
        """The rulebases indexed over ``model``: built through this
        manager or attached to the store (an attached index the manager
        never tracked reads stale, so a refresh rebuilds it)."""
        names = {rulebase for m, rulebase in self._trackers if m == model}
        names.update(rulebase for _, rulebase in self._store.index_names(model))
        return sorted(names)

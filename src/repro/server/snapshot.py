"""Snapshot-isolated reads versus writes for one warehouse.

The productive MDW serves analysts' searches while release loads land.
This module gives the reproduction the same property without a real
MVCC storage engine, by exploiting how the warehouse is used: reads are
frequent and short, writes are rare batches (SPARQL Update, ETL loads).

The coordinator keeps a **published snapshot** — a frozen, generation-
stamped copy of the model (plus its entailment indexes) wrapped in a
read-only :class:`~repro.core.MetadataWarehouse` facade. Readers *pin*
whatever snapshot is current when they start and keep using it for
their whole query; they never touch the live graph. Writers serialize
through an exclusive lock, mutate the live warehouse in place, and then
publish a fresh copy as the next snapshot. A reader that started before
the write keeps its old frozen graph — bit-identical results, no torn
indexes — while later readers see the new state. Old snapshots are
reclaimed by the garbage collector once the last pin drops.

Publication is **copy-on-write** (:meth:`repro.rdf.Graph.cow_copy`):
capturing a snapshot shallow-copies only the outer index dicts of the
model and its entailment indexes, sharing the inner structures with the
live graph. The snapshot side is frozen, so only the live side ever
privatizes — and only the subtrees the *next* delta touches. Republish
cost after an incremental release load is therefore proportional to the
delta, not the model, and happens once per write *epoch*, not per
triple.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.obs.trace import span
from repro.rdf.store import TripleStore
from repro.resilience import faults


class Snapshot:
    """One immutable, generation-stamped image of a warehouse model.

    ``warehouse`` is a read-only facade over the frozen copy — its
    ``query`` / ``search`` / ``lineage`` / ``sem_sql`` behave exactly
    like the live warehouse's, answering as of the stamp. ``generation``
    numbers the manager's publications: it advances whenever the live
    model or any entailment index over it changed, so two snapshots with
    equal generations hold bit-identical triples and indexes.
    """

    __slots__ = (
        "warehouse",
        "generation",
        "rulebases",
        "created_at",
        "storage_path",
        "_pins",
        "_pin_lock",
    )

    def __init__(
        self,
        warehouse,
        generation: int,
        rulebases: Tuple[str, ...],
        storage_path=None,
    ):
        self.warehouse = warehouse
        self.generation = generation
        self.rulebases = rulebases
        self.created_at = time.time()
        # when the manager publishes to disk, the snapshot file backing
        # this image — the file fork workers attach
        self.storage_path = storage_path
        self._pins = 0
        self._pin_lock = threading.Lock()

    @property
    def pins(self) -> int:
        """Readers currently holding this snapshot."""
        return self._pins

    def _pin(self) -> None:
        with self._pin_lock:
            self._pins += 1

    def _unpin(self) -> None:
        with self._pin_lock:
            self._pins -= 1

    def __repr__(self) -> str:
        return (
            f"<Snapshot generation={self.generation} "
            f"triples={len(self.warehouse.graph)} pins={self._pins}>"
        )


def _stamp(graphs) -> Tuple:
    """``(id, generation)`` per graph: equal stamps over live graphs mean
    the same objects, none mutated since."""
    return tuple((id(g), g.generation) for g in graphs)


class SnapshotManager:
    """The read-write coordinator over one live warehouse.

    Readers::

        with manager.read() as snap:
            rows = snap.warehouse.query(text)

    Writers::

        manager.update("INSERT DATA { ... }")      # SPARQL Update
        manager.write(lambda mdw: mdw.facts.add_instance(...))

    Writes apply to the live warehouse under an exclusive lock and then
    republish; anything mutating the live graph or its indexes *outside*
    the manager must call :meth:`refresh` afterwards (cheap no-op when
    nothing changed).

    A write republishes when it changed what a snapshot captures: the
    live model or any entailment index attached to it. The manager
    stamps each capture with ``(id, generation)`` per captured graph —
    the stamp :attr:`repro.rdf.graph.GraphView.generation` keys caches
    on. An index rebuilt (a new graph) or maintained in place (a new
    generation) is published like a model write.
    """

    def __init__(self, warehouse, snapshot_dir=None):
        self._mdw = warehouse
        # when set, every publication also writes a binary snapshot file
        # (snapshot-<generation>.mdws) that fork workers attach
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self._write_lock = threading.RLock()
        self._publish_lock = threading.Lock()
        self._writes = 0
        self._publications = 0
        self._captured: Tuple = ()
        self._stamp: Tuple = ()
        self._current = self._capture()

    # -- capture / publish ---------------------------------------------------

    def _sources(self) -> List:
        """The live graphs a snapshot captures: the model, then each
        attached entailment index in rulebase order."""
        live = self._mdw
        return [live.graph] + [
            live.store.index(model, rulebase)
            for model, rulebase in live.store.index_names(live.model_name)
        ]

    def _changed(self) -> bool:
        return self._stamp != _stamp(self._sources())

    def _capture(self) -> Snapshot:
        """Freeze the live model (and its indexes) into a new snapshot."""
        with span("snapshot.publish", "service", generation=self._publications + 1):
            return self._capture_inner()

    def _capture_inner(self) -> Snapshot:
        faults.fire("snapshot.publish")
        live = self._mdw
        sources = self._sources()
        stamp = _stamp(sources)
        frozen_store = TripleStore()
        frozen = live.graph.cow_copy(name=live.model_name)
        frozen.freeze()
        frozen_store.adopt_model(live.model_name, frozen)
        rulebases: List[str] = []
        for (_, rulebase), derived in zip(
            live.store.index_names(live.model_name), sources[1:]
        ):
            # indexes are maintained in place by DRed maintenance, so
            # they must be captured like the model itself
            frozen_store.attach_index(live.model_name, rulebase, derived.cow_copy().freeze())
            rulebases.append(rulebase)
        facade = type(live)(
            model=live.model_name,
            store=frozen_store,
            schema_ns=live.schema.namespace,
            instance_ns=live.facts.namespace,
        )
        # readers share the live warehouse's (thread-safe) plan cache so
        # hot templates stay prepared across workers and snapshots
        facade.plan_cache = live.plan_cache
        self._publications += 1
        generation = self._publications
        storage_path = None
        if self._snapshot_dir is not None:
            from repro.storage import save_snapshot_store

            self._snapshot_dir.mkdir(parents=True, exist_ok=True)
            storage_path = self._snapshot_dir / f"snapshot-{generation}.mdws"
            save_snapshot_store(frozen_store, storage_path, generation=generation)
        # the captured graphs are held, never read: alive, their ids
        # cannot be reused by a later graph the stamp would mistake
        self._captured, self._stamp = sources, stamp
        return Snapshot(facade, generation, tuple(rulebases), storage_path=storage_path)

    def refresh(self) -> Snapshot:
        """Republish when the live model or an index over it changed
        out-of-band; returns the current snapshot either way."""
        with self._write_lock:
            if self._changed():
                fresh = self._capture()
                with self._publish_lock:
                    self._current = fresh
            return self._current

    # -- reading -------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._current.generation

    def pin(self) -> Snapshot:
        """Pin and return the current snapshot (pair with :meth:`release`)."""
        with self._publish_lock:
            snap = self._current
            snap._pin()
        return snap

    def release(self, snapshot: Snapshot) -> None:
        snapshot._unpin()

    @contextmanager
    def read(self):
        """Context-managed pin: the snapshot stays valid inside the block."""
        snap = self.pin()
        try:
            yield snap
        finally:
            self.release(snap)

    # -- writing -------------------------------------------------------------

    def write(self, fn: Callable, *args, **kwargs):
        """Apply ``fn(live_warehouse, *args, **kwargs)`` exclusively, then
        republish the snapshot. Returns ``fn``'s result."""
        with self._write_lock:
            result = fn(self._mdw, *args, **kwargs)
            self._writes += 1
            self.refresh()
            return result

    def update(self, text: str):
        """Run SPARQL Update against the live model and republish."""
        return self.write(lambda mdw: mdw.update(text))

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        current = self._current
        return {
            "generation": current.generation,
            "snapshot_triples": len(current.warehouse.graph),
            "snapshot_rulebases": list(current.rulebases),
            "active_pins": current.pins,
            "writes": self._writes,
            "publications": self._publications,
        }

    def __repr__(self) -> str:
        return f"<SnapshotManager generation={self.generation} writes={self._writes}>"

"""Snapshotting models into historization tables.

The historizer captures the *complete* current graph per release, as
the paper historizes each graph fully. Versions live in the same
:class:`TripleStore` under ``HIST_<name>`` model names, so historical
versions remain queryable through SEM_MATCH like any model.

In memory a version is a copy-on-write copy of the live model. On disk
the ``.mdws`` snapshot keeps the newest version in full and each older
one as a reverse delta against the next newer version
(:func:`repro.storage.save_snapshot_store`); attached, such a version is
one read-only layered graph that still answers in full. A historizer
over the reopened store re-registers them. ``MetadataWarehouse.as_of``
is the as-of query path over a version.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional

from repro.rdf.store import TripleStore

from repro.history.diff import VersionDiff, diff_graphs
from repro.history.version import Version


HIST_PREFIX = "HIST_"


def _natural_key(name: str):
    """Sort key treating digit runs numerically (R2 < R10)."""
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name)]


def version_models(model_names: Iterable[str]) -> List[str]:
    """The ``HIST_*`` names among ``model_names``, oldest first (digit
    runs compare as numbers: ``2009.R10`` follows ``2009.R2``). The
    snapshot writer saves each as a delta against the next one."""
    return sorted(
        (m for m in model_names if m.startswith(HIST_PREFIX)),
        key=lambda m: _natural_key(m[len(HIST_PREFIX):]),
    )


class HistorizationError(ValueError):
    """Invalid historization operation (duplicate name, unknown version)."""


class Historizer:
    """Manages the versioned history of one model in a store."""

    def __init__(self, store: TripleStore, model: str = "DWH_CURR"):
        self._store = store
        self._model = model
        self._versions: Dict[str, Version] = {}
        self._order: List[str] = []
        self._rehydrate()

    def _rehydrate(self) -> None:
        """Adopt historized models already present in the store.

        A reopened (persisted) store carries its ``HIST_*`` models; they
        are re-registered oldest first (:func:`version_models`).
        """
        for hist_model in version_models(self._store.model_names()):
            graph = self._store.model(hist_model)
            if not graph.frozen:
                graph.freeze()
            self._register(hist_model[len(HIST_PREFIX):], graph)

    def _register(self, name: str, graph) -> Version:
        version = Version(
            sequence=len(self._order) + 1,
            name=name,
            graph=graph,
            edge_count=len(graph),
            parent=self._order[-1] if self._order else None,
        )
        self._versions[name] = version
        self._order.append(name)
        return version

    @property
    def model(self) -> str:
        return self._model

    # -- snapshots -------------------------------------------------------

    def snapshot(self, name: str) -> Version:
        """Historize the current model completely under ``name``."""
        if not name:
            raise HistorizationError("version name must be non-empty")
        if name in self._versions:
            raise HistorizationError(f"version {name!r} already exists")
        current = self._store.model(self._model)
        hist_model = HIST_PREFIX + name
        # copy-on-write capture: O(distinct terms) instead of O(triples),
        # and the frozen side never privatizes — the live model pays a
        # small privatization cost only for subtrees the next release's
        # delta actually touches
        frozen = current.cow_copy(hist_model)
        frozen.freeze()
        self._store.adopt_model(hist_model, frozen)
        return self._register(name, frozen)

    # -- retrieval ----------------------------------------------------------

    def versions(self) -> List[Version]:
        """All versions, oldest first."""
        return [self._versions[n] for n in self._order]

    def version_names(self) -> List[str]:
        return list(self._order)

    def get(self, name: str) -> Version:
        try:
            return self._versions[name]
        except KeyError:
            raise HistorizationError(
                f"unknown version {name!r}; have {self._order}"
            ) from None

    def latest(self) -> Optional[Version]:
        return self._versions[self._order[-1]] if self._order else None

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._versions

    # -- comparisons -----------------------------------------------------------

    def diff(self, old: str, new: str) -> VersionDiff:
        """The delta between two historized versions."""
        return diff_graphs(self.get(old).graph, self.get(new).graph)

    def diff_to_current(self, name: str) -> VersionDiff:
        """The delta between a historized version and the live model."""
        return diff_graphs(self.get(name).graph, self._store.model(self._model))

    def growth_series(self) -> List[dict]:
        """Per-version sizes plus growth relative to the predecessor —
        the numbers behind the paper's 20–30 % yearly growth claim."""
        series = []
        previous = None
        for version in self.versions():
            entry = {
                "name": version.name,
                "nodes": version.graph.node_count(),
                "edges": version.edge_count,
                "edge_growth": None,
            }
            if previous is not None and previous.edge_count:
                entry["edge_growth"] = (
                    version.edge_count / previous.edge_count - 1.0
                )
            series.append(entry)
            previous = version
        return series

    def storage_cost(self) -> int:
        """Total historized triples (the price of full historization)."""
        return sum(v.edge_count for v in self.versions())

    def restore(self, name: str) -> None:
        """Replace the live model's content with a historized version.

        Delta-driven: only the triples that differ are touched, so
        change listeners (entailment delta trackers, the hierarchy cache)
        see the restore as a small release delta, not a full reload.
        """
        version = self.get(name)
        current = self._store.model(self._model)
        diff_graphs(current, version.graph).apply_in_place(current)

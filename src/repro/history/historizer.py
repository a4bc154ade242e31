"""Snapshotting models into historization tables.

The historizer copies the *complete* current graph per release — the
paper historizes each graph fully rather than storing deltas, trading
space for trivially correct as-of queries. Snapshots live in the same
:class:`TripleStore` under ``HIST_<name>`` model names, so historical
versions remain queryable through SEM_MATCH like any model.

In memory the copies are cheap (copy-on-write); a saved store carries
every version in its ``.mdws`` snapshot file, and a historizer over the
reopened store re-registers them. ``MetadataWarehouse.as_of(name)`` is
the as-of query path over a version.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.rdf.store import TripleStore

from repro.history.diff import VersionDiff, diff_graphs
from repro.history.version import Version


def _natural_key(name: str):
    """Sort key treating digit runs numerically (R2 < R10)."""
    import re

    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name)]


class HistorizationError(ValueError):
    """Invalid historization operation (duplicate name, unknown version)."""


class Historizer:
    """Manages the versioned history of one model in a store."""

    HIST_PREFIX = "HIST_"

    def __init__(self, store: TripleStore, model: str = "DWH_CURR"):
        self._store = store
        self._model = model
        self._versions: Dict[str, Version] = {}
        self._order: List[str] = []
        self._rehydrate()

    def _rehydrate(self) -> None:
        """Adopt historized models already present in the store.

        A reopened (persisted) store carries its ``HIST_*`` models; they
        are re-registered here in lexicographic name order — release
        names like ``2009.R1`` sort chronologically by construction.
        """
        names = sorted(
            (
                m[len(self.HIST_PREFIX):]
                for m in self._store.model_names()
                if m.startswith(self.HIST_PREFIX)
            ),
            key=_natural_key,  # so 2009.R10 sorts after 2009.R2
        )
        for name in names:
            graph = self._store.model(self.HIST_PREFIX + name)
            if not graph.frozen:
                graph.freeze()
            self._versions[name] = Version(
                sequence=len(self._order) + 1,
                name=name,
                graph=graph,
                node_count=graph.node_count(),
                edge_count=len(graph),
                parent=self._order[-1] if self._order else None,
            )
            self._order.append(name)

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
        hist_model = self.HIST_PREFIX + name
        # copy-on-write capture: O(distinct terms) instead of O(triples),
        # and the frozen side never privatizes — the live model pays a
        # small privatization cost only for subtrees the next release's
        # delta actually touches
        frozen = current.cow_copy(hist_model)
        frozen.freeze()
        self._store.adopt_model(hist_model, frozen)
        version = Version(
            sequence=len(self._order) + 1,
            name=name,
            graph=frozen,
            node_count=frozen.node_count(),
            edge_count=len(frozen),
            parent=self._order[-1] if self._order else None,
        )
        self._versions[name] = version
        self._order.append(name)
        return version

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
                "nodes": version.node_count,
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

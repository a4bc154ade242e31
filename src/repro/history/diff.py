"""Version deltas: what a release changed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.rdf.dictionary import DictionaryMismatchError
from repro.rdf.graph import Graph, ReadableGraph


@dataclass(frozen=True)
class VersionDiff:
    """Triples added and removed between two graphs, as id triples in
    the dictionary both graphs share.

    Satisfies ``apply(old) == new``: applying a diff to (a copy of) the
    old graph reproduces the new one — the property suite checks this.
    """

    added: Graph
    removed: Graph

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    @property
    def churn(self) -> int:
        """Total changed triples."""
        return len(self.added) + len(self.removed)

    def apply(self, graph: ReadableGraph) -> Graph:
        """Return a new graph with the diff applied to ``graph``."""
        out = graph.copy()
        self.apply_in_place(out)
        return out

    def apply_in_place(self, graph: Graph) -> Tuple[int, int]:
        """Apply the diff directly to ``graph``; returns (added, removed)
        effective counts.

        This is the O(delta) release-application path: the live model is
        mutated instead of rebuilt, in id space, so graph listeners
        (entailment-index delta trackers, the hierarchy cache, audit)
        hear exactly the changed id triples. Convergent: re-applying
        after a partial crash finishes the job — triples already
        removed/added are no-ops. ``graph`` must intern into the diff's
        dictionary, else :class:`DictionaryMismatchError`.
        """
        if graph.dictionary is not self.added.dictionary:
            raise DictionaryMismatchError(
                f"cannot apply a diff to {graph!r}: it interns into another dictionary"
            )
        removed = sum(1 for row in self.removed.triples_ids() if graph.discard_ids(*row))
        added = sum(1 for row in self.added.triples_ids() if graph.add_ids(*row))
        return added, removed

    def invert(self) -> "VersionDiff":
        """The reverse delta (rolls the change back)."""
        return VersionDiff(added=self.removed, removed=self.added)

    def summary(self) -> str:
        return f"+{len(self.added)} / -{len(self.removed)} triples"


def diff_graphs(old: ReadableGraph, new: ReadableGraph) -> VersionDiff:
    """Compute the delta from ``old`` to ``new``.

    Both graphs must intern into one dictionary (a store's models and
    versions do), else :class:`DictionaryMismatchError`. The comparison
    runs entirely in id space — int probes, no term hashing — and the
    delta's graphs are indexed from the id triples, so no term is
    decoded: the hot path of incremental release loading, where
    consecutive releases are near-identical. Two in-memory graphs skip
    every subject entry they share or agree on
    (:meth:`~repro.rdf.graph.Graph.rows_not_in`).
    """
    dictionary = old.dictionary
    if dictionary is not new.dictionary:
        raise DictionaryMismatchError(
            f"cannot diff {old!r} and {new!r}: they intern into different dictionaries"
        )
    if isinstance(old, Graph) and isinstance(new, Graph):
        added, removed = new.rows_not_in(old), old.rows_not_in(new)
    else:
        added = (row for row in new.triples_ids() if not old.has_ids(*row))
        removed = (row for row in old.triples_ids() if not new.has_ids(*row))
    return VersionDiff(
        added=Graph.from_ids(added, dictionary, name="added"),
        removed=Graph.from_ids(removed, dictionary, name="removed"),
    )

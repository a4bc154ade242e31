"""Version records: one immutable snapshot per release."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.rdf.graph import ReadableGraph


@dataclass(frozen=True)
class Version:
    """One historized release of the meta-data warehouse.

    ``sequence`` is the global snapshot counter (1-based); ``name``
    follows the release naming the operator chose (e.g. ``2009.R3``).
    The graph is frozen — historized versions never change.
    """

    sequence: int
    name: str
    graph: ReadableGraph
    edge_count: int
    parent: Optional[str] = None  # name of the preceding version

    def __post_init__(self):
        if not self.graph.frozen:
            raise ValueError("a Version must wrap a frozen graph")

    def summary(self) -> str:
        return (
            f"version {self.name} (#{self.sequence}): "
            f"{self.graph.node_count()} nodes, {self.edge_count} edges"
        )

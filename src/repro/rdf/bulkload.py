"""Bulk loader: staging tables -> RDF model tables (Figure 4).

The loader drains one or more staging tables into a named model of a
:class:`~repro.rdf.store.TripleStore`. Malformed rows are rejected and
reported, not fatal — a large meta-data feed with a handful of bad rows
still loads (the behaviour operations teams expect of a warehouse bulk
load). A :class:`BulkLoadReport` summarizes inserted / duplicate /
rejected counts per source feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.rdf.staging import StagingRow, StagingTable, row_to_triple
from repro.rdf.store import TripleStore


class BulkLoadError(Exception):
    """Raised in strict mode when any staged row fails to parse.

    ``loaded`` is the number of rows already applied to the model before
    the failure — 0 for a single-table strict load (it parses everything
    up front), but a multi-table :meth:`BulkLoader.load_many` may have
    committed whole earlier tables, and callers resuming or rolling back
    need to know how far it got.
    """

    def __init__(
        self,
        rejected: Sequence[Tuple[StagingRow, str]],
        loaded: int = 0,
    ):
        self.rejected = list(rejected)
        self.loaded = loaded
        preview = "; ".join(reason for _, reason in self.rejected[:3])
        progress = f" after {loaded} row(s) loaded" if loaded else ""
        super().__init__(
            f"bulk load rejected {len(self.rejected)} row(s){progress}: {preview}"
        )


@dataclass
class BulkLoadReport:
    """Outcome of one bulk load.

    ``rejected`` holds every malformed row a lenient load dropped, with
    the parse error as its reason.
    """

    model: str
    inserted: int = 0
    duplicates: int = 0
    rejected: List[Tuple[StagingRow, str]] = field(default_factory=list)
    per_source: Dict[str, int] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return self.inserted + self.duplicates + len(self.rejected)

    def summary(self) -> str:
        return (
            f"bulk load into {self.model!r}: {self.inserted} inserted, "
            f"{self.duplicates} duplicate, {len(self.rejected)} rejected"
        )


class BulkLoader:
    """Drains staging tables into models of a :class:`TripleStore`.

    ``strict=True`` aborts (raising :class:`BulkLoadError`) without
    touching the model when any row is malformed; the default lenient
    mode loads good rows and lists bad ones in the report's ``rejected``.
    """

    def __init__(self, store: TripleStore, strict: bool = False):
        self._store = store
        self._strict = strict

    def load(
        self,
        staging: StagingTable,
        model: str,
        truncate_staging: bool = True,
    ) -> BulkLoadReport:
        """Load every row of ``staging`` into ``model``.

        The model is created when missing (first load of a new release
        version). On success the staging table is truncated unless
        ``truncate_staging=False``.
        """
        parsed = []
        rejected: List[Tuple[StagingRow, str]] = []
        for row in staging.rows():
            try:
                parsed.append((row, row_to_triple(row)))
            except ValueError as exc:
                rejected.append((row, str(exc)))
        if rejected and self._strict:
            raise BulkLoadError(rejected)

        graph = self._store.get_or_create_model(model)
        report = BulkLoadReport(model=model, rejected=rejected)
        for row, triple in parsed:
            if graph.add(triple):
                report.inserted += 1
                key = row.source or "<unknown>"
                report.per_source[key] = report.per_source.get(key, 0) + 1
            else:
                report.duplicates += 1
        if truncate_staging:
            staging.truncate()
        return report

    def load_many(
        self,
        tables: Sequence[StagingTable],
        model: str,
    ) -> BulkLoadReport:
        """Load several staging tables into one model, merging reports.

        In strict mode a failing table aborts the remainder, but earlier
        tables have already been committed — the re-raised
        :class:`BulkLoadError` carries that progress in ``loaded``.
        """
        merged = BulkLoadReport(model=model)
        for table in tables:
            try:
                r = self.load(table, model)
            except BulkLoadError as exc:
                raise BulkLoadError(
                    exc.rejected, loaded=merged.inserted + exc.loaded
                ) from None
            merged.inserted += r.inserted
            merged.duplicates += r.duplicates
            merged.rejected.extend(r.rejected)
            for src, n in r.per_source.items():
                merged.per_source[src] = merged.per_source.get(src, 0) + n
        return merged

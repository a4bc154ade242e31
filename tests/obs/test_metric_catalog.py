"""The catalogs in ``docs/observability.md`` match the code.

Every ``"mdw_…"`` family name the source registers has a row in the
metric catalog table, and every row names a family the source
registers, so a family never ships without a documented meaning and
reader, and a deleted family never lingers in the docs. The event
kind table and the journal's ``record("<kind>"`` emitters match the
same way.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = "\n".join(
    path.read_text(encoding="utf-8") for path in (ROOT / "src" / "repro").rglob("*.py")
)
DOCS = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")


def registered_families():
    families = set(re.findall(r"[\"'](mdw_[a-z0-9_]+)[\"']", SOURCE))
    assert families, "no metric family literals found under src/repro"
    return families


def catalog_rows():
    return set(re.findall(r"^\| `(mdw_[a-z0-9_]+)` \|", DOCS, re.MULTILINE))


def test_every_metric_family_has_a_catalog_row():
    assert sorted(registered_families() - catalog_rows()) == []


def test_every_catalog_row_names_a_registered_family():
    assert sorted(catalog_rows() - registered_families()) == []


def test_event_kind_table_matches_the_emitters():
    emitted = set(re.findall(r"\.record\(\s*[\"']([a-z][a-z-]*)[\"']", SOURCE))
    section = DOCS.split("Kinds currently", 1)[1]
    table = section[section.index("\n|"):].split("\n\n", 1)[0]
    rows = set(re.findall(r"^\| `([a-z][a-z-]*)` \|", table, re.MULTILINE))
    assert emitted, "no journal record(...) emitters found under src/repro"
    assert sorted(emitted - rows) == []
    assert sorted(rows - emitted) == []

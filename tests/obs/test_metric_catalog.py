"""The metric catalog in ``docs/observability.md`` covers the code.

Every ``"mdw_…"`` family name the source registers must have a row in
the catalog table, so a family never ships without a documented
meaning and reader.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_every_metric_family_has_a_catalog_row():
    families = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        families.update(
            re.findall(r"[\"'](mdw_[a-z0-9_]+)[\"']", path.read_text(encoding="utf-8"))
        )
    catalog = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `(mdw_[a-z0-9_]+)` \|", catalog, re.MULTILINE))
    assert families, "no metric family literals found under src/repro"
    assert sorted(families - rows) == []

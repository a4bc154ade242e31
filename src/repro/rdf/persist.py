"""Reader for the retired N-Triples store directory.

The warehouse persists as one snapshot file (:mod:`repro.storage`);
this module survives only so ``repro-mdw snapshot migrate`` can convert
a directory written by an older build::

    store/
      manifest.json          # models, indexes, format version
      models/<name>.nt       # one N-Triples file per model
      indexes/<model>__<rulebase>.nt
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.store import TripleStore

FORMAT_VERSION = 1


class PersistenceError(Exception):
    """A malformed or incompatible store directory."""


def load_store(directory: Union[str, Path]) -> TripleStore:
    """Load a legacy store directory (manifest + N-Triples files)."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(f"no manifest.json in {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"corrupt manifest: {exc}") from None
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported store format {version!r} (this build reads {FORMAT_VERSION})"
        )

    store = TripleStore()
    for name, entry in sorted(manifest.get("models", {}).items()):
        path = root / "models" / entry["file"]
        if not path.exists():
            raise PersistenceError(f"manifest lists missing model file {entry['file']}")
        graph = store.create_model(name)
        graph.add_all(parse_ntriples(path.read_text(encoding="utf-8")))
        if len(graph) != entry.get("triples", len(graph)):
            raise PersistenceError(
                f"model {name!r}: manifest says {entry['triples']} triples, "
                f"file has {len(graph)}"
            )
        if entry.get("frozen"):
            graph.freeze()
    for entry in manifest.get("indexes", []):
        path = root / "indexes" / entry["file"]
        if not path.exists():
            raise PersistenceError(f"manifest lists missing index file {entry['file']}")
        derived = Graph(parse_ntriples(path.read_text(encoding="utf-8")))
        store.attach_index(entry["model"], entry["rulebase"], derived)
    return store

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
from typing import List, Union

from repro.rdf.graph import Graph
from repro.rdf.ntriples import NTriplesParseError, parse_ntriples
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple

FORMAT_VERSION = 1


class PersistenceError(Exception):
    """A malformed or incompatible store directory."""


def _field(entry, key: str, where: str):
    """``entry[key]``, or a rejection naming the manifest slot."""
    if not isinstance(entry, dict) or key not in entry:
        raise PersistenceError(f"manifest {where} has no {key!r}")
    return entry[key]


def _read_triples(directory: Path, kind: str, entry, where: str) -> List[Triple]:
    """The triples of the N-Triples file a manifest entry names."""
    name = _field(entry, "file", where)
    path = directory / str(name)
    if not path.exists():
        raise PersistenceError(f"manifest lists missing {kind} file {name}")
    try:
        return list(parse_ntriples(path.read_text(encoding="utf-8")))
    except (UnicodeDecodeError, NTriplesParseError) as exc:
        raise PersistenceError(f"corrupt {kind} file {name}: {exc}") from None


def load_store(directory: Union[str, Path]) -> TripleStore:
    """Load a legacy store directory (manifest + N-Triples files)."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(f"no manifest.json in {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"corrupt manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise PersistenceError("corrupt manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported store format {version!r} (this build reads {FORMAT_VERSION})"
        )
    models = manifest.get("models", {})
    indexes = manifest.get("indexes", [])
    if not isinstance(models, dict) or not isinstance(indexes, list):
        raise PersistenceError(
            "corrupt manifest: 'models' must be an object and 'indexes' a list"
        )

    store = TripleStore()
    for name, entry in sorted(models.items()):
        triples = _read_triples(root / "models", "model", entry, f"models[{name!r}]")
        graph = store.create_model(name)
        graph.add_all(triples)
        if len(graph) != entry.get("triples", len(graph)):
            raise PersistenceError(
                f"model {name!r}: manifest says {entry['triples']} triples, "
                f"file has {len(graph)}"
            )
        if entry.get("frozen"):
            graph.freeze()
    for i, entry in enumerate(indexes):
        where = f"indexes[{i}]"
        model = _field(entry, "model", where)
        rulebase = _field(entry, "rulebase", where)
        if model not in models:
            raise PersistenceError(f"manifest {where} names unknown model {model!r}")
        derived = Graph(_read_triples(root / "indexes", "index", entry, where))
        store.attach_index(model, rulebase, derived)
    return store

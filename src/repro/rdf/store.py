"""Triple store with named models — the analog of Oracle's ``SEM_MODELS``.

The paper stores the meta-data warehouse in RDF model tables inside an
Oracle database and addresses them by model name (``SEM_MODELS('DWH_CURR')``
in Listings 1 and 2). :class:`TripleStore` keeps one :class:`Graph` per
model name and can produce a read-only :class:`GraphView` over any
combination of models, optionally stacked with entailment indexes.

Like Oracle's model tables, which link into one shared values table, a
store has one id space: every model and every entailment index interns
into :attr:`TripleStore.dictionary`, and a graph that interns elsewhere
is refused with :class:`~repro.rdf.dictionary.DictionaryMismatchError`.
So every view the store hands out joins in id space.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.rdf.dictionary import (
    DEFAULT_DICTIONARY,
    DictionaryMismatchError,
    TermDictionary,
)
from repro.rdf.graph import Graph, GraphView, ReadableGraph


class ModelNotFoundError(KeyError):
    """Raised when a query names a model the store does not contain."""

    def __init__(self, name: str, known: Iterable[str]):
        super().__init__(name)
        self.name = name
        self.known = sorted(known)

    def __str__(self) -> str:
        return f"unknown model {self.name!r}; known models: {self.known}"


class TripleStore:
    """A collection of named RDF models plus attached entailment indexes.

    Entailment indexes are registered by rulebase name (e.g. ``OWLPRIME``)
    per model and are *not* part of the model's triples: they only become
    visible through :meth:`view` when the caller names the rulebase —
    mirroring how Oracle's derived triples "only exist through the
    indexes" (Section III.B).
    """

    def __init__(self):
        self._models: Dict[str, Graph] = {}
        # (model name, rulebase name) -> derived-triples graph
        self._indexes: Dict[tuple, Graph] = {}
        # (model name, rulebase name) -> model generation at attach time;
        # while the model is unchanged since, model and index are known
        # disjoint (the reasoner only emits triples absent from the base)
        self._index_base_generation: Dict[tuple, int] = {}

    # -- the store's id space ------------------------------------------------

    @property
    def dictionary(self) -> TermDictionary:
        """The dictionary the store's models intern into: the first
        model's, or the process default while the store is empty. (An
        index needs its model, so an empty store holds no graph.)"""
        for graph in self._models.values():
            return graph.dictionary
        return DEFAULT_DICTIONARY

    def _check_dictionary(self, graph: ReadableGraph, what: str) -> None:
        if self._models and graph.dictionary is not self.dictionary:
            raise DictionaryMismatchError(
                f"{what} interns into a dictionary other than the store's"
            )

    # -- model management ----------------------------------------------------

    def create_model(self, name: str) -> Graph:
        """Create an empty model interning into the store's dictionary;
        error if the name is taken."""
        if not name:
            raise ValueError("model name must be non-empty")
        if name in self._models:
            raise ValueError(f"model {name!r} already exists")
        graph = Graph(name=name, dictionary=self.dictionary)
        self._models[name] = graph
        return graph

    def get_or_create_model(self, name: str) -> Graph:
        if name in self._models:
            return self._models[name]
        return self.create_model(name)

    def adopt_model(self, name: str, graph: Graph) -> Graph:
        """Register an existing graph as the model ``name``.

        Used by snapshot publication: the query service copies the live
        model, freezes the copy, and adopts it into a private store so a
        read-only warehouse facade can be built over it. The graph's
        ``name`` is updated to match. The first model fixes the store's
        dictionary; a later graph interning elsewhere raises
        :class:`DictionaryMismatchError`.
        """
        if not name:
            raise ValueError("model name must be non-empty")
        if name in self._models:
            raise ValueError(f"model {name!r} already exists")
        self._check_dictionary(graph, f"model {name!r}")
        graph.name = name
        self._models[name] = graph
        return graph

    def model(self, name: str) -> Graph:
        """The graph for ``name``; raises :class:`ModelNotFoundError`."""
        try:
            return self._models[name]
        except KeyError:
            raise ModelNotFoundError(name, self._models) from None

    def drop_model(self, name: str) -> None:
        """Drop a model and every entailment index built over it."""
        if name not in self._models:
            raise ModelNotFoundError(name, self._models)
        del self._models[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
            self._index_base_generation.pop(key, None)

    def rename_model(self, old: str, new: str) -> None:
        """Rename a model, carrying its entailment indexes along."""
        if old not in self._models:
            raise ModelNotFoundError(old, self._models)
        if new in self._models:
            raise ValueError(f"model {new!r} already exists")
        graph = self._models.pop(old)
        graph.name = new
        self._models[new] = graph
        for key in [k for k in self._indexes if k[0] == old]:
            self._indexes[(new, key[1])] = self._indexes.pop(key)
            if key in self._index_base_generation:
                self._index_base_generation[(new, key[1])] = (
                    self._index_base_generation.pop(key)
                )

    def has_model(self, name: str) -> bool:
        return name in self._models

    def model_names(self) -> List[str]:
        return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._models))

    def __repr__(self) -> str:
        sizes = {n: len(g) for n, g in sorted(self._models.items())}
        return f"<TripleStore models={sizes} indexes={len(self._indexes)}>"

    # -- entailment indexes ----------------------------------------------------

    def attach_index(self, model: str, rulebase: str, derived: Graph) -> None:
        """Attach the derived triples of ``rulebase`` over ``model``.

        ``derived`` should contain only triples *not* already in the model;
        the reasoner guarantees this, and it must intern into the store's
        dictionary. Re-attaching replaces the old index (re-derivation
        after a model change).
        """
        if model not in self._models:
            raise ModelNotFoundError(model, self._models)
        self._check_dictionary(derived, f"index {model}[{rulebase}]")
        derived.name = f"{model}[{rulebase}]"
        self._indexes[(model, rulebase)] = derived
        self._index_base_generation[(model, rulebase)] = self._models[model].generation

    def detach_index(self, model: str, rulebase: str) -> None:
        self._indexes.pop((model, rulebase), None)
        self._index_base_generation.pop((model, rulebase), None)

    def index(self, model: str, rulebase: str) -> Optional[Graph]:
        """The derived-triples graph for (model, rulebase), or None."""
        return self._indexes.get((model, rulebase))

    def index_names(self, model: Optional[str] = None) -> List[tuple]:
        """(model, rulebase) pairs of all attached indexes."""
        keys = self._indexes.keys()
        if model is not None:
            keys = [k for k in keys if k[0] == model]
        return sorted(keys)

    # -- query-time views --------------------------------------------------------

    def view(
        self,
        models: Sequence[str],
        rulebases: Sequence[str] = (),
    ) -> GraphView:
        """A read-only view over ``models``, plus the entailment indexes of
        the named ``rulebases`` where they exist.

        Naming a rulebase for which no index was built is *not* an error —
        it simply contributes nothing, matching the behaviour of querying
        before the index build has run.
        """
        if not models:
            raise ValueError("view requires at least one model name")
        layers: List[Graph] = [self.model(name) for name in models]
        index_keys: List[tuple] = []
        for model_name in models:
            for rb in rulebases:
                derived = self._indexes.get((model_name, rb))
                if derived is not None:
                    layers.append(derived)
                    index_keys.append((model_name, rb))
        # One model plus one index whose base is unchanged since the
        # build: provably disjoint, so the view can skip per-triple
        # dedup. Several models (or several indexes) may overlap.
        disjoint = (
            len(models) == 1
            and len(index_keys) == 1
            and self._index_base_generation.get(index_keys[0])
            == layers[0].generation
        )
        return GraphView(layers, disjoint_hint=disjoint)

    # -- aggregate statistics ------------------------------------------------------

    def total_triples(self, include_indexes: bool = False) -> int:
        total = sum(len(g) for g in self._models.values())
        if include_indexes:
            total += sum(len(g) for g in self._indexes.values())
        return total

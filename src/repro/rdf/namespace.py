"""Namespaces and the well-known RDF / RDFS / OWL / XSD vocabularies.

The paper aliases two Credit Suisse namespaces in its SPARQL listings::

    dm: http://www.credit-suisse.com/dwh/mdm/data_modeling#
    dt: http://www.credit-suisse.com/dwh/mdm/data_transfer#

Both are provided here (as ``DM`` and ``DT``) so the listings run verbatim
through :mod:`repro.oracle`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.rdf.terms import IRI


class Namespace:
    """A namespace prefix factory.

    Attribute and item access both mint IRIs inside the namespace::

        DM = Namespace("http://www.credit-suisse.com/dwh/mdm/data_modeling#")
        DM.hasName          # IRI(".../data_modeling#hasName")
        DM["Source Column"] # spaces are percent-free but allowed via [] form
    """

    def __init__(self, base: str):
        if not base:
            raise ValueError("namespace base must be non-empty")
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, name: str) -> IRI:
        return IRI(self._base + name)

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.term(name)

    def __getitem__(self, name: str) -> IRI:
        return self.term(name)

    def __contains__(self, iri: IRI) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __eq__(self, other) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash((Namespace, self._base))

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")

# The Credit Suisse namespaces used throughout the paper's listings.
DM = Namespace("http://www.credit-suisse.com/dwh/mdm/data_modeling#")
DT = Namespace("http://www.credit-suisse.com/dwh/mdm/data_transfer#")

#: Prefixes bound by default in every :class:`NamespaceManager`.
DEFAULT_PREFIXES: Dict[str, Namespace] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
}


class NamespaceManager:
    """Bi-directional prefix <-> namespace registry.

    Used by the Turtle serializer to compact IRIs into qnames and by the
    SPARQL parser to expand prefixed names. Rebinding a prefix to a new
    namespace is allowed (the paper's meta-data schema evolves); binding
    two prefixes to the same namespace keeps the most recent for
    compaction.
    """

    def __init__(self, bind_defaults: bool = True):
        self._by_prefix: Dict[str, Namespace] = {}
        self._by_base: Dict[str, str] = {}
        if bind_defaults:
            for prefix, ns in DEFAULT_PREFIXES.items():
                self.bind(prefix, ns)

    def bind(self, prefix: str, namespace) -> None:
        """Bind ``prefix`` to ``namespace`` (a Namespace or base string)."""
        if isinstance(namespace, str):
            namespace = Namespace(namespace)
        if not isinstance(namespace, Namespace):
            raise TypeError("namespace must be a Namespace or base IRI string")
        if prefix is None or any(ch in prefix for ch in " :<>"):
            raise ValueError(f"invalid prefix: {prefix!r}")
        old = self._by_prefix.get(prefix)
        if old is not None and self._by_base.get(old.base) == prefix:
            del self._by_base[old.base]
        self._by_prefix[prefix] = namespace
        self._by_base[namespace.base] = prefix

    def copy(self) -> "NamespaceManager":
        """An independent manager with the same bindings."""
        clone = NamespaceManager(bind_defaults=False)
        clone._by_prefix = dict(self._by_prefix)
        clone._by_base = dict(self._by_base)
        return clone

    def namespace(self, prefix: str) -> Optional[Namespace]:
        """The namespace bound to ``prefix``, or None."""
        return self._by_prefix.get(prefix)

    def expand(self, qname: str) -> IRI:
        """Expand a prefixed name like ``dm:hasName`` into an IRI."""
        if ":" not in qname:
            raise ValueError(f"not a prefixed name: {qname!r}")
        prefix, local = qname.split(":", 1)
        ns = self._by_prefix.get(prefix)
        if ns is None:
            raise KeyError(f"unbound prefix: {prefix!r}")
        return ns.term(local)

    def compact(self, iri: IRI) -> Optional[str]:
        """Compact an IRI into ``prefix:local`` if a binding covers it.

        Returns None when no bound namespace is a prefix of the IRI or the
        local part would not be a valid qname local name.
        """
        best: Optional[Tuple[str, str]] = None
        for base, prefix in self._by_base.items():
            if iri.value.startswith(base):
                local = iri.value[len(base) :]
                if _valid_local(local) and (best is None or len(base) > len(best[1])):
                    best = (prefix, base)
        if best is None:
            return None
        prefix, base = best
        return f"{prefix}:{iri.value[len(base):]}"

    def bindings(self) -> Iterator[Tuple[str, Namespace]]:
        """Iterate over (prefix, namespace) pairs, sorted by prefix."""
        return iter(sorted(self._by_prefix.items()))

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._by_prefix

    def __len__(self) -> int:
        return len(self._by_prefix)


def _valid_local(local: str) -> bool:
    if not local:
        return False
    if local[0].isdigit() or local[0] in ".-":
        return False
    return all(ch.isalnum() or ch in "_-." for ch in local) and not local.endswith(".")

"""The programmatic ``SEM_MATCH`` entry point.

``sem_match`` evaluates a SPARQL graph-pattern string against the named
models of a :class:`~repro.rdf.TripleStore`. When rulebases are named,
the matching entailment indexes are stacked into the queried view —
derived triples are visible to this query and this query only, exactly
as in Section III.B of the paper.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.rdf.namespace import NamespaceManager
from repro.rdf.store import TripleStore
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from repro.sparql.plancache import PreparedQuery
from repro.sparql.results import SolutionSequence

from repro.oracle.sem_apis import SemAlias


def sem_match(
    pattern: str,
    store: TripleStore,
    models: Sequence[str],
    rulebases: Sequence[str] = (),
    aliases: Sequence[SemAlias] = (),
    filter_condition: Optional[str] = None,
    plan_cache=None,
) -> SolutionSequence:
    """Match a SPARQL graph pattern against ``models`` of ``store``.

    Parameters
    ----------
    pattern:
        The graph pattern, braces included — e.g.
        ``'{?object rdf:type ?c . ?object dm:hasName ?term}'``.
    models:
        Model names, as from :func:`SEM_MODELS`.
    rulebases:
        Rulebase names, as from :func:`SEM_RULEBASES`; each contributes
        its entailment index when one has been attached to the store.
    aliases:
        Prefix bindings, as from :func:`SEM_ALIASES`. ``rdf``, ``rdfs``,
        ``owl`` and ``xsd`` are always pre-bound.
    filter_condition:
        Optional SPARQL expression text, applied as a FILTER inside the
        pattern — e.g. ``'regex(?term, "customer", "i")'``.
    plan_cache:
        Optional :class:`~repro.sparql.PlanCache`; reuses the parsed
        query and join order across repeated calls.
    """
    view, prepared = prepare_sem_match(
        pattern, store, models, rulebases, aliases, filter_condition, plan_cache
    )
    return evaluate(view, prepared.query, plan=prepared)


def prepare_sem_match(
    pattern: str,
    store: TripleStore,
    models: Sequence[str],
    rulebases: Sequence[str] = (),
    aliases: Sequence[SemAlias] = (),
    filter_condition: Optional[str] = None,
    plan_cache=None,
) -> Tuple[object, PreparedQuery]:
    """The view :func:`sem_match` reads and the prepared
    ``SELECT * WHERE pattern`` it evaluates there (from ``plan_cache``
    when one is given, else a throwaway one)."""
    pattern = pattern.strip()
    if not (pattern.startswith("{") and pattern.endswith("}")):
        raise ValueError("SEM_MATCH pattern must be enclosed in braces")

    nsm = _alias_manager(tuple(aliases))
    body = pattern[1:-1]
    if filter_condition:
        body += f" FILTER ({filter_condition})"
    query_text = f"SELECT * WHERE {{ {body} }}"

    view = store.view(list(models), rulebases=list(rulebases))
    if plan_cache is not None:
        return view, plan_cache.prepare(view, query_text, nsm=nsm)
    return view, PreparedQuery(None, parse_query(query_text, nsm=nsm), view.generation)


@lru_cache(maxsize=64)
def _alias_manager(aliases: Tuple[SemAlias, ...]) -> NamespaceManager:
    """One manager per alias tuple, shared by every statement naming it:
    parsing only reads it (a PREFIX binds into the parser's own copy)."""
    nsm = NamespaceManager()
    for alias in aliases:
        nsm.bind(alias.prefix, alias.namespace)
    return nsm

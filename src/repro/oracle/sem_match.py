"""The programmatic ``SEM_MATCH`` entry point.

``sem_match`` evaluates a SPARQL graph-pattern string against the named
models of a :class:`~repro.rdf.TripleStore`. When rulebases are named,
the matching entailment indexes are stacked into the queried view —
derived triples are visible to this query and this query only, exactly
as in Section III.B of the paper.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.rdf.namespace import NamespaceManager
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Term, Variable
from repro.sparql.algebra import BGP, Filter, SelectQuery
from repro.sparql.evaluator import evaluate
from repro.sparql.parser import parse_query
from repro.sparql.results import SolutionSequence

from repro.oracle.sem_apis import SemAlias


def sem_match(
    pattern: str,
    store: TripleStore,
    models: Sequence[str],
    rulebases: Sequence[str] = (),
    aliases: Sequence[SemAlias] = (),
    filter_condition: Optional[str] = None,
    projection: Optional[Sequence[str]] = None,
    distinct: bool = False,
    plan_cache=None,
    eq_hints: Optional[Mapping[str, str]] = None,
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
    projection:
        Variables to project (without ``?``); all variables when omitted.
    distinct:
        Deduplicate projected rows.
    plan_cache:
        Optional :class:`~repro.sparql.PlanCache`; reuses the parsed
        query and join order across repeated calls.
    eq_hints:
        Variable-name → string-constant equality predicates from an
        enclosing SQL WHERE clause (see
        :func:`repro.oracle.sql.execute_sem_sql`). Hints proven safe are
        pushed down as initial bindings so a selective probe (the
        Listing 2 lineage shape) runs as a bind-join instead of scanning
        the whole pattern and filtering afterwards.
    """
    pattern = pattern.strip()
    if not (pattern.startswith("{") and pattern.endswith("}")):
        raise ValueError("SEM_MATCH pattern must be enclosed in braces")

    nsm = NamespaceManager()
    for alias in aliases:
        nsm.bind(alias.prefix, alias.namespace)

    body = pattern[1:-1]
    if filter_condition:
        body += f" FILTER ({filter_condition})"
    select = "*" if not projection else " ".join(f"?{v.lstrip('?')}" for v in projection)
    keyword = "SELECT DISTINCT" if distinct else "SELECT"
    query_text = f"{keyword} {select} WHERE {{ {body} }}"

    view = store.view(list(models), rulebases=list(rulebases))

    if plan_cache is not None:
        bindings = None
        if eq_hints:
            parsed = plan_cache.parse(query_text, nsm=nsm)
            bindings = _pushdown_bindings(parsed, eq_hints)
        plan = plan_cache.prepare(view, query_text, nsm=nsm)
        return evaluate(view, plan.query, initial_bindings=bindings, plan=plan)

    query = parse_query(query_text, nsm=nsm)
    bindings = _pushdown_bindings(query, eq_hints) if eq_hints else None
    return evaluate(view, query, initial_bindings=bindings)


def _pushdown_bindings(query, hints: Mapping[str, str]) -> Optional[Dict[str, Term]]:
    """Initial bindings for the hints that are provably safe to push.

    A hint ``var = 'X'`` may only be bound when ``var`` occurs in the
    pattern exclusively in subject or predicate position: there the
    matching term can only be an IRI (a blank node never string-equals a
    constant under SQL comparison semantics), so binding ``IRI(X)``
    keeps exactly the solutions the residual WHERE clause would keep.
    Object positions can match literals of any datatype with the same
    lexical form, so those hints stay at the SQL layer. Restricted to
    pure basic graph patterns (an optional FILTER wrapper is fine;
    OPTIONAL/UNION/paths change multiplicity or bind conditionally).
    """
    if not isinstance(query, SelectQuery):
        return None
    pattern = query.pattern
    while isinstance(pattern, Filter):
        pattern = pattern.pattern
    if not isinstance(pattern, BGP) or pattern.paths:
        return None

    subject_side: set = set()
    object_side: set = set()
    for triple in pattern.patterns:
        for position, term in enumerate(triple):
            if isinstance(term, Variable):
                (object_side if position == 2 else subject_side).add(term.name)

    bindings = {
        name: IRI(value)
        for name, value in hints.items()
        if name in subject_side and name not in object_side
    }
    return bindings or None

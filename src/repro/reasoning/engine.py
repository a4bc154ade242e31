"""Semi-naive forward chaining to a fixpoint, plus DRed maintenance.

:func:`closure` computes the *derived-only* closure of a graph under a
rulebase: the result contains no triple already present in the base
graph, so it can be attached directly as an entailment index
(:meth:`TripleStore.attach_index`) without duplicating base facts.

The engine is semi-naive: in every round each rule is evaluated once per
premise position, with that premise restricted to the triples derived in
the previous round (the delta) and the remaining premises matched against
the full graph. This avoids re-deriving the whole closure every round.

:func:`maintain_closure` keeps an existing closure consistent after a
*delta* (insertions and retractions) was applied to the base graph,
without recomputing it — the DRed (delete/rederive) algorithm:

1. **Overdelete** — semi-naively propagate the retracted triples through
   the rules, collecting every derived triple that has *some* derivation
   using a retracted triple (an over-approximation of what must go).
2. **Rederive** — put back each overdeleted triple that still has a
   one-step derivation from the surviving database; retracted base
   triples that remain derivable re-enter the closure here too.
3. **Insert** — semi-naive extension seeded with the inserted triples
   plus the rederived ones, recovering everything downstream.

The result is bit-identical to a from-scratch :func:`closure` of the
new base (the incremental and crash-at-every-site tests assert this),
at a cost proportional to the delta's consequences instead of the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.obs.trace import span
from repro.rdf.graph import Graph, GraphView
from repro.rdf.terms import Literal, Triple, Variable
from repro.reasoning.rulebase import Rulebase
from repro.reasoning.rules import Rule


@dataclass
class InferenceReport:
    """Statistics of one closure computation or maintenance pass.

    ``mode`` is ``"full"`` for a from-scratch :func:`closure` and
    ``"incremental"`` for :func:`extend_closure` / :func:`maintain_closure`;
    ``overdeleted`` / ``rederived`` are only populated by the DRed path.
    """

    rulebase: str
    base_triples: int
    derived_triples: int = 0
    rounds: int = 0
    per_rule: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    mode: str = "full"
    overdeleted: int = 0
    rederived: int = 0

    def summary(self) -> str:
        dred = (
            f", {self.overdeleted} overdeleted / {self.rederived} rederived"
            if self.overdeleted or self.rederived
            else ""
        )
        return (
            f"{self.rulebase} [{self.mode}]: {self.derived_triples} derived from "
            f"{self.base_triples} base triples in {self.rounds} round(s)"
            f"{dred} ({self.seconds:.3f}s)"
        )


def closure(
    base: Graph,
    rulebase: Rulebase,
    max_rounds: Optional[int] = None,
) -> Tuple[Graph, InferenceReport]:
    """Compute the derived-only closure of ``base`` under ``rulebase``.

    Returns ``(derived, report)``. ``max_rounds`` bounds the iteration
    for pathological rule sets; the built-in rulebases always terminate
    because they only derive triples over the finite term vocabulary.
    """
    started = time.perf_counter()
    derived = Graph(name="derived")
    report = InferenceReport(rulebase=rulebase.name, base_triples=len(base))
    full = GraphView([base, derived])

    delta: Graph = base
    first_round = True
    with span(
        "reasoning.closure", "reasoning", rulebase=rulebase.name, base=len(base)
    ) as attrs:
        while True:
            if max_rounds is not None and report.rounds >= max_rounds:
                break
            new = Graph()
            for r in rulebase:
                fired = _fire_rule(r, delta, full, base, derived, new, first_round)
                if fired:
                    report.per_rule[r.name] = report.per_rule.get(r.name, 0) + fired
            report.rounds += 1
            first_round = False
            if not new:
                break
            derived.add_all(new)
            delta = new

        report.derived_triples = len(derived)
        attrs["rounds"] = report.rounds
        attrs["derived"] = report.derived_triples
    report.seconds = time.perf_counter() - started
    return derived, report


def extend_closure(
    base: Graph,
    derived: Graph,
    added: Iterable[Triple],
    rulebase: Rulebase,
) -> InferenceReport:
    """Incrementally extend an existing closure after ``added`` triples
    were inserted into ``base``.

    ``derived`` is updated in place. ``added`` must already be part of
    ``base``. Insertion-only special case of :func:`maintain_closure`.
    """
    return maintain_closure(base, derived, added, (), rulebase)


def maintain_closure(
    base: Graph,
    derived: Graph,
    added: Iterable[Triple],
    removed: Iterable[Triple],
    rulebase: Rulebase,
) -> InferenceReport:
    """DRed maintenance of an existing derived-only closure.

    ``base`` must already reflect the delta: ``added`` inserted,
    ``removed`` deleted. ``derived`` is updated in place to equal what a
    from-scratch ``closure(base, rulebase)`` would produce. This is the
    index-maintenance path a release-cycle load uses instead of
    recomputing the full closure.
    """
    started = time.perf_counter()
    report = InferenceReport(
        rulebase=rulebase.name, base_triples=len(base), mode="incremental"
    )
    dictionary = base.dictionary
    added_g = Graph(added, dictionary=dictionary)
    removed_g = Graph(removed, dictionary=dictionary)
    with span(
        "dred.maintain",
        "reasoning",
        rulebase=rulebase.name,
        added=len(added_g),
        removed=len(removed_g),
    ) as attrs:
        # An added base triple that was previously *derived* is now asserted;
        # the index stays derived-only, so it leaves the index (exactly what
        # a rebuild would do — closure() never emits triples in the base).
        for t in [t for t in added_g if t in derived]:
            derived.discard(t)

        # -- phase 1: overdeletion --------------------------------------------
        # Propagate retractions semi-naively. Premises are matched against a
        # superset of the *old* database (new base + old derived + removed);
        # matching a superset can only overdelete more, and rederivation puts
        # back anything still supported, so correctness is preserved.
        overdeleted = Graph(dictionary=dictionary)
        if removed_g:
            with span("dred.overdelete", "reasoning"):
                old_full = GraphView([base, derived, removed_g])
                delta = removed_g
                while delta:
                    doomed = Graph(dictionary=dictionary)
                    for r in rulebase:
                        for delta_position in range(len(r.premises)):
                            assignments = [
                                (premise, delta if i == delta_position else old_full)
                                for i, premise in enumerate(r.premises)
                            ]
                            assignments.sort(key=lambda pg: pg[1] is not delta)
                            for binding in _match_all(assignments, {}):
                                try:
                                    conclusion = r.instantiate(binding)
                                except TypeError:
                                    continue
                                if (
                                    conclusion in derived
                                    and conclusion not in overdeleted
                                    and conclusion not in doomed
                                ):
                                    doomed.add(conclusion)
                    report.rounds += 1
                    overdeleted.add_all(doomed)
                    delta = doomed
                for t in overdeleted:
                    derived.discard(t)
                report.overdeleted = len(overdeleted)

        # -- phase 2: rederivation --------------------------------------------
        # Overdeleted triples with a surviving one-step derivation come back;
        # so do retracted base triples that are still entailed (a rebuild
        # would include them in the derived-only closure now that they are
        # no longer asserted). Anything they support is recovered in phase 3.
        rederived = Graph(dictionary=dictionary)
        if overdeleted or removed_g:
            with span("dred.rederive", "reasoning"):
                current = GraphView([base, derived])
                for candidate in list(overdeleted) + list(removed_g):
                    if candidate in base or candidate in derived:
                        continue
                    if not _storable(candidate):
                        continue
                    if _derivable(candidate, current, rulebase):
                        derived.add(candidate)
                        rederived.add(candidate)
                report.rederived = len(rederived)

        # -- phase 3: semi-naive insertion ------------------------------------
        with span("dred.insert", "reasoning"):
            full = GraphView([base, derived])
            delta = Graph(dictionary=dictionary)
            delta.add_all(t for t in added_g if t in base)
            delta.add_all(rederived)
            while delta:
                new = Graph(dictionary=dictionary)
                for r in rulebase:
                    fired = _fire_rule(r, delta, full, base, derived, new, False)
                    if fired:
                        report.per_rule[r.name] = report.per_rule.get(r.name, 0) + fired
                report.rounds += 1
                derived.add_all(new)
                delta = new
        report.derived_triples = len(derived)
        attrs["overdeleted"] = report.overdeleted
        attrs["rederived"] = report.rederived
        attrs["derived"] = report.derived_triples
    report.seconds = time.perf_counter() - started
    return report


def _derivable(goal: Triple, full: GraphView, rulebase: Rulebase) -> bool:
    """One-step derivability: some rule concludes ``goal`` with every
    premise satisfied in ``full``."""
    for r in rulebase:
        binding = _head_binding(r, goal)
        if binding is None:
            continue
        assignments = [(premise, full) for premise in r.premises]
        # evaluate the most-bound premise first: cheap failure detection
        assignments.sort(key=lambda pg: _unbound_count(pg[0], binding))
        for _ in _match_all(assignments, binding):
            return True
    return False


def _head_binding(r: Rule, goal: Triple) -> Optional[Dict[str, object]]:
    """Unify a rule's conclusion pattern with ``goal``; None on mismatch."""
    binding: Dict[str, object] = {}
    for term, value in zip(r.conclusion, goal):
        if isinstance(term, Variable):
            bound = binding.get(term.name)
            if bound is None:
                binding[term.name] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return binding


def _unbound_count(pattern: Triple, binding: Dict[str, object]) -> int:
    return sum(
        1
        for term in pattern
        if isinstance(term, Variable) and term.name not in binding
    )


def _fire_rule(
    r: Rule,
    delta: Graph,
    full: GraphView,
    base: Graph,
    derived: Graph,
    new: Graph,
    first_round: bool,
) -> int:
    """Evaluate one rule semi-naively; add fresh conclusions to ``new``.

    Returns the number of fresh triples this call produced. On the first
    round delta == base == full, so a single pass (premise 0 in delta)
    is the plain naive evaluation and the remaining positions are
    skipped.
    """
    count = 0
    positions = range(1) if first_round else range(len(r.premises))
    for delta_position in positions:
        assignments = [
            (premise, delta if i == delta_position else full)
            for i, premise in enumerate(r.premises)
        ]
        # Evaluate the delta-restricted premise first: it is the smallest.
        assignments.sort(key=lambda pg: pg[1] is not delta)
        for binding in _match_all(assignments, {}):
            try:
                conclusion = r.instantiate(binding)
            except TypeError:
                # e.g. rdfs3 concluding rdf:type about a literal object —
                # not a valid RDF triple, so the inference is dropped
                continue
            if not _storable(conclusion):
                continue
            if conclusion in base or conclusion in derived or conclusion in new:
                continue
            new.add(conclusion)
            count += 1
    return count


def _storable(t: Triple) -> bool:
    # Rules like rdfs3 (range) can conclude rdf:type about a literal
    # object; such conclusions are not valid RDF triples and are dropped.
    return t.is_ground() and not isinstance(t.subject, Literal)


def _match_all(
    assignments: Sequence[Tuple[Triple, object]],
    binding: Dict[str, object],
) -> Iterator[Dict[str, object]]:
    if not assignments:
        yield binding
        return
    (pattern, graph), rest = assignments[0], assignments[1:]
    query = []
    for term in pattern:
        if isinstance(term, Variable):
            query.append(binding.get(term.name))
        else:
            query.append(term)
    s, p, o = query
    if isinstance(s, Literal):
        return
    for triple in graph.triples(s, p, o):
        extended = dict(binding)
        consistent = True
        for term, value in zip(pattern, triple):
            if isinstance(term, Variable):
                bound = extended.get(term.name)
                if bound is None:
                    extended[term.name] = value
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            yield from _match_all(rest, extended)

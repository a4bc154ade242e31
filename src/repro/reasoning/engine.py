"""Semi-naive forward chaining to a fixpoint, plus DRed maintenance,
on dictionary ids from start to finish.

:func:`closure` computes the *derived-only* closure of a graph under a
rulebase: no triple of the base graph is in it, so it attaches directly
as an entailment index (:meth:`TripleStore.attach_index`), and it lives
in the base graph's dictionary, so model plus index share one id space.

Every round evaluates each rule once per premise position, with that
premise restricted to the previous round's conclusions (the delta) and
the others matched against the full graph. A rule is compiled once to
variable slots; its constants resolve through the dictionary (one never
seen matches nothing), bindings are tuples of ids, and matching uses
only the read contract's ``triples_ids`` / ``count_ids`` / ``has_ids``.
Premises join smallest first by constant-only ``count_ids``, so a few
hundred schema triples drive the join, not the instance-level delta. A
conclusion that is no RDF triple (literal subject, non-IRI predicate)
is dropped by a type check on the id a rule binds at an object position.

:func:`maintain_closure` keeps a closure consistent after a *delta*
(insertions and retractions) was applied to the base graph — the DRed
(delete/rederive) algorithm:

1. **Overdelete** — semi-naively propagate the retracted triples through
   the rules, collecting every derived triple that has *some* derivation
   using a retracted triple (an over-approximation of what must go).
2. **Rederive** — put back each overdeleted triple that still has a
   one-step derivation from the surviving database; retracted base
   triples that remain derivable re-enter the closure here too.
3. **Insert** — semi-naive extension seeded with the inserted triples
   plus the rederived ones, recovering everything downstream.

The result is bit-identical to a from-scratch :func:`closure` of the new
base, at a cost proportional to the delta's consequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.obs.trace import span
from repro.rdf.dictionary import DictionaryMismatchError
from repro.rdf.graph import Graph, IdTriple, ReadableGraph
from repro.rdf.terms import IRI, BNode, Variable
from repro.reasoning.rulebase import Rulebase

#: the graphs one premise is matched against
Layers = Sequence[ReadableGraph]


@dataclass
class InferenceReport:
    """Statistics of one closure computation or maintenance pass.

    ``mode`` is ``"full"`` for a from-scratch :func:`closure` and
    ``"incremental"`` for :func:`maintain_closure`;
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


class _Engine:
    """One closure or maintenance call: the rulebase compiled to slots
    over ``base``'s dictionary. A slot is a variable number (int) or a
    constant term, looked up per evaluation because a conclusion can
    intern a constant a premise names (owl-eqc1's ``rdfs:subClassOf``
    in a fresh dictionary). A rule's ``checks`` are the (variable, term
    types) pairs its conclusion must pass: a subject variable bound only
    at object positions, a predicate variable bound at no predicate
    position (stored triples already vouch for the others)."""

    def __init__(self, base: ReadableGraph, rulebase: Rulebase, report: InferenceReport):
        self.dictionary = base.dictionary
        self.report = report
        self.rules = []
        for r in rulebase:
            numbers: Dict[str, int] = {}

            def slot(term):
                if isinstance(term, Variable):
                    return numbers.setdefault(term.name, len(numbers))
                return term

            premises = tuple(tuple(slot(t) for t in p) for p in r.premises)
            s, p, _ = head = tuple(slot(t) for t in r.conclusion)
            checks = []
            if type(s) is int and s not in {v for q in premises for v in q[:2]}:
                checks.append((s, (IRI, BNode)))
            if type(p) is int and p not in {q[1] for q in premises}:
                checks.append((p, IRI))
            self.rules.append((r.name, premises, head, checks))

    def plan(self, premises, head, sources: Sequence[Layers], pre: Dict[int, int]):
        """Premise ``i`` over ``sources[i]``, ``pre``'s variables bound:
        None when a premise matches nothing, else the join steps (by
        ascending ``count_ids`` over constants and ``pre``), the starting
        binding, the conclusion of a binding, and each variable's index."""
        lookup = self.dictionary.lookup
        sized = []
        for i, premise in enumerate(premises):
            consts = [None if type(v) is int else lookup(v) for v in premise]
            if consts.count(None) > sum(type(v) is int for v in premise):
                return None
            query = [pre.get(v) if type(v) is int else c for v, c in zip(premise, consts)]
            size = sum(layer.count_ids(*query) for layer in sources[i])
            if not size:
                return None
            sized.append((size, i, premise, consts))
        sized.sort(key=itemgetter(0, 1))

        where = {v: k for k, v in enumerate(pre)}
        steps = []
        for _, i, premise, query in sized:
            bound, fresh, equal = [], {}, []
            for pos, v in enumerate(premise):
                if type(v) is not int:
                    continue
                if v in where:
                    bound.append((pos, where[v]))
                elif v in fresh:
                    equal.append((fresh[v], pos))
                else:
                    fresh[v] = pos
            for v in fresh:
                where[v] = len(where)
            picks = tuple(fresh.values())
            if len(picks) > 1:
                pick = itemgetter(*picks)
            else:  # a one-slot slice keeps the pick a tuple
                j = picks[0] if picks else 0
                pick = itemgetter(slice(j, j + len(picks)))
            steps.append((sources[i], query, bound, pick, equal))

        consts = tuple(self.dictionary.intern(v) for v in head if type(v) is not int)
        slots, c = [], len(where)
        for v in head:
            slots.append(where[v] if type(v) is int else c)
            c += type(v) is not int
        conclude = itemgetter(*slots)
        return steps, tuple(pre.values()), lambda b: conclude(b + consts), where

    def conclusions(self, rule, delta: Layers, full: Layers, positions: int):
        """Semi-naive evaluation of ``rule``: for each of the first
        ``positions`` premise positions, that premise in ``delta`` and
        the others in ``full``."""
        _, premises, head, checks = rule
        term = self.dictionary.term
        for position in range(positions):
            sources = [delta if i == position else full for i in range(len(premises))]
            plan = self.plan(premises, head, sources, {})
            if plan is None:
                continue
            steps, binding, conclude, where = plan
            tests = [(where[v], types) for v, types in checks]
            for b in _join(steps, 0, binding):
                if not tests or all(isinstance(term(b[k]), types) for k, types in tests):
                    yield conclude(b)

    def saturate(self, delta, target: Graph, full: Layers, keep, tally, max_rounds=None):
        """Semi-naive rounds from ``delta`` until one keeps nothing: a
        round keeps each conclusion passing ``keep(s, p, o)`` once, counts
        it in ``tally`` and adds it to ``target`` at its end. A closure's
        first round (delta is the base) is one naive pass, premise 0."""
        first = delta is full[0]
        while max_rounds is None or self.report.rounds < max_rounds:
            new = Graph(dictionary=self.dictionary)
            for rule in self.rules:
                fired = 0
                positions = 1 if first else len(rule[1])
                for s, p, o in self.conclusions(rule, (delta,), full, positions):
                    if keep(s, p, o):
                        fired += new.add_ids(s, p, o)
                if fired:
                    tally[rule[0]] = tally.get(rule[0], 0) + fired
            self.report.rounds += 1
            if not len(new):
                return
            _merge(target, new)
            delta, first = new, False

    def derivable(self, goal: IdTriple, full: Layers) -> bool:
        """One-step derivability: some rule concludes ``goal`` with every
        premise satisfied in ``full``."""
        lookup = self.dictionary.lookup
        for _, premises, head, _ in self.rules:
            pre: Dict[int, int] = {}
            for v, value in zip(head, goal):
                if type(v) is not int:
                    if lookup(v) != value:
                        break
                elif pre.setdefault(v, value) != value:
                    break
            else:
                plan = self.plan(premises, head, [full] * len(premises), pre)
                for _ in _join(plan[0], 0, plan[1]) if plan else ():
                    return True
        return False


def _join(steps, i: int, binding: tuple) -> Iterator[tuple]:
    """Every extension of ``binding`` through ``steps[i:]``."""
    layers, query, bound, pick, equal = steps[i]
    if bound:
        query = list(query)
        for pos, k in bound:
            query[pos] = binding[k]
    last = i + 1 == len(steps)
    for layer in layers:
        for t in layer.triples_ids(*query):
            if equal and any(t[a] != t[b] for a, b in equal):
                continue
            if last:
                yield binding + pick(t)
            else:
                yield from _join(steps, i + 1, binding + pick(t))


def _outside(base: ReadableGraph, derived: Graph):
    """``keep`` for a closure round: the conclusion is in neither graph."""
    return lambda s, p, o: not base.has_ids(s, p, o) and not derived.has_ids(s, p, o)


def _merge(target: Graph, rows: ReadableGraph) -> None:
    for s, p, o in rows.triples_ids():
        target.add_ids(s, p, o)


def closure(
    base: ReadableGraph,
    rulebase: Rulebase,
    max_rounds: Optional[int] = None,
) -> Tuple[Graph, InferenceReport]:
    """The derived-only closure of ``base`` under ``rulebase``, in
    ``base``'s dictionary, and its report. ``max_rounds`` bounds the
    iteration for pathological rule sets; the built-in rulebases always
    terminate (they derive over the finite term vocabulary)."""
    started = time.perf_counter()
    derived = Graph(name="derived", dictionary=base.dictionary)
    report = InferenceReport(rulebase=rulebase.name, base_triples=len(base))
    engine = _Engine(base, rulebase, report)
    with span(
        "reasoning.closure", "reasoning", rulebase=rulebase.name, base=len(base)
    ) as attrs:
        engine.saturate(
            base, derived, (base, derived), _outside(base, derived), report.per_rule, max_rounds
        )
        report.derived_triples = len(derived)
        attrs["rounds"] = report.rounds
        attrs["derived"] = report.derived_triples
    report.seconds = time.perf_counter() - started
    return derived, report


def maintain_closure(
    base: ReadableGraph,
    derived: Graph,
    added: Iterable[IdTriple],
    removed: Iterable[IdTriple],
    rulebase: Rulebase,
) -> InferenceReport:
    """DRed maintenance of an existing derived-only closure.

    ``added`` and ``removed`` are id triples in ``base``'s dictionary
    (a :class:`~repro.reasoning.index.DeltaTracker`'s netted delta), and
    ``base`` must already reflect them: ``added`` inserted, ``removed``
    deleted. ``derived`` (in ``base``'s dictionary) becomes what
    ``closure(base, rulebase)`` would produce — the index path a release
    load takes instead of a rebuild.
    """
    started = time.perf_counter()
    report = InferenceReport(
        rulebase=rulebase.name, base_triples=len(base), mode="incremental"
    )
    dictionary = base.dictionary
    if derived.dictionary is not dictionary:
        raise DictionaryMismatchError(
            "maintain_closure needs derived in base's dictionary"
        )
    added_g = Graph.from_ids(added, dictionary)
    removed_g = Graph.from_ids(removed, dictionary)
    engine = _Engine(base, rulebase, report)
    with span(
        "dred.maintain", "reasoning",
        rulebase=rulebase.name, added=len(added_g), removed=len(removed_g),
    ) as attrs:
        # An added base triple that was previously *derived* is now asserted;
        # the index stays derived-only, so it leaves the index (exactly what
        # a rebuild would do — closure() never emits triples in the base).
        for row in added_g.triples_ids():
            derived.discard_ids(*row)

        # -- phase 1: overdeletion --------------------------------------------
        # Propagate retractions semi-naively. Premises are matched against a
        # superset of the *old* database (new base + old derived + removed);
        # matching a superset can only overdelete more, and rederivation puts
        # back anything still supported, so correctness is preserved.
        overdeleted = Graph(dictionary=dictionary)
        if len(removed_g):
            with span("dred.overdelete", "reasoning"):
                def doomed(s, p, o):
                    return derived.has_ids(s, p, o) and not overdeleted.has_ids(s, p, o)

                engine.saturate(removed_g, overdeleted, (base, derived, removed_g), doomed, {})
                for row in overdeleted.triples_ids():
                    derived.discard_ids(*row)
                report.overdeleted = len(overdeleted)

        # -- phase 2: rederivation --------------------------------------------
        # Overdeleted triples with a surviving one-step derivation come back;
        # so do retracted base triples that are still entailed (a rebuild
        # would include them in the derived-only closure now that they are
        # no longer asserted). Anything they support is recovered in phase 3.
        rederived = Graph(dictionary=dictionary)
        if len(overdeleted) or len(removed_g):
            with span("dred.rederive", "reasoning"):
                current = (base, derived)
                for row in chain(overdeleted.triples_ids(), removed_g.triples_ids()):
                    if base.has_ids(*row) or derived.has_ids(*row):
                        continue
                    if engine.derivable(row, current):
                        derived.add_ids(*row)
                        rederived.add_ids(*row)
                report.rederived = len(rederived)

        # -- phase 3: semi-naive insertion ------------------------------------
        with span("dred.insert", "reasoning"):
            seed = Graph.from_ids(
                (row for row in added_g.triples_ids() if base.has_ids(*row)), dictionary
            )
            _merge(seed, rederived)
            if len(seed):
                full = (base, derived)
                engine.saturate(seed, derived, full, _outside(*full), report.per_rule)
        report.derived_triples = len(derived)
        attrs["overdeleted"] = report.overdeleted
        attrs["rederived"] = report.rederived
        attrs["derived"] = report.derived_triples
    report.seconds = time.perf_counter() - started
    return report

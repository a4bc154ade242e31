"""The rule formalism: Horn rules over triple patterns.

A :class:`Rule` has premise triple patterns and a single conclusion
pattern; variables shared between premises join, and every conclusion
variable must appear in some premise (safe rules). Rules can be built
from patterns directly or parsed from a compact text notation::

    rule("rdfs9", "?c rdfs:subClassOf ?d . ?x rdf:type ?c -> ?x rdf:type ?d")
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.rdf.namespace import NamespaceManager
from repro.rdf.syntax import TermReader
from repro.rdf.terms import Triple, Variable


class RuleParseError(ValueError):
    """Malformed rule text."""


class Rule:
    """A safe Horn rule: ``premises -> conclusion``."""

    __slots__ = ("name", "premises", "conclusion")

    def __init__(self, name: str, premises: Sequence[Triple], conclusion: Triple):
        if not premises:
            raise ValueError(f"rule {name!r} needs at least one premise")
        premise_vars: Set[str] = set()
        for p in premises:
            premise_vars |= _variables(p)
        head_vars = _variables(conclusion)
        unsafe = head_vars - premise_vars
        if unsafe:
            raise ValueError(
                f"rule {name!r} is unsafe: conclusion variables {sorted(unsafe)} "
                "do not occur in any premise"
            )
        self.name = name
        self.premises = tuple(premises)
        self.conclusion = conclusion

    def variables(self) -> Set[str]:
        out: Set[str] = set()
        for p in self.premises:
            out |= _variables(p)
        return out

    def instantiate(self, binding: Dict[str, object]) -> Triple:
        """Ground the conclusion under ``binding``."""
        terms = []
        for term in self.conclusion:
            if isinstance(term, Variable):
                terms.append(binding[term.name])
            else:
                terms.append(term)
        return Triple(*terms)

    def __repr__(self) -> str:
        body = " . ".join(p.n3()[:-2] for p in self.premises)
        return f"<Rule {self.name}: {body} -> {self.conclusion.n3()[:-2]}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and other.name == self.name
            and other.premises == self.premises
            and other.conclusion == self.conclusion
        )

    def __hash__(self) -> int:
        return hash((Rule, self.name, self.premises, self.conclusion))


def _variables(pattern: Triple) -> Set[str]:
    return {t.name for t in pattern if isinstance(t, Variable)}


def rule(name: str, text: str, nsm: NamespaceManager = None) -> Rule:
    """Parse ``"premise . premise -> conclusion"`` notation into a Rule.

    Terms are ``?vars``, prefixed names resolved through ``nsm`` (default
    prefixes rdf/rdfs/owl/xsd when omitted), ``<full-iris>`` or literals.
    """

    def error(message: str, position: int, line: int) -> RuleParseError:
        return RuleParseError(f"rule {name!r}: {message}")

    reader = TermReader(text, nsm or NamespaceManager(), error, variables=True)
    premises = _patterns(reader)
    if not (reader.accept("PUNCT", "-") and reader.accept("PUNCT", ">")):
        raise reader.error("missing '->'")
    conclusions = _patterns(reader)
    reader.expect("EOF")
    if len(conclusions) != 1:
        raise RuleParseError(f"rule {name!r}: exactly one conclusion required")
    try:
        return Rule(name, premises, conclusions[0])
    except ValueError as exc:
        raise RuleParseError(str(exc)) from None


def _patterns(reader: TermReader) -> List[Triple]:
    """Triple patterns separated (and optionally ended) by ``.``."""
    patterns: List[Triple] = []
    while True:
        patterns.extend(Triple(*t) for t in reader.parse_triples_same_subject())
        if not reader.accept("PUNCT", ".") or reader.at("PUNCT", "-") or reader.at("EOF"):
            return patterns

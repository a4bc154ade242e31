"""Entailment: forward-chaining rules and entailment indexes.

Oracle's Semantic Web option materializes derived triples into
*entailment indexes* built from a rulebase (the paper uses ``OWLPRIME``).
The derived triples "only exist through the indexes" — queries that do
not name the rulebase never see them (Section III.B). This package
replicates that design:

* :mod:`repro.reasoning.rules` — the rule formalism (premise patterns →
  one conclusion pattern);
* :mod:`repro.reasoning.rulebase` — the ``RDFS`` and ``OWLPRIME``
  rulebases, plus user-defined rulebase registration;
* :mod:`repro.reasoning.engine` — semi-naive forward chaining to a
  fixpoint, producing only the *derived* triples, plus DRed
  (delete/rederive) incremental maintenance of an existing closure;
* :mod:`repro.reasoning.index` — building and refreshing the entailment
  index of a store model, with O(1) delta-tracked staleness.
"""

from repro.reasoning.rules import Rule, RuleParseError, rule
from repro.reasoning.rulebase import (
    OWLPRIME,
    RDFS_RULEBASE,
    Rulebase,
    get_rulebase,
    register_rulebase,
    rulebase_names,
)
from repro.reasoning.engine import (
    InferenceReport,
    closure,
    maintain_closure,
)
from repro.reasoning.index import (
    DeltaTracker,
    EntailmentIndexManager,
    build_entailment_index,
)

__all__ = [
    "DeltaTracker",
    "EntailmentIndexManager",
    "InferenceReport",
    "OWLPRIME",
    "RDFS_RULEBASE",
    "Rule",
    "RuleParseError",
    "Rulebase",
    "build_entailment_index",
    "closure",
    "get_rulebase",
    "maintain_closure",
    "register_rulebase",
    "rule",
    "rulebase_names",
]

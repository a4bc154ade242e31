"""SPARQL (subset) query engine.

The paper queries the meta-data graph through Oracle's ``SEM_MATCH``
SPARQL support (Listings 1 and 2). This package implements the SPARQL
fragment those use cases need — SELECT and ASK over basic graph
patterns, property paths, FILTER with the SPARQL 1.0 builtins (including
``REGEX``), OPTIONAL, UNION, BIND, VALUES, DISTINCT, ORDER BY,
LIMIT/OFFSET and GROUP BY with aggregates, plus SPARQL Update — over the
graphs of :mod:`repro.rdf`. ``docs/serving.md`` lists the subset; any
other form is a :class:`SparqlParseError`.

Typical use::

    from repro.sparql import execute
    rows = execute(graph, '''
        PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
        SELECT ?class ?object WHERE {
            ?object rdf:type ?c .
            ?c rdfs:label ?class .
            ?object dm:hasName ?term .
            FILTER regex(?term, "customer", "i")
        }
    ''')

The Oracle-flavoured entry point (``SEM_MODELS`` / ``SEM_RULEBASES`` /
``SEM_ALIASES``) lives in :mod:`repro.oracle`.
"""

from repro.sparql.errors import SparqlError, SparqlParseError, SparqlEvalError
from repro.sparql.paths import (
    Path,
    PathAlternative,
    PathInverse,
    PathOptional,
    PathPlus,
    PathSequence,
    PathStar,
    PathStep,
    eval_path,
)
from repro.sparql.tokenizer import Token, tokenize
from repro.sparql.algebra import (
    Aggregate,
    AskQuery,
    BGP,
    Filter,
    Join,
    LeftJoin,
    Projection,
    Query,
    SelectQuery,
    Union,
)
from repro.sparql.expressions import (
    BinaryExpr,
    ConstExpr,
    Expression,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
)
from repro.sparql.parser import parse_query
from repro.sparql.evaluator import evaluate
from repro.sparql.explain import explain
from repro.sparql.plancache import PlanCache, PreparedQuery
from repro.sparql.update import UpdateResult, execute_update, parse_update
from repro.sparql.results import Row, SolutionSequence
from repro.sparql.planner import BGPPlan, order_patterns, plan_bgp


def execute(graph, query_text, nsm=None, bindings=None, plan_cache=None):
    """Parse and evaluate ``query_text`` against ``graph``.

    ``graph`` is a :class:`~repro.rdf.Graph` or
    :class:`~repro.rdf.GraphView`. Returns a
    :class:`~repro.sparql.results.SolutionSequence` for SELECT and a
    bool for ASK.

    Passing a :class:`PlanCache` as ``plan_cache`` reuses parsed queries
    and join orders across calls.
    """
    if plan_cache is not None:
        plan = plan_cache.prepare(graph, query_text, nsm=nsm)
        return evaluate(graph, plan.query, initial_bindings=bindings, plan=plan)
    query = parse_query(query_text, nsm=nsm)
    return evaluate(graph, query, initial_bindings=bindings)


__all__ = [
    "Aggregate",
    "AskQuery",
    "BGP",
    "BGPPlan",
    "BinaryExpr",
    "ConstExpr",
    "Expression",
    "Filter",
    "FunctionExpr",
    "Join",
    "LeftJoin",
    "Path",
    "PathAlternative",
    "PathInverse",
    "PathOptional",
    "PathPlus",
    "PathSequence",
    "PathStar",
    "PathStep",
    "PlanCache",
    "PreparedQuery",
    "Projection",
    "Query",
    "Row",
    "SelectQuery",
    "SolutionSequence",
    "SparqlError",
    "SparqlEvalError",
    "SparqlParseError",
    "Token",
    "UnaryExpr",
    "Union",
    "UpdateResult",
    "VarExpr",
    "eval_path",
    "evaluate",
    "execute",
    "execute_update",
    "explain",
    "parse_update",
    "order_patterns",
    "parse_query",
    "plan_bgp",
    "tokenize",
]

"""SPARQL (subset) query engine.

The paper queries the meta-data graph through Oracle's ``SEM_MATCH``
SPARQL support (Listings 1 and 2). This package implements the SPARQL
fragment those use cases need — basic graph patterns, FILTER expressions
(including ``REGEX``), OPTIONAL, UNION, DISTINCT, ORDER BY, LIMIT/OFFSET,
and GROUP BY with aggregates — over the graphs of :mod:`repro.rdf`.

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
    ConstructQuery,
    Distinct,
    Filter,
    Join,
    LeftJoin,
    OrderBy,
    Projection,
    Query,
    SelectQuery,
    Slice,
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
from repro.sparql.planner import (
    BGPPlan,
    order_patterns,
    pattern_selectivity,
    plan_bgp,
)


def execute(graph, query_text, nsm=None, bindings=None, plan_cache=None):
    """Parse and evaluate ``query_text`` against ``graph``.

    ``graph`` is a :class:`~repro.rdf.Graph` or
    :class:`~repro.rdf.GraphView`. Returns a
    :class:`~repro.sparql.results.SolutionSequence` for SELECT, a bool
    for ASK, and a :class:`~repro.rdf.Graph` for CONSTRUCT.

    Passing a :class:`PlanCache` as ``plan_cache`` reuses parsed queries
    and join orders across calls.
    """
    if plan_cache is not None:
        return plan_cache.execute(graph, query_text, nsm=nsm, bindings=bindings)
    query = parse_query(query_text, nsm=nsm)
    return evaluate(graph, query, initial_bindings=bindings)


__all__ = [
    "Aggregate",
    "AskQuery",
    "BGP",
    "BGPPlan",
    "BinaryExpr",
    "ConstExpr",
    "ConstructQuery",
    "Distinct",
    "Expression",
    "Filter",
    "FunctionExpr",
    "Join",
    "LeftJoin",
    "OrderBy",
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
    "Slice",
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
    "pattern_selectivity",
    "plan_bgp",
    "tokenize",
]

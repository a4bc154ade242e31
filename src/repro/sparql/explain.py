"""Query plans: EXPLAIN for the SPARQL engine.

:func:`explain` renders the evaluation plan of a query against a graph —
the algebra tree, the join order the selectivity planner chose for each
BGP, and the index-based cardinality estimate per triple pattern. The
output is what a DBA would read before letting a new meta-data query
loose on the warehouse.
"""

from __future__ import annotations

from typing import List, Optional

from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import Triple, Variable

from repro.sparql.algebra import (
    AskQuery,
    BGP,
    ConstructQuery,
    DescribeQuery,
    Extend,
    Filter,
    Join,
    LeftJoin,
    Minus,
    Pattern,
    Query,
    SelectQuery,
    Union,
    ValuesPattern,
)
from repro.sparql.parser import parse_query
from repro.sparql.planner import plan_bgp


def explain(
    graph,
    query,
    nsm: Optional[NamespaceManager] = None,
    plan=None,
    profile=None,
) -> str:
    """Render the evaluation plan of ``query`` (text or algebra) against
    ``graph``. ``plan`` is the
    :class:`~repro.sparql.plancache.PreparedQuery` the caller will run;
    when given, its query tree and its BGP plans (re-cost corrections
    included) are rendered, so the output is the plan that executes
    rather than a fresh one.

    ``profile`` optionally attaches a collected
    :class:`~repro.obs.profile.QueryProfile` (EXPLAIN ANALYZE style):
    the static plan is followed by the operators that actually ran,
    their row counts, and the cache verdicts."""
    if plan is not None:
        query = plan.query  # the BGP plans are memoized on this tree's nodes
    elif isinstance(query, str):
        query = parse_query(query, nsm=nsm)
    lines: List[str] = []
    if isinstance(query, SelectQuery):
        header = "SELECT"
        if query.distinct:
            header += " DISTINCT"
        if query.projection.select_all:
            header += " *"
        else:
            header += " " + " ".join(f"?{v}" for v in query.projection.output_names())
        lines.append(header)
        _explain_pattern(graph, query.pattern, lines, 1, plan)
        if query.group_by:
            lines.append("  GROUP BY " + " ".join(f"?{v}" for v in query.group_by))
        if query.having is not None:
            lines.append("  HAVING <expression>")
        if query.order_by:
            lines.append(f"  ORDER BY ({len(query.order_by)} condition(s))")
        if query.limit is not None or query.offset:
            lines.append(f"  SLICE limit={query.limit} offset={query.offset}")
    elif isinstance(query, AskQuery):
        lines.append("ASK (stops at the first solution)")
        _explain_pattern(graph, query.pattern, lines, 1, plan)
    elif isinstance(query, ConstructQuery):
        lines.append(f"CONSTRUCT ({len(query.template)} template triple(s))")
        _explain_pattern(graph, query.pattern, lines, 1, plan)
    elif isinstance(query, DescribeQuery):
        lines.append(
            f"DESCRIBE ({len(query.resources)} resource(s), "
            f"{len(query.variables)} variable(s))"
        )
        if query.pattern is not None:
            _explain_pattern(graph, query.pattern, lines, 1, plan)
    else:
        lines.append(f"<{type(query).__name__}>")
    if profile is not None:
        lines.append(profile.render(indent="  "))
    return "\n".join(lines)


def _explain_pattern(
    graph, pattern: Pattern, lines: List[str], depth: int, plan=None
) -> None:
    pad = "  " * depth
    if isinstance(pattern, BGP):
        if plan is not None:
            bgp_plan = plan.bgp_plan(graph, pattern)
        else:
            bgp_plan = plan_bgp(graph, list(pattern.patterns))
        lines.append(
            f"{pad}BGP ({len(bgp_plan.order)} pattern(s), planner order, "
            f"method={bgp_plan.method}, cost={bgp_plan.cost:.1f}):"
        )
        for i, stage in enumerate(bgp_plan.stages, start=1):
            if i == 1:
                marker = "first"
            elif stage.connected:
                marker = "index-joined"
            else:
                marker = "CARTESIAN"
            operator = ""
            if i > 1 and stage.operator in ("hash-join", "bind-join"):
                operator = f" via {stage.operator}"
            lines.append(
                f"{pad}  {i}. {_pattern_text(stage.pattern)}   "
                f"~{_fmt_rows(stage.rows_out)} row(s), {marker}{operator}"
            )
        for path_triple in pattern.paths:
            lines.append(
                f"{pad}  PATH {_term_text(path_triple.subject)} "
                f"{path_triple.path.text()} {_term_text(path_triple.object)}   (BFS)"
            )
    elif isinstance(pattern, Join):
        lines.append(f"{pad}JOIN")
        _explain_pattern(graph, pattern.left, lines, depth + 1, plan)
        _explain_pattern(graph, pattern.right, lines, depth + 1, plan)
    elif isinstance(pattern, LeftJoin):
        lines.append(f"{pad}OPTIONAL (left join)")
        _explain_pattern(graph, pattern.left, lines, depth + 1, plan)
        _explain_pattern(graph, pattern.right, lines, depth + 1, plan)
    elif isinstance(pattern, Union):
        lines.append(f"{pad}UNION")
        _explain_pattern(graph, pattern.left, lines, depth + 1, plan)
        _explain_pattern(graph, pattern.right, lines, depth + 1, plan)
    elif isinstance(pattern, Filter):
        lines.append(f"{pad}FILTER <expression>")
        _explain_pattern(graph, pattern.pattern, lines, depth + 1, plan)
    elif isinstance(pattern, Minus):
        lines.append(f"{pad}MINUS")
        _explain_pattern(graph, pattern.left, lines, depth + 1, plan)
        _explain_pattern(graph, pattern.right, lines, depth + 1, plan)
    elif isinstance(pattern, Extend):
        lines.append(f"{pad}BIND -> ?{pattern.variable}")
        _explain_pattern(graph, pattern.pattern, lines, depth + 1, plan)
    elif isinstance(pattern, ValuesPattern):
        lines.append(
            f"{pad}VALUES ({', '.join('?' + n for n in pattern.names)}) "
            f"x {len(pattern.rows)} row(s)"
        )
    else:
        lines.append(f"{pad}<{type(pattern).__name__}>")


def _fmt_rows(estimate: float) -> str:
    """Row estimates render as integers when whole, one decimal when a
    per-binding probe pushed them fractional."""
    if estimate == int(estimate):
        return str(int(estimate))
    return f"{estimate:.1f}"


def _pattern_text(triple: Triple) -> str:
    return " ".join(_term_text(t) for t in triple)


def _term_text(term) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    return term.n3()

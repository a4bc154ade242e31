"""Query evaluation over :class:`~repro.rdf.Graph` / GraphView.

Evaluation is staged: pattern nodes produce binding sets, solution
modifiers post-process the materialized row list. BGPs are join-ordered
by :mod:`repro.sparql.planner` and run on the id-space pipeline: terms
are interned through the graph's
:class:`~repro.rdf.dictionary.TermDictionary`, and each stage picks
hash-join (one scan of the pattern, hashed on the shared-variable ids)
or bind-join (an index nested loop with binding substitution) from the
planner's cost estimate and the exact size of the intermediate result.

Every graph the engine reads has one dictionary: a store's models and
indexes share it, and a :class:`~repro.rdf.GraphView` over layers that
do not is refused at construction. So every BGP runs on ids; only
property-path stages match in term space, after the id rows decode.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.profile import count_rows, current_profile
from repro.obs.trace import span, tracing
from repro.rdf.terms import Literal, Term, Variable
from repro.sparql.algebra import (
    Aggregate,
    AskQuery,
    BGP,
    Extend,
    Filter,
    Join,
    LeftJoin,
    Pattern,
    Query,
    SelectQuery,
    Union,
    ValuesPattern,
    filter_bindings,
)
from repro.sparql.cancel import checked_iter, current_cancel
from repro.sparql.errors import ExpressionError, SparqlEvalError
from repro.sparql.expressions import compile_condition
from repro.sparql.plancache import PreparedQuery
from repro.sparql.planner import HASH_MIN_ROWS, PROBE_COST
from repro.sparql.results import Row, SolutionSequence

Binding = Dict[str, Term]


def evaluate(
    graph,
    query: Query,
    initial_bindings: Optional[Binding] = None,
    plan=None,
):
    """Evaluate ``query`` against ``graph``.

    Returns a :class:`SolutionSequence` for SELECT and ``bool`` for ASK.
    ``plan`` is the :class:`~repro.sparql.plancache.PreparedQuery` whose
    join orders are used; without one, a fresh one plans each (BGP,
    bound set) once for this evaluation.
    """
    if plan is None:
        plan = PreparedQuery(None, query, graph.generation)
    initial = dict(initial_bindings or {})
    with span("plan", "sparql", query=type(query).__name__):
        if isinstance(query, SelectQuery):
            return _evaluate_select(graph, query, initial, plan)
        if isinstance(query, AskQuery):
            return any(
                True for _ in eval_pattern(graph, query.pattern, initial, plan)
            )
    raise SparqlEvalError(f"unknown query type {type(query).__name__}")


# ---------------------------------------------------------------------------
# Pattern evaluation
# ---------------------------------------------------------------------------


def eval_pattern(
    graph,
    pattern: Pattern,
    binding: Binding,
    plan: PreparedQuery,
) -> Iterator[Binding]:
    """Yield solution bindings for ``pattern`` extending ``binding``,
    with the BGP plans ``plan`` holds."""
    if isinstance(pattern, BGP):
        yield from _eval_bgp(graph, pattern, binding, plan)
    elif isinstance(pattern, Join):
        for left in eval_pattern(graph, pattern.left, binding, plan):
            yield from eval_pattern(graph, pattern.right, left, plan)
    elif isinstance(pattern, LeftJoin):
        for left in eval_pattern(graph, pattern.left, binding, plan):
            matched = False
            for joined in eval_pattern(graph, pattern.right, left, plan):
                matched = True
                yield joined
            if not matched:
                yield left
    elif isinstance(pattern, Union):
        yield from eval_pattern(graph, pattern.left, binding, plan)
        yield from eval_pattern(graph, pattern.right, binding, plan)
    elif isinstance(pattern, Filter):
        pushed = filter_bindings(pattern, binding)
        if pushed:
            binding = {**binding, **pushed}
        test = pattern.test
        for row in eval_pattern(graph, pattern.pattern, binding, plan):
            if test(row) is True:
                yield row
    elif isinstance(pattern, Extend):
        for row in eval_pattern(graph, pattern.pattern, binding, plan):
            if pattern.variable in row:
                raise SparqlEvalError(
                    f"BIND target ?{pattern.variable} is already bound"
                )
            extended = dict(row)
            try:
                extended[pattern.variable] = pattern.expression.evaluate(row)
            except ExpressionError:
                pass  # errors leave the variable unbound (SPARQL semantics)
            yield extended
    elif isinstance(pattern, ValuesPattern):
        for values_row in pattern.rows:
            extended = dict(binding)
            ok = True
            for name, value in zip(pattern.names, values_row):
                if value is None:
                    continue  # UNDEF constrains nothing
                bound = extended.get(name)
                if bound is None:
                    extended[name] = value
                elif bound != value:
                    ok = False
                    break
            if ok:
                yield extended
    else:
        raise SparqlEvalError(f"unknown pattern node {type(pattern).__name__}")


def _eval_bgp(graph, bgp: BGP, binding: Binding, plan) -> Iterator[Binding]:
    patterns = bgp.patterns
    paths = bgp.paths
    if not patterns and not paths:
        yield dict(binding)
        return
    # variables bound by the caller (initial bindings, enclosing joins)
    # seed the planner's probe estimates; the prepared query keeps one
    # plan per bound-name set, which is stable across rows of one template
    bound_names = frozenset(binding) if binding else frozenset()
    bgp_plan = plan.bgp_plan(graph, bgp, bound_names)

    prof = current_profile()
    if prof is not None:
        prof.count("bgps")

    dictionary = graph.dictionary
    piped = _run_id_pipeline(graph, dictionary, binding, bgp_plan, prof)
    if piped is None:
        return
    slots, rows, extras = piped
    if prof is not None:
        prof.count("rows_out", len(rows))
    token = current_cancel()
    if token is not None:
        rows = checked_iter(rows, token)
    term = dictionary.term
    names = list(slots)  # insertion order == slot order
    if paths and prof is not None:
        def decode() -> Iterator[Binding]:
            for id_row in rows:
                decoded = dict(extras)
                for name, tid in zip(names, id_row):
                    decoded[name] = term(tid)
                yield from _recurse_paths(graph, paths, 0, decoded)

        stats = prof.operator("path", detail=f"{len(paths)} step(s)")
        yield from count_rows(decode(), stats)
        return
    for id_row in rows:
        decoded = dict(extras)
        for name, tid in zip(names, id_row):
            decoded[name] = term(tid)
        if paths:
            yield from _recurse_paths(graph, paths, 0, decoded)
        else:
            yield decoded


def _recurse_paths(graph, paths: Sequence, i: int, current: Binding) -> Iterator[Binding]:
    if i == len(paths):
        yield current
        return
    for extended in _match_path_pattern(graph, paths[i], current):
        yield from _recurse_paths(graph, paths, i + 1, extended)


# ---------------------------------------------------------------------------
# Id-space pipeline: bind-join and hash-join operators
#
# Intermediate solutions are flat tuples of term ids; ``slots`` maps each
# variable name to its tuple index. Extending a solution is tuple
# concatenation — no per-row dict allocation until final decode.
# ---------------------------------------------------------------------------

IdRow = Tuple[int, ...]


def _run_id_pipeline(
    graph,
    dictionary,
    binding: Binding,
    bgp_plan,
    prof=None,
) -> Optional[Tuple[Dict[str, int], List[IdRow], Binding]]:
    """Execute the planned triple stages over interned ids.

    Returns (variable slot map, id rows, pass-through term bindings), or
    None when the initial binding already rules out every solution.
    ``prof`` is the active :class:`~repro.obs.profile.QueryProfile` (or
    None); per-stage operator statistics and spans are recorded only
    when profiling or tracing is on.

    Each stage follows ``bgp_plan``'s hash/bind pricing, re-checked
    against the exact intermediate row count (:func:`_pick_hash_join`):
    that re-check is where a mis-estimated upstream cardinality is
    absorbed. Under profiling each operator records its estimate beside
    its actual rows, which EXPLAIN ANALYZE prints.
    """
    pattern_vars = set()
    for pat in bgp_plan.order:
        for t in pat:
            if isinstance(t, Variable):
                pattern_vars.add(t.name)

    slots: Dict[str, int] = {}
    initial: List[int] = []
    extras: Binding = {}
    for name, value in binding.items():
        if name in pattern_vars:
            tid = dictionary.lookup(value)
            if tid is None:
                # the bound term exists in no stored triple, and it is
                # used by a conjunctive pattern: no solutions
                return None
            slots[name] = len(initial)
            initial.append(tid)
        else:
            extras[name] = value

    if prof is not None and slots:
        prof.count("dict_lookups", len(slots))

    token = current_cancel()
    rows: List[IdRow] = [tuple(initial)]
    instrumented = prof is not None or tracing()
    for estimate in bgp_plan.stages:
        if token is not None:
            token.check()
            if prof is not None:
                prof.count("cancel_checks")
        if not instrumented:
            rows, _ = _join_stage(graph, dictionary, rows, slots, estimate)
        else:
            rows_in = len(rows)
            detail = estimate.detail
            if prof is not None:
                consts = sum(
                    1 for t in estimate.pattern if not isinstance(t, Variable)
                )
                if consts:
                    prof.count("dict_lookups", consts)
            started = perf_counter()
            with span("operator", "sparql", pattern=detail) as attrs:
                rows, op = _join_stage(graph, dictionary, rows, slots, estimate)
                attrs["op"] = op
                attrs["rows_in"] = rows_in
                attrs["rows_out"] = len(rows)
            if prof is not None:
                prof.operator(
                    op, detail=detail, rows_in=rows_in, rows_out=len(rows),
                    seconds=perf_counter() - started,
                    est_rows_out=estimate.rows_out,
                )
        if not rows:
            break
    return slots, rows, extras


def _join_stage(
    graph,
    dictionary,
    rows: List[IdRow],
    slots: Dict[str, int],
    estimate,
) -> Tuple[List[IdRow], str]:
    """Join ``rows`` with one planned triple pattern, picking the operator.

    Extends ``slots`` in place with the pattern's new variables (their
    values occupy the appended tuple positions). Returns the joined
    rows and the operator actually run (``"hash-join"``,
    ``"bind-join"``, ``"scan"`` for a shared-variable-free stage, or
    ``"no-match"`` when a constant term is absent from the dictionary).

    ``estimate`` is the planner's :class:`StageEstimate` for this stage;
    the hash/bind decision comes from its scan cardinality, re-evaluated
    against the exact intermediate row count.
    """
    # per position: the constant id, the bound row slot, or a new name
    const: List[Optional[int]] = [None, None, None]
    bound_slot: List[Optional[int]] = [None, None, None]
    names: List[Optional[str]] = [None, None, None]
    for i, t in enumerate(estimate.pattern):
        if isinstance(t, Variable):
            names[i] = t.name
            bound_slot[i] = slots.get(t.name)
        else:
            tid = dictionary.lookup(t)
            if tid is None:
                return [], "no-match"
            const[i] = tid

    # new variables in first-occurrence order; repeated occurrences of
    # the same new variable become equality checks (e.g. ?x ?p ?x)
    new_names: List[str] = []
    ext_positions: List[int] = []  # triple position supplying each new slot
    eq_checks: List[Tuple[int, int]] = []  # (position, position) must match
    first_pos: Dict[str, int] = {}
    for i, name in enumerate(names):
        if name is None or bound_slot[i] is not None:
            continue
        if name in first_pos:
            eq_checks.append((first_pos[name], i))
        else:
            first_pos[name] = i
            new_names.append(name)
            ext_positions.append(i)

    shared = sorted(
        {names[i] for i in range(3) if names[i] is not None and bound_slot[i] is not None}
    )
    if shared and _pick_hash_join(len(rows), estimate):
        op = "hash-join"
        out = _hash_join(
            graph, const, names, bound_slot, slots,
            ext_positions, eq_checks, rows,
        )
    else:
        op = "bind-join" if shared else "scan"
        out = _bind_join(
            graph, const, bound_slot, ext_positions, eq_checks, rows
        )
    base = len(slots)
    for offset, name in enumerate(new_names):
        slots[name] = base + offset
    return out, op


def _pick_hash_join(n_rows: int, estimate) -> bool:
    """Hash-vs-bind decision for one joining stage.

    Compares what the two operators pay beyond the rows they both emit:
    a hash join pays the build scan plus one lookup per input row, a
    bind join pays :data:`~repro.sparql.planner.PROBE_COST` index
    accesses per input row. Only the scan is an estimate-time number —
    the row count is exact at this point — so a mis-planned upstream
    cardinality cannot flip the choice the wrong way. Below
    :data:`~repro.sparql.planner.HASH_MIN_ROWS` rows a bind join always
    wins (the hash table would cost more than the probes); the planner
    prices stages with the same floor.
    """
    if n_rows < HASH_MIN_ROWS:
        return False
    return estimate.scan + n_rows <= n_rows * PROBE_COST


def _bind_join(
    graph,
    const: List[Optional[int]],
    bound_slot: List[Optional[int]],
    ext_positions: List[int],
    eq_checks: List[Tuple[int, int]],
    rows: List[IdRow],
) -> List[IdRow]:
    """Index nested loop with binding substitution, over ids."""
    out: List[IdRow] = []
    append = out.append
    triples_ids = graph.triples_ids
    s_const, p_const, o_const = const
    s_slot, p_slot, o_slot = bound_slot
    token = current_cancel()
    if not eq_checks and len(ext_positions) == 1:
        # dominant shape (one new variable per pattern): skip the
        # per-triple genexpr tuple build
        ep = ext_positions[0]
        for row in rows if token is None else checked_iter(rows, token, 256):
            s = row[s_slot] if s_slot is not None else s_const
            p = row[p_slot] if p_slot is not None else p_const
            o = row[o_slot] if o_slot is not None else o_const
            scan = triples_ids(s, p, o)
            if token is not None:
                scan = checked_iter(scan, token)
            for t in scan:
                append(row + (t[ep],))
        return out
    if token is not None:
        rows = checked_iter(rows, token, 256)
    for row in rows:
        s = row[s_slot] if s_slot is not None else s_const
        p = row[p_slot] if p_slot is not None else p_const
        o = row[o_slot] if o_slot is not None else o_const
        for t in triples_ids(s, p, o):
            if eq_checks and any(t[a] != t[b] for a, b in eq_checks):
                continue
            append(row + tuple(t[i] for i in ext_positions))
    return out


def _hash_join(
    graph,
    const: List[Optional[int]],
    names: List[Optional[str]],
    bound_slot: List[Optional[int]],
    slots: Dict[str, int],
    ext_positions: List[int],
    eq_checks: List[Tuple[int, int]],
    rows: List[IdRow],
) -> List[IdRow]:
    """Scan the pattern once, hash on the shared-variable ids, probe rows."""
    # key: one triple position per shared variable (plus an equality
    # check when the same shared variable fills two positions)
    key_positions: List[int] = []
    key_slots: List[int] = []
    seen_shared: Dict[str, int] = {}
    shared_eq: List[Tuple[int, int]] = []
    for i, name in enumerate(names):
        if name is None or bound_slot[i] is None:
            continue
        if name in seen_shared:
            shared_eq.append((seen_shared[name], i))
        else:
            seen_shared[name] = i
            key_positions.append(i)
            key_slots.append(slots[name])

    # single shared variable with no equality checks is the dominant
    # shape; key on the bare id to skip per-triple/per-row tuple builds
    single_key = (
        len(key_positions) == 1 and not shared_eq and not eq_checks
    )
    table: Dict = {}
    setdefault = table.setdefault
    triples = graph.triples_ids(*const)
    token = current_cancel()
    if token is not None:
        triples = checked_iter(triples, token)
    if single_key:
        kp = key_positions[0]
        if len(ext_positions) == 1:
            ep = ext_positions[0]
            for t in triples:
                setdefault(t[kp], []).append((t[ep],))
        else:
            for t in triples:
                setdefault(t[kp], []).append(
                    tuple(t[i] for i in ext_positions)
                )
    else:
        for t in triples:
            if shared_eq and any(t[a] != t[b] for a, b in shared_eq):
                continue
            if eq_checks and any(t[a] != t[b] for a, b in eq_checks):
                continue
            key = tuple(t[i] for i in key_positions)
            ext = tuple(t[i] for i in ext_positions)
            setdefault(key, []).append(ext)

    out: List[IdRow] = []
    append = out.append
    get = table.get
    if token is not None:
        rows = checked_iter(rows, token, 256)
    if single_key:
        ks = key_slots[0]
        for row in rows:
            exts = get(row[ks])
            if exts:
                for ext in exts:
                    append(row + ext)
        return out
    for row in rows:
        exts = get(tuple(row[i] for i in key_slots))
        if exts:
            for ext in exts:
                append(row + ext)
    return out


# ---------------------------------------------------------------------------
# Property paths (matched in term space)
# ---------------------------------------------------------------------------


def _match_path_pattern(graph, pattern, binding: Binding) -> Iterator[Binding]:
    """Match one property-path pattern under ``binding``."""
    from repro.sparql.paths import eval_path

    def resolve(term):
        if isinstance(term, Variable):
            return binding.get(term.name)
        return term

    start = resolve(pattern.subject)
    end = resolve(pattern.object)
    if isinstance(start, Literal):
        return
    for s_value, o_value in eval_path(graph, pattern.path, start=start, end=end):
        extended = dict(binding)
        ok = True
        for term, value in ((pattern.subject, s_value), (pattern.object, o_value)):
            if isinstance(term, Variable):
                bound = extended.get(term.name)
                if bound is None:
                    extended[term.name] = value
                elif bound != value:
                    ok = False
                    break
            elif term != value:
                ok = False
                break
        if ok:
            yield extended


# ---------------------------------------------------------------------------
# SELECT evaluation
# ---------------------------------------------------------------------------


def _evaluate_select(graph, query: SelectQuery, initial: Binding, plan) -> SolutionSequence:
    rows: List[Binding] = list(eval_pattern(graph, query.pattern, initial, plan))

    if query.group_by or query.projection.aggregates:
        rows = _aggregate(rows, query)
        columns = query.projection.output_names()
    elif query.projection.select_all:
        columns = sorted({name for row in rows for name in row} | query.pattern.variables())
    else:
        columns = query.projection.output_names()

    if not (
        query.group_by or query.projection.aggregates or query.projection.select_all
    ):
        # SELECT * keeps the solution dicts as-is: ``columns`` already
        # covers every bound name, so projecting would be a plain copy.
        rows = [
            {name: row[name] for name in columns if name in row} for row in rows
        ]

    if query.distinct:
        seen = set()
        deduped = []
        for row in rows:
            key = frozenset(row.items())
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        rows = deduped

    for condition in reversed(query.order_by):
        rows = _stable_sort(rows, condition)

    if query.offset:
        rows = rows[query.offset :]
    if query.limit is not None:
        rows = rows[: query.limit]

    return SolutionSequence(columns, [Row.adopt(r) for r in rows])


def _stable_sort(rows: List[Binding], condition) -> List[Binding]:
    def key(row: Binding):
        try:
            term = condition.expression.evaluate(row)
        except ExpressionError:
            return (1, ())
        return (0, term.sort_key())

    return sorted(rows, key=key, reverse=condition.descending)


def _aggregate(rows: List[Binding], query: SelectQuery) -> List[Binding]:
    projection = query.projection
    having = None if query.having is None else compile_condition(query.having)
    groups: Dict[Tuple, List[Binding]] = {}
    order: List[Tuple] = []
    for row in rows:
        key = tuple(row.get(v) for v in query.group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    if not query.group_by and not groups:
        # aggregates over the empty solution set produce one group
        groups[()] = []
        order.append(())

    out: List[Binding] = []
    for key in order:
        members = groups[key]
        result: Binding = {}
        for var, value in zip(query.group_by, key):
            if value is not None:
                result[var] = value
        for agg in projection.aggregates:
            value = _compute_aggregate(agg, members)
            if value is not None:
                result[agg.alias] = value
        if having is not None and having(result) is not True:
            continue
        out.append(result)
    return out


def _compute_aggregate(agg: Aggregate, members: List[Binding]) -> Optional[Term]:
    if agg.function == "COUNT" and agg.expression is None:
        values: List[Term] = [Literal(1)] * len(members)  # COUNT(*)
    else:
        values = []
        for row in members:
            try:
                values.append(agg.expression.evaluate(row))
            except ExpressionError:
                continue
    if agg.distinct:
        seen = set()
        unique = []
        for v in values:
            if v not in seen:
                seen.add(v)
                unique.append(v)
        values = unique

    fn = agg.function
    if fn == "COUNT":
        return Literal(len(values))
    if not values:
        return Literal(0) if fn == "SUM" else None
    if fn == "SUM":
        return Literal(_numeric_sum(values))
    if fn == "AVG":
        total = _numeric_sum(values)
        avg = total / len(values)
        return Literal(int(avg)) if isinstance(avg, float) and avg.is_integer() else Literal(avg)
    if fn == "MIN":
        return min(values, key=lambda t: t.sort_key())
    if fn == "MAX":
        return max(values, key=lambda t: t.sort_key())
    if fn == "SAMPLE":
        return values[0]
    if fn == "GROUP_CONCAT":
        parts = [v.lexical if isinstance(v, Literal) else v.n3() for v in values]
        return Literal(agg.separator.join(parts))
    raise SparqlEvalError(f"unknown aggregate {fn!r}")


def _numeric_sum(values: Sequence[Term]):
    total = 0
    for v in values:
        if not (isinstance(v, Literal) and v.is_numeric()):
            raise SparqlEvalError(f"non-numeric value in numeric aggregate: {v!r}")
        total += v.to_python()
    return total

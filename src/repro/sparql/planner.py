"""Cost-based join-order planning for basic graph patterns.

Oracle orders SEM_MATCH triple patterns with its cost-based optimizer;
this module is our version of it, grounded in the per-predicate
statistics catalog of :mod:`repro.rdf.stats` (the Koch meta-level
indexing idea from PAPERS.md).

:func:`plan_bgp` performs Selinger-style left-deep dynamic-programming
join reordering over the whole BGP (up to :data:`DP_PATTERN_LIMIT`
patterns; a cost-model greedy takes over beyond that). Each candidate
order is costed stage by stage with estimated binding propagation:

* a pattern's **scan** cardinality is exact — the graph's indexes are
  asked with the ground positions as constants;
* a variable **bound upstream** turns the pattern into a per-binding
  probe: the scan cardinality divided by the distinct count at the
  bound position (per-predicate when the predicate is ground, the
  graph-wide distinct count otherwise);
* each joining stage is priced as the cheaper of a **bind join**
  (``rows_in x (1 + fanout)`` probes, skew-weighted by the heavy-hitter
  histogram) and a **hash join** (one scan to build, one probe per
  row); the winner is recorded on the stage for EXPLAIN, and the
  executor re-checks it against the exact row count.

Equal-cost orders tie-break first on fewer unbound variables introduced
and then on original pattern position, so plan-cache keys and EXPLAIN
output are stable across runs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.rdf.terms import Triple, Variable

#: Above this many patterns the O(n * 2^n) DP gives way to the
#: cost-model greedy (same cost function, no exhaustive search).
DP_PATTERN_LIMIT = 10

#: Relative price of one bind-join index probe versus one emitted row.
#: A probe pays per-binding dictionary traversal; emission streams rows
#: in bulk (measured ~4-6x apart on this executor). Pricing probes at
#: parity made orders with many low-fanout probes look as cheap as
#: orders doing the same work through a handful of bulk probes.
PROBE_COST = 6.0

#: Below this many intermediate rows the executor always bind-joins
#: (building a hash table for a handful of probes never pays); the cost
#: model honours the same floor so its operator pricing matches what
#: will actually run.
HASH_MIN_ROWS = 16


def pattern_text(pattern: Triple) -> str:
    """Compact one-line rendering of a triple pattern (stable across
    runs; the operator detail in profiles, spans and EXPLAIN output)."""
    return " ".join(
        f"?{t.name}" if isinstance(t, Variable) else t.n3() for t in pattern
    )


class _CostContext:
    """Per-planning-session cache of graph statistics lookups."""

    __slots__ = ("graph", "stats", "dictionary", "_pstats", "_scans", "estimates")

    def __init__(self, graph):
        self.graph = graph
        self.stats = graph.stats()
        self.dictionary = graph.dictionary
        self._pstats: Dict[object, object] = {}
        self._scans: Dict[int, int] = {}
        # (pattern idx, bound-here frozenset) -> (scan, mean, weighted);
        # shared between the order search and the stage materialization
        self.estimates: Dict[Tuple, Tuple[float, float, float]] = {}

    def scan_count(self, pattern: Triple) -> int:
        """Exact cardinality with variables as wildcards."""
        cached = self._scans.get(id(pattern))
        if cached is not None:
            return cached
        s, p, o = (None if isinstance(t, Variable) else t for t in pattern)
        n = self.graph.cached_count(s, p, o)
        self._scans[id(pattern)] = n
        return n

    def predicate_stats(self, pattern: Triple):
        """The catalog's :class:`PredicateStats` for a ground predicate."""
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            return None
        if predicate in self._pstats:
            return self._pstats[predicate]
        pid = self.dictionary.lookup(predicate)
        stats = self.stats.predicate(pid) if pid is not None else None
        self._pstats[predicate] = stats
        return stats

    def distinct_at(self, pattern: Triple, position: int) -> int:
        """Distinct term count at a triple position — the probe divisor
        for a variable bound upstream."""
        pstats = self.predicate_stats(pattern)
        if position == 0:
            if pstats is not None:
                return pstats.distinct_subjects
            return self.graph.distinct_subject_count()
        if position == 1:
            return self.graph.distinct_predicate_count()
        if pstats is not None:
            return pstats.distinct_objects
        return self.graph.distinct_object_count()


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def _estimate_pattern(
    ctx: _CostContext,
    pattern: Triple,
    bound_here: FrozenSet[str],
) -> Tuple[float, float, float, Optional[Tuple[float, ...]], float]:
    """(scan, mean fanout, weighted fanout, histogram prefix sums, tail
    mean) for one pattern with the given subset of its variables bound
    upstream.

    ``mean`` is the uniform per-probe expectation; ``weighted`` is the
    skew-aware one (heavy hitters exact, tail uniform). ``prefix`` and
    ``tail mean`` describe the heavy-hitter histogram at the probed
    position (descending-frequency prefix sums and the mean frequency
    past the histogram) — :func:`_bind_emission` caps the skew charge
    with them, because ``rows_in x weighted`` assumes every probe value
    is drawn frequency-weighted and can exceed what ``rows_in`` distinct
    probes could possibly emit.
    """
    scan = float(ctx.scan_count(pattern))
    if not bound_here:
        return scan, scan, scan, None, 0.0
    mean = scan
    pstats = ctx.predicate_stats(pattern)
    bound_positions = [
        i
        for i, t in enumerate(pattern)
        if isinstance(t, Variable) and t.name in bound_here
    ]
    for i in bound_positions:
        distinct = ctx.distinct_at(pattern, i)
        if distinct > 1:
            mean /= distinct
    weighted = mean
    prefix: Optional[Tuple[float, ...]] = None
    tail_mean = 0.0
    if (
        pstats is not None
        and len(bound_positions) == 1
        and isinstance(pattern.subject, Variable)
        and isinstance(pattern.object, Variable)
    ):
        # ?s P ?o with one side bound: the histogram knows the skew
        position = bound_positions[0]
        skewed = (
            pstats.weighted_subject_fanout()
            if position == 0
            else pstats.weighted_object_fanout()
        )
        if skewed > weighted:
            weighted = skewed
        tops = pstats.top_subjects if position == 0 else pstats.top_objects
        if tops:
            acc = 0.0
            sums = [0.0]
            for _term_id, frequency in tops:
                acc += frequency
                sums.append(acc)
            prefix = tuple(sums)
            distinct = ctx.distinct_at(pattern, position)
            tail_mean = max(0.0, scan - acc) / max(distinct - len(tops), 1)
    return scan, mean, weighted, prefix, tail_mean


def _bind_emission(
    rows_in: float,
    mean: float,
    weighted: float,
    prefix: Optional[Tuple[float, ...]],
    tail_mean: float,
) -> float:
    """Rows a bind join is charged for emitting.

    The skew-weighted expectation (``rows_in x weighted``) models probe
    values drawn proportional to their frequency — the right guard when
    the input is join output that repeats heavy hitters. But when the
    probe values are few or near-distinct, it wildly overcharges: the
    histogram bounds what ``rows_in`` distinct probes could emit at
    most — the top-``rows_in`` frequencies plus a uniform tail. The
    charge is the smaller of the two; it also never drops below the
    uniform expectation, so the hub trap (a handful of probe values that
    ARE the heavy hitters) stays expensive."""
    expected = rows_in * max(weighted, 1.0)
    if prefix is None:
        return expected
    top_n = len(prefix) - 1
    index = min(int(rows_in), top_n)
    worst = prefix[index] + max(0.0, rows_in - top_n) * tail_mean
    return min(expected, max(worst, rows_in * max(mean, 1.0)))


def _stage_cost(
    rows_in: float,
    scan: float,
    mean: float,
    weighted: float,
    joins: bool,
    prefix: Optional[Tuple[float, ...]] = None,
    tail_mean: float = 0.0,
) -> Tuple[float, float]:
    """(estimated output rows, cost) of joining ``rows_in`` rows with one
    pattern. ``joins`` is False for a shared-variable-free stage (a scan
    cross-product against every row)."""
    if not joins:
        rows_out = rows_in * scan
        return rows_out, rows_in * (scan + 1.0)
    rows_out = rows_in * mean
    # a probe pays the index access (PROBE_COST) plus its emitted rows;
    # selectivity below one still pays off through the unclamped
    # rows_out propagated to later stages
    bind_cost = rows_in * PROBE_COST + _bind_emission(
        rows_in, mean, weighted, prefix, tail_mean
    )
    if rows_in < HASH_MIN_ROWS:
        return rows_out, bind_cost
    hash_cost = scan + rows_in + rows_out
    return rows_out, min(bind_cost, hash_cost)


class StageEstimate:
    """The planner's verdict on one join stage of a BGP order."""

    __slots__ = (
        "pattern", "index", "detail", "connected",
        "scan", "fanout", "probe_fanout", "rows_in", "rows_out",
        "operator", "cost",
    )

    def __init__(self, pattern, index, detail, connected,
                 scan, fanout, probe_fanout, rows_in, rows_out,
                 operator, cost):
        self.pattern = pattern
        self.index = index  # position in the original pattern list
        self.detail = detail
        self.connected = connected
        self.scan = scan
        self.fanout = fanout
        self.probe_fanout = probe_fanout
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.operator = operator  # "scan" | "bind-join" | "hash-join"
        self.cost = cost

    def __repr__(self) -> str:
        return (
            f"<StageEstimate {self.detail!r} {self.operator} "
            f"~{self.rows_in:.1f}->~{self.rows_out:.1f} cost={self.cost:.1f}>"
        )


class BGPPlan:
    """One BGP's chosen join order and per-stage estimates."""

    __slots__ = ("order", "stages", "method", "cost", "initial_bound")

    def __init__(self, order, stages, method="dp", initial_bound=frozenset()):
        self.order = order
        self.stages = stages
        self.method = method
        self.cost = sum(stage.cost for stage in stages)
        self.initial_bound = initial_bound

    def __repr__(self) -> str:
        return (
            f"<BGPPlan {self.method} {len(self.stages)} stage(s) "
            f"cost={self.cost:.1f}>"
        )


# ---------------------------------------------------------------------------
# Join reordering
# ---------------------------------------------------------------------------


def _variable_bits(
    patterns: Sequence[Triple], bound: FrozenSet[str]
) -> Tuple[List[int], int, Dict[int, str]]:
    """Bit-per-variable encoding of the patterns' variable sets — the
    order search runs entirely on int masks (set algebra on frozensets
    dominated the planning profile before this)."""
    bits: Dict[str, int] = {}
    masks: List[int] = []
    for pattern in patterns:
        m = 0
        for t in pattern:
            if isinstance(t, Variable):
                b = bits.get(t.name)
                if b is None:
                    b = 1 << len(bits)
                    bits[t.name] = b
                m |= b
        masks.append(m)
    bound_mask = 0
    for name in bound:
        bound_mask |= bits.get(name, 0)
    bit_names = {bit: name for name, bit in bits.items()}
    return masks, bound_mask, bit_names


def _mask_names(mask: int, bit_names: Dict[int, str]) -> FrozenSet[str]:
    names = []
    while mask:
        bit = mask & -mask
        names.append(bit_names[bit])
        mask ^= bit
    return frozenset(names)


def _stage_numbers(
    ctx: _CostContext,
    idx: int,
    pattern: Triple,
    bound_here_mask: int,
    bit_names: Dict[int, str],
) -> Tuple[float, float, float, Optional[Tuple[float, ...]], float]:
    """Memoized (scan, mean fanout, weighted fanout, histogram prefix
    sums, tail mean) per (pattern, bound-variable combination) within
    one session."""
    key = (idx, bound_here_mask)
    cached = ctx.estimates.get(key)
    if cached is None:
        cached = _estimate_pattern(
            ctx, pattern, _mask_names(bound_here_mask, bit_names)
        )
        ctx.estimates[key] = cached
    return cached


def _order_dp(
    ctx: _CostContext,
    patterns: Sequence[Triple],
    var_masks: List[int],
    bound_mask: int,
    bit_names: Dict[int, str],
) -> List[int]:
    """Selinger-style left-deep DP over pattern subsets.

    State per subset: best (cost, rows, order). Extensions sharing a
    variable with the subset are preferred; a cartesian extension is
    considered only when no connected one exists (it is then
    unavoidable). Ties break on (fewer unbound variables introduced,
    original pattern positions), keeping plans byte-stable across runs.
    """
    n = len(patterns)
    # mask -> (cost, rows, unbound-count sequence, order tuple)
    best: Dict[int, Tuple[float, float, Tuple[int, ...], Tuple[int, ...]]] = {
        0: (0.0, 1.0, (), ())
    }
    mask_vars: Dict[int, int] = {0: bound_mask}
    full = (1 << n) - 1
    for mask in range(full):
        state = best.get(mask)
        if state is None:
            continue
        cost, rows, unbound_seq, order = state
        names = mask_vars[mask]
        candidates = [j for j in range(n) if not mask & (1 << j)]
        connected = [j for j in candidates if var_masks[j] & names]
        for j in connected or candidates:
            bound_here = var_masks[j] & names
            scan, mean, weighted, prefix, tail_mean = _stage_numbers(
                ctx, j, patterns[j], bound_here, bit_names
            )
            rows_out, stage_cost = _stage_cost(
                rows, scan, mean, weighted, bool(bound_here), prefix, tail_mean
            )
            new_mask = mask | (1 << j)
            new_key = (
                cost + stage_cost,
                unbound_seq + ((var_masks[j] & ~names).bit_count(),),
                order + (j,),
            )
            current = best.get(new_mask)
            if current is None or new_key < (current[0], current[2], current[3]):
                best[new_mask] = (new_key[0], rows_out, new_key[1], new_key[2])
                if new_mask not in mask_vars:
                    mask_vars[new_mask] = names | var_masks[j]
    return list(best[full][3])


def _order_greedy_cost(
    ctx: _CostContext,
    patterns: Sequence[Triple],
    var_masks: List[int],
    bound_mask: int,
    bit_names: Dict[int, str],
) -> List[int]:
    """Greedy fallback beyond :data:`DP_PATTERN_LIMIT`: same cost
    function as the DP, one stage decided at a time."""
    remaining = list(range(len(patterns)))
    order: List[int] = []
    names = bound_mask
    rows = 1.0
    while remaining:
        best = None
        best_key = None
        best_rows = rows
        for idx in remaining:
            bound_here = var_masks[idx] & names
            scan, mean, weighted, prefix, tail_mean = _stage_numbers(
                ctx, idx, patterns[idx], bound_here, bit_names
            )
            rows_out, stage_cost = _stage_cost(
                rows, scan, mean, weighted, bool(bound_here), prefix, tail_mean
            )
            connected = bool(bound_here) or not names
            key = (
                not connected,
                stage_cost,
                (var_masks[idx] & ~names).bit_count(),
                idx,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = idx
                best_rows = rows_out
        remaining.remove(best)
        order.append(best)
        names |= var_masks[best]
        rows = best_rows
    return order


def _estimate_stages(
    ctx: _CostContext,
    patterns: Sequence[Triple],
    order: Sequence[int],
    var_masks: List[int],
    bound_mask: int,
    bit_names: Dict[int, str],
) -> List[StageEstimate]:
    """Walk the chosen order once, materializing per-stage estimates
    and the operator the cost model expects the executor to run."""
    stages: List[StageEstimate] = []
    names = bound_mask
    rows = 1.0
    for idx in order:
        pattern = patterns[idx]
        bound_here_mask = var_masks[idx] & names
        bound_here = _mask_names(bound_here_mask, bit_names)
        scan, mean, weighted, prefix, tail_mean = _stage_numbers(
            ctx, idx, pattern, bound_here_mask, bit_names
        )
        rows_out, cost = _stage_cost(
            rows, scan, mean, weighted, bool(bound_here), prefix, tail_mean
        )
        emission = _bind_emission(rows, mean, weighted, prefix, tail_mean)
        probe_fanout = emission / rows if rows > 0.0 else mean
        if not bound_here:
            operator = "scan"
        elif rows < HASH_MIN_ROWS:
            operator = "bind-join"
        else:
            bind_cost = rows * PROBE_COST + emission
            hash_cost = scan + rows + rows_out
            operator = "hash-join" if hash_cost < bind_cost else "bind-join"
        stages.append(
            StageEstimate(
                pattern=pattern,
                index=idx,
                detail=pattern_text(pattern),
                connected=bool(bound_here) or not names,
                scan=scan,
                fanout=mean,
                probe_fanout=probe_fanout,
                rows_in=rows,
                rows_out=rows_out,
                operator=operator,
                cost=cost,
            )
        )
        names |= var_masks[idx]
        rows = rows_out
    return stages


def plan_bgp(
    graph,
    patterns: Sequence[Triple],
    bound: FrozenSet[str] = frozenset(),
) -> BGPPlan:
    """Plan one BGP from the graph's statistics catalog: join order,
    per-stage estimates, operator choices.

    ``bound`` names variables already bound by the caller (initial
    bindings, an enclosing join) — they seed the probe estimates.
    Every call plans afresh; :class:`~repro.sparql.plancache.PreparedQuery`
    keeps the plan of each (BGP, bound set) for one graph generation.
    """
    patterns = list(patterns)
    bound = frozenset(bound)
    if not patterns:
        return BGPPlan([], [], method="dp", initial_bound=bound)
    ctx = _CostContext(graph)
    var_masks, bound_mask, bit_names = _variable_bits(patterns, bound)
    if len(patterns) > DP_PATTERN_LIMIT:
        order = _order_greedy_cost(ctx, patterns, var_masks, bound_mask, bit_names)
        method = "greedy"
    else:
        order = _order_dp(ctx, patterns, var_masks, bound_mask, bit_names)
        method = "dp"
    stages = _estimate_stages(ctx, patterns, order, var_masks, bound_mask, bit_names)
    return BGPPlan(
        [patterns[i] for i in order], stages, method=method, initial_bound=bound
    )


def order_patterns(graph, patterns: Sequence[Triple]) -> List[Triple]:
    """Join order for ``patterns`` (cost-based; see :func:`plan_bgp`).

    Returns a permutation of ``patterns``. Deterministic: equal-cost
    orders keep the original pattern positions.
    """
    return plan_bgp(graph, patterns).order

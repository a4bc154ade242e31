"""Canonical answer forms shared by the serving-tier suites."""


def canonical_rows(rows):
    """Bound rows of a ``query`` / ``sql`` answer, order-insensitive."""
    return sorted(
        tuple(sorted((k, v.n3()) for k, v in row.asdict().items())) for row in rows
    )


def canonical(kind, result):
    """A comparable form of any read endpoint's answer: search hits and
    lineage edges keep their order (bit-identity), rows do not."""
    if kind in ("query", "sql"):
        return canonical_rows(result)
    if kind == "search":
        return [(h.instance, h.name, h.all_classes) for h in result.hits]
    return [(e.source, e.target, e.rule, e.condition) for e in result.edges]

"""SPARQL 1.1 property paths.

The paper describes the lineage tool's driving path as the regular
expression ``(isMappedTo)* rdf:type`` (Section IV.B) — exactly a SPARQL
property path. The engine supports:

=========== =====================================
``iri``      a single predicate step
``^path``    inverse
``p1/p2``    sequence
``p1|p2``    alternative
``path*``    zero or more
``path+``    one or more
``path?``    zero or one
``(path)``   grouping
=========== =====================================

Evaluation is set-based: :func:`eval_path` yields (subject, object)
pairs, using BFS from whichever side is bound (or both, or neither).
Zero-length matches follow the SPARQL spec: ``path*`` and ``path?``
relate every graph node to itself.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.rdf.terms import IRI, Literal, Term


class Path:
    """Base class of property-path expressions."""

    def text(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Path {self.text()}>"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self), self.text()))


class PathStep(Path):
    """One predicate hop."""

    def __init__(self, predicate: IRI):
        self.predicate = predicate

    def text(self) -> str:
        return f"<{self.predicate.value}>"

    def __eq__(self, other):
        return isinstance(other, PathStep) and other.predicate == self.predicate

    def __hash__(self):
        return hash((PathStep, self.predicate))


class PathInverse(Path):
    def __init__(self, inner: Path):
        self.inner = inner

    def text(self) -> str:
        return f"^({self.inner.text()})"


class PathSequence(Path):
    def __init__(self, parts: List[Path]):
        if len(parts) < 2:
            raise ValueError("a sequence path needs at least two parts")
        self.parts = list(parts)

    def text(self) -> str:
        return "/".join(p.text() for p in self.parts)


class PathAlternative(Path):
    def __init__(self, choices: List[Path]):
        if len(choices) < 2:
            raise ValueError("an alternative path needs at least two choices")
        self.choices = list(choices)

    def text(self) -> str:
        return "|".join(c.text() for c in self.choices)


class PathStar(Path):
    """Zero or more repetitions."""

    def __init__(self, inner: Path):
        self.inner = inner

    def text(self) -> str:
        return f"({self.inner.text()})*"


class PathPlus(Path):
    """One or more repetitions."""

    def __init__(self, inner: Path):
        self.inner = inner

    def text(self) -> str:
        return f"({self.inner.text()})+"


class PathOptional(Path):
    """Zero or one occurrence."""

    def __init__(self, inner: Path):
        self.inner = inner

    def text(self) -> str:
        return f"({self.inner.text()})?"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_path(
    graph,
    path: Path,
    start: Optional[Term] = None,
    end: Optional[Term] = None,
) -> Iterator[Tuple[Term, Term]]:
    """Yield (subject, object) pairs related by ``path``.

    ``start``/``end`` bind the endpoints; unbound endpoints are
    enumerated. Results are deduplicated.
    """
    if start is not None:
        if isinstance(start, Literal):
            return  # literals have no outgoing edges
        seen: Set[Term] = set()
        for target in _forward(graph, path, start):
            if end is not None:
                if target == end:
                    yield (start, end)
                    return
            elif target not in seen:
                seen.add(target)
                yield (start, target)
        return
    if end is not None:
        seen = set()
        for source in _backward(graph, path, end):
            if source not in seen:
                seen.add(source)
                yield (source, end)
        return
    # both unbound: enumerate candidate subjects
    emitted: Set[Tuple[Term, Term]] = set()
    for candidate in _candidate_subjects(graph, path):
        for target in set(_forward(graph, path, candidate)):
            pair = (candidate, target)
            if pair not in emitted:
                emitted.add(pair)
                yield pair


def _candidate_subjects(graph, path: Path) -> Iterator[Term]:
    """Nodes that could start a match (all graph nodes for zero-length-
    capable paths, else subjects of the path's first predicates)."""
    if _matches_zero_length(path):
        yield from graph.nodes()
        return
    seen: Set[Term] = set()
    for predicate, inverse in _first_steps(path):
        if inverse:
            nodes = graph.objects(None, predicate)
        else:
            nodes = graph.subjects(predicate, None)
        for node in nodes:
            if node not in seen:
                seen.add(node)
                yield node


def _matches_zero_length(path: Path) -> bool:
    if isinstance(path, (PathStar, PathOptional)):
        return True
    if isinstance(path, PathSequence):
        return all(_matches_zero_length(p) for p in path.parts)
    if isinstance(path, PathAlternative):
        return any(_matches_zero_length(c) for c in path.choices)
    if isinstance(path, PathInverse):
        return _matches_zero_length(path.inner)
    return False


def _first_steps(path: Path, inverted: bool = False) -> Iterator[Tuple[IRI, bool]]:
    """The predicates (with inversion flags) a match can start with."""
    if isinstance(path, PathStep):
        yield (path.predicate, inverted)
    elif isinstance(path, PathInverse):
        yield from _first_steps(path.inner, not inverted)
    elif isinstance(path, PathSequence):
        for part in path.parts:
            yield from _first_steps(part, inverted)
            if not _matches_zero_length(part):
                return
    elif isinstance(path, PathAlternative):
        for choice in path.choices:
            yield from _first_steps(choice, inverted)
    elif isinstance(path, (PathStar, PathPlus, PathOptional)):
        yield from _first_steps(path.inner, inverted)


def _forward(graph, path: Path, node: Term) -> Iterator[Term]:
    """All targets reachable from ``node`` via ``path`` (may repeat)."""
    if isinstance(node, Literal):
        return
    if isinstance(path, PathStep):
        yield from graph.objects(node, path.predicate)
    elif isinstance(path, PathInverse):
        yield from _backward(graph, path.inner, node)
    elif isinstance(path, PathSequence):
        frontier = {node}
        for part in path.parts:
            nxt: Set[Term] = set()
            for current in frontier:
                nxt.update(_forward(graph, part, current))
            frontier = nxt
            if not frontier:
                return
        yield from frontier
    elif isinstance(path, PathAlternative):
        for choice in path.choices:
            yield from _forward(graph, choice, node)
    elif isinstance(path, PathStar):
        yield from _closure(graph, path.inner, node, include_start=True)
    elif isinstance(path, PathPlus):
        yield from _closure(graph, path.inner, node, include_start=False)
    elif isinstance(path, PathOptional):
        yield node
        yield from _forward(graph, path.inner, node)
    else:
        raise TypeError(f"unknown path node {type(path).__name__}")


def _backward(graph, path: Path, node: Term) -> Iterator[Term]:
    """All sources from which ``node`` is reachable via ``path``."""
    if isinstance(path, PathStep):
        yield from graph.subjects(path.predicate, node)
    elif isinstance(path, PathInverse):
        yield from _forward(graph, path.inner, node)
    elif isinstance(path, PathSequence):
        frontier = {node}
        for part in reversed(path.parts):
            nxt: Set[Term] = set()
            for current in frontier:
                nxt.update(_backward(graph, part, current))
            frontier = nxt
            if not frontier:
                return
        yield from frontier
    elif isinstance(path, PathAlternative):
        for choice in path.choices:
            yield from _backward(graph, choice, node)
    elif isinstance(path, PathStar):
        yield from _closure(graph, path.inner, node, include_start=True, backward=True)
    elif isinstance(path, PathPlus):
        yield from _closure(graph, path.inner, node, include_start=False, backward=True)
    elif isinstance(path, PathOptional):
        yield node
        yield from _backward(graph, path.inner, node)
    else:
        raise TypeError(f"unknown path node {type(path).__name__}")


def _closure(
    graph,
    inner: Path,
    node: Term,
    include_start: bool,
    backward: bool = False,
) -> Iterator[Term]:
    from repro.sparql.cancel import current_cancel

    token = current_cancel()
    step = _backward if backward else _forward
    visited: Set[Term] = set()
    if include_start:
        visited.add(node)
        yield node
    frontier = [node]
    expanded = 0
    while frontier:
        if token is not None:
            expanded += 1
            if not (expanded & 255):
                token.check()
        current = frontier.pop()
        for neighbour in set(step(graph, inner, current)):
            if neighbour not in visited:
                visited.add(neighbour)
                frontier.append(neighbour)
                yield neighbour

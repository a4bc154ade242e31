"""FILTER expression trees and their evaluation.

Expression evaluation follows the SPARQL error model: an error inside a
FILTER (unbound variable, type mismatch) raises :class:`ExpressionError`,
which the evaluator treats as "effective boolean value false" for the row
instead of failing the query.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.profile import current_profile
from repro.rdf.terms import BNode, IRI, Literal, Term
from repro.sparql.errors import ExpressionError, outside_subset

_TRUE = Literal("true", datatype=IRI("http://www.w3.org/2001/XMLSchema#boolean"))
_FALSE = Literal("false", datatype=IRI("http://www.w3.org/2001/XMLSchema#boolean"))


def boolean(value: bool) -> Literal:
    return _TRUE if value else _FALSE


class Expression:
    """Base class of expression-tree nodes."""

    def evaluate(self, binding: Dict[str, Term]) -> Term:
        raise NotImplementedError

    def variables(self) -> set:
        raise NotImplementedError


class VarExpr(Expression):
    """A variable reference ``?x``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name[1:] if name.startswith("?") else name

    def evaluate(self, binding: Dict[str, Term]) -> Term:
        try:
            return binding[self.name]
        except KeyError:
            raise ExpressionError(f"unbound variable ?{self.name}") from None

    def variables(self) -> set:
        return {self.name}

    def __repr__(self) -> str:
        return f"VarExpr(?{self.name})"

    def __eq__(self, other):
        return isinstance(other, VarExpr) and other.name == self.name

    def __hash__(self):
        return hash((VarExpr, self.name))


class ConstExpr(Expression):
    """A constant term."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    def evaluate(self, binding: Dict[str, Term]) -> Term:
        return self.term

    def variables(self) -> set:
        return set()

    def __repr__(self) -> str:
        return f"ConstExpr({self.term!r})"

    def __eq__(self, other):
        return isinstance(other, ConstExpr) and other.term == self.term

    def __hash__(self):
        return hash((ConstExpr, self.term))


class UnaryExpr(Expression):
    """``!expr``, ``-expr``, ``+expr``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        self.op = op
        self.operand = operand

    def evaluate(self, binding: Dict[str, Term]) -> Term:
        if self.op == "!":
            return boolean(not effective_boolean_value(self.operand.evaluate(binding)))
        value = _numeric(self.operand.evaluate(binding))
        return Literal(-value if self.op == "-" else value)

    def variables(self) -> set:
        return self.operand.variables()

    def __repr__(self) -> str:
        return f"UnaryExpr({self.op!r}, {self.operand!r})"


class BinaryExpr(Expression):
    """Binary operators: comparison, logic, arithmetic."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, binding: Dict[str, Term]) -> Term:
        op = self.op
        if op == "&&":
            # SPARQL logical-and error semantics: false wins over error.
            left = _ebv_or_error(self.left, binding)
            right = _ebv_or_error(self.right, binding)
            if left is False or right is False:
                return boolean(False)
            if left is None or right is None:
                raise ExpressionError("error in && operand")
            return boolean(True)
        if op == "||":
            left = _ebv_or_error(self.left, binding)
            right = _ebv_or_error(self.right, binding)
            if left is True or right is True:
                return boolean(True)
            if left is None or right is None:
                raise ExpressionError("error in || operand")
            return boolean(False)

        lhs = self.left.evaluate(binding)
        rhs = self.right.evaluate(binding)
        if op == "=":
            return boolean(_term_equal(lhs, rhs))
        if op == "!=":
            return boolean(not _term_equal(lhs, rhs))
        if op in ("<", ">", "<=", ">="):
            return boolean(_order_compare(op, lhs, rhs))
        if op in ("+", "-", "*", "/"):
            a, b = _numeric(lhs), _numeric(rhs)
            try:
                result = {"+": a + b, "-": a - b, "*": a * b}.get(op)
                if op == "/":
                    result = a / b
            except ZeroDivisionError:
                raise ExpressionError("division by zero") from None
            if isinstance(result, float) and result.is_integer() and isinstance(a, int) and isinstance(b, int) and op != "/":
                result = int(result)
            return Literal(result)
        raise ExpressionError(f"unknown operator {op!r}")

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"BinaryExpr({self.op!r}, {self.left!r}, {self.right!r})"


class FunctionExpr(Expression):
    """A built-in function call, e.g. ``regex(?term, "customer", "i")``.

    Construction checks the name and argument count with
    :func:`call_error` and raises :class:`ExpressionError` for a call
    outside the supported subset; the query parsers check the same table
    first and raise their own typed errors.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: List[Expression]):
        problem = call_error(name, len(args))
        if problem is not None:
            raise ExpressionError(problem)
        self.name = name.lower()
        self.args = args

    def evaluate(self, binding: Dict[str, Term]) -> Term:
        return _FUNCTIONS[self.name][0](self.args, binding)

    def variables(self) -> set:
        out = set()
        for a in self.args:
            out |= a.variables()
        return out

    def __repr__(self) -> str:
        return f"FunctionExpr({self.name!r}, {self.args!r})"


# ---------------------------------------------------------------------------
# Semantics helpers
# ---------------------------------------------------------------------------


def effective_boolean_value(term: Term) -> bool:
    """The SPARQL effective boolean value (EBV) of a term."""
    if isinstance(term, Literal):
        if term.datatype is not None and term.datatype.local_name == "boolean":
            return term.lexical in ("true", "1")
        if term.is_numeric():
            return term.to_python() != 0
        if term.datatype is None and term.language is None:
            return bool(term.lexical)
        if term.language is not None:
            return bool(term.lexical)
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _ebv_or_error(expr: Expression, binding) -> Optional[bool]:
    try:
        return effective_boolean_value(expr.evaluate(binding))
    except ExpressionError:
        return None


# ---------------------------------------------------------------------------
# Compiled conditions
# ---------------------------------------------------------------------------


def compile_condition(expr: Expression) -> Callable[[Dict[str, Term]], Optional[bool]]:
    """``expr`` as a three-valued test of one binding: True, False, or
    None for an evaluation error. A FILTER keeps a row only on True.

    The listings' shapes become direct closures: ``str(?v)`` compared by
    ``=``/``!=`` with a plain string constant, ``regex`` of ``?v`` or
    ``str(?v)`` with constant pattern and flags, and ``!``/``&&``/``||``
    over any condition, with the error rules of :class:`UnaryExpr` and
    :class:`BinaryExpr`. Every other node is tested by tree evaluation,
    so a compiled test always answers what tree evaluation answers.
    """
    if isinstance(expr, UnaryExpr) and expr.op == "!":
        inner = compile_condition(expr.operand)

        def negation(binding):
            value = inner(binding)
            return None if value is None else not value
        return negation
    if isinstance(expr, BinaryExpr) and expr.op in ("&&", "||"):
        left = compile_condition(expr.left)
        right = compile_condition(expr.right)
        # && : false wins over error; || : true wins over error
        decisive = expr.op == "||"

        def connective(binding):
            a = left(binding)
            if a is decisive:
                return decisive
            b = right(binding)
            if b is decisive:
                return decisive
            return None if a is None or b is None else not decisive
        return connective
    if isinstance(expr, BinaryExpr) and expr.op in ("=", "!="):
        equality = string_equality(expr)
        if equality is not None:
            name, constant = equality
            negate = expr.op == "!="

            def compare(binding):
                value = _string_of(binding.get(name))
                if value is None:
                    return None  # unbound, or str() of a blank node
                return (value != constant) if negate else (value == constant)
            return compare
    if isinstance(expr, FunctionExpr) and expr.name in ("regex", "regexp_like"):
        arg = expr.args[0]
        name = arg.name if isinstance(arg, VarExpr) else _str_of_var(arg)
        pattern = _plain_string(expr.args[1])
        flags = _plain_string(expr.args[2]) if len(expr.args) == 3 else ""
        if name is not None and pattern is not None and flags is not None:
            try:
                search = compile_regex(pattern, flags).search
            except ExpressionError:
                pass  # a bad pattern errors on every row, as the tree says
            else:
                def match(binding):
                    value = _string_of(binding.get(name))
                    return None if value is None else search(value) is not None
                return match
    return lambda binding: _ebv_or_error(expr, binding)


def string_equality(expr: Expression) -> Optional[Tuple[str, str]]:
    """``(name, constant)`` when ``expr`` is ``str(?name) = "constant"``
    (either side, also ``!=``) with a plain string constant, else None.
    Only that shape compares string values: ``?x = "abc"`` is term
    equality and ``"abc"@en`` is no plain string."""
    if not isinstance(expr, BinaryExpr):
        return None
    for var_side, const_side in ((expr.left, expr.right), (expr.right, expr.left)):
        name = _str_of_var(var_side)
        constant = _plain_string(const_side)
        if name is not None and constant is not None:
            return name, constant
    return None


def _str_of_var(expr: Expression) -> Optional[str]:
    """The variable name behind ``str(?v)``, if that shape."""
    if (
        isinstance(expr, FunctionExpr)
        and expr.name == "str"
        and isinstance(expr.args[0], VarExpr)
    ):
        return expr.args[0].name
    return None


def _plain_string(expr: Expression) -> Optional[str]:
    # a numeric constant compares numerically ("25" vs "25.0") and a
    # typed or language-tagged one never equals a plain str() result
    if (
        isinstance(expr, ConstExpr)
        and isinstance(expr.term, Literal)
        and expr.term.datatype is None
        and expr.term.language is None
    ):
        return expr.term.lexical
    return None


def _string_of(term) -> Optional[str]:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return term.value
    return None


def _numeric(term: Term):
    if isinstance(term, Literal) and term.is_numeric():
        return term.to_python()
    raise ExpressionError(f"not a numeric literal: {term!r}")


def _term_equal(a: Term, b: Term) -> bool:
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.is_numeric() and b.is_numeric():
            return a.to_python() == b.to_python()
    return a == b


def _order_compare(op: str, a: Term, b: Term) -> bool:
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.is_numeric() and b.is_numeric():
            x, y = a.to_python(), b.to_python()
        elif a.datatype is None and b.datatype is None:
            x, y = a.lexical, b.lexical
        else:
            raise ExpressionError(f"incomparable literals {a!r} / {b!r}")
        return {"<": x < y, ">": x > y, "<=": x <= y, ">=": x >= y}[op]
    if isinstance(a, IRI) and isinstance(b, IRI):
        return {"<": a.value < b.value, ">": a.value > b.value, "<=": a.value <= b.value, ">=": a.value >= b.value}[op]
    raise ExpressionError(f"incomparable terms {a!r} / {b!r}")


# ---------------------------------------------------------------------------
# Built-in functions
# ---------------------------------------------------------------------------


def compile_regex(pattern: str, flag_text: str = "") -> "re.Pattern":
    """Compile a SPARQL regex() pattern + flag string, with caching.

    FILTER regex() runs once per candidate row, always with the same
    pattern; the cache turns per-row compilation (including re's flag
    handling) into a dict hit. Raises :class:`ExpressionError` on bad
    patterns or flags.

    The cache is module-level and shared by every concurrent query
    worker, so eviction and insertion are guarded by a lock (the hit
    path stays lock-free: a plain dict read is atomic under the GIL and
    a stale hit is impossible because entries are immutable).
    """
    cached = _REGEX_CACHE.get((pattern, flag_text))
    if cached is not None:
        prof = current_profile()
        if prof is not None:
            prof.count("regex_cache_hits")
        return cached
    prof = current_profile()
    if prof is not None:
        prof.count("regex_cache_misses")
    flags = 0
    mapping = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE, "x": re.VERBOSE}
    for ch in flag_text:
        if ch not in mapping:
            raise ExpressionError(f"unknown regex flag {ch!r}")
        flags |= mapping[ch]
    try:
        compiled = re.compile(pattern, flags)
    except re.error as exc:
        raise ExpressionError(f"bad regex: {exc}") from None
    with _REGEX_CACHE_LOCK:
        if len(_REGEX_CACHE) >= _REGEX_CACHE_LIMIT:
            _REGEX_CACHE.clear()
        _REGEX_CACHE[(pattern, flag_text)] = compiled
    return compiled


_REGEX_CACHE: Dict[tuple, "re.Pattern"] = {}
_REGEX_CACHE_LIMIT = 512
_REGEX_CACHE_LOCK = threading.Lock()


def _fn_regex(args, binding):
    text = _string_value(args[0].evaluate(binding))
    pattern = _string_value(args[1].evaluate(binding))
    flag_text = _string_value(args[2].evaluate(binding)) if len(args) == 3 else ""
    return boolean(compile_regex(pattern, flag_text).search(text) is not None)


def _fn_bound(args, binding):
    if not isinstance(args[0], VarExpr):
        raise ExpressionError("bound() takes a variable argument")
    return boolean(args[0].name in binding)


def _fn_str(args, binding):
    term = args[0].evaluate(binding)
    if isinstance(term, Literal):
        return Literal(term.lexical)
    if isinstance(term, IRI):
        return Literal(term.value)
    raise ExpressionError("str() of a blank node")


def _fn_lang(args, binding):
    term = args[0].evaluate(binding)
    if isinstance(term, Literal):
        return Literal(term.language or "")
    raise ExpressionError("lang() of a non-literal")


def _fn_datatype(args, binding):
    term = args[0].evaluate(binding)
    if isinstance(term, Literal):
        if term.datatype is not None:
            return term.datatype
        return IRI("http://www.w3.org/2001/XMLSchema#string")
    raise ExpressionError("datatype() of a non-literal")


def _fn_isiri(args, binding):
    return boolean(isinstance(args[0].evaluate(binding), IRI))


def _fn_isliteral(args, binding):
    return boolean(isinstance(args[0].evaluate(binding), Literal))


def _fn_isblank(args, binding):
    return boolean(isinstance(args[0].evaluate(binding), BNode))


def _string_value(term: Term) -> str:
    value = _string_of(term)
    if value is None:
        raise ExpressionError(f"no string value for {term!r}")
    return value


#: The supported FILTER builtins (SPARQL 1.0 plus Oracle's
#: ``regexp_like``), the one name -> arity table both query parsers
#: consult: lower-case name -> (implementation, min args, max args).
_FUNCTIONS: Dict[str, Tuple[Callable, int, int]] = {
    "regex": (_fn_regex, 2, 3),
    "regexp_like": (_fn_regex, 2, 3),  # Oracle spelling used in the paper's listings
    "bound": (_fn_bound, 1, 1),
    "str": (_fn_str, 1, 1),
    "lang": (_fn_lang, 1, 1),
    "datatype": (_fn_datatype, 1, 1),
    "isiri": (_fn_isiri, 1, 1),
    "isuri": (_fn_isiri, 1, 1),
    "isliteral": (_fn_isliteral, 1, 1),
    "isblank": (_fn_isblank, 1, 1),
}

def call_error(name: str, n_args: int) -> Optional[str]:
    """Why ``name(...)`` with ``n_args`` arguments is not a supported
    call, or None when it is. Parsers raise this as their typed error."""
    entry = _FUNCTIONS.get(name.lower())
    if entry is None:
        return outside_subset(f"function {name.upper()}()")
    _, low, high = entry
    if not low <= n_args <= high:
        expected = str(low) if low == high else f"{low} to {high}"
        return f"{name.upper()}() takes {expected} argument(s), got {n_args}"
    return None


def builtin_function_names():
    """Sorted names of all supported FILTER functions."""
    return sorted(_FUNCTIONS)

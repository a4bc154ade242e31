"""Unit tests for FILTER expression semantics."""

import pytest

from repro.rdf import BNode, IRI, Literal
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import (
    BinaryExpr,
    ConstExpr,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    boolean,
    builtin_function_names,
    effective_boolean_value,
)


def const(value, **kw):
    return ConstExpr(Literal(value, **kw))


def ev(expr, binding=None):
    return expr.evaluate(binding or {})


class TestEffectiveBooleanValue:
    def test_boolean_literals(self):
        assert effective_boolean_value(Literal(True)) is True
        assert effective_boolean_value(Literal(False)) is False

    def test_numeric(self):
        assert effective_boolean_value(Literal(1)) is True
        assert effective_boolean_value(Literal(0)) is False

    def test_string(self):
        assert effective_boolean_value(Literal("x")) is True
        assert effective_boolean_value(Literal("")) is False

    def test_iri_has_no_ebv(self):
        with pytest.raises(ExpressionError):
            effective_boolean_value(IRI("http://x/"))


class TestVarExpr:
    def test_bound(self):
        assert ev(VarExpr("x"), {"x": Literal(1)}) == Literal(1)

    def test_unbound_errors(self):
        with pytest.raises(ExpressionError):
            ev(VarExpr("x"), {})

    def test_question_mark_stripped(self):
        assert VarExpr("?x") == VarExpr("x")

    def test_variables(self):
        assert VarExpr("x").variables() == {"x"}


class TestComparison:
    def test_numeric_equality_across_types(self):
        # "42"^^integer = 42.0^^double numerically
        expr = BinaryExpr("=", const(42), const(42.0))
        assert ev(expr) == boolean(True)

    def test_string_equality(self):
        assert ev(BinaryExpr("=", const("a"), const("a"))) == boolean(True)
        assert ev(BinaryExpr("!=", const("a"), const("b"))) == boolean(True)

    def test_iri_equality(self):
        e = BinaryExpr("=", ConstExpr(IRI("http://x/")), ConstExpr(IRI("http://x/")))
        assert ev(e) == boolean(True)

    def test_numeric_order(self):
        assert ev(BinaryExpr("<", const(1), const(2))) == boolean(True)
        assert ev(BinaryExpr(">=", const(2), const(2))) == boolean(True)

    def test_string_order(self):
        assert ev(BinaryExpr("<", const("a"), const("b"))) == boolean(True)

    def test_iri_order(self):
        e = BinaryExpr("<", ConstExpr(IRI("http://a/")), ConstExpr(IRI("http://b/")))
        assert ev(e) == boolean(True)

    def test_mixed_comparison_errors(self):
        with pytest.raises(ExpressionError):
            ev(BinaryExpr("<", const(1), ConstExpr(IRI("http://x/"))))

    def test_string_number_order_errors(self):
        with pytest.raises(ExpressionError):
            ev(BinaryExpr("<", const("a"), const(1)))


class TestLogic:
    def test_and_false_wins_over_error(self):
        err = VarExpr("unbound")
        expr = BinaryExpr("&&", err, const(False))
        assert ev(expr) == boolean(False)

    def test_and_error_with_true_errors(self):
        expr = BinaryExpr("&&", VarExpr("unbound"), const(True))
        with pytest.raises(ExpressionError):
            ev(expr)

    def test_or_true_wins_over_error(self):
        expr = BinaryExpr("||", VarExpr("unbound"), const(True))
        assert ev(expr) == boolean(True)

    def test_or_error_with_false_errors(self):
        expr = BinaryExpr("||", VarExpr("unbound"), const(False))
        with pytest.raises(ExpressionError):
            ev(expr)

    def test_not(self):
        assert ev(UnaryExpr("!", const(True))) == boolean(False)


class TestArithmetic:
    def test_ops(self):
        assert ev(BinaryExpr("+", const(2), const(3))).to_python() == 5
        assert ev(BinaryExpr("-", const(2), const(3))).to_python() == -1
        assert ev(BinaryExpr("*", const(2), const(3))).to_python() == 6
        assert ev(BinaryExpr("/", const(6), const(3))).to_python() == 2.0

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError):
            ev(BinaryExpr("/", const(1), const(0)))

    def test_unary_minus(self):
        assert ev(UnaryExpr("-", const(5))).to_python() == -5

    def test_non_numeric_errors(self):
        with pytest.raises(ExpressionError):
            ev(BinaryExpr("+", const("a"), const(1)))


class TestFunctions:
    def test_regex_basic(self):
        assert ev(FunctionExpr("regex", [const("customer_id"), const("customer")])) == boolean(True)

    def test_regex_case_flag(self):
        expr = FunctionExpr("regex", [const("CUSTOMER"), const("customer"), const("i")])
        assert ev(expr) == boolean(True)

    def test_regex_no_match(self):
        assert ev(FunctionExpr("regex", [const("abc"), const("zzz")])) == boolean(False)

    def test_regex_bad_pattern_errors(self):
        with pytest.raises(ExpressionError):
            ev(FunctionExpr("regex", [const("x"), const("(")]))

    def test_regex_bad_flag_errors(self):
        with pytest.raises(ExpressionError):
            ev(FunctionExpr("regex", [const("x"), const("x"), const("q")]))

    def test_regexp_like_alias(self):
        assert ev(FunctionExpr("regexp_like", [const("abc"), const("b")])) == boolean(True)

    def test_bound(self):
        assert ev(FunctionExpr("bound", [VarExpr("x")]), {"x": Literal(1)}) == boolean(True)
        assert ev(FunctionExpr("bound", [VarExpr("x")]), {}) == boolean(False)

    def test_str_of_literal_and_iri(self):
        assert ev(FunctionExpr("str", [const(7)])) == Literal("7")
        assert ev(FunctionExpr("str", [ConstExpr(IRI("http://x/"))])) == Literal("http://x/")

    def test_str_of_bnode_errors(self):
        with pytest.raises(ExpressionError):
            ev(FunctionExpr("str", [ConstExpr(BNode("b"))]))

    def test_lang(self):
        assert ev(FunctionExpr("lang", [const("x", language="de")])) == Literal("de")
        assert ev(FunctionExpr("lang", [const("x")])) == Literal("")

    def test_datatype(self):
        assert ev(FunctionExpr("datatype", [const(1)])).local_name == "integer"
        assert ev(FunctionExpr("datatype", [const("s")])).local_name == "string"

    def test_type_checks(self):
        assert ev(FunctionExpr("isiri", [ConstExpr(IRI("http://x/"))])) == boolean(True)
        assert ev(FunctionExpr("isliteral", [const("x")])) == boolean(True)
        assert ev(FunctionExpr("isblank", [ConstExpr(BNode())])) == boolean(True)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            ev(FunctionExpr("nope", []))

    def test_builtin_names_listed(self):
        names = builtin_function_names()
        assert "regex" in names and "bound" in names and "regexp_like" in names

    def test_wrong_arity(self):
        with pytest.raises(ExpressionError):
            ev(FunctionExpr("regex", [const("x")]))
        with pytest.raises(ExpressionError):
            ev(FunctionExpr("str", []))

    def test_variables_collected(self):
        expr = FunctionExpr("regex", [VarExpr("a"), VarExpr("b")])
        assert expr.variables() == {"a", "b"}

import copy
import gc
import hashlib
import math
import pathlib
import pickle
import random
import re
import struct
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dodesym import expr as E
from dodesym.expr import (
    BinOp,
    Call,
    Const,
    DomainError,
    ParseError,
    UnboundSymbolError,
    Neg,
    Param,
    Var,
    compile_columns,
    compile_fn,
    diff,
    evaluate,
    parse,
    simplify,
    subs,
    to_text,
)


class TestParse:
    def test_difference_of_derivatives(self):
        e = parse("dy - dym")
        assert isinstance(e, BinOp) and e.op == "-"
        assert e.left == Var("dy") and e.right == Var("dym")

    def test_two_car_right_hand_side(self):
        e = parse("alpha*dy^n1*(dy0m - dym)/(x0m - ym)^n2")
        binds = {"alpha": 2.0, "n1": 2.0, "n2": 1.0, "dy": 1.5,
                 "dy0m": 1.0, "dym": 0.25, "x0m": 4.0, "ym": 2.0}
        expected = 2.0 * 1.5 ** 2 * (1.0 - 0.25) / (4.0 - 2.0)
        assert evaluate(e, binds) == pytest.approx(expected, rel=1e-15)
        # alpha, n1, n2 come out as parameters, not variables
        assert {"alpha", "n1", "n2"} <= E.free_symbols(e) - set(E.VARIABLES)

    def test_unbalanced_parenthesis_offset(self):
        with pytest.raises(ParseError) as err:
            parse("ln(-1")
        assert err.value.position == 6

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("spam(x)")

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unknown character"):
            parse("x + $")

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0


# ---------------------------------------------------------------------------
# the parser's outcome on a fixed corpus, pinned by digest

#: symbols of the random corpus texts
_CORPUS_SYMBOLS = (*"0123456789.eE+-*/^()", " ", "\t", "\xa0", "x", "xm",
                   "sin", "foo", "_a", "1e5", ".5", "$", "٣", "\xe9")

_EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _file_expressions() -> list[str]:
    """Every expression text of the catalog dump and the example files."""
    from dodesym import catalog

    texts = []
    for line in catalog.export_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "field":
            xi, _, eta = value.partition(" :: ")[0].partition(" ; ")
            texts += [xi, eta]
        elif key == "constraint":
            rule = value.partition(" :: ")[0]
            texts += re.split(r"<=|>=|!=|==|<|>", rule)
        elif key.split(" ")[0] in ("f_template", "g_template", "f_slot",
                                   "g_slot", "default_F", "default_G",
                                   "second_order_minor"):
            texts.append(value)
    for path in sorted(_EXAMPLES.glob("*.txt")):
        for line in path.read_text().splitlines():
            key, _, value = line.partition("=")
            key = key.strip()
            if key in ("f", "g", "leader") or key.startswith("history."):
                texts.append(value.strip())
    return texts


def _random_texts(count: int = 20_000, seed: int = 1973) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice(_CORPUS_SYMBOLS)
                    for _ in range(rng.randint(1, 12))) for _ in range(count)]


def _outcome(text: str) -> str:
    try:
        return repr(parse(text))
    except ParseError as err:
        return repr(("ParseError", str(err), err.position))


def _digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(map(_outcome, texts)).encode()).hexdigest()


class TestParserCorpus:
    """The parser's node or error on every corpus text, as the
    character-cursor recursive-descent parser gave them with each negated
    constant folded, bottom-up, into the constant of the negated value
    (the interner's rule).  The file corpus follows the catalog and the
    examples: a change to either changes its texts, and its digest is then
    recorded anew from the parser that precedes the change."""

    def test_file_expressions(self):
        assert len(_file_expressions()) >= 318
        assert _digest(_file_expressions()) == (
            "ebbc29d2c77393d4e41f71d9c08424d7c1175361398a1543abe60af8fc765f1e")

    def test_random_texts(self):
        assert _digest(_random_texts()) == (
            "ebc47dc277178ae136cbc5bb82d99006f8435367cb44b9300c93f7d173fc1809")


class TestParseErrors:
    @pytest.mark.parametrize("text, message, position", [
        pytest.param("x + ", "unexpected end of input", 5, id="end-of-input"),
        pytest.param("", "unexpected end of input", 1, id="empty"),
        pytest.param("(x + 1 y", "expected ')'", 8, id="expected-paren"),
        pytest.param("sin(x", "expected ')'", 6, id="unclosed-call"),
        pytest.param("2 * spam (x)", "unknown function 'spam'", 5,
                     id="unknown-function"),
        pytest.param("x * \t$", "unknown character '$'", 6,
                     id="unknown-character"),
        pytest.param("()", "unknown character ')'", 2, id="empty-parens"),
        pytest.param("1 + .e5", "bad numeric literal", 5, id="bad-number"),
        pytest.param("x +  .", "bad numeric literal", 6, id="lone-point"),
        pytest.param("x y", "unexpected 'y'", 3, id="trailing-token"),
        pytest.param("2x", "unexpected 'x'", 2, id="trailing-name"),
        pytest.param("1.5.3", "unexpected '.'", 4, id="trailing-number"),
    ])
    def test_message_and_offset(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} at offset {position}"

    def test_a_number_is_decimal_digits_of_any_script(self):
        assert parse("\u0663.\u0665e1") is Const(35.0)
        assert parse("x\xb2") is E.Param("x\xb2")  # a name takes any digit
        # a non-decimal digit ends a number, and is then a token of its own
        with pytest.raises(ParseError) as err:
            parse("1\xb2")
        assert str(err.value) == "unexpected '\xb2' at offset 2"
        with pytest.raises(ParseError) as err:
            parse("\xb2")
        assert str(err.value) == "bad numeric literal at offset 1"
        with pytest.raises(ParseError) as err:
            parse("\xbd")
        assert str(err.value) == "unknown character '\xbd' at offset 1"

    def test_any_unicode_white_space_separates(self):
        assert parse("\xa0x\u2003*\x1c2\n") is parse("x*2")


class TestNestingBound:
    """parse accepts MAX_NESTING levels of nesting and stops at the token
    that opens one more; every walk handles the deepest tree it accepts."""

    @pytest.mark.parametrize("opener, levels, leaf, closer, offset", [
        pytest.param("(", 1, "x", ")", 101, id="parentheses"),
        pytest.param("sin(", 1, "x", ")", 404, id="calls"),
        pytest.param("-", 1, "x", "", 101, id="unary-minus"),
        pytest.param("-(", 2, "x", ")", 101, id="negated-groups"),
        pytest.param("x^", 1, "y", "", 202, id="power-tower"),
        pytest.param("x - (", 2, "y", ")", 253, id="right-operands"),
        pytest.param("x + y*(", 3, "x", ")", 237, id="sum-of-products"),
    ])
    def test_at_the_bound_and_one_past(self, opener, levels, leaf, closer,
                                       offset):
        n = E.MAX_NESTING // levels
        deepest = parse(opener * n + leaf + closer * n)
        with pytest.raises(ParseError) as err:
            parse(opener * (n + 1) + leaf + closer * (n + 1))
        assert str(err.value) == (f"nesting deeper than {E.MAX_NESTING}"
                                  f" levels at offset {offset}")
        to_text(deepest)
        simplify(deepest)
        rows = (np.array([0.3, 0.9, -0.4]), np.array([1.1, 0.6, 2.0]))
        for tree in (deepest, diff(deepest, "x"), diff(deepest, "y")):
            fn = compile_fn(tree, ("x", "y"))
            out = compile_columns([tree, deepest], ("x", "y"))(*rows)[0]
            for args, got in zip(zip(*(r.tolist() for r in rows)), out):
                _assert_row_matches_closure(fn, args, got)

    def test_a_run_of_left_associative_operators_nests_no_level(self):
        e = parse(" + ".join(["x*y"] * 400) + " - " + " / ".join(["y"] * 300))
        assert e.op == "-" and e.left.op == "+" and e.right.op == "/"


class TestTooDeep:
    """A tree too deep for Python's recursion limit is an ExprError, which
    a caller can report, and never a RecursionError."""

    @staticmethod
    def _chain(n: int):
        e = Var("y")
        for _ in range(n):
            e = BinOp("*", e, Var("x"))
        return e

    @pytest.mark.parametrize("walk", [
        pytest.param(to_text, id="to_text"),
        pytest.param(simplify, id="simplify"),
        pytest.param(lambda e: diff(e, "x"), id="diff"),
        pytest.param(lambda e: subs(e, {"x": Var("y")}), id="subs"),
    ])
    def test_each_walk_names_the_depth(self, walk):
        with pytest.raises(E.ExprError) as err:
            walk(self._chain(5000))
        assert type(err.value) is E.ExprError
        assert str(err.value) == E.TOO_DEEP == "expression too deep"

    def test_a_flat_product_that_parses(self):
        e = parse("*".join(["y*x^y"] * 100))
        with pytest.raises(E.ExprError, match="^expression too deep$"):
            diff(e, "x")
        # the walks that fit still work after the failed one
        assert to_text(e).count("*") == 199
        assert to_text(diff(parse("y*x^y"), "x")) == "(y * ((x ^ y) * (y / x)))"

    def test_prolong_of_a_power_tower(self):
        from dodesym.symmetry import VectorField, prolong

        field = VectorField.from_text("x^" * 100 + "y", "0")
        with pytest.raises(E.ExprError, match="^expression too deep$"):
            prolong(field)


class TestEvaluate:
    def test_polynomial(self):
        assert evaluate(parse("x^2+y"), {"x": 2, "y": 1}) == 5.0

    def test_exp_zero(self):
        assert evaluate(parse("exp(0)"), {}) == 1.0

    def test_division_by_zero_reports_subexpression(self):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(parse("1/(x-xm)"), {"x": 1, "xm": 1})

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(parse("x + y"), {"x": 1.0})

    def test_ln_nonpositive(self):
        with pytest.raises(DomainError, match="ln"):
            evaluate(parse("ln(x)"), {"x": -2.0})

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), {"x": -1.0})

    def test_sgn(self):
        assert evaluate(parse("sgn(x)"), {"x": -3.0}) == -1.0
        assert evaluate(parse("sgn(x)"), {"x": 0.0}) == 0.0


class TestDiff:
    def test_product_rule_base_case(self):
        assert diff(parse("x*y"), "x") == Var("y")

    def test_arctan_table_derivative(self):
        d = diff(parse("arctan(dy)"), "dy")
        for v in (0.0, 0.7, -1.3, 2.5):
            assert evaluate(d, {"dy": v}) == pytest.approx(1.0 / (1.0 + v * v),
                                                           rel=1e-14)

    def test_against_central_difference(self):
        # independent oracle: central difference with h = 1e-5
        e = parse("exp(a*x)*sin(x)")
        fn = compile_fn(e, ("x", "a"))
        fd = (fn(0.3 + 1e-5, 2.0) - fn(0.3 - 1e-5, 2.0)) / 2e-5
        sym = evaluate(diff(e, "x"), {"x": 0.3, "a": 2.0})
        assert sym == pytest.approx(fd, abs=1e-8)
        assert sym == pytest.approx(2.81768242644066, rel=1e-12)

    @pytest.mark.parametrize("fn_name,point", [
        ("sin", 0.7), ("cos", 0.7), ("tan", 0.4), ("arctan", 0.9),
        ("exp", 0.5), ("ln", 1.7), ("sqrt", 2.3), ("abs", 1.1), ("abs", -1.1),
        ("sgn", 0.8),
    ])
    def test_each_function_matches_finite_difference(self, fn_name, point):
        e = Call(fn_name, Var("x"))
        d = evaluate(diff(e, "x"), {"x": point})
        h = 1e-5
        fd = (evaluate(e, {"x": point + h}) - evaluate(e, {"x": point - h})) / (2 * h)
        assert abs(d - fd) / (1.0 + abs(d)) < 1e-6

    def test_general_power_rule(self):
        e = parse("x^dy")
        d = diff(e, "x")
        x0, p0 = 1.7, 2.3
        fd = (evaluate(e, {"x": x0 + 1e-6, "dy": p0})
              - evaluate(e, {"x": x0 - 1e-6, "dy": p0})) / 2e-6
        assert evaluate(d, {"x": x0, "dy": p0}) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("p", [2.5, 1.0, 0.0, -0.5, 3.0])
    def test_a_parameter_exponent_takes_the_power_rule(self, p):
        d = diff(parse("sin(x)^p"), "x")
        assert to_text(d) == "((p * (sin(x) ^ (p + -1))) * cos(x))"
        # bound and simplified, it is the derivative of the constant power
        assert simplify(E.bind_params(d, {"p": p})) is \
            diff(BinOp("^", Call("sin", Var("x")), Const(p)), "x")
        # an exponent that is not a bare parameter keeps the general rule
        assert to_text(diff(parse("x^(2*p)"), "x")) == \
            "((x ^ (2 * p)) * ((2 * p) / x))"

    def test_constant_and_parameter(self):
        assert diff(parse("3.5"), "x") == Const(0.0)
        assert diff(parse("alpha"), "x") == Const(0.0)

    def test_by_a_parameter(self):
        d = diff(parse("p*x + p^2"), "p")
        for xv, pv in ((0.3, 1.7), (-2.0, 0.5)):
            assert evaluate(d, {"x": xv, "p": pv}) == xv + 2.0 * pv

    def test_by_the_parameter_of_an_exponent(self):
        # the power rule of a parameter exponent holds only for another
        # symbol; by the exponent itself, d/dp x^p = x^p ln(x)
        d = diff(parse("x^p"), "p")
        assert simplify(d - parse("x^p * ln(x)")) == Const(0.0)
        assert evaluate(d, {"x": 1.7, "p": 2.3}) == \
            pytest.approx(1.7 ** 2.3 * math.log(1.7), rel=1e-15)

    def test_by_another_symbol_than_a_parameter_exponent(self):
        assert to_text(diff(parse("x^p"), "x")) == "(p * (x ^ (p + -1)))"

    def test_by_a_name_no_node_carries(self):
        assert diff(parse("p*x + exp(q)"), "alpha") == Const(0.0)


class TestSimplify:
    def test_identity_elimination(self):
        assert simplify(parse("0*x + 1*y")) == Var("y")

    def test_cancellation(self):
        assert simplify(parse("x - x")) == Const(0.0)

    def test_like_term_collection(self):
        s = simplify(parse("x + x"))
        assert s == BinOp("*", Const(2.0), Var("x"))

    def test_constant_folding(self):
        assert simplify(parse("2*3 + 1")) == Const(7.0)

    def test_a_sum_inside_a_unit_product_is_flattened(self):
        s = simplify(parse("(2 + 0) * (0.5 * (((0 + 3) + a^x)^3"
                           " + (--1)*(1^0)/((-1 - 2)*3))) - 2"))
        assert s is BinOp("+", parse("((a^x) + 3)^3"),
                          Const(-2.111111111111111))
        assert simplify(s) is s
        # minus a sum times one: its constant joins the others
        assert simplify(parse("1 - 0.5*((x + 0.5)*2)")) is \
            BinOp("+", E.Neg(Var("x")), Const(0.5))

    @pytest.mark.parametrize("text", [
        line for line in (pathlib.Path(__file__).parent / "data"
                          / "two_pass_trees.txt").read_text().splitlines()
        if not line.startswith("#")])
    def test_one_pass_is_a_fixed_point(self, text):
        s = simplify(parse(text))
        assert simplify(s) is s

    @pytest.mark.parametrize("text, left", [
        ("1e999 * 0", "(1e999 * 0)"),
        ("1e999 - 1e999", "(1e999 - 1e999)"),
        ("x * 0 * 1e999", "(0 * 1e999)"),
    ])
    def test_a_fold_whose_value_is_nan_is_left_unmade(self, text, left):
        s = simplify(parse(text))
        assert to_text(s) == left and parse(left) is s
        assert E.free_symbols(s) == set()  # no constant became 'nan'
        with pytest.raises(DomainError, match="non-finite result"):
            evaluate(s, {})

    @pytest.mark.parametrize("text, left, want", [
        # the collected coefficient 2e308 overflows at every x
        ("1e308*x + 1e308*x", "((1e+308 * x) + (1e+308 * x))", 1e308),
        # and stays infinite when a third term takes one back off
        ("x*1e308 + x*1e308 - x*1e308",
         "(((x * 1e+308) + (x * 1e+308)) - (x * 1e+308))", 5e307),
    ])
    def test_a_sum_whose_collection_overflows_is_left_unmade(self, text,
                                                             left, want):
        e = parse(text)
        s = simplify(e)
        assert to_text(s) == left and parse(left) is s
        assert evaluate(s, {"x": 0.5}) == evaluate(e, {"x": 0.5}) == want
        assert compile_fn(s, ("x",))(0.5) == want
        with pytest.raises(DomainError, match="non-finite result"):
            evaluate(s, {"x": 1.0})


def _random_bindings(rng_vals, names):
    return dict(zip(names, rng_vals))


_expr_pool = [
    "x + y*dy", "sin(x)*exp(0.3*y)", "(x - ym)/(1 + dy^2)",
    "sqrt(1 + x^2) - ln(2 + y)", "arctan(dy) + x*y - dym",
    "x^2*y - 3*x + 0*dym + 1*ym", "abs(x) + sgn(y)*x",
]


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(_expr_pool) - 1),
    vals=st.lists(st.floats(min_value=0.3, max_value=2.7), min_size=5,
                  max_size=5),
)
def test_simplify_preserves_value(idx, vals):
    e = parse(_expr_pool[idx])
    binds = _random_bindings(vals, ("x", "y", "ym", "dy", "dym"))
    a = evaluate(e, binds)
    b = evaluate(simplify(e), binds)
    assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


@settings(max_examples=60, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(_expr_pool) - 1),
    vals=st.lists(st.floats(min_value=0.3, max_value=2.7), min_size=5,
                  max_size=5),
)
def test_print_parse_round_trip_preserves_value(idx, vals):
    e = parse(_expr_pool[idx])
    binds = _random_bindings(vals, ("x", "y", "ym", "dy", "dym"))
    again = parse(to_text(e))
    assert again is e
    assert evaluate(again, binds) == evaluate(e, binds)


class TestSubsAndCompile:
    def test_substitution_by_name(self):
        e = subs(parse("x + y"), {"x": parse("xm^2")})
        assert evaluate(e, {"xm": 3.0, "y": 1.0}) == 10.0

    def test_compiled_matches_math_reference(self):
        e = parse("exp(x)*sin(y) + x/(1+y^2)")
        fn = compile_fn(e, ("x", "y"))
        for x, y in ((0.2, 1.1), (1.7, 0.4)):
            expected = math.exp(x) * math.sin(y) + x / (1 + y ** 2)
            assert fn(x, y) == pytest.approx(expected, rel=1e-15)
            assert evaluate(e, {"x": x, "y": y}) == pytest.approx(expected,
                                                                  rel=1e-15)

    def test_overflow_is_a_domain_error_on_both_paths(self):
        e = parse("x*x*x")
        with pytest.raises(DomainError, match="non-finite"):
            evaluate(e, {"x": 1e200})
        with pytest.raises(DomainError, match="non-finite"):
            compile_fn(e, ("x",))(1e200)

    @pytest.mark.parametrize("name", ["lambda", "None", "_sgn", "pow", "inf"])
    def test_any_symbol_name_evaluates_and_compiles(self, name):
        e = parse(f"{name}*x + sgn(x)")
        assert evaluate(e, {name: 2.0, "x": -3.0}) == -7.0
        assert compile_fn(e, (name, "x"))(2.0, -3.0) == -7.0

    def test_evaluate_returns_float_for_int_bindings(self):
        value = evaluate(parse("x + 1"), {"x": 2})
        assert type(value) is float and value == 3.0

    def test_constant_folds_skip_undefined_calls(self):
        folded = simplify(parse("ln(0) + sqrt(-1) + 0^(-1) + 2^3"))
        assert "ln(0)" in to_text(folded) and "sqrt" in to_text(folded)
        assert "^" in to_text(folded) and "8" in to_text(folded)

    def test_compiled_raises_domain_errors(self):
        fn = compile_fn(parse("1/x"), ("x",))
        with pytest.raises(DomainError):
            fn(0.0)

    def test_compile_rejects_unbound(self):
        with pytest.raises(UnboundSymbolError):
            compile_fn(parse("x + y"), ("x",))

    @pytest.mark.parametrize("compile", [compile_fn, compile_columns])
    def test_a_parameter_may_not_shadow_an_argument(self, compile):
        e = parse("-ym*y")
        with pytest.raises(E.ExprError,
                           match="^parameter 'y' is also an argument$"):
            compile(e, ("y", "ym"), {"y": 2.0})
        # a param the tree does not read is harmless
        assert compile(e, ("y", "ym"), {"x": 5.0})(2.0, 3.0) == -6.0


def test_expressions_are_immutable():
    e = parse("x + 1")
    with pytest.raises(AttributeError):
        e.op = "*"
    with pytest.raises(AttributeError):
        del e.left


# ---------------------------------------------------------------------------
# interning: equal content is one node


class TestInterning:
    def test_signed_zeros_are_two_nodes(self):
        assert Const(0.0) is not Const(-0.0)
        assert Const(0.0) != Const(-0.0)
        assert parse("0.0") is Const(0.0)
        assert parse("-0.0") is Const(-0.0)
        assert to_text(Const(-0.0)) == "-0" and parse("-0") is Const(-0.0)

    def test_a_negated_constant_is_the_negated_value(self):
        assert Neg(Const(2.0)) is Const(-2.0)
        assert Neg(Const(-0.0)) is Const(0.0)
        assert Neg(Const(math.inf)) is Const(-math.inf)
        assert parse("-1") is Const(-1.0) and parse("--1") is Const(1.0)
        assert parse("-(3)") is Const(-3.0)
        assert isinstance(Neg(Var("x")), Neg)
        assert diff(parse("-x"), "x") is Const(-1.0)

    def test_equal_texts_parse_to_one_node(self):
        text = "sin(x)*exp(0.3*y) - alpha/(1 + dym^2)"
        assert parse(text) is parse(text)
        assert parse(text) is parse(to_text(parse(text)))
        assert BinOp("+", Var("x"), Const(1)) is parse("x + 1")
        assert parse("x + 1") is not parse("1 + x")

    def test_nan_constants_by_bit_pattern(self):
        assert Const(float("nan")) is Const(math.nan)
        quiet_one = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        assert Const(quiet_one) is not Const(math.nan)

    def test_equality_and_hash_are_identity(self):
        a, b = parse("x*y + 2"), parse("x*y + 2")
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert repr(a) == ("BinOp(op='+', left=BinOp(op='*', left=Var(name='x'),"
                           " right=Var(name='y')), right=Const(value=2.0))")

    def test_copies_and_pickles_are_the_same_node(self):
        e = parse("ln(x) - gamma*ym")
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            Var("alpha")
        with pytest.raises(ValueError):
            Call("cosh", Var("x"))

    def test_simplify_and_diff_are_cached_on_the_node(self, monkeypatch):
        e = parse("x*x + 3*sin(y)*x - x*x")
        first = (simplify(e), diff(e, "x"), E.free_symbols(e))
        calls = []

        def counted(name):
            real = getattr(E, name)

            def worker(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(E, name, worker)

        for name in ("_simplify", "_diff", "_collect_symbols"):
            counted(name)
        assert (simplify(e), diff(e, "x"), E.free_symbols(e)) == first
        assert calls == []
        assert E.free_symbols(e) == frozenset({"x", "y"})

    def test_compile_fn_is_memoized_per_tree_and_names(self):
        fn = compile_fn(parse("x*y + 1"), ("x", "y"))
        assert compile_fn(parse("x*y + 1"), ["x", "y"]) is fn
        assert compile_fn(parse("x*y + 1"), ("y", "x")) is not fn
        assert compile_fn(parse("x*y - 1"), ("x", "y"))(2.0, 3.0) == 5.0

    def test_table_returns_to_its_size_after_dropping_systems(self):
        from dodesym.dods import DodsSystem

        gc.collect()
        before = len(E._NODES)
        rng = np.random.default_rng(2006)
        for i, (a, b, c) in enumerate(rng.uniform(0.5, 2.0, size=(2000, 3))):
            system = DodsSystem(f=parse(f"{a}*(y - ym) + {b}*sin(dym)*dy"),
                                g=parse(f"x - {c}"))
            system.kernels()
            diff(simplify(system.f * system.g), "x")
            if i == 0:
                shapes = E._factory.cache_info()
        assert E.memo_info().size <= E.memo_info().bound
        # the systems differ only in their constants: no new shape after
        # the first, and the shape table stays within its bound
        table = E._factory.cache_info()
        assert (table.misses, table.currsize) == (shapes.misses, shapes.currsize)
        assert table.maxsize == E._SHAPE_BOUND and table.currsize > 0
        last = weakref.ref(system.f)
        del system
        E._memo.clear()  # the memo is the one strong store
        gc.collect()
        # the shape table keeps no tree alive
        assert E._factory.cache_info().currsize == table.currsize
        assert last() is None
        assert abs(len(E._NODES) - before) <= 0.01 * before
        E._memo_clear()


# ---------------------------------------------------------------------------
# printing and parsing: each node's text is kept on it, and a text's tree
# in the weak text table


def _reference_text(e) -> str:
    """to_text's text, printed anew on every call."""
    if isinstance(e, Const):
        v = e.value
        if v == 0.0 and math.copysign(1.0, v) < 0.0:
            return "-0"
        if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
            return str(int(v))
        if math.isinf(v):
            return "1e999" if v > 0.0 else "-1e999"
        return repr(v)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_reference_text(e.arg)})"
    if isinstance(e, BinOp):
        left = _reference_text(e.left)
        if e.op == "^" and isinstance(e.left, Const) and left[0] == "-":
            left = f"({left})"
        return f"({left} {e.op} {_reference_text(e.right)})"
    return f"{e.fn}({_reference_text(e.arg)})"


def _reference_to_text(e) -> str:
    # the wrapper and one frame per level, as an uncached to_text
    try:
        return _reference_text(e)
    except RecursionError:
        raise E.ExprError(E.TOO_DEEP) from None


def _catalog_trees() -> list:
    from dodesym import catalog

    trees = []
    for entry in catalog.list_entries():
        for field in entry.basis:
            trees += [field.xi, field.eta]
        trees += [entry.f_template, entry.g_template, *entry.f_slots,
                  *entry.g_slots, entry.default_f, entry.default_g,
                  entry.second_order_minor]
    return [t for t in trees if t is not None]


def _deepest_sum(printer) -> int:
    """The most terms of a left-nested sum printer prints, in a new thread,
    whose stack depth does not depend on the caller's; each sum is built
    anew from a leaf no text has been kept for."""
    def prints(n: int) -> bool:
        e = Param(f"leaf_{n}")
        for _ in range(n - 1):
            e = BinOp("+", e, Var("y"))
        try:
            printer(e)
        except E.ExprError as err:
            assert str(err) == E.TOO_DEEP
            return False
        return True

    def search():
        lo, hi = 1, 4 * sys.getrecursionlimit()  # prints(lo), not prints(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if prints(mid) else (lo, mid)
        found.append(lo)

    found = []
    thread = threading.Thread(target=search)
    thread.start()
    thread.join()
    return found[0]


class TestTextOnce:
    def test_a_live_trees_text_parses_without_a_token_scan(self, monkeypatch):
        text = "ym*sin(dym) - 7.25/(x + theta_once)"
        e = parse(text)
        printed = to_text(e)
        assert parse(printed) is e  # a miss: its first parse
        climbs = []
        real = E._climb

        def counted(*args):
            climbs.append(args[1:])
            return real(*args)

        monkeypatch.setattr(E, "_climb", counted)
        assert parse(text) is e and parse(printed) is e
        assert climbs == []
        assert parse(text + " ") is e  # another text: scanned and kept
        assert climbs and E._PARSED[text + " "] is e

    def test_the_text_table_returns_to_its_size(self):
        gc.collect()
        before = len(E._PARSED)
        trees = [parse(f"{k}.5*x + sin({k}.25*ym)") for k in range(300)]
        assert len(E._PARSED) == before + 300
        last = weakref.ref(trees[-1])
        del trees
        gc.collect()
        assert last() is None  # the table keeps no tree alive
        assert len(E._PARSED) == before

    def test_a_bad_text_raises_on_every_call(self):
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse("2*x + $ - sin(y)")
            errors.append((str(err.value), err.value.position))
        assert errors == [("unknown character '$' at offset 7", 7)] * 2
        assert "2*x + $ - sin(y)" not in E._PARSED

    def test_to_text_of_catalog_and_corpus_trees(self):
        trees = _catalog_trees()
        assert len(trees) == 318
        for text in _file_expressions() + _random_texts():
            try:
                trees.append(parse(text))
            except ParseError:
                pass
        assert len(trees) > 4000
        for e in trees:
            assert to_text(e) == _reference_text(e)
        for e in trees:  # now every text is kept on its node
            assert to_text(e) == _reference_text(e)
            assert parse(to_text(e)) is e, to_text(e)

    def test_to_text_prints_as_deep_as_one_frame_per_level(self):
        deepest = _deepest_sum(to_text)
        assert deepest == _deepest_sum(_reference_to_text)
        assert deepest > 0.9 * sys.getrecursionlimit()


# ---------------------------------------------------------------------------
# one canonical text per tree: parse(to_text(e)) is e

#: constants of the round-trip trees: signed zeros, infinities, integers,
#: fractions and literals printed by repr, each with both signs
_ROUND_TRIP_CONSTANTS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.25,
                         -7.125, 1e-7, -1e-7, 1e16, -2.5e16, 0.1, -1 / 3,
                         math.inf, -math.inf]


def _random_tree(rng: random.Random, depth: int):
    """A random tree of at most depth levels over x, y, ym, a parameter
    and _ROUND_TRIP_CONSTANTS, every node built by its constructor."""
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        if rng.random() < 0.5:
            return Const(rng.choice(_ROUND_TRIP_CONSTANTS))
        return E.symbol(rng.choice(("x", "y", "ym", "a")))
    if pick < 0.45:
        return Neg(_random_tree(rng, depth - 1))
    if pick < 0.55:
        return Call(rng.choice(E.FUNCTIONS), _random_tree(rng, depth - 1))
    return BinOp(rng.choice("+-*/^^"), _random_tree(rng, depth - 1),
                 _random_tree(rng, depth - 1))


def _negative_power_base(e) -> bool:
    if isinstance(e, BinOp):
        if e.op == "^" and isinstance(e.left, Const) and \
                math.copysign(1.0, e.left.value) < 0.0:
            return True
        return _negative_power_base(e.left) or _negative_power_base(e.right)
    if isinstance(e, (Neg, Call)):
        return _negative_power_base(e.arg)
    return False


class TestOneTextPerTree:
    def test_every_tree_reads_back_as_itself(self):
        rng = random.Random(20190118)
        seen = Counter()
        for _ in range(10_000):
            e = parse(to_text(_random_tree(rng, 4)))
            for tree in (e, simplify(e), diff(e, "x"), diff(e, "y")):
                text = to_text(tree)
                assert parse(text) is tree, text
                seen["negative base of ^"] += _negative_power_base(tree)
                seen["-0"] += re.search(r"-0(?![\d.])", text) is not None
                seen["1e999"] += "1e999" in text
                seen["nan"] += "nan" in text
        # the trees hold every case of a signed constant, and no NaN
        assert seen["nan"] == 0
        assert all(seen[k] > 100
                   for k in ("negative base of ^", "-0", "1e999"))


# ---------------------------------------------------------------------------
# compile_columns: every row is what compile_fn returns for that point


def _assert_row_matches_closure(fn, args, got):
    """got is fn(*args) bit for bit, or NaN where fn raises DomainError."""
    try:
        want = fn(*args)
    except DomainError:
        assert math.isnan(got), (args, got)
        return
    assert np.float64(want).tobytes() == np.float64(got).tobytes(), \
        (args, want, got)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 800.0, 1e300, -1e300,
            5e-324, math.inf, -math.inf, math.nan]
_values = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_leaves = st.one_of(st.sampled_from([Var("x"), Var("y")]), _values.map(Const))


def _trees_over(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(E.FUNCTIONS), kids),
    ), max_leaves=12)


_trees = _trees_over(_leaves)


def _result(fn, args):
    """The bit pattern of fn(*args), or the text of its DomainError."""
    try:
        return np.float64(fn(*args)).tobytes()
    except DomainError as exc:
        return str(exc)


def _binds_a_square(e, params) -> bool:
    """Whether an exponent of e binds to the constant 2.0 only under
    params: bind_params then makes it a square, u * u, where the
    parameter kernel keeps math.pow, and the two can differ by an ulp."""
    if isinstance(e, BinOp):
        if e.op == "^" and e.right is not E.TWO \
                and E.bind_params(e.right, params) is E.TWO:
            return True
        return _binds_a_square(e.left, params) or \
            _binds_a_square(e.right, params)
    if isinstance(e, (Neg, Call)):
        return _binds_a_square(e.arg, params)
    return False


@settings(max_examples=400, deadline=None)
@given(e=_trees_over(st.one_of(_leaves, st.just(Param("p")))), p=_values,
       rows=st.lists(st.tuples(_values, _values), min_size=1, max_size=16))
# math.pow(x, 2.0) is x * x plus one ulp here
@example(e=BinOp("^", Var("x"), Param("p")), p=2.0,
         rows=[(31.879633114332773, 0.0)])
def test_columns_match_compile_fn_bitwise(e, p, rows):
    # the parameter is a closure cell; bind_params makes it a constant,
    # which gives the same bits but where that constant is a square
    params = {"p": p}
    bound = E.bind_params(e, params)
    same_bits = not _binds_a_square(e, params)
    fn = compile_fn(e, ("x", "y"), params)
    frozen = compile_fn(bound, ("x", "y"))
    xs, ys = (np.array(c, dtype=float) for c in zip(*rows))
    out = compile_columns(e, ("x", "y"), params)(xs, ys)
    assert out.shape == (len(rows),)
    if same_bits:
        assert out.tobytes() == \
            compile_columns(bound, ("x", "y"))(xs, ys).tobytes()
    for args, got in zip(rows, out):
        _assert_row_matches_closure(fn, args, got)
        if same_bits:
            assert _result(fn, args) == _result(frozen, args)


@pytest.mark.parametrize("text,x", [
    ("x/0", 1.0), ("x/(-0.0)", 1.0), ("1/x", 0.0), ("1/x", -0.0),
    ("ln(x)", 0.0), ("ln(x)", -1.0), ("sqrt(x)", -1.0), ("x^0.5", -2.0),
    ("x^(-1)", 0.0), ("exp(x)", 800.0), ("sgn(x)", 0.0), ("sgn(x)", -0.0),
    ("sgn(x)", -3.0), ("x*1e300*1e300", 2.0), ("1/(x*1e300*1e300)", 2.0),
    ("ln(-1) + x", 2.0), ("(2^3) + sqrt(4)*x", 2.0), ("sin(1/0) + x", 2.0),
])
def test_columns_match_compile_fn_on_singular_rows(text, x):
    e = parse(text)
    fn = compile_fn(e, ("x",))
    # the singular row among ordinary ones; constant subtrees broadcast
    xs = np.array([1.5, x, 0.25])
    out = compile_columns(e, ("x",))(xs)
    assert out.shape == (3,)
    for value, got in zip(xs.tolist(), out):
        _assert_row_matches_closure(fn, (value,), got)


@pytest.mark.parametrize("text", ["ln(x) + sqrt(x - 1)", "x^0.5 * exp(x)"])
def test_columns_match_compile_fn_where_runs_of_rows_raise(text):
    # raising rows first, last, alone and in runs, among rows that do not
    e = parse(text)
    fn = compile_fn(e, ("x",))
    xs = np.array([-1.0, 0.0, 2.0, 3.0, -0.0, 0.5, -2.0, -3.0, 1.0, 800.0,
                   4.0, -1.0])
    out = compile_columns(e, ("x",))(xs)
    assert np.isnan(out).sum() >= 5 and np.isfinite(out).sum() >= 5
    for value, got in zip(xs.tolist(), out):
        _assert_row_matches_closure(fn, (value,), got)


@pytest.mark.parametrize("name", ["sqrt", "ln"])
def test_sqrt_and_ln_columns_match_the_per_row_loop(name):
    # the rows masked before the map are those where the math function
    # raises: the column and the reject mask are the per-row loop's
    fn = E._PRIMITIVES[name]
    quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    special = [-2.0, -0.0, 0.0, 5e-324, -5e-324, 1.0, 4.0, 1e308, -1e308,
               math.inf, -math.inf, math.nan, -math.nan, quiet]
    rng = np.random.default_rng(2006)
    # columns of rows, one row broadcast, and a constant cell's float
    for v in [np.array(special), rng.uniform(-1.0, 1.0, 200), np.array([-1.0]),
              np.array([0.0]), -3.0, -0.0, 9.0, math.nan]:
        rows = max(np.size(v), 6)
        bad = np.zeros(rows, dtype=bool)
        bad[::5] = True  # rows a sibling node already rejected
        want_bad = bad.copy()
        want = np.full(rows, math.nan)
        for i, point in enumerate(np.broadcast_to(v, (rows,)).tolist()):
            try:
                want[i] = fn(point)
            except ValueError:
                want_bad[i] = True
        with np.errstate(all="raise"):
            got = E._column_primitives()[name](bad, v)
        assert got.tobytes() == want.tobytes(), v
        assert bad.tolist() == want_bad.tolist(), v


@pytest.mark.parametrize("a, b", [(2.0, -1.0), (-1.0, 2.0), (0.0, 0.0),
                                  (-0.0, 1.0), (math.nan, math.inf)])
def test_sqrt_and_ln_of_a_parameter_cell_match_compile_fn(a, b):
    # sqrt and ln of a parameter read one float cell, broadcast to the rows
    trees = [parse("sqrt(a)*x"), parse("ln(b)*x")]
    params = {"a": a, "b": b}
    xs = np.array([1.5, -2.0, 0.0, 3.0])
    outs = compile_columns(trees, ("x",), params)(xs)
    assert len(outs) == 2
    for e, out in zip(trees, outs):
        assert out.shape == (4,)
        fn = compile_fn(e, ("x",), params)
        for value, got in zip(xs.tolist(), out):
            _assert_row_matches_closure(fn, (value,), got)


def test_sgn_of_nan_is_nan_on_every_call():
    # (-x)*x at NaN meets two NaNs of opposite sign; which one the product
    # keeps changed once CPython specialized the multiplication
    fn = compile_fn(parse("sgn((-x)*x) + 1"), ("x",))
    for _ in range(20):
        with pytest.raises(DomainError, match="non-finite"):
            fn(math.nan)
    assert np.isnan(compile_columns(parse("sgn(x)"), ("x",))(
        np.array([math.nan, -math.nan]))).all()


def test_columns_of_a_constant_broadcast_to_the_rows():
    assert compile_columns(parse("2*3"), ("x",))(np.zeros(4)).tolist() == [6.0] * 4
    assert np.isnan(compile_columns(parse("ln(-1)"), ("x",))(np.ones(3))).all()
    with pytest.raises(UnboundSymbolError):
        compile_columns(parse("x + y"), ("x",))


@pytest.mark.parametrize("a", [1.5, -0.0, math.inf, -math.inf, math.nan])
def test_constant_and_parameter_outputs_are_fresh_full_columns(a):
    trees = [parse("a"), parse("2.5"), parse("a*3 - 1"), parse("-0"),
             parse("x"), parse("x*a")]
    xs = np.array([0.5, -1.0, 2.0])
    for args, rows in (((xs,), 3), ((0.5,), 1)):
        outs = compile_columns(trees, ("x",), {"a": a})(*args)
        for out, v in zip(outs, [a, 2.5, a * 3 - 1, -0.0]):
            want = np.full(rows, v if math.isfinite(v) else math.nan)
            assert out.tobytes() == want.tobytes() and out.dtype == float
        for i, out in enumerate(outs):
            assert out.shape == (rows,) and out.flags.writeable
            assert not np.shares_memory(out, xs)
            assert not any(np.shares_memory(out, other)
                           for other in outs[i + 1:])


def test_no_two_outputs_of_a_kernel_share_memory():
    from dodesym.linear import CanonicalLinear
    from dodesym.symmetry import JET, VectorField, field_kernel

    # f = a y + b ym + c dym: f and 14 partials, all but f constant
    system = CanonicalLinear(0.3, 0.2, 0.5, 0.8).to_linear().to_dods()
    jet = np.random.default_rng(3).uniform(0.5, 2.5, size=(len(JET), 50))
    outs = [*system.kernels().f_partials(*jet),
            *field_kernel(VectorField.from_text("1", "y"), system.params)(*jet)]
    assert len(outs) == 15 + len(JET)
    for i, out in enumerate(outs):
        assert out.shape == (50,) and not np.shares_memory(out, jet)
        assert not any(np.shares_memory(out, other) for other in outs[i + 1:])


# ---------------------------------------------------------------------------
# compile_columns: several trees in one function, each output as if alone

#: subtrees undefined on every row, or defined only by IEEE rules
_SINGULAR = [parse("x/0"), BinOp("/", Var("x"), Const(-0.0)), parse("ln(0)"),
             parse("sqrt(-1)"), BinOp("^", Const(0.0), Const(-1.0)),
             BinOp("^", Const(math.nan), Const(0.0)), parse("ln(y)^0")]


@st.composite
def _forests(draw):
    """Up to four trees grown over one pool of subtrees, so that they
    share subtrees with each other and repeat them within themselves."""
    pool = draw(st.lists(st.one_of(_trees, st.sampled_from(_SINGULAR)),
                         min_size=1, max_size=3))
    leaves = st.one_of(st.sampled_from(pool),
                       st.sampled_from([Var("x"), Var("y")]),
                       _values.map(Const))
    grown = st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(E.FUNCTIONS), kids),
        kids.map(lambda k: BinOp("^", k, Const(0.0))),
    ), max_leaves=6)
    return draw(st.lists(grown, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(trees=_forests(), rows=st.lists(st.tuples(_values, _values),
                                       min_size=1, max_size=12))
def test_kernel_outputs_match_each_tree_alone(trees, rows):
    xs, ys = (np.array(c, dtype=float) for c in zip(*rows))
    outs = compile_columns(trees, ("x", "y"))(xs, ys)
    assert len(outs) == len(trees)
    for e, out in zip(trees, outs):
        alone = compile_columns(e, ("x", "y"))(xs, ys)
        assert out.tobytes() == alone.tobytes(), (to_text(e), out, alone)
        fn = compile_fn(e, ("x", "y"))
        for args, got in zip(rows, out):
            _assert_row_matches_closure(fn, args, got)


def test_an_undefined_shared_subtree_is_nan_only_where_it_is_read():
    # ln(y) is shared by the first and third trees, x/0 by the last two;
    # sin(x), read by the first two, is defined everywhere
    trees = [parse("sin(x) + ln(y)*ln(y)"), parse("2*sin(x)"),
             parse("ln(y)^0 + (x/0)^0"), parse("(x/0)^0")]
    ys = np.array([2.0, -1.0])
    first, second, third, fourth = compile_columns(trees, ("x", "y"))(1.0, ys)
    assert np.isnan(first).tolist() == [False, True]
    assert second.tolist() == [2 * math.sin(1.0)] * 2
    assert np.isnan(third).all() and np.isnan(fourth).all()
    # pow(nan, 0) is 1 where its base is NaN without being undefined
    assert compile_columns([parse("y^0"), parse("y")], ("y",))(
        np.array([math.nan]))[0].tolist() == [1.0]


def test_shared_subtrees_are_generated_once(monkeypatch):
    E._memo_clear()  # so that both shapes are new
    sources = []
    monkeypatch.setattr(E, "exec", lambda src, ns: (sources.append(src),
                                                    exec(src, ns)),
                        raising=False)
    compile_columns([parse("sin(x)*sin(x)"), parse("sin(x) + 1"),
                    parse("x * 0"), BinOp("*", Var("x"), Const(-0.0))], ("x",))
    compile_fn(parse("x*y + 1"), ("x", "y"))
    kernel, point = sources
    # one statement per distinct inner node: sin(x) once, read three times
    assert kernel.count("sin(") == 1 and kernel.count("_t0 = ") == 1
    assert kernel.count("_t0") == 4
    assert [line.split(" = ")[0].strip() for line in kernel.splitlines()
            if line.strip().startswith("_t")] == [f"_t{i}" for i in range(5)]
    # 0.0 and -0.0 are equal as numbers but not as constants: two cells
    assert "_t3 = _a0 * _c1" in kernel and "_t4 = _a0 * _c2" in kernel
    assert kernel.startswith("def _make(_c0, _c1, _c2):")
    # a tree without repeats is one statement per node, in walk order
    assert point == (
        "def _make(_e, _c0):\n"
        "    def _f(_a0, _a1):\n"
        "        try:\n"
        "            _t0 = _a0 * _a1\n"
        "            _t1 = _t0 + _c0\n"
        "        except ZeroDivisionError:\n"
        "            raise DomainError('division by zero', _e) from None\n"
        "        except (ValueError, OverflowError) as exc:\n"
        "            raise DomainError(str(exc), _e) from None\n"
        "        if _isfinite(_t1):\n"
        "            return _t1\n"
        "        raise DomainError('non-finite result', _e)\n"
        "    return _f\n")


# ---------------------------------------------------------------------------
# squares: u ^ 2.0 is the product u * u, failing where math.pow raises

#: sqrt(DBL_MAX) as a float: its square is finite, the next float's is not
_ROOT_MAX = 1.3407807929942596e154
#: a base whose square math.pow(u, 2.0) rounds one ulp away from u * u
_POW_OFF = 31.879633114332773


def _square_bases():
    near = [_ROOT_MAX]
    for _ in range(3):
        near = [math.nextafter(near[0], 0.0), *near,
                math.nextafter(near[-1], math.inf)]
    return [*near, *(-u for u in near), 0.0, -0.0, math.inf, -math.inf,
            math.nan, _POW_OFF, 5e-324, 1.5e-154]


def test_squares_of_points_and_columns_agree_where_pow_would_overflow():
    bases = _square_bases()
    overflowing = []
    for u in bases:
        try:
            math.pow(u, 2.0)
        except OverflowError:
            overflowing.append(u)
    assert len(overflowing) == 6  # three floats past _ROOT_MAX, each sign
    for text in ("x^2", "exp(-x^2)", "x^2 - x^2"):
        e = parse(text)
        fn = compile_fn(e, ("x",))
        out = compile_columns(e, ("x",))(np.array(bases))
        for u, got in zip(bases, out):
            _assert_row_matches_closure(fn, (u,), got)
            if u in overflowing:
                with pytest.raises(DomainError, match="^math range error"):
                    fn(u)
    # the product, where it is finite: here an ulp from pow's value
    square = compile_fn(parse("x^2"), ("x",))
    assert square(_ROOT_MAX) == _ROOT_MAX * _ROOT_MAX
    assert square(_POW_OFF) == _POW_OFF * _POW_OFF != math.pow(_POW_OFF, 2.0)
    # an infinite base is not an overflow, as for pow: exp(-inf) is 0
    assert compile_fn(parse("exp(-x^2)"), ("x",))(-math.inf) == 0.0


def test_an_overflowing_square_raises_pows_domain_error():
    e = parse("-ym + exp(-(1e200*y)^2)")
    with pytest.raises(DomainError) as info:
        compile_fn(e, ("y", "ym"))(1.0, 0.0)
    assert str(info.value) == (
        "math range error in '((-ym) + exp((-((1e+200 * y) ^ 2))))'")
    assert info.value.subexpr is e


def test_an_overflowing_square_marks_only_its_row():
    trees = [parse("exp(-x^2)"), parse("sin(x)"), parse("exp(-x^2) + y")]
    xs = np.array([1.0, 1e200, -1e200, 2.0])
    ys = np.array([0.5, 0.5, 0.5, math.inf])
    first, second, third = compile_columns(trees, ("x", "y"))(xs, ys)
    assert np.isnan(first).tolist() == [False, True, True, False]
    assert first[[0, 3]].tolist() == [math.exp(-1.0), math.exp(-4.0)]
    assert np.isfinite(second).all()
    assert np.isnan(third).tolist() == [False, True, True, True]


def test_the_fold_of_a_constant_square_is_the_kernels_value():
    square = compile_fn(parse("x^2"), ("x",))
    for c in _square_bases():
        folded = simplify(BinOp("^", Const(c), Const(2.0)))
        try:
            want = square(c)
        except DomainError:
            # an overflow or a non-finite square is left unmade
            assert folded is BinOp("^", Const(c), Const(2.0)), c
            continue
        assert isinstance(folded, Const), c
        assert E._bits(folded.value) == E._bits(want), c


def test_other_exponents_and_a_parameter_bound_to_two_call_pow():
    # 2.0000000000000004 is the float after 2.0
    cases = [(parse("x^2.0000000000000004"), {}, 2.0000000000000004),
             (parse("x^p"), {"p": 2.0}, 2.0)]
    for e, params, w in cases:
        want = math.pow(_POW_OFF, w)
        assert compile_fn(e, ("x",), params)(_POW_OFF) == want
        column = compile_columns(e, ("x",), params)(np.array([_POW_OFF]))
        assert column.tolist() == [want]
    assert math.pow(_POW_OFF, 2.0) != _POW_OFF * _POW_OFF
    # the parameter stays a cell: the product is the constant's alone
    frozen = E.bind_params(parse("x^p"), {"p": 2.0})
    assert compile_fn(frozen, ("x",))(_POW_OFF) == _POW_OFF * _POW_OFF


# ---------------------------------------------------------------------------
# the shape table: trees that differ only in constants share one compile


def _cells(fn) -> dict:
    """The closure cells of a generated function, by name."""
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__)))


class TestShapeTable:
    @staticmethod
    def _record_exec(monkeypatch) -> list[str]:
        E._memo_clear()
        sources = []
        monkeypatch.setattr(E, "exec", lambda src, ns: (sources.append(src),
                                                        exec(src, ns)),
                            raising=False)
        return sources

    def test_memo_clear_empties_the_shape_table(self):
        compile_fn(parse("0.25*x + 7"), ("x",))
        compile_columns(parse("0.25*x - 7"), ("x",))
        assert E._factory.cache_info().currsize > 0
        E._memo_clear()
        assert E._factory.cache_info().currsize == 0
        assert E.memo_info() == (0, 0, 0, E._MEMO_BOUND)

    def test_constants_share_one_shape(self, monkeypatch):
        sources = self._record_exec(monkeypatch)
        a = parse("2.5*sin(x) - x/3 + exp(0.1*y)")
        b = parse("1.25*sin(x) - x/7 + exp(0.3*y)")
        fa, fb = compile_fn(a, ("x", "y")), compile_fn(b, ("x", "y"))
        ca, cb = (compile_columns(t, ("x", "y")) for t in (a, b))
        assert len(sources) == 2  # one point shape and one column shape
        assert fa.__code__ is fb.__code__ and fa is not fb
        xs, ys = np.array([0.3, -1.7, 2.0, 1e-3]), np.array([1.0, -2.0, 0.5, 9.0])
        rows = list(zip(xs.tolist(), ys.tolist()))
        # each is what Python computes for its own constants, bit for bit
        assert [fa(x, y) for x, y in rows] == [
            2.5 * math.sin(x) - x / 3.0 + math.exp(0.1 * y) for x, y in rows]
        assert [fb(x, y) for x, y in rows] == [
            1.25 * math.sin(x) - x / 7.0 + math.exp(0.3 * y) for x, y in rows]
        for fn, columns in ((fa, ca), (fb, cb)):
            for args, got in zip(rows, columns(xs, ys)):
                _assert_row_matches_closure(fn, args, got)
        # and what a shape compiled for the one tree alone gives
        E._memo_clear()
        alone = compile_fn(b, ("x", "y"))
        assert alone is not fb and len(sources) == 3
        assert [np.float64(alone(*r)).tobytes() for r in rows] == [
            np.float64(fb(*r)).tobytes() for r in rows]

    def test_a_domain_error_names_its_own_tree(self):
        a, b = parse("4/(x - 1) + ln(x)"), parse("4/(x - 2) + ln(x)")
        fa, fb = compile_fn(a, ("x",)), compile_fn(b, ("x",))
        assert fa.__code__ is fb.__code__
        for fn, tree, pole in ((fa, a, 1.0), (fb, b, 2.0)):
            with pytest.raises(DomainError) as err:
                fn(pole)
            assert err.value.subexpr is tree
            assert str(err.value) == f"division by zero in '{to_text(tree)}'"
            with pytest.raises(DomainError, match="math domain error"):
                fn(-1.0)
        # the first operation to fail is the first a left-to-right walk meets
        with pytest.raises(DomainError, match="division by zero"):
            compile_fn(parse("1/(x - 2) + ln(x - 2)"), ("x",))(2.0)
        with pytest.raises(DomainError, match="math domain error"):
            compile_fn(parse("ln(x - 2) + 1/(x - 2)"), ("x",))(2.0)

    def test_signed_zeros_get_separate_cells(self):
        zero, minus_zero = Const(0.0), Const(-0.0)
        e = BinOp("+", BinOp("*", Var("x"), zero), BinOp("*", Var("y"), minus_zero))
        fn = compile_fn(e, ("x", "y"))
        cells = _cells(fn)
        assert cells["_e"] is e
        assert [np.float64(cells[c]).tobytes() for c in ("_c0", "_c1")] == [
            np.float64(0.0).tobytes(), np.float64(-0.0).tobytes()]
        assert np.float64(fn(-1.0, 1.0)).tobytes() == np.float64(-0.0).tobytes()
        # the same shape with the zeros swapped is a new tree, with new cells
        swapped = compile_fn(BinOp("+", BinOp("*", Var("x"), minus_zero),
                                   BinOp("*", Var("y"), zero)), ("x", "y"))
        assert swapped.__code__ is fn.__code__
        assert np.float64(swapped(-1.0, 1.0)).tobytes() == \
            np.float64(0.0).tobytes()

    def test_nan_constants_keep_their_bit_pattern(self):
        payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        for nan in (math.nan, payload):
            e = BinOp("+", Var("x"), Const(nan))
            fn = compile_fn(e, ("x",))
            assert struct.pack("<d", _cells(fn)["_c0"]) == struct.pack("<d", nan)
            with pytest.raises(DomainError, match="non-finite"):
                fn(1.0)
            assert np.isnan(compile_columns(e, ("x",))(np.ones(3))).all()
            # pow(nan, 0) is 1 on both paths
            power = BinOp("^", Const(nan), Var("x"))
            assert compile_fn(power, ("x",))(0.0) == 1.0
            assert compile_columns(power, ("x",))(
                np.array([0.0, 1.0])).tolist()[0] == 1.0


# ---------------------------------------------------------------------------
# deep trees: one statement per node, so no line nests


def test_a_400_term_sum_compiles_and_its_rows_agree():
    terms = " + ".join(f"{k + 1}*dym*x^{k}" for k in range(399))
    e = parse(f"-ym + {terms}")
    names = ("x", "ym", "dym")
    fn = compile_fn(e, names)
    cols = [np.array([0.5, -0.9, 1.01, 0.0, 10.0]), np.array([1.0, 2.0, -3.0, 0.5, 1.0]),
            np.array([0.25, -1.0, 2.0, 3.0, 1.0])]
    out = compile_columns(e, names)(*cols)
    for args, got in zip(zip(*(c.tolist() for c in cols)), out):
        _assert_row_matches_closure(fn, args, got)
    assert np.isnan(out[-1])  # 10^398 overflows
    assert not np.isnan(out[:-1]).any()


def test_150_nested_calls_compile_and_their_rows_agree():
    e = Call("ln", Var("x"))
    for k in range(150):
        e = Call(("sin", "arctan", "cos", "sqrt", "exp")[k % 5], e)
    fn = compile_fn(e, ("x",))
    xs = np.array([0.5, 2.0, 1e-300, 0.0, -1.0, 7.0])
    out = compile_columns([e, diff(e, "x")], ("x",))(xs)
    assert np.isnan(out[0]).tolist() == [False, False, False, True, True, False]
    for value, got in zip(xs.tolist(), out[0]):
        _assert_row_matches_closure(fn, (value,), got)
    derivative = compile_fn(diff(e, "x"), ("x",))
    for value, got in zip(xs.tolist(), out[1]):
        _assert_row_matches_closure(derivative, (value,), got)

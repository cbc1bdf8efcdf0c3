import copy
import gc
import hashlib
import math
import pathlib
import pickle
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
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
    character-cursor recursive-descent parser gave them.  The file corpus
    follows the catalog and the examples: a change to either changes its
    texts, and its digest is then recorded anew from the parser that
    precedes the change."""

    def test_file_expressions(self):
        assert len(_file_expressions()) >= 318
        assert _digest(_file_expressions()) == (
            "448b73c0846817192f1fc252acd3879058452c1e2d17ec0472c098bbe00f0d54")

    def test_random_texts(self):
        assert _digest(_random_texts()) == (
            "7419793cef955838c34c3c94ee28d83fc7756676a87fb47cea3cc29256e07bdc")


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

    def test_constant_and_parameter(self):
        assert diff(parse("3.5"), "x") == Const(0.0)
        assert diff(parse("alpha"), "x") == Const(0.0)

    def test_rejects_non_alphabet_symbol(self):
        with pytest.raises(ValueError):
            diff(parse("x"), "alpha")


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
    assert evaluate(again, binds) == pytest.approx(evaluate(e, binds),
                                                   rel=1e-14, abs=1e-14)


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
        assert simplify(parse("-0.0")) is Const(-0.0)

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
        for a, b, c in rng.uniform(0.5, 2.0, size=(2000, 3)):
            system = DodsSystem(f=parse(f"{a}*(y - ym) + {b}*sin(dym)*dy"),
                                g=parse(f"x - {c}"))
            system.kernels()
            diff(simplify(system.f * system.g), "x")
        assert E.memo_info().size <= E.memo_info().bound
        del system
        E._memo_clear()  # the memo is the one strong store
        gc.collect()
        assert abs(len(E._NODES) - before) <= 0.01 * before


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
_trees = st.recursive(
    st.one_of(st.sampled_from([Var("x"), Var("y")]), _values.map(Const)),
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(E.FUNCTIONS), kids),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(e=_trees, rows=st.lists(st.tuples(_values, _values), min_size=1,
                               max_size=16))
def test_columns_match_compile_fn_bitwise(e, rows):
    fn = compile_fn(e, ("x", "y"))
    xs, ys = (np.array(c, dtype=float) for c in zip(*rows))
    out = compile_columns(e, ("x", "y"))(xs, ys)
    assert out.shape == (len(rows),)
    for args, got in zip(rows, out):
        _assert_row_matches_closure(fn, args, got)


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
    sources = []
    monkeypatch.setattr(E, "exec", lambda src, ns: (sources.append(src),
                                                    exec(src, ns)),
                        raising=False)
    compile_columns([parse("sin(x)*sin(x)"), parse("sin(x) + 1"),
                    parse("x * 0"), BinOp("*", Var("x"), Const(-0.0))], ("x",))
    compile_fn(parse("x*y + 1"), ("x", "y"))
    kernel, point = sources
    assert kernel.count("sin(") == 1 and kernel.count("_t0 :=") == 1
    assert "_t1" not in kernel
    # 0.0 and -0.0 are equal as numbers but not as constants
    assert "(_a0 * 0.0)" in kernel and "(_a0 * -0.0)" in kernel
    # a tree without repeats is generated as a plain walk
    assert point == "def _f(_a0, _a1):\n    return ((_a0 * _a1) + 1.0)\n"

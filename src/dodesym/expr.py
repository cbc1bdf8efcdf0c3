"""Expression trees over the delayed jet alphabet.

Every other module builds on this one: immutable trees with parsing,
numeric evaluation, exact partial differentiation, substitution and a
light simplifier (constant folding, 0/1 identities, like-term collection).
There is deliberately no general CAS machinery here; semantic checks
elsewhere are done by residual evaluation at sampled points.

Nodes are hash-consed (interned): equal content is one object, so `==`
and hash are identity, and simplify, diff, free_symbols and to_text keep
their results on the node, computing each once per node.  parse keeps
the tree of each text it parses in a weak table, which keeps no tree
alive: a text whose tree still lives is parsed again without a token
scan.

There is one numeric semantics with two calling conventions, one call
each, both built by one value-numbering code generator (each repeated
subtree is evaluated once, one statement per node) over one primitive
table.  `compile_fn(e, names, params)` turns a tree into a Python closure
of one point; `evaluate` is that closure called once.  An undefined
operation (division by zero, ln or sqrt out of domain, pow without a real
value) or a non-finite result raises DomainError, whose message names the
whole compiled expression rather than the failing sub-node.
`compile_columns(trees, names, params)` turns a tree, or a list of trees,
into a function of numpy columns, one row per point: each row of a tree's
output holds what its closure returns there, and NaN where that raises.
A name that is both an argument and a param the trees read is an
ExprError.

The generated text depends on the shape of the trees, not on their
constants: each constant node is a closure cell holding its float, bit
pattern and all.  The code of each text is compiled once and kept in a
shape table (an LRU of 512 texts, holding no tree), so trees that differ
only in their constants share one compiled function body and each gets
its own cells.  Each param a tree reads is a cell as well, filled with
its value: both calls compile the tree as written and give what compiling
bind_params(tree, params) gives, but where a parameter exponent is bound
to 2.0: that stays math.pow, while the constant 2.0 in its place is a
square, the product u * u (see `_generate`), which can differ by an ulp.

One bounded memo (`_memoized`, `memo_info`) keeps what other modules
build from trees, keyed by a kind, the interned trees and the names of
the params they read, and hands back kernels bound to the values of each
lookup: see the comment above `_MEMO_BOUND`.  So a family of systems
written with parameters, as in a parameter sweep, is derived, walked and
compiled once, and each set of values costs one call of the compiled
factory per kernel.

parse rejects text nested deeper than MAX_NESTING levels with a
ParseError, so that the recursive walks of this module stay within
Python's recursion limit on what it returns.  A run of hundreds of
left-associative operators nests no level, and derivation deepens a
tree; where a walk of diff, simplify, subs, to_text, free_symbols or
the compiler reaches the limit it raises ExprError(TOO_DEEP).
"""

from __future__ import annotations

import functools
import math
import re
import struct
import weakref
from collections import Counter, OrderedDict
from typing import (TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple,
                    Union)

if TYPE_CHECKING:
    import numpy as np

# Jet alphabet: `m` suffix marks the delayed point (xm = delayed x, ym = y at
# the delayed point, dym = first derivative there).  t and n are auxiliary
# symbols for time-indexed models.
VARIABLES = ("x", "y", "xm", "ym", "dy", "dym", "ddy", "t", "n")

FUNCTIONS = ("sin", "cos", "tan", "arctan", "exp", "ln", "sqrt", "abs", "sgn")

Bindings = Mapping[str, float]


class ExprError(Exception):
    pass


#: the message of the ExprError that diff, simplify, subs, to_text and
#: symmetry.prolong raise where a tree is too deep for Python's recursion
#: limit
TOO_DEEP = "expression too deep"


class ParseError(ExprError):
    """Syntax error; `position` is the 1-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnboundSymbolError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound symbol '{name}'")
        self.name = name


class DomainError(ExprError):
    """Analytic singularity hit during evaluation (reported, never silent)."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        if subexpr is not None:
            message = f"{message} in '{to_text(subexpr)}'"
        super().__init__(message)
        self.subexpr = subexpr


class Expr:
    """Base node of an immutable, hash-consed expression tree.

    Nodes are interned when constructed: a node of the same class,
    operator, function or name and the same children is the one live node
    of that content, so equal content is the same object, and `==` and
    hash are identity.  A Const is keyed by the bit pattern of its value,
    so Const(0.0) and Const(-0.0) are two nodes, and two NaNs of one bit
    pattern are one.  Neg of a Const is the Const of the negated value, so
    no tree holds a negated constant.  A node carries the caches of
    simplify, diff, free_symbols and to_text, which die with it.
    """

    __slots__ = ("_simple", "_derivs", "_symbols", "_printed", "__weakref__")
    #: the content of a node, in constructor order
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __reduce__(self):
        # copies and unpickled nodes are interned like constructed ones
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __add__(self, other):
        return BinOp("+", self, _coerce(other))

    def __radd__(self, other):
        return BinOp("+", _coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _coerce(other))

    def __rsub__(self, other):
        return BinOp("-", _coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _coerce(other))

    def __rmul__(self, other):
        return BinOp("*", _coerce(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return BinOp("/", _coerce(other), self)

    def __pow__(self, other):
        return BinOp("^", self, _coerce(other))

    def __rpow__(self, other):
        return BinOp("^", _coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_text(self)


_set = object.__setattr__

#: the bit pattern of a float: keys made of it keep 0.0 and -0.0 apart
_bits = struct.Struct("<d").pack

#: the one live node of each content, keyed by its class and fields, a
#: child by the node itself and a Const's value by its bit pattern; an
#: entry leaves with its node
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _node(cls, key: tuple, *fields) -> Expr:
    """A new node of cls with fields, entered in the table under key."""
    node = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        _set(node, name, value)
    _set(node, "_simple", None)
    _set(node, "_derivs", None)
    _set(node, "_symbols", None)
    _set(node, "_printed", None)
    _NODES[key] = node
    return node


class Const(Expr):
    __slots__ = ("value",)
    _fields = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        key = (cls, _bits(value))
        node = _NODES.get(key)
        return _node(cls, key, value) if node is None else node


class Var(Expr):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _NODES.get(key)
        if node is None:
            if name not in VARIABLES:
                raise ValueError(f"'{name}' is not in the variable alphabet")
            node = _node(cls, key, name)
        return node


class Param(Expr):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _NODES.get(key)
        return _node(cls, key, name) if node is None else node


class Neg(Expr):
    __slots__ = ("arg",)
    _fields = ("arg",)

    def __new__(cls, arg: Expr):
        # a negated constant is the constant of the negated value, which is
        # exact: a signed constant has one node and one text
        if isinstance(arg, Const):
            return Const(-arg.value)
        key = (cls, arg)
        node = _NODES.get(key)
        return _node(cls, key, arg) if node is None else node


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op: one of + - * / ^
    _fields = ("op", "left", "right")

    def __new__(cls, op: str, left: Expr, right: Expr):
        key = (cls, op, left, right)
        node = _NODES.get(key)
        return _node(cls, key, op, left, right) if node is None else node


class Call(Expr):
    __slots__ = ("fn", "arg")
    _fields = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        key = (cls, fn, arg)
        node = _NODES.get(key)
        if node is None:
            if fn not in FUNCTIONS:
                raise ValueError(f"unknown function '{fn}'")
            node = _node(cls, key, fn, arg)
        return node


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot use {type(v).__name__} as an expression")


def symbol(name: str) -> Expr:
    """Var when the name is in the alphabet, Param otherwise."""
    return Var(name) if name in VARIABLES else Param(name)


# Shorthand nodes used heavily by the builders in other modules.
X, Y, XM, YM, DY, DYM, DDY, T = (Var(s) for s in VARIABLES[:8])
ZERO = Const(0.0)
ONE = Const(1.0)
TWO = Const(2.0)


# ---------------------------------------------------------------------------
# parsing


#: one token after optional white space: a number (decimal digits of any
#: script, an optional fraction and exponent), a name (word characters
#: from one that is not a decimal digit; _atom rejects one that does not
#: start with a letter or _) or any other single character
_TOKEN = re.compile(
    r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d*(?:[eE][+-]?\d+)?|[^\W\d]\w*|\S)")

#: binding level of the binary operators below ^; unary minus binds
#: tighter than these and looser than ^
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}

#: the deepest nesting parse accepts.  Each parenthesis or call, unary
#: minus, exponent and right operand nests one level deeper; a run of
#: left-associative operators does not.  A tree holds no node deeper than
#: its nesting (beyond such runs), and every recursive walk of this module
#: (to_text, diff, simplify, the compiler) handles this depth, and first
#: derivatives of it, within Python's default recursion limit.
MAX_NESTING = 100


#: the tree parsed from each text, while it lives: an entry leaves with
#: its tree, so the table keeps no tree alive
_PARSED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Stop(Exception):
    """A syntax error at token index args[1], with message args[0]."""


def parse(text: str) -> Expr:
    """Parse infix text into an expression tree.

    Grammar: + - bind loosest, then * /, all left-associative; unary minus
    binds tighter than these and looser than ^, which is right-associative
    and takes a unary exponent.  Parentheses, `name(arg)` calls of
    FUNCTIONS and decimal literals; other names become parameters.  A
    negated literal is the constant of the negated value (see Neg), so
    "-1" and "-(1)" give Const(-1.0).  A ParseError names the 1-based
    offset of the token where parsing stops, which for text nested deeper
    than MAX_NESTING levels is the token that opens the first level too
    many.

    A text parsed before whose tree still lives gives that node from the
    text table (`_PARSED`) without a token scan; interning makes it the
    node a new parse would build.  A ParseError is not kept: a bad text
    raises on every call.
    """
    e = _PARSED.get(text)
    if e is not None:
        return e
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the input
    try:
        e, i = _climb(tokens, 0, 1, 0)
        if tokens[i]:
            raise _Stop(f"unexpected '{tokens[i][0]}'", i)
    except _Stop as stop:
        message, i = stop.args
        starts = [m.start(1) for m in _TOKEN.finditer(text)] + [len(text)]
        raise ParseError(message, starts[i] + 1) from None
    _PARSED[text] = e
    return e


def _climb(tokens: list[str], i: int, level: int,
           depth: int) -> tuple[Expr, int]:
    """The expression at tokens[i], nested depth levels deep, whose binary
    operators all bind at level or tighter, and the index of the token
    after it."""
    e, i = _unary(tokens, i, depth)
    while _LEVEL.get(tokens[i], 0) >= level:
        op = tokens[i]
        right, i = _climb(tokens, i + 1, _LEVEL[op] + 1, depth + 1)
        e = BinOp(op, e, right)
    return e, i


def _unary(tokens: list[str], i: int, depth: int) -> tuple[Expr, int]:
    if depth > MAX_NESTING:
        # the token before opens the level: ( - ^ or an operator
        raise _Stop(f"nesting deeper than {MAX_NESTING} levels", i - 1)
    if tokens[i] == "-":
        e, i = _unary(tokens, i + 1, depth + 1)
        return Neg(e), i
    e, i = _atom(tokens, i, depth)
    if tokens[i] == "^":
        # the exponent may carry a unary minus: x^-2
        power, i = _unary(tokens, i + 1, depth + 1)
        return BinOp("^", e, power), i
    return e, i


def _atom(tokens: list[str], i: int, depth: int) -> tuple[Expr, int]:
    token = tokens[i]
    if not token:
        raise _Stop("unexpected end of input", i)
    name = token[0].isalpha() or token[0] == "_"
    if name and tokens[i + 1] != "(":
        return symbol(token), i + 1
    if name and token not in FUNCTIONS:
        raise _Stop(f"unknown function '{token}'", i)
    if name or token == "(":
        # a call's argument or a parenthesised expression
        e, i = _climb(tokens, i + 2 if name else i + 1, 1, depth + 1)
        if tokens[i] != ")":
            raise _Stop("expected ')'", i)
        return (Call(token, e) if name else e), i + 1
    if token[0].isdigit() or token[0] == ".":
        try:
            return Const(float(token)), i + 1
        except ValueError:
            raise _Stop("bad numeric literal", i) from None
    raise _Stop(f"unknown character '{token[0]}'", i)


# ---------------------------------------------------------------------------
# printing (fully parenthesized canonical text; parse(to_text(e)) is e for
# every tree without a NaN constant)


def to_text(e: Expr) -> str:
    """The fully parenthesized text of e, kept on each node it prints, so
    each node is printed once.  parse reads it back as e itself, for every
    tree that holds no NaN constant.

    A constant prints as an integer where it is one below 1e16 in
    magnitude (-0.0 as -0), as 1e999 or -1e999 where it is infinite (a
    literal that overflows back to the same value) and by repr otherwise.
    A negative constant prints with its sign, which parse reads as a
    negation and the interner folds back into the same constant; as the
    base of ^, which binds tighter than a unary minus, it is parenthesized:
    ((-2) ^ x).  A NaN constant prints as nan, which parses as a
    parameter: no literal gives a NaN, simplify leaves unmade every fold
    whose value would be NaN, and diff makes none, so only a tree built
    with a NaN (Const(nan), bind_params of a NaN value) holds one.
    """
    try:
        return _text(e)
    except RecursionError:
        raise ExprError(TOO_DEEP) from None


def _text(e: Expr) -> str:
    # the cache check and store stay in this one recursive function: a
    # wrapper around it would cost a second frame per level of the tree
    s = e._printed
    if s is None:
        if isinstance(e, Const):
            v = e.value
            if v == 0.0:
                s = "-0" if math.copysign(1.0, v) < 0.0 else "0"
            elif math.isfinite(v) and v == int(v) and abs(v) < 1e16:
                s = str(int(v))
            elif math.isinf(v):
                s = "1e999" if v > 0.0 else "-1e999"
            else:
                s = repr(v)
        elif isinstance(e, (Var, Param)):
            s = e.name
        elif isinstance(e, Neg):
            s = f"(-{_text(e.arg)})"
        elif isinstance(e, BinOp):
            left = _text(e.left)
            if e.op == "^" and left[0] == "-":
                left = f"({left})"  # only a negative constant starts so
            s = f"({left} {e.op} {_text(e.right)})"
        elif isinstance(e, Call):
            s = f"{e.fn}({_text(e.arg)})"
        else:
            raise TypeError(f"not an expression: {e!r}")
        _set(e, "_printed", s)
    return s


# ---------------------------------------------------------------------------
# evaluation (one numeric semantics: every value comes from compile_fn)


def _sgn(v: float) -> float:
    """Sign of v: 0.0 at either zero and NaN at NaN.

    A NaN's sign carries nothing: of two NaN operands, an operation passes
    on the one its machine code happens to take first, and CPython's
    specialized float operations take them in another order than its
    generic ones, so the same closure would answer differently on
    repeated calls.
    """
    if math.isnan(v):
        return math.nan
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


#: The numeric primitives, by the name generated code calls them by: the
#: grammar's functions plus `pow` for ^.  The constant folds of simplify
#: call the same table.  A square, ^ with the constant exponent 2.0, is
#: not in it: the kernels compute it as the product u * u (see _generate).
_PRIMITIVES: dict[str, Callable[..., float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arctan": math.atan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "sgn": _sgn,
    "pow": math.pow,
}


def _checked(fn: Callable[..., float], e: Expr, *args: float) -> float:
    """fn(*args); an undefined or non-finite result is a DomainError in e.
    The constant folds of simplify call it; a point kernel checks itself."""
    try:
        r = fn(*args)
    except ZeroDivisionError:
        raise DomainError("division by zero", e) from None
    except (ValueError, OverflowError) as exc:
        raise DomainError(str(exc), e) from None
    if not math.isfinite(r):
        raise DomainError("non-finite result", e)
    return r


def evaluate(e: Expr, bindings: Bindings) -> float:
    """Value of e with every symbol bound, computed by compile_fn's closure."""
    names = sorted(free_symbols(e))
    try:
        args = [float(bindings[name]) for name in names]
    except KeyError as exc:
        raise UnboundSymbolError(exc.args[0]) from None
    return compile_fn(e, names)(*args)


def free_symbols(e: Expr) -> frozenset[str]:
    """Names of all variables and parameters appearing in e, cached on e."""
    names = e._symbols
    if names is None:
        out: set[str] = set()
        try:
            _collect_symbols(e, out)
        except RecursionError:
            raise ExprError(TOO_DEEP) from None
        names = frozenset(out)
        _set(e, "_symbols", names)
    return names


def _collect_symbols(e: Expr, out: set[str]) -> None:
    if isinstance(e, (Var, Param)):
        out.add(e.name)
    elif isinstance(e, Neg):
        _collect_symbols(e.arg, out)
    elif isinstance(e, BinOp):
        _collect_symbols(e.left, out)
        _collect_symbols(e.right, out)
    elif isinstance(e, Call):
        _collect_symbols(e.arg, out)


# ---------------------------------------------------------------------------
# substitution


def subs(e: Expr, mapping: Mapping[str, Union[Expr, float]]) -> Expr:
    """Replace variables/parameters by expressions, by name."""
    exprs = {k: _coerce(v) for k, v in mapping.items()}
    try:
        return _subs(e, exprs)
    except RecursionError:
        raise ExprError(TOO_DEEP) from None


def _subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    if isinstance(e, (Var, Param)):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(_subs(e.arg, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, _subs(e.left, mapping), _subs(e.right, mapping))
    if isinstance(e, Call):
        return Call(e.fn, _subs(e.arg, mapping))
    return e


def bind_params(e: Expr, params: Bindings) -> Expr:
    """Freeze parameter values into the tree as constants."""
    if not params:
        return e
    return subs(e, {k: Const(float(v)) for k, v in params.items()})


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, v: str) -> Expr:
    """Exact partial derivative with respect to the symbol named v, a
    variable or a parameter, simplified; 0 where no node of e carries v.

    abs and sgn differentiate as sgn and 0; the origin is excluded from
    every sampling domain used by the callers.
    """
    try:
        d = _derivative(e, v)
    except RecursionError:
        raise ExprError(TOO_DEEP) from None
    return simplify(d)


def _derivative(e: Expr, v: str) -> Expr:
    """The partial derivative of e by v before simplification, cached on
    e; diff simplifies it through the cache of simplify."""
    cache = e._derivs
    if cache is None:
        cache = {}
        _set(e, "_derivs", cache)
    d = cache.get(v)
    if d is None:
        d = cache[v] = _diff(e, v)
    return d


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, (Var, Param)):
        return ONE if e.name == v else ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, v))
    if isinstance(e, BinOp):
        lu, ru = e.left, e.right
        dl, dr = _diff(lu, v), _diff(ru, v)
        if e.op == "+":
            return BinOp("+", dl, dr)
        if e.op == "-":
            return BinOp("-", dl, dr)
        if e.op == "*":
            return BinOp("+", BinOp("*", dl, ru), BinOp("*", lu, dr))
        if e.op == "/":
            num = BinOp("-", BinOp("*", dl, ru), BinOp("*", lu, dr))
            return BinOp("/", num, BinOp("^", ru, TWO))
        if e.op == "^":
            if isinstance(ru, Const):
                c = ru.value
                return BinOp(
                    "*",
                    BinOp("*", Const(c), BinOp("^", lu, Const(c - 1.0))),
                    dl,
                )
            if isinstance(ru, Param) and ru.name != v:
                # the power rule, as for a constant exponent: bound to a
                # value, it simplifies to what the constant gives
                return BinOp(
                    "*", BinOp("*", ru, BinOp("^", lu, BinOp("-", ru, ONE))), dl)
            # u^w = exp(w ln u): derivative u^w (w' ln u + w u'/u)
            inner = BinOp(
                "+",
                BinOp("*", dr, Call("ln", lu)),
                BinOp("/", BinOp("*", ru, dl), lu),
            )
            return BinOp("*", e, inner)
        raise ValueError(f"bad operator {e.op!r}")
    if isinstance(e, Call):
        u = e.arg
        du = _diff(u, v)
        if e.fn == "sin":
            outer: Expr = Call("cos", u)
        elif e.fn == "cos":
            outer = Neg(Call("sin", u))
        elif e.fn == "tan":
            outer = BinOp("+", ONE, BinOp("^", Call("tan", u), TWO))
        elif e.fn == "arctan":
            outer = BinOp("/", ONE, BinOp("+", ONE, BinOp("^", u, TWO)))
        elif e.fn == "exp":
            outer = e
        elif e.fn == "ln":
            outer = BinOp("/", ONE, u)
        elif e.fn == "sqrt":
            outer = BinOp("/", ONE, BinOp("*", TWO, e))
        elif e.fn == "abs":
            outer = Call("sgn", u)
        elif e.fn == "sgn":
            outer = ZERO  # piecewise-constant away from the origin
        else:
            raise ValueError(f"unknown function {e.fn!r}")
        return BinOp("*", outer, du)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# simplification


def simplify(e: Expr) -> Expr:
    """Constant folding, 0/1 identities and like-term collection.

    Value-preserving up to removable singularities (0*u and 0/u fold to 0).
    A fold whose value would be NaN (inf*0, inf - inf, inf/inf), or a sum
    whose collected constant or coefficients are not finite (1e308*x +
    1e308*x overflows), is left unmade: the unfolded node evaluates to the
    same value.  The result is cached on e, so each node is simplified once.
    """
    s = e._simple
    if s is None:
        if isinstance(e, (Const, Var, Param)):
            return e
        try:
            s = _simplify(e)
        except RecursionError:
            raise ExprError(TOO_DEEP) from None
        # a node that is its own result keeps no reference to itself
        _set(e, "_simple", _SAME if s is e else s)
    return e if s is _SAME else s


#: the cached result of simplify for a node that simplifies to itself
_SAME = object()


def _simplify(e: Expr) -> Expr:
    """One rewrite of simplify, its children simplified through the cache."""
    if isinstance(e, Neg):
        a = simplify(e.arg)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, Call):
        a = simplify(e.arg)
        if isinstance(a, Const):
            try:
                return Const(_checked(_PRIMITIVES[e.fn], e, a.value))
            except DomainError:
                pass
        return Call(e.fn, a)
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _collect_sum(e)
        l = simplify(e.left)
        r = simplify(e.right)
        if e.op == "*":
            return _simplify_mul(l, r)
        if e.op == "/":
            if isinstance(l, Const) and l.value == 0.0:
                return ZERO
            if isinstance(r, Const):
                if r.value == 1.0:
                    return l
                if isinstance(l, Const) and r.value != 0.0:
                    q = l.value / r.value
                    if not math.isnan(q):
                        return Const(q)
            return BinOp("/", l, r)
        if e.op == "^":
            if isinstance(r, Const):
                if r.value == 1.0:
                    return l
                if r.value == 0.0:
                    return ONE
                if r is TWO and isinstance(l, Const):
                    # the kernels' product (_generate); unmade where it
                    # is not finite, as the fold of pow is
                    v = l.value * l.value
                    if math.isfinite(v):
                        return Const(v)
                elif isinstance(l, Const):
                    try:
                        return Const(_checked(_PRIMITIVES["pow"], e,
                                              l.value, r.value))
                    except DomainError:
                        pass
            return BinOp("^", l, r)
    raise TypeError(f"not an expression: {e!r}")


def _simplify_mul(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Const) and isinstance(r, Const):
        v = l.value * r.value
        return BinOp("*", l, r) if math.isnan(v) else Const(v)
    for a, b in ((l, r), (r, l)):
        if isinstance(a, Const):
            if a.value == 0.0:
                return ZERO
            if a.value == 1.0:
                return b
            if a.value == -1.0:
                return simplify(Neg(b))
    return BinOp("*", l, r)


def _flatten_sum(e: Expr, sign: float, terms: list[tuple[float, Expr]]) -> None:
    if isinstance(e, BinOp) and e.op == "+":
        _flatten_sum(e.left, sign, terms)
        _flatten_sum(e.right, sign, terms)
    elif isinstance(e, BinOp) and e.op == "-":
        _flatten_sum(e.left, sign, terms)
        _flatten_sum(e.right, -sign, terms)
    elif isinstance(e, Neg):
        _flatten_sum(e.arg, -sign, terms)
    else:
        terms.append((sign, e))


def _term_key(e: Expr) -> tuple[float, Expr | None]:
    """Split a simplified term into (coefficient, symbolic factor)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Neg):
        c, k = _term_key(e.arg)
        return -c, k
    if isinstance(e, BinOp) and e.op == "*":
        lc, lk = _term_key(e.left)
        rc, rk = _term_key(e.right)
        if lk is None:
            return lc * rc, rk
        if rk is None:
            return lc * rc, lk
        return lc * rc, BinOp("*", lk, rk)
    return 1.0, e


def _collect_sum(e: Expr) -> Expr:
    raw: list[tuple[float, Expr]] = []
    _flatten_sum(e, 1.0, raw)
    const_part = 0.0
    # like terms share their symbolic factor, which is one node
    buckets: dict[Expr, float] = {}
    work = list(reversed(raw))
    while work:
        sign, t = work.pop()
        coeff, key = _term_key(simplify(t))
        coeff *= sign
        if coeff in (1.0, -1.0) and isinstance(key, BinOp) and key.op in "+-":
            # a term may simplify back into plus or minus a sum (a factor
            # whose coefficients multiply to exactly 1 or -1 included):
            # flatten it again, which is exact
            nested: list[tuple[float, Expr]] = []
            _flatten_sum(key, coeff, nested)
            work.extend(reversed(nested))
            continue
        if key is None:
            const_part += coeff
            continue
        buckets[key] = buckets[key] + coeff if key in buckets else coeff
    if not all(map(math.isfinite, (const_part, *buckets.values()))):
        # inf - inf or an overflow: the two operands, each simplified
        return BinOp(e.op, simplify(e.left), simplify(e.right))
    parts: list[Expr] = []
    for key, coeff in buckets.items():
        if coeff == 0.0:
            continue
        if coeff == 1.0:
            parts.append(key)
        elif coeff == -1.0:
            parts.append(Neg(key))
        else:
            parts.append(BinOp("*", Const(coeff), key))
    if const_part != 0.0 or not parts:
        parts.append(Const(const_part))
    out = parts[0]
    for p in parts[1:]:
        if isinstance(p, Neg):
            out = BinOp("-", out, p.arg)
        else:
            out = BinOp("+", out, p)
    return out


# ---------------------------------------------------------------------------
# compilation


class _PointBody(NamedTuple):
    """The text a point kernel's factory is made from, for a caller that
    runs the kernel's statements inline in its own generated code: the
    factory's parameters (`_e`, `_p` where the tree reads parameters, then
    the cells `_cN`), the statements `_tN = ...` over the arguments `_aN`,
    the code of the result, and the code of the tree its DomainError names.
    """

    head: str
    statements: tuple[str, ...]
    out: str
    tree: str


def _generate(exprs, arg_names: Iterable[str], columns: bool,
              params: Bindings | None = None):
    """The kernel of one tree for points, or of a tree or a list of trees
    (returning a tuple) for columns, with the values of the params that
    the trees read in closure cells.

    Each inner node is one statement `_tN = ...`, in the order a
    left-to-right walk of the trees first computes it, so a repeated
    subtree is computed once, the same operation fails first as in a
    nested evaluation, and no line nests however deep the tree.  Each
    constant node, and each symbol named in params, is a closure cell
    `_cN`, numbered in first-read order.  So trees that differ only in
    their constants have one text, whose factory is compiled once
    (`_factory`) and called with their cells, and a tree of parameters is
    walked once for every set of values (see `_bind`).  A square, ^ with
    the constant exponent 2.0 (not a parameter bound to it), is one node
    of its own whose exponent is no cell: the correctly rounded product
    u * u, which fails where math.pow(u, 2.0) raises, on an overflow from
    a finite u; every other power calls pow.  A point kernel's
    factory keeps its _PointBody as `_body`.  A name the trees read as an
    argument and a parameter both is an ExprError."""
    trees = [exprs] if isinstance(exprs, Expr) else list(exprs)
    names = list(arg_names)
    params = params or {}
    read = set().union(*map(free_symbols, trees))
    clash = read.intersection(names, params)
    if clash:
        raise ExprError(f"parameter '{sorted(clash)[0]}' is also an argument")
    missing = read - set(names) - set(params)
    if missing:
        raise UnboundSymbolError(sorted(missing)[0])
    slots = {name: f"_a{i}" for i, name in enumerate(names)}
    # constant nodes (0.0 and -0.0 are two) and parameters
    cells: dict[Expr, str] = {}
    # value numbers of inner nodes, by node: equal content is one node
    number: dict[Expr, int] = {}
    keys: list[tuple] = []  # (op, *children), a child a number or leaf code
    readers = Counter()

    def walk(e: Expr, k: int) -> int | str:
        if isinstance(e, Const):
            return cells.setdefault(e, f"_c{len(cells)}")
        if isinstance(e, (Var, Param)):
            if e.name in params:
                return cells.setdefault(e, f"_c{len(cells)}")
            return slots[e.name]
        ref = number.get(e)
        if ref is not None and readers[ref] >> k & 1:
            return ref  # its subtree is already read by tree k
        if isinstance(e, BinOp) and e.op == "^" and e.right is TWO:
            key = ("_square", walk(e.left, k))
        elif isinstance(e, BinOp):
            key = (e.op, walk(e.left, k), walk(e.right, k))
        else:
            key = ("neg" if isinstance(e, Neg) else e.fn, walk(e.arg, k))
        if ref is None:
            ref = number[e] = len(keys)
            keys.append(key)
        readers[ref] |= 1 << k  # node read by tree k
        return ref

    try:
        roots = [walk(t, k) for k, t in enumerate(trees)]
    except RecursionError:
        raise ExprError(TOO_DEEP) from None
    # what each cell holds: a constant's value, or the name of a parameter
    sources = [c.value if isinstance(c, Const) else c.name for c in cells]
    named = any(isinstance(c, str) for c in sources)
    masks: dict[int, str] = {}  # the row-reject mask of each readers set

    def code(ref: int | str) -> str:
        return ref if isinstance(ref, str) else f"_t{ref}"

    body = []
    for ref, (op, *args) in enumerate(keys):
        args = [code(a) for a in args]
        if op == "neg":
            text = f"-{args[0]}"
        elif op == "_square" and not columns:
            # math.pow's overflow, raised where the product of a finite
            # value is not finite
            (u,) = args
            body += [f"_t{ref} = {u} * {u}",
                     f"if _t{ref} == _inf and _isfinite({u}):"
                     " raise OverflowError('math range error')"]
            continue
        elif op in "+-*" or (op == "/" and not columns):
            text = f"{args[0]} {op} {args[1]}"
        else:
            if columns:
                args.insert(0, masks.setdefault(readers[ref], f"_b{len(masks)}"))
            text = f"{ {'^': 'pow', '/': '_div'}.get(op, op)}({', '.join(args)})"
        body.append(f"_t{ref} = {text}")
    outs = [code(ref) for ref in roots]
    if columns:
        for k, out in enumerate(outs):
            bad = [m for r, m in masks.items() if r >> k & 1]
            if bad:
                # NaN where not finite or a node of the tree failed
                outs[k] = (f"_where(~_isfinite({out}) | {' | '.join(bad)},"
                           f" nan, {out})")
            elif free_symbols(trees[k]) & slots.keys():
                # + - * and negation of full columns: one full column
                outs[k] = f"_where(_isfinite({out}), {out}, nan)"
            else:
                # a float: a constant, a parameter or arithmetic of them
                outs[k] = f"_full(_shape, {out} if _finite({out}) else nan)"
        body[:0] = [f"{m} = _mask(_shape)" for m in masks.values()]
        body.append("return " + (outs[0] if isinstance(exprs, Expr)
                                 else f"({''.join(o + ', ' for o in outs)})"))
        tree, inputs = [], ["_shape"]
    else:
        (out,) = outs
        # a DomainError names the tree with the values of its parameters
        e = "_bind(_e, _p)" if named else "_e"
        statements = tuple(body)
        body = ["try:", *(f"    {line}" for line in body or ["pass"]),
                "except ZeroDivisionError:",
                f"    raise DomainError('division by zero', {e}) from None",
                "except (ValueError, OverflowError) as exc:",
                f"    raise DomainError(str(exc), {e}) from None",
                f"if _isfinite({out}):", f"    return {out}",
                f"raise DomainError('non-finite result', {e})"]
        tree, inputs = ["_e", "_p"] if named else ["_e"], []
    inputs += [f"_a{i}" for i in range(len(names))]
    head = ", ".join(tree + list(cells.values()))
    src = "".join([
        f"def _make({head}):\n",
        f"    def _f({', '.join(inputs)}):\n",
        *(f"        {line}\n" for line in body),
        "    return _f\n"])
    make = _factory(src, columns)
    if not columns:
        make._body = _PointBody(head, statements, out, e)
    return _bind(make, None if columns else exprs, sources, params)


def _bind(make: Callable, tree: Expr | None, sources: list,
          params: Bindings):
    """The kernel that the factory make returns with its cells filled:
    sources holds a constant's value, kept as it is, or a parameter's name,
    whose value params gives, as a float.  A point kernel's tree is tree,
    which its DomainError names; a column kernel's is None.  A kernel with
    parameter cells keeps this binding as `_rebind`, so that the memo fills
    its cells with the values of each lookup, which costs no walk of the
    trees and no compile.  A point kernel keeps (make, the arguments make
    took) as `_made`, so that code inlining its statements fills the same
    cells."""
    values: dict[str, float] = {}
    cells = []
    for c in sources:
        if isinstance(c, str):
            if c not in values:
                values[c] = float(params[c])
            c = values[c]
        cells.append(c)
    if tree is None:
        kernel = functools.partial(_column_primitives()["_checked"],
                                   make(*cells))
    else:
        args = (tree, values, *cells) if values else (tree, *cells)
        kernel = make(*args)
        kernel._made = make, args
    if values:
        kernel._rebind = functools.partial(_bind, make, tree, sources)
    return kernel


#: factories the shape table keeps, least recently used first out; a pass
#: over the catalog compiles 135 shapes
_SHAPE_BOUND = 512


#: what a point kernel reads: the primitives and its own domain check
_POINT_PRIMITIVES = {**_PRIMITIVES, "DomainError": DomainError,
                     "_isfinite": math.isfinite, "_inf": math.inf,
                     "_bind": bind_params}


@functools.lru_cache(maxsize=_SHAPE_BOUND)
def _factory(src: str, columns: bool) -> Callable:
    """The factory `_make` that src defines: the shape table, keyed by the
    text, which holds no tree, so exec runs once per shape."""
    ns = dict(_column_primitives() if columns else _POINT_PRIMITIVES)
    exec(src, ns)
    return ns["_make"]


def compile_fn(e: Expr, arg_names: Iterable[str],
               params: Bindings | None = None) -> Callable[..., float]:
    """Compile to a positional-argument callable, the one numeric evaluator.

    Every free symbol of e must be named in arg_names or in params.
    Arguments become positional slots `_a0, _a1, ...`, so a symbol may
    carry any name, a Python keyword included.  Each param that e reads is
    a closure cell holding its value, so the closure is what compile_fn of
    bind_params(e, params) is (but for a parameter exponent bound to 2.0,
    which calls pow where the constant is a product), without building
    that tree: it is built once per tree, argument names and names of the
    params e reads, and a call with other values only fills the cells.
    An undefined or non-finite result raises DomainError naming the whole
    of e, with the values of its params in place.
    """
    return _point_kernel(e, tuple(arg_names), params)


def _point_kernel(e: Expr, names: tuple[str, ...],
                  params: Bindings | None) -> Callable[..., float]:
    """compile_fn's memo lookup, for a caller that reads the kernel's
    `_made`: it goes past any wrapper of compile_fn (a counter, a tracer),
    whose kernel has no `_made`."""
    return _memoized(("point", names), (e,), params,
                     lambda: _generate(e, names, False, params))


# -- the column calling convention ------------------------------------------
#
# Every row must hold what the closure of compile_fn returns for that point.
# + - * / and negation are IEEE operations in numpy as in Python, silent
# overflow included, and abs and sgn are numpy's, which agree with
# builtin abs and _sgn.  Python raises on a zero divisor, -0.0 included,
# so such rows are marked in the row-reject mask of the node's readers.
# A square (u ^ 2.0) is the product u * u, whose rows are marked where a
# finite u overflows, as the point kernel raises there.  sqrt is numpy's
# over the rows below zero marked and set to NaN: IEEE 754 rounds both
# square roots correctly.  The other primitives of _PRIMITIVES are mapped
# over the rows, because numpy's exp, tan, arctan, log and power can
# differ from math's by an ulp; a row where one raises is marked too.
#
# Each output is a fresh column of the rows' shape (the arguments are
# broadcast to it), NaN where its value is not finite or a node it reads
# is marked.  An output that reads no argument and no marked node is one
# float (a constant, a parameter, or + - * of them), filled into its
# column once; one that reads arguments but no marked node needs no mask.
#
# numpy is imported when the first column kernel is compiled, which
# builds the primitive table (`_column_primitives`), and not before: a
# program that compiles no column kernel never loads it.  The primitives
# and `_checked`, the call of every column kernel, close over that
# import, so a call imports nothing.

_UNDEFINED = (ZeroDivisionError, ValueError, OverflowError)


def _column_map(fn: Callable[..., float]) -> Callable[..., np.ndarray]:
    """fn mapped over the rows; a row where fn raises is NaN and marked in
    bad."""
    import numpy as np

    def apply(bad: np.ndarray, *args) -> np.ndarray:
        # a float argument (a constant cell) is the same on every row
        rows = [[a] * len(bad) if isinstance(a, float)
                else a.tolist() if a.shape == bad.shape
                else np.broadcast_to(a, bad.shape).tolist() for a in args]
        try:
            return np.fromiter(map(fn, *rows), float, len(bad))
        except _UNDEFINED:
            pass
        out = np.full(bad.shape, math.nan)
        for i, point in enumerate(zip(*rows)):
            try:
                out[i] = fn(*point)
            except _UNDEFINED:
                bad[i] = True
        return out

    return apply


def _column_refusing(fn: Callable[[np.ndarray], np.ndarray],
                     refused: Callable[[np.ndarray], np.ndarray]
                     ) -> Callable[..., np.ndarray]:
    """fn of one column whose rows that refused names, the rows where the
    point primitive raises, are marked in bad and given to fn as NaN."""
    import numpy as np

    def apply(bad: np.ndarray, v) -> np.ndarray:
        if isinstance(v, float) or v.shape != bad.shape:
            v = np.broadcast_to(v, bad.shape)
        undefined = refused(v)
        if undefined.any():
            bad |= undefined
            v = np.where(undefined, math.nan, v)
        return fn(v)

    return apply


@functools.cache
def _column_primitives() -> dict[str, Callable[..., np.ndarray]]:
    """What a column kernel reads, and `_checked`, which `_bind` calls it
    through: built, and numpy imported, when `_factory` compiles the first
    column kernel."""
    import numpy as np

    def div(bad: np.ndarray, num, den):
        bad |= np.equal(den, 0.0)
        return np.true_divide(num, den)

    def square(bad: np.ndarray, u):
        r = u * u
        over = np.isinf(r)
        if over.any():
            bad |= over & np.isfinite(u)
        return r

    def checked(fn: Callable, *cols):
        cols = [np.asarray(c, dtype=float) for c in cols]
        shape = np.broadcast_shapes((1,), *(c.shape for c in cols))
        cols = [c if c.shape == shape else np.broadcast_to(c, shape)
                for c in cols]
        with np.errstate(all="ignore"):
            return fn(shape, *cols)

    return {
        **{name: _column_map(fn) for name, fn in _PRIMITIVES.items()},
        # the rows where math.sqrt and math.log raise, exactly: below zero
        # (not at -0.0 or NaN), and at or below zero.  The other mapped
        # primitives catch their failures row by row: no comparison names
        # where exp or pow overflows or pow has no real value.
        "sqrt": _column_refusing(np.sqrt, lambda v: v < 0.0),
        "ln": _column_refusing(
            lambda v: np.fromiter(map(math.log, v.tolist()), float, len(v)),
            lambda v: v <= 0.0),
        "abs": lambda bad, v: np.abs(v),
        "sgn": lambda bad, v: np.sign(v),
        "_div": div, "_square": square,
        "_where": np.where, "_isfinite": np.isfinite, "nan": math.nan,
        "_mask": functools.partial(np.zeros, dtype=bool),
        "_full": np.full, "_finite": math.isfinite,
        "_checked": checked,
    }


def compile_columns(exprs: Expr | Iterable[Expr], arg_names: Iterable[str],
                    params: Bindings | None = None):
    """Compile to a function of numpy columns, one row per point.

    The function takes one 1-D float column (or a scalar, broadcast) per
    name in arg_names and returns a new 1-D float column, or for a list of
    trees a tuple of one such column per tree.  Row i of a tree's column
    holds exactly the value compile_fn's closure of that tree (with the
    same params) returns for row i of the arguments, and NaN where that
    closure raises DomainError; a row is defined exactly where the result
    is finite.  As in compile_fn, each param the trees read is a closure
    cell, so a memo that keeps the function gives it other values without
    compiling it again.  numpy is imported, and the column primitives
    built, when the first such function is compiled.
    """
    return _generate(exprs, arg_names, True, params)


# -- the memo ------------------------------------------------------------------
#
# One bounded memo shares what other modules build from trees -- compiled
# kernels (point closures, system, field and plane kernels) and the
# concrete systems of catalog instantiations -- between every object of
# equal content.  A key is a kind, the trees themselves and the names of
# the params the trees read, never their values: a kernel reads each
# parameter from a closure cell (see `_bind`), so one entry serves every
# set of values of a family, and a lookup binds what it returns to its
# values, which costs a factory call per kernel.  What
# depends on the values themselves puts them in its kind (`value_key`).
# Interning makes equal content one node and keeps 0.0 and -0.0 apart, so
# the key costs O(number of trees), and it holds its nodes, so no dead
# node's address can alias a live one and their per-node caches live as
# long as the entry.  Generated functions keep no state between calls, so
# sharing them is safe.  Beneath it, the shape table (`_factory`) keeps
# compiled code by its text alone; _memo_clear empties both.

#: entries the memo keeps, least recently used first out.  It holds the
#: working set of a pass over the catalog (154 entries) and that of a
#: sweep over parameters, which is one set of entries per family: the
#: benchmark's dense-verify workload builds 26 in its first round and
#: then misses only on the 6 fields a round perturbs by a new constant.
#: A cyclic pass larger than the bound would get no hits.  The memo is
#: the one strong store of built things: the per-node caches die with
#: their nodes.
_MEMO_BOUND = 256
_memo: OrderedDict[tuple, object] = OrderedDict()
_memo_counts = {"hits": 0, "misses": 0}


class MemoInfo(NamedTuple):
    hits: int
    misses: int
    size: int
    bound: int


def memo_info() -> MemoInfo:
    """Hits, misses, size and bound of the memo, in the manner of
    `functools.lru_cache`'s `cache_info()`."""
    return MemoInfo(_memo_counts["hits"], _memo_counts["misses"], len(_memo),
                    _MEMO_BOUND)


def _memo_clear() -> None:
    """Empty the memo and the shape table and zero the memo's counts."""
    _memo.clear()
    _factory.cache_clear()
    _memo_counts.update(hits=0, misses=0)


def value_key(params: Bindings | None) -> tuple:
    """The params as a hashable key, each value by its bit pattern, for a
    memo kind that depends on the values."""
    return tuple(sorted((name, _bits(float(v)))
                        for name, v in (params or {}).items()))


def _memoized(kind, trees: Iterable[Expr | None], params: Bindings | None,
              build: Callable[[], object]):
    """build() kept under kind (any hashable), the trees (None allowed) and
    the names of the params that the trees read; a build that raises is
    not kept.  build must not depend on the values of params, but for the
    values in the cells of the kernels it compiles: what a lookup returns
    has its kernel, or each kernel of a tuple, bound to those of params."""
    trees = tuple(trees)
    read = set().union(*(free_symbols(t) for t in trees if t is not None)) \
        if params else ()
    key = (kind, trees, tuple(sorted(name for name in params or ()
                                     if name in read)))
    if key in _memo:
        _memo_counts["hits"] += 1
        _memo.move_to_end(key)
        return _rebound(_memo[key], params)
    _memo_counts["misses"] += 1
    value = _memo[key] = build()
    if len(_memo) > _MEMO_BOUND:
        _memo.popitem(last=False)
    return value


def _rebound(value, params: Bindings | None):
    """value, a kernel with parameter cells bound to the values of params,
    and a tuple (a NamedTuple included) with each of its items so bound;
    anything else, and a tuple with nothing to bind, as it is."""
    if isinstance(value, tuple):
        items = [_rebound(v, params) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return type(value)(*items) if hasattr(value, "_fields") \
            else tuple(items)
    rebind = getattr(value, "_rebind", None)
    return value if rebind is None else rebind(params)

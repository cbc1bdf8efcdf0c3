"""Machine-readable families of invariant delay systems.

Each entry carries a symmetry basis, templates for the differential and
delay halves with free-function slots (u1, u2, ...), parameter
constraints, a default instantiation, and a sampling box on which the
family is nonsingular.  Delay templates are stored in explicit form
(xm never appears on the right), so verification needs no implicit solve;
slots that would drag the delayed abscissa into the delay relation are
rejected at instantiation time.

Family identifiers follow the usual dimension-based naming (A1_1 ...
A6_3) plus two determinant-built linear families (H3_DET, S3_DET), two
marker records for the infinite linear chains (S_m, H_m), and the three
car-following example systems.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import expr as E
from .dods import (FREE_COORDS, DelayKind, DodsSystem, SamplingError,
                   _delay_kind, _expression, _numbers, check_algebra)
from .expr import (Const, Expr, Param, compile_columns, free_symbols, parse,
                   subs, to_text)
from .symmetry import (_PLANE_BOX, VectorField, _plane_kernel,
                       _plane_values, _span_fit, check_closure)

_X, _Y, _XM, _YM, _DY, _DYM, _DDY = E.X, E.Y, E.XM, E.YM, E.DY, E.DYM, E.DDY

_DELTA_Y = _Y - _YM
_DELTA_X = _X - _XM
_SLOPE = _DELTA_Y / _DELTA_X  # finite slope, the tables' y_x

_F = Param("F")
_G = Param("G")

#: admissible box for families whose denominators contain y - ym
_BOX_DY_POS = {"y": (1.6, 2.5), "ym": (0.5, 1.4)}


class CatalogError(Exception):
    pass


@dataclass
class CatalogEntry:
    id: str
    algebra_label: str
    basis: tuple[VectorField, ...]
    f_template: Expr | None = None
    g_template: Expr | None = None
    f_slots: tuple[Expr, ...] = ()
    g_slots: tuple[Expr, ...] = ()
    default_f: Expr | None = None
    default_g: Expr | None = None
    default_params: dict[str, float] = field(default_factory=dict)
    constraints: tuple[tuple[str, str], ...] = ()  # (rule, description)
    box: dict[str, tuple[float, float]] = field(default_factory=dict)
    delay_kind: DelayKind = DelayKind.STATE_DEPENDENT
    notes: str = ""
    second_order_minor: Expr | None = None  # must not vanish on the box

    @property
    def has_system(self) -> bool:
        return self.f_template is not None

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    def summary(self) -> str:
        kind = "system" if self.has_system else "marker"
        return (
            f"{self.id:8s} {self.algebra_label:24s} "
            f"{self.n_basis} field(s)  [{kind}]"
        )


@dataclass
class Instantiation:
    entry_id: str
    f_expr: Expr | None = None  # in slot names u1..uk and parameters
    g_expr: Expr | None = None
    params: dict[str, float] = field(default_factory=dict)


def _fields(*specs: tuple[str, str]) -> tuple[VectorField, ...]:
    return tuple(
        VectorField.from_text(xi, eta, label=f"X{i + 1}")
        for i, (xi, eta) in enumerate(specs)
    )


_COMPARE = {"<=": operator.le, ">=": operator.ge, "!=": operator.ne,
            "==": operator.eq, "<": operator.lt, ">": operator.gt}


def _check_rule(rule: str, params: dict[str, float]) -> bool:
    """A chained comparison such as `0 < abs(a) <= 1`; every operand is
    parsed and evaluated as an expression, so a rule runs nothing else."""
    parts = re.split(r"(<=|>=|!=|==|<|>)", rule)
    try:
        values = [E.evaluate(parse(text), params) for text in parts[0::2]]
    except E.ParseError as exc:
        raise CatalogError(f"constraint '{rule}': {exc}") from None
    if len(values) < 2:
        raise CatalogError(f"constraint '{rule}' is not a comparison")
    return all(_COMPARE[op](a, b)
               for op, a, b in zip(parts[1::2], values, values[1:]))


def _det(rows: list[list[Expr]]) -> Expr:
    """Symbolic determinant, cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total: Expr = Const(0.0)
    sign = 1.0
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total = total + Const(sign) * rows[0][j] * _det(minor)
        sign = -sign
    return total


def _at_delayed(e: Expr) -> Expr:
    return subs(e, {"x": _XM, "y": _YM})


def _builders() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    def add(entry: CatalogEntry) -> None:
        entries[entry.id] = entry

    u1, u2, u3, u4 = (Param(f"u{i}") for i in range(1, 5))

    # --- dimension 1 and 2 -------------------------------------------------
    add(CatalogEntry(
        id="A1_1", algebra_label="n_{1,1}",
        basis=_fields(("0", "1")),
        f_template=_F, g_template=_G,
        f_slots=(_X, _DELTA_Y, _DY, _DYM),
        g_slots=(_X, _DELTA_Y, _DY, _DYM),
        default_f=u2 + E.Call("sin", u3) + u4,
        default_g=u1 - 1 - 0.25 * u3 ** 2,
        notes="vertical translations only; both halves free in four slots",
    ))
    add(CatalogEntry(
        id="A2_1", algebra_label="s_{2,1}",
        basis=_fields(("0", "1"), ("0", "y")),
        f_template=_DY * _F, g_template=_G,
        f_slots=(_X, _DY / _DELTA_Y, _DYM / _DELTA_Y),
        g_slots=(_X, _DY / _DELTA_Y, _DYM / _DELTA_Y),
        default_f=u2 + u3,
        default_g=u1 - 1 - 0.1 * u2,
        box=dict(_BOX_DY_POS),
        notes="linearly connected pair; y - ym kept positive on the box",
    ))
    add(CatalogEntry(
        id="A2_2", algebra_label="s_{2,1}",
        basis=_fields(("0", "1"), ("x", "y")),
        f_template=(Const(1.0) / _X) * _F, g_template=_X * _G,
        f_slots=(_SLOPE, _DY, _DYM),
        g_slots=(_SLOPE, _DY, _DYM),
        default_f=u1 + u2,
        default_g=parse("0.4 + 0.05*u2"),
        notes="slot u1 carries the delayed abscissa; delay side must avoid it",
    ))
    add(CatalogEntry(
        id="A2_3", algebra_label="2n_{1,1}",
        basis=_fields(("0", "1"), ("0", "x")),
        f_template=_F, g_template=_G,
        f_slots=(_X, _DY - _SLOPE, _DY - _DYM),
        g_slots=(_X, _DY - _SLOPE, _DY - _DYM),
        default_f=u2 + u3,
        default_g=u1 - 1 - 0.1 * u3 ** 2,
    ))
    add(CatalogEntry(
        id="A2_4", algebra_label="2n_{1,1}",
        basis=_fields(("1", "0"), ("0", "1")),
        f_template=_F, g_template=_X - _G,
        f_slots=(_DELTA_Y, _DY, _DYM),
        g_slots=(_DELTA_Y, _DY, _DYM),
        default_f=u1 * E.Call("sin", u2) + u3,
        default_g=1 + u2 ** 2,
        notes="both translations; everything a function of differences",
    ))

    # --- dimension 3 -------------------------------------------------------
    add(CatalogEntry(
        id="A3_1", algebra_label="n_{3,1}",
        basis=_fields(("0", "1"), ("0", "x"), ("1", "0")),
        f_template=_F, g_template=_X - _G,
        f_slots=(_DY - _SLOPE, _DY - _DYM),
        g_slots=(_DY - _SLOPE, _DY - _DYM),
        default_f=u1 + 0.5 * u2 ** 2,
        default_g=1 + 0.2 * u2 ** 2,
    ))
    abs_dx = E.Call("abs", _DELTA_X)
    a = Param("a")
    add(CatalogEntry(
        id="A3_2a", algebra_label="s_{3,1}",
        basis=_fields(("1", "0"), ("0", "1"), ("x", "a*y")),
        f_template=abs_dx ** (a - 2) * _F,
        g_template=_X - E.Call("abs", _DELTA_Y) ** (1 / a) * _G,
        f_slots=(_DY / abs_dx ** (a - 1), _DYM / abs_dx ** (a - 1)),
        g_slots=(_DY / abs_dx ** (a - 1), _DYM / abs_dx ** (a - 1)),
        default_f=u1 + u2,
        default_g=Const(1.0),
        default_params={"a": 0.5},
        constraints=(("0 < abs(a) <= 1", "scaling weight a in (0, 1]"),),
        box=dict(_BOX_DY_POS),
        notes="slots depend on the delay width, so the delay side takes"
              " constants only; x and the delayed point stay positive",
    ))
    add(CatalogEntry(
        id="A3_8", algebra_label="sl(2,R)",
        basis=_fields(("0", "1"), ("x", "y"), ("2*x*y", "y^2")),
        f_template=-_DY / (2 * _X) + (_DY ** 3 / _X) * _F,
        g_template=(_DELTA_Y ** 2 / _X) * _G,
        f_slots=(1 / _DY - 2 * _X / _DELTA_Y, 1 / _DYM + 2 * _XM / _DELTA_Y),
        g_slots=(1 / _DY - 2 * _X / _DELTA_Y, 1 / _DYM + 2 * _XM / _DELTA_Y),
        default_f=u1,
        default_g=Const(0.05),
        box=dict(_BOX_DY_POS),
        notes="projective action in x; second slot needs the delayed point",
    ))
    add(CatalogEntry(
        id="A3_11", algebra_label="sl(2,R)",
        basis=_fields(("0", "1"), ("0", "y"), ("0", "y^2")),
        f_template=2 * _DY ** 2 / _DELTA_Y + _DY * _F,
        g_template=_G,
        f_slots=(_X, _DELTA_Y ** 2 / (_DY * _DYM)),
        g_slots=(_X, _DELTA_Y ** 2 / (_DY * _DYM)),
        default_f=u2,
        default_g=u1 - 1 / u2,
        box=dict(_BOX_DY_POS),
        notes="projective action in y alone; linearly connected triple",
    ))
    add(CatalogEntry(
        id="A3_13", algebra_label="n_{1,1} + s_{2,1}",
        basis=_fields(("1", "0"), ("0", "1"), ("0", "y")),
        f_template=_DY * _F,
        g_template=_X - _G,
        f_slots=(_DY / _DELTA_Y, _DYM / _DELTA_Y),
        g_slots=(_DY / _DELTA_Y, _DYM / _DELTA_Y),
        default_f=u1,
        default_g=u2 + 1,
        box=dict(_BOX_DY_POS),
    ))
    chi = _X ** 2
    chi_d = E.diff(chi, "x")
    chi_dd = E.diff(chi_d, "x")
    chi_slope = (chi - _at_delayed(chi)) / _DELTA_X
    den1 = chi_d - chi_slope
    den2 = chi_d - _at_delayed(chi_d)
    w_inv = (_DY - _SLOPE) / den1 - (_DY - _DYM) / den2
    add(CatalogEntry(
        id="A3_15", algebra_label="3n_{1,1}",
        basis=(VectorField.from_text("0", "1", "X1"),
               VectorField.from_text("0", "x", "X2"),
               VectorField(Const(0.0), chi, "X3")),
        f_template=(chi_dd / den1) * (_DY - _SLOPE) + chi_dd * _F,
        g_template=_G,
        f_slots=(_X, w_inv),
        g_slots=(_X, w_inv),
        default_f=u2,
        default_g=u1 - 1,
        delay_kind=DelayKind.CONSTANT,
        notes="abelian triple built on the representative curvature"
              " function chi(x) = x^2; delay side restricted to x",
    ))

    # --- dimension 4 -------------------------------------------------------
    acc = _DY + _DYM - 2 * _SLOPE
    add(CatalogEntry(
        id="A4_1", algebra_label="n_{4,1}",
        basis=_fields(("0", "1"), ("0", "x"), ("0", "x^2"), ("1", "0")),
        f_template=(_DY - _DYM) / _DELTA_X + _F,
        g_template=_X - _G,
        f_slots=(acc,),
        g_slots=(acc,),
        default_f=1 + 0.25 * u1 ** 2,
        default_g=Const(1.0),
        delay_kind=DelayKind.CONSTANT,
        notes="the single slot carries the delayed abscissa, so the delay"
              " side accepts constants only",
    ))
    add(CatalogEntry(
        id="A4_8", algebra_label="s_{4,6}",
        basis=_fields(("0", "1"), ("1", "0"), ("0", "x"), ("x", "0")),
        f_template=(Const(1.0) / _DELTA_X ** 2) * _F,
        g_template=_X - (_DELTA_Y + _G) / _DY,
        f_slots=(_DELTA_X * _DYM - _DELTA_Y,),
        g_slots=(_DELTA_X * _DYM - _DELTA_Y,),
        default_f=u1 + 2,
        default_g=Const(1.5),
        box=dict(_BOX_DY_POS),
        notes="delay written in the solved form (dx)(dy' - slope) = const",
    ))
    add(CatalogEntry(
        id="A4_11", algebra_label="s_{4,11}",
        basis=_fields(("0", "1"), ("1", "0"), ("0", "x"), ("x", "y")),
        f_template=(Const(1.0) / _DELTA_X) * _F,
        g_template=_X - _DELTA_Y / (_DY - _G),
        f_slots=(_DYM - _SLOPE,),
        g_slots=(_DYM - _SLOPE,),
        default_f=E.Call("sin", u1) + 2,
        default_g=Const(0.2),
        box=dict(_BOX_DY_POS),
        notes="solved delay form dy - slope = const",
    ))
    add(CatalogEntry(
        id="A4_20", algebra_label="2s_{2,1}",
        basis=_fields(("1", "0"), ("x", "0"), ("0", "1"), ("0", "y")),
        f_template=(_DY / _DELTA_X) * _F,
        g_template=_X - (_DELTA_Y / _DY) * _G,
        f_slots=(_DYM / _DY,),
        g_slots=(_DYM / _DY,),
        default_f=u1,
        default_g=1 + 0.1 * u1,
        box=dict(_BOX_DY_POS),
        notes="two commuting affine copies, one per coordinate",
    ))

    # --- dimension 5 and 6 (fixed forms, two constants) ---------------------
    c1, c2 = Param("C1"), Param("C2")
    add(CatalogEntry(
        id="A5_1", algebra_label="s_{5,33}",
        basis=_fields(("0", "1"), ("0", "x"), ("0", "x^2"), ("1", "0"),
                      ("x", "0")),
        f_template=2 * (_DY - _SLOPE) / _DELTA_X + c1 / _DELTA_X ** 2,
        g_template=_X - (c2 + 2 * _DELTA_Y) / (_DY + _DYM),
        default_params={"C1": 0.3, "C2": 1.2},
        constraints=(("C2 > 0", "C2 positive keeps the delay positive"),),
        box=dict(_BOX_DY_POS),
        notes="delay solved from dx = C2 / (dy + dy' - 2 slope)",
    ))
    disc = (_DELTA_Y * (_DY + _DYM) + c2) ** 2 - 4 * _DY * _DYM * _DELTA_Y ** 2
    s_plus = ((_DELTA_Y * (_DY + _DYM) + c2) + E.Call("sqrt", disc)) / (
        2 * _DY * _DYM)
    add(CatalogEntry(
        id="A5_6", algebra_label="sl(2,R) |x 2n_{1,1}",
        basis=_fields(("1", "0"), ("2*x", "y"), ("x^2", "x*y"),
                      ("0", "1"), ("0", "x")),
        f_template=c1 * (_DY - _SLOPE) ** 3,
        g_template=_X - s_plus,
        default_params={"C1": 0.4, "C2": 1.0},
        constraints=(("C2 > 0", "C2 positive"), ("C1 != 0", "C1 nonzero")),
        box=dict(_BOX_DY_POS),
        notes="delay is the larger root of the quadratic hidden in"
              " dx (dy - slope)(dy' - slope) = C2",
    ))
    add(CatalogEntry(
        id="A5_8", algebra_label="s_{2,1} + sl(2,R)",
        basis=_fields(("1", "0"), ("x", "0"), ("0", "1"), ("0", "y"),
                      ("0", "y^2")),
        f_template=2 * _DY ** 2 / _DELTA_Y + c1 * _DY / _DELTA_X,
        g_template=_X - E.Call("sqrt", c2 * _DELTA_Y ** 2 / (_DY * _DYM)),
        default_params={"C1": 0.5, "C2": 2.0},
        constraints=(("C2 > 0", "C2 positive"),),
        box=dict(_BOX_DY_POS),
    ))
    c = Param("C1")
    add(CatalogEntry(
        id="A6_2", algebra_label="sl(2,R) |x 3n_{1,1}",
        basis=_fields(("1", "0"), ("x", "y"), ("x^2", "2*x*y"),
                      ("0", "1"), ("0", "x"), ("0", "x^2")),
        f_template=2 * (_DY - _SLOPE) / _DELTA_X,
        g_template=_X - 2 * _DELTA_Y / (_DY + _DYM - c),
        default_params={"C1": 0.5},
        constraints=(("C1 < 1.0", "keeps dy + dy' - C positive on the box"),),
        box=dict(_BOX_DY_POS),
    ))
    add(CatalogEntry(
        id="A6_3", algebra_label="sl(2,R) + sl(2,R)",
        basis=_fields(("1", "0"), ("x", "0"), ("x^2", "0"),
                      ("0", "1"), ("0", "y"), ("0", "y^2")),
        f_template=2 * _DY ** 2 / _DELTA_Y - 2 * _DY / _DELTA_X,
        g_template=_X - E.Call("sqrt", c1 * _DELTA_Y ** 2 / (_DY * _DYM)),
        default_params={"C1": 4.0},
        constraints=(("C1 > 0", "C1 positive"),),
        box=dict(_BOX_DY_POS),
        notes="independent projective actions in each coordinate",
    ))

    # --- determinant-built linear families ----------------------------------
    entries.update(_linear_det_entries())

    # --- infinite linear chains, metadata only ------------------------------
    add(CatalogEntry(
        id="S_m", algebra_label="(m+1) n_{1,1}",
        basis=(),
        notes="marker: abelian chains d/dy, x d/dy, chi_2(x) d/dy, ...,"
              " chi_m(x) d/dy with linearly independent chi's; admitted by"
              " linear inhomogeneous systems.  No finite instantiation is"
              " enumerated here; see the linear module.",
    ))
    add(CatalogEntry(
        id="H_m", algebra_label="(m+1) n_{1,1} + n_{1,1}",
        basis=(),
        notes="marker: the S_m chain extended by y d/dy; admitted by linear"
              " homogeneous systems.  Metadata only.",
    ))

    # --- car-following examples ---------------------------------------------
    entries.update(_traffic_entries())
    return entries


def _linear_det_entries() -> dict[str, CatalogEntry]:
    u1 = Param("u1")
    out: dict[str, CatalogEntry] = {}
    h3 = make_h3_entry(chi=_X ** 3)
    h3.default_f = 0.3 * u1
    h3.default_g = u1 - 1
    out[h3.id] = h3
    # chi2 = x^2, chi3 = e^x keeps the second-order minor sign-definite on
    # the default box together with the default delay x - 1
    s3 = make_s3_entry(chi2=_X ** 2, chi3=E.Call("exp", _X))
    s3.default_f = 1 + 0.5 * u1
    s3.default_g = u1 - 1
    out[s3.id] = s3
    return out


def make_h3_entry(chi: Expr, entry_id: str = "H3_DET") -> CatalogEntry:
    """Determinant-built homogeneous linear family for a supplied chi(x).

    The free slot u1 = x feeds both the right-hand factor f(x) and the
    delay g(x).  The second-order (nondegeneracy) condition is checked
    numerically at instantiation.
    """
    chi_d = E.diff(chi, "x")
    chi_dd = E.diff(chi_d, "x")
    zero, one = Const(0.0), Const(1.0)
    num = _det([
        [_DDY, _DY, _Y, _YM],
        [zero, zero, one, one],
        [zero, one, _X, _XM],
        [chi_dd, chi_d, chi, _at_delayed(chi)],
    ])
    den = _det([
        [_DY, _DYM, _Y, _YM],
        [zero, zero, one, one],
        [one, one, _X, _XM],
        [chi_d, _at_delayed(chi_d), chi, _at_delayed(chi)],
    ])
    num1 = E.diff(num, "ddy")          # linear in ddy by construction
    num0 = subs(num, {"ddy": zero})
    f_template = (_F * den - num0) / num1
    return CatalogEntry(
        id=entry_id, algebra_label="s_{4,3} (H_3)",
        second_order_minor=E.simplify(num1),
        basis=(VectorField.from_text("0", "1", "X1"),
               VectorField.from_text("0", "x", "X2"),
               VectorField(Const(0.0), chi, "X3"),
               VectorField.from_text("0", "y", "X4")),
        f_template=f_template,
        g_template=_G,
        f_slots=(_X,),
        g_slots=(_X,),
        delay_kind=DelayKind.SOLUTION_INDEPENDENT,
        notes="homogeneous linear family written as a determinant ratio;"
              f" chi(x) = {to_text(chi)}",
    )


def make_s3_entry(chi2: Expr, chi3: Expr, entry_id: str = "S3_DET") -> CatalogEntry:
    """Determinant-built inhomogeneous linear family for chi2, chi3."""
    zero, one = Const(0.0), Const(1.0)
    rows = [[_DDY, _DY, _DYM, _Y, _YM],
            [zero, zero, zero, one, one],
            [zero, one, one, _X, _XM]]
    for chi in (chi2, chi3):
        chi_d = E.diff(chi, "x")
        chi_dd = E.diff(chi_d, "x")
        rows.append([chi_dd, chi_d, _at_delayed(chi_d), chi, _at_delayed(chi)])
    num = _det(rows)
    num1 = E.diff(num, "ddy")
    num0 = subs(num, {"ddy": zero})
    f_template = (_F - num0) / num1
    return CatalogEntry(
        id=entry_id, algebra_label="4n_{1,1} (S_3)",
        second_order_minor=E.simplify(num1),
        basis=(VectorField.from_text("0", "1", "X1"),
               VectorField.from_text("0", "x", "X2"),
               VectorField(Const(0.0), chi2, "X3"),
               VectorField(Const(0.0), chi3, "X4")),
        f_template=f_template,
        g_template=_G,
        f_slots=(_X,),
        g_slots=(_X,),
        delay_kind=DelayKind.SOLUTION_INDEPENDENT,
        notes="inhomogeneous linear family: determinant equals the free"
              f" function of x; chi2 = {to_text(chi2)}, chi3 = {to_text(chi3)}",
    )


def _traffic_entries() -> dict[str, CatalogEntry]:
    from . import traffic  # local import, the modules are otherwise independent

    out: dict[str, CatalogEntry] = {}
    for ex in (1, 2, 3):
        p = traffic.example_params(ex)
        system = traffic.example_system(ex, p)
        basis = [traffic.bound_field(f, system.params)
                 for f in traffic.example_algebra(ex, p)]
        system = traffic.bound_system(system)
        entry = CatalogEntry(
            id=f"TRAFFIC_EX{ex}",
            algebra_label="car-following example",
            basis=tuple(basis),
            f_template=system.f,
            g_template=system.g,
            default_params=dict(system.params),
            box=dict(system.box),
            delay_kind=system.delay_kind,
            notes=f"two-car system of worked example {ex}; fixed form",
        )
        out[entry.id] = entry
    return out


_CACHE: dict[str, CatalogEntry] | None = None


def _all_entries() -> dict[str, CatalogEntry]:
    global _CACHE
    if _CACHE is None:
        _CACHE = _builders()
    return _CACHE


def list_entries() -> list[CatalogEntry]:
    return list(_all_entries().values())


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _all_entries()[entry_id]
    except KeyError:
        raise CatalogError(f"no catalog entry '{entry_id}'") from None


def default_instantiation(entry_id: str) -> Instantiation:
    entry = get_entry(entry_id)
    return Instantiation(entry_id=entry_id, f_expr=entry.default_f,
                         g_expr=entry.default_g,
                         params=dict(entry.default_params))


def _substitute_slots(user: Expr, slots: tuple[Expr, ...],
                      params: dict[str, float], side: str) -> Expr:
    allowed = {f"u{i + 1}" for i in range(len(slots))} | set(params)
    stray = {
        s for s in free_symbols(user)
        if s not in allowed and s not in E.VARIABLES
    }
    if stray:
        raise CatalogError(
            f"{side} expression uses unknown slots/parameters {sorted(stray)}"
        )
    jet_used = {s for s in free_symbols(user) if s in E.VARIABLES}
    if jet_used:
        raise CatalogError(
            f"{side} expression must be written in the slots u1..u{len(slots)},"
            f" not jet variables {sorted(jet_used)}"
        )
    return subs(user, {f"u{i + 1}": s for i, s in enumerate(slots)})


def instantiate(inst: Instantiation, check_n: int = 60) -> DodsSystem:
    """Concrete system from an entry; postcondition checked numerically.

    The instantiated basis must pass the on-manifold invariance check at
    tol 1e-8, seed 42; the delay must be positive (below x) on the entry's
    box.
    """
    entry, system = _build_system(inst)
    reports = check_algebra(system, list(entry.basis), n=check_n, seed=42,
                            tol=1e-8)
    for r in reports:
        if not r.passed:
            raise CatalogError(
                f"instantiation of '{entry.id}' failed invariance: {r.summary()}"
            )
    return system


def _build_system(inst: Instantiation) -> tuple[CatalogEntry, DodsSystem]:
    """The entry and its validated concrete system, before any algebra check.

    The system is built once per entry, F and G choice and params, through
    the memo of `expr`; each call returns a new DodsSystem of that content.
    """
    entry = get_entry(inst.entry_id)
    if not entry.has_system:
        raise CatalogError(f"entry '{entry.id}' is a marker without a system")
    params = {**entry.default_params, **inst.params}
    # the constraints and the validation read the values, so they are part
    # of the kind
    f, g, box = E._memoized(
        ("instantiation", entry.id, E.value_key(params)),
        (inst.f_expr, inst.g_expr), None,
        lambda: _concrete_system(entry, inst, params))
    return entry, DodsSystem(f=f, g=g, params=params, box=dict(box))


def _concrete_system(entry: CatalogEntry, inst: Instantiation,
                     params: dict[str, float]):
    """The simplified f and g and the box of an instantiation that meets
    the constraints, validates and, for the determinant families, is
    nondegenerate; else a CatalogError."""
    for rule, description in entry.constraints:
        try:
            ok = _check_rule(rule, params)
        except E.ExprError:
            raise CatalogError(
                f"constraint '{rule}' ({description}) needs parameters"
                f" {sorted(params)}"
            ) from None
        if not ok:
            raise CatalogError(f"constraint violated: {rule} ({description})")

    f_expr = entry.f_template
    g_expr = entry.g_template
    if "F" in free_symbols(f_expr):
        user_f = inst.f_expr if inst.f_expr is not None else entry.default_f
        if user_f is None:
            raise CatalogError(f"entry '{entry.id}' needs an F expression")
        f_expr = subs(f_expr, {"F": _substitute_slots(user_f, entry.f_slots,
                                                      params, "F")})
    if "G" in free_symbols(g_expr):
        user_g = inst.g_expr if inst.g_expr is not None else entry.default_g
        if user_g is None:
            raise CatalogError(f"entry '{entry.id}' needs a G expression")
        g_expr = subs(g_expr, {"G": _substitute_slots(user_g, entry.g_slots,
                                                      params, "G")})
    if "xm" in free_symbols(g_expr):
        raise CatalogError(
            "delay relation is not explicit: the chosen G slots involve the"
            " delayed abscissa; this family only admits xm-free delay choices"
        )
    system = DodsSystem(f=E.simplify(f_expr), g=E.simplify(g_expr),
                        params=params)
    system.box = {**system.box, **entry.box}
    try:
        system.validate()
    except SamplingError:
        raise CatalogError(
            f"entry '{entry.id}': resulting delay is non-positive or singular"
            " on the sampling box"
        ) from None
    if entry.second_order_minor is not None:
        _check_nondegeneracy(entry, system)
    return system.f, system.g, system.box


def _check_nondegeneracy(entry: CatalogEntry, system: DodsSystem) -> None:
    """Second-order condition for the determinant families must not vanish.

    The solved template divides by the minor multiplying ddy; the minor is
    evaluated along xm = g(x) on a fine grid over the box.  A sign change
    means it vanishes inside the interval, a near-zero magnitude means it
    nearly does; either way the input is rejected.
    """
    minor = E.subs(entry.second_order_minor, {"xm": system.g})
    lo, hi = system.box.get("x", (0.5, 2.5))
    values = compile_columns(minor, ("x",), system.params)(
        np.linspace(lo, hi, 201))
    if np.isnan(values).any():
        raise CatalogError(
            f"entry '{entry.id}': the second-order condition is singular on"
            " the requested interval; rejected"
        )
    size = np.abs(values)
    if values.min() < 0.0 < values.max() or \
            size.min() < 1e-9 * (1.0 + size.max()):
        raise CatalogError(
            f"entry '{entry.id}': the second-order condition vanishes on the"
            " requested interval; rejected"
        )


def negative_control(entry: CatalogEntry, seed: int = 42) -> VectorField:
    """A perturbed field guaranteed to sit outside the entry's algebra span.

    A fixed eta bump would land inside the span for families whose algebra
    already contains that coefficient (x^2 d/dy and friends), so candidates
    are screened by a numeric span test first.  An entry without a basis
    (S_m, H_m) is a CatalogError.
    """
    if not entry.basis:
        raise CatalogError(f"entry '{entry.id}' has no basis field to perturb")
    candidates = [parse("0.1*x^2"), parse("0.1*x^3"), parse("0.1*sin(x)"),
                  parse("0.1*exp(x)"), parse("0.1*sin(5*x)"),
                  parse("0.1/(x + 0.5)")]
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(*_PLANE_BOX, size=(len(entry.basis) + 4, 2)).T
    basis = _plane_values(
        _plane_kernel(list(entry.basis), entry.default_params), x, y)
    base = entry.basis[0]
    for pert in candidates:
        target = _plane_kernel([VectorField(Const(0.0), pert)], {})
        fit = _span_fit(basis, _plane_values(target, x, y)[..., 0])
        if fit is not None and fit[1] > 1e-3:
            return VectorField(base.xi, E.simplify(base.eta + pert),
                               label=f"{base.label}+perturbation")
    raise CatalogError(f"no perturbation outside the span for '{entry.id}'")


def check_entry(entry_id: str, n: int = 200, seed: int = 42,
                tol: float = 1e-8):
    """Default instantiation plus full algebra check; returns the reports."""
    entry, system = _build_system(default_instantiation(entry_id))
    return check_algebra(system, list(entry.basis), n=n, seed=seed, tol=tol)


def verify_entry_closure(entry_id: str, seed: int = 42):
    entry = get_entry(entry_id)
    if entry.n_basis < 2:
        return None
    return check_closure(list(entry.basis), params=entry.default_params,
                         seed=seed)


# ---------------------------------------------------------------------------
# plain-text export


def export_text() -> str:
    """One block per entry, printable and re-parsable."""
    blocks = []
    for entry in list_entries():
        lines = [f"entry {entry.id}", f"algebra = {entry.algebra_label}"]
        for fld in entry.basis:
            lines.append(f"field = {to_text(fld.xi)} ; {to_text(fld.eta)}"
                         f" :: {fld.label}")
        if entry.has_system:
            lines.append(f"f_template = {to_text(entry.f_template)}")
            lines.append(f"g_template = {to_text(entry.g_template)}")
            for i, s in enumerate(entry.f_slots):
                lines.append(f"f_slot u{i + 1} = {to_text(s)}")
            for i, s in enumerate(entry.g_slots):
                lines.append(f"g_slot u{i + 1} = {to_text(s)}")
            if entry.default_f is not None:
                lines.append(f"default_F = {to_text(entry.default_f)}")
            if entry.default_g is not None:
                lines.append(f"default_G = {to_text(entry.default_g)}")
            for k in sorted(entry.default_params):
                lines.append(f"param {k} = {entry.default_params[k]!r}")
            for rule, description in entry.constraints:
                lines.append(f"constraint = {rule} :: {description}")
            for k in sorted(entry.box):
                lines.append(f"box {k} = {entry.box[k][0]!r},{entry.box[k][1]!r}")
            lines.append(f"delay = {entry.delay_kind.value}")
            if entry.second_order_minor is not None:
                lines.append("second_order_minor = "
                             f"{to_text(entry.second_order_minor)}")
        if entry.notes:
            lines.append(f"notes = {entry.notes}")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


#: keys of an entry block whose text sets one CatalogEntry field
_TEXT_KEYS = {"algebra": "algebra_label", "notes": "notes"}

#: keys of an entry block whose expression sets one CatalogEntry field
_EXPRESSION_KEYS = {
    "f_template": "f_template", "g_template": "g_template",
    "default_F": "default_f", "default_G": "default_g",
    "second_order_minor": "second_order_minor",
}


def _box_line(coord: str, value: str, lineno: int):
    """The coordinate and (lo, hi) of a `box <coord> = lo,hi` line: a free
    coordinate, and bounds lo < hi whose width, so each bound, is finite,
    as the sampler needs."""
    if coord not in FREE_COORDS:
        raise CatalogError(f"line {lineno}: box coordinate must be one of"
                           f" {', '.join(FREE_COORDS)}, got '{coord}'")
    lo, hi = _numbers(value, lineno, CatalogError, count=2)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise CatalogError(f"line {lineno}: box bounds must be finite with"
                           f" lo < hi and a finite width, got '{value}'")
    return coord, (lo, hi)


def parse_catalog_text(text: str) -> list[CatalogEntry]:
    """Rebuild entry structures from export_text output."""
    entries: list[CatalogEntry] = []
    current: dict | None = None  # the open block's CatalogEntry fields
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("entry "):
            if current is not None:
                raise CatalogError(f"line {lineno}: entry '{current['id']}'"
                                   " is not closed by 'end'")
            current = {"id": line[len("entry "):].strip(), "algebra_label": "",
                       "basis": [], "f_slots": [], "g_slots": [],
                       "default_params": {}, "constraints": [], "box": {}}
            continue
        if current is None:
            raise CatalogError(f"line {lineno}: content outside an entry block")
        if line == "end":
            entries.append(CatalogEntry(**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in current.items()}))
            current = None
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _TEXT_KEYS:
            current[_TEXT_KEYS[key]] = value
        elif key in _EXPRESSION_KEYS:
            current[_EXPRESSION_KEYS[key]] = _expression(value, lineno,
                                                         CatalogError)
        elif key == "field":
            spec, _, label = value.partition("::")
            xi, _, eta = spec.partition(";")
            basis = current["basis"]
            basis.append(VectorField(
                _expression(xi.strip(), lineno, CatalogError),
                _expression(eta.strip(), lineno, CatalogError),
                label.strip() or f"X{len(basis) + 1}"))
        elif key.startswith(("f_slot", "g_slot")):
            current[key[:6] + "s"].append(
                _expression(value, lineno, CatalogError))
        elif key.startswith("param "):
            current["default_params"][key[len("param "):].strip()] = _numbers(
                value, lineno, CatalogError)[0]
        elif key == "constraint":
            rule, _, description = value.partition("::")
            current["constraints"].append((rule.strip(), description.strip()))
        elif key.startswith("box "):
            coord, bounds = _box_line(key[len("box "):].strip(), value, lineno)
            current["box"][coord] = bounds
        elif key == "delay":
            current["delay_kind"] = _delay_kind(value, lineno, CatalogError)
        else:
            raise CatalogError(f"line {lineno}: unknown key '{key}'")
    if current is not None:
        raise CatalogError(f"entry '{current['id']}' is not closed by 'end'")
    return entries

"""Machine-readable families of invariant delay systems.

Each entry carries a symmetry basis, templates for the differential and
delay halves with free-function slots (u1, u2, ...), parameter
constraints, a default instantiation, and a sampling box on which the
family is nonsingular.  Delay templates are stored in explicit form
(xm never appears on the right), so verification needs no implicit solve;
slots that would drag the delayed abscissa into the delay relation are
rejected at instantiation time.

The entries are data: `catalog.txt`, next to this module, holds one block
per entry in the format of `export_text`, and every catalog command reads
it through `parse_catalog_text`, once per process.  Family identifiers
follow the usual dimension-based naming (A1_1 ... A6_3) plus two
determinant-built linear families (H3_DET, S3_DET), two marker records
for the infinite linear chains (S_m, H_m), and the three car-following
example systems.  The H3_DET and S3_DET blocks are stored reduced (their
f_template is simplified) and the tests check each by its determinant
identity; the tests derive the traffic blocks again from the traffic
module.  This module only reads and checks the data: no library code
builds a determinant family for another chi.
"""

from __future__ import annotations

import math
import operator
import os
import re
from dataclasses import dataclass, field

from . import expr as E
from .dods import (FREE_COORDS, DelayKind, DodsSystem, SamplingError,
                   _delay_kind, _expression, _numbers, _once,
                   _param_line, check_algebra)
from .expr import (Const, Expr, compile_columns, free_symbols, parse, subs,
                   to_text)
from .symmetry import (_PLANE_BOX, VectorField, _plane_kernel,
                       _plane_values, _span_fit, check_closure)

#: the catalog's entries, one block each, read by parse_catalog_text
_DATA = os.path.join(os.path.dirname(__file__), "catalog.txt")


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
    #: None for the f_slots: F and G of a family are functions of the same
    #: invariants of its algebra
    g_slots: tuple[Expr, ...] | None = None
    default_f: Expr | None = None
    default_g: Expr | None = None
    default_params: dict[str, float] = field(default_factory=dict)
    constraints: tuple[tuple[str, str], ...] = ()  # (rule, description)
    box: dict[str, tuple[float, float]] = field(default_factory=dict)
    delay_kind: DelayKind = DelayKind.STATE_DEPENDENT
    notes: str = ""
    second_order_minor: Expr | None = None  # must not vanish on the box

    def __post_init__(self):
        if self.g_slots is None:
            self.g_slots = self.f_slots

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


_CACHE: dict[str, CatalogEntry] | None = None


def _all_entries() -> dict[str, CatalogEntry]:
    """The entries of catalog.txt by id, in file order, read once."""
    global _CACHE
    if _CACHE is None:
        with open(_DATA, encoding="utf-8") as fh:
            _CACHE = {e.id: e for e in parse_catalog_text(fh.read())}
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
    import numpy as np

    minor = subs(entry.second_order_minor, {"xm": system.g})
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


def negative_control(entry: CatalogEntry) -> VectorField:
    """A perturbed field guaranteed to sit outside the entry's algebra span.

    A fixed eta bump would land inside the span for families whose algebra
    already contains that coefficient (x^2 d/dy and friends), so candidates
    are screened by a numeric span test first, on points drawn with seed
    42.  An entry without a basis (S_m, H_m) is a CatalogError.
    """
    import numpy as np

    if not entry.basis:
        raise CatalogError(f"entry '{entry.id}' has no basis field to perturb")
    candidates = [parse("0.1*x^2"), parse("0.1*x^3"), parse("0.1*sin(x)"),
                  parse("0.1*exp(x)"), parse("0.1*sin(5*x)"),
                  parse("0.1/(x + 0.5)")]
    rng = np.random.default_rng(42)
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


def check_entry(entry_id: str, n: int = 200, seed: int = 42):
    """Default instantiation plus full algebra check at tol 1e-8; returns
    the reports."""
    entry, system = _build_system(default_instantiation(entry_id))
    return check_algebra(system, list(entry.basis), n=n, seed=seed, tol=1e-8)


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


#: the keys an entry block may repeat
_REPEATABLE = ("field", "constraint")


def parse_catalog_text(text: str) -> list[CatalogEntry]:
    """Rebuild entry structures from export_text output.

    Each block opens with `entry <id>`, an id without white space that no
    other block has.  Only `field` and `constraint` lines repeat in a
    block; any other key given twice is an error naming both lines.  The
    slots of F (and of G) are `f_slot u1`, `f_slot u2`, ... in that order,
    and a block without `g_slot` lines gives G the slots of F.  Blank lines
    and lines starting with `#` are skipped.
    """
    entries: list[CatalogEntry] = []
    current: dict | None = None  # the open block's CatalogEntry fields
    ids: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split(None, 1)
        if head == "entry":
            if current is not None:
                raise CatalogError(f"line {lineno}: entry '{current['id']}'"
                                   " is not closed by 'end'")
            if not rest:
                raise CatalogError(f"line {lineno}: 'entry' needs an id")
            entry_id, = rest
            if len(entry_id.split()) > 1:
                raise CatalogError(f"line {lineno}: entry id '{entry_id}'"
                                   " contains white space")
            _once(ids, f"entry {entry_id}", lineno, CatalogError)
            current = {"id": entry_id, "algebra_label": "", "basis": [],
                       "default_params": {}, "constraints": [], "box": {}}
            seen: dict[str, int] = {}
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
        if key not in _REPEATABLE:
            _once(seen, key, lineno, CatalogError)
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
        elif (slot := key.partition(" ")[0]) in ("f_slot", "g_slot"):
            slots = current.setdefault(slot + "s", [])
            if key[len(slot):].strip() != f"u{len(slots) + 1}":
                raise CatalogError(f"line {lineno}: expected '{slot}"
                                   f" u{len(slots) + 1}', got '{key}'")
            slots.append(_expression(value, lineno, CatalogError))
        elif key.startswith("param "):
            name, number = _param_line(key, value, lineno, CatalogError)
            current["default_params"][name] = number
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

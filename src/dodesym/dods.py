"""Second-order one-delay systems and on-manifold invariance checking.

A DodsSystem is the pair (f, g): the differential half ddy = f and the
delay relation xm = g.  Verification samples the free coordinates
(x, y, ym, dy, dym), computes xm from g first and ddy from f last (x, y,
ym, dy, dym are treated as independent; xm and ddy are tied to them), and
evaluates the prolonged field on both constraint functions.  This one
mechanism covers invariance in the strong and the on-solution-manifold
sense alike.

f may refer to xm (classified families often carry the delayed abscissa
inside finite slopes); g never may, so the delay is explicit at sampling
time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    DomainError,
    Expr,
    bind_params,
    compile_fn,
    diff,
    free_symbols,
    parse,
    to_text,
)
from .symmetry import JET, VectorField, prolong


class DelayKind(enum.Enum):
    CONSTANT = "constant"
    SOLUTION_INDEPENDENT = "independent"
    STATE_DEPENDENT = "state"


FREE_COORDS = ("x", "y", "ym", "dy", "dym")

#: free-coordinate sampling ranges; entries with singular denominators
#: override with their own admissible boxes
DEFAULT_BOX: dict[str, tuple[float, float]] = {
    v: (0.5, 2.5) for v in FREE_COORDS
}


class DodsError(Exception):
    pass


class SamplingError(DodsError):
    pass


@dataclass
class DodsSystem:
    f: Expr
    g: Expr
    params: dict[str, float] = field(default_factory=dict)
    delay_kind: DelayKind = DelayKind.CONSTANT
    domain: tuple[float, float] = (0.0, 10.0)
    box: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(DEFAULT_BOX))
    label: str = ""

    def __post_init__(self):
        for name, e, allowed in (
            ("f", self.f, set(FREE_COORDS) | {"xm"}),
            ("g", self.g, set(FREE_COORDS)),
        ):
            bad = {s for s in free_symbols(e) if s in JET and s not in allowed}
            if bad:
                raise DodsError(f"{name} may not depend on {sorted(bad)}")

    def bound(self, e: Expr) -> Expr:
        return bind_params(e, self.params)

    def validate(self, n: int = 20, seed: int = 7) -> None:
        """Numeric sanity of the defining pair on the sampling box.

        Checks that f genuinely involves delayed quantities, that g stays
        below x, and that g is not constant unless declared so.
        """
        rng = np.random.default_rng(seed)
        f_ym = compile_fn(self.bound(diff(self.f, "ym")), JET)
        f_dym = compile_fn(self.bound(diff(self.f, "dym")), JET)
        g_fn = compile_fn(self.bound(self.g), FREE_COORDS)
        f_fn = compile_fn(self.bound(self.f), JET)
        delayed_dep = 0.0
        g_values = []
        checked = 0
        for _ in range(8 * n):
            if checked >= n:
                break
            p = sample_point(rng, self.box)
            try:
                xm = g_fn(*(p[v] for v in FREE_COORDS))
                if xm >= p["x"]:
                    raise DomainError("delay not below x")
                full = dict(p)
                full["xm"] = xm
                full["ddy"] = 0.0
                args = tuple(full[v] for v in JET)
                f_fn(*args)
                delayed_dep = max(delayed_dep, abs(f_ym(*args)), abs(f_dym(*args)))
                g_values.append(xm - p["x"])
            except DomainError:
                continue
            checked += 1
        if checked < n:
            raise SamplingError(
                "could not sample enough admissible points to validate system"
            )
        if delayed_dep < 1e-12:
            raise DodsError(
                "f does not involve the delayed point (df/dym and df/ddym vanish)"
            )
        if self.delay_kind is not DelayKind.CONSTANT:
            if float(np.ptp(g_values)) < 1e-12:
                raise DodsError("g is constant but delay kind says otherwise")


def sample_point(
    rng: np.random.Generator, box: dict[str, tuple[float, float]]
) -> dict[str, float]:
    return {
        v: float(rng.uniform(*box.get(v, DEFAULT_BOX[v]))) for v in FREE_COORDS
    }


@dataclass
class InvarianceReport:
    max_residual_dode: float
    max_residual_delay: float
    n_samples: int
    worst_point: dict[str, float]
    tol: float = 1e-8
    field_label: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.max_residual_dode < self.tol
            and self.max_residual_delay < self.tol
        )

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.field_label}: |pr X (ddy - f)| <= "
            f"{self.max_residual_dode:.3e}, |pr X (xm - g)| <= "
            f"{self.max_residual_delay:.3e} over {self.n_samples} samples"
        )


def _residual_fns(system: DodsSystem, x_field: VectorField):
    """Compiled evaluators for pr X (ddy - f) and pr X (xm - g)."""
    pro = prolong(x_field)
    coeffs = [
        compile_fn(system.bound(c), JET) for c in pro.coefficients()
    ]
    df = [compile_fn(system.bound(diff(system.f, v)), JET) for v in JET]
    dg = [compile_fn(system.bound(diff(system.g, v)), JET) for v in JET]
    i_ddy = JET.index("ddy")
    i_xm = JET.index("xm")

    def residuals(args: tuple[float, ...]) -> tuple[float, float]:
        c = [fn(*args) for fn in coeffs]
        r_dode = c[i_ddy] - sum(c[i] * df[i](*args) for i in range(7))
        r_delay = c[i_xm] - sum(c[i] * dg[i](*args) for i in range(7))
        return r_dode, r_delay

    return residuals


def check_invariance(
    system: DodsSystem,
    x_field: VectorField,
    n: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
) -> InvarianceReport:
    """Sample the solution manifold and apply the prolonged field.

    Samples (x, y, ym, dy, dym) from the system box, sets xm := g and
    ddy := f, and evaluates pr X on both constraint functions.  The field
    is accepted when both maxima stay below tol.  More than half the
    samples hitting domain errors aborts with a sampling diagnosis.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    g_fn = compile_fn(system.bound(system.g), FREE_COORDS)
    f_fn = compile_fn(system.bound(system.f), JET)
    residuals = _residual_fns(system, x_field)
    worst_point: dict[str, float] = {}
    good = 0
    bad = 0
    max_dode = 0.0
    max_delay = 0.0
    while good < n:
        if bad > n and bad > good:
            raise SamplingError(
                "incompatible sampling domain: more than half the samples hit"
                " domain errors"
            )
        p = sample_point(rng, system.box)
        try:
            xm = g_fn(*(p[v] for v in FREE_COORDS))
            if xm >= p["x"]:
                raise DomainError("delay not below x")
            full = dict(p)
            full["xm"] = xm
            full["ddy"] = 0.0
            args = list(full[v] for v in JET)
            args[JET.index("ddy")] = f_fn(*args)
            r_dode, r_delay = residuals(tuple(args))
        except DomainError:
            bad += 1
            continue
        good += 1
        if not worst_point or abs(r_dode) > max_dode or \
                abs(r_delay) > max_delay:
            worst_point = dict(zip(JET, args))
        max_dode = max(max_dode, abs(r_dode))
        max_delay = max(max_delay, abs(r_delay))
    return InvarianceReport(
        max_residual_dode=max_dode,
        max_residual_delay=max_delay,
        n_samples=n,
        worst_point=worst_point,
        tol=tol,
        field_label=x_field.label or x_field.describe(),
    )


def check_algebra(
    system: DodsSystem,
    fields: list[VectorField],
    n: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
) -> list[InvarianceReport]:
    """check_invariance for each basis field; all must pass to admit the algebra."""
    return [
        check_invariance(system, f, n=n, seed=seed + i, tol=tol)
        for i, f in enumerate(fields)
    ]


# ---------------------------------------------------------------------------
# plain-text definition files


def load_dods(text: str, label: str = "") -> DodsSystem:
    """Parse the key=value system format.

    Lines: `f = <expr>`, `g = <expr>`, `param <name> = <value>`,
    `delay = constant|independent|state`, `domain = a,b`.  Blank lines and
    `#` comments are ignored; unknown keys are errors.
    """
    f_expr = None
    g_expr = None
    params: dict[str, float] = {}
    kind = DelayKind.CONSTANT
    domain = (0.0, 10.0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DodsError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "f":
            f_expr = parse(value)
        elif key == "g":
            g_expr = parse(value)
        elif key.startswith("param "):
            name = key[len("param "):].strip()
            if not name:
                raise DodsError(f"line {lineno}: param needs a name")
            params[name] = float(value)
        elif key == "delay":
            try:
                kind = DelayKind(value)
            except ValueError:
                raise DodsError(
                    f"line {lineno}: delay must be constant, independent or state"
                ) from None
        elif key == "domain":
            a, _, b = value.partition(",")
            domain = (float(a), float(b))
        else:
            raise DodsError(f"line {lineno}: unknown key '{key}'")
    if f_expr is None or g_expr is None:
        raise DodsError("system file must define both f and g")
    return DodsSystem(f=f_expr, g=g_expr, params=params, delay_kind=kind,
                      domain=domain, label=label)


def dump_dods(system: DodsSystem) -> str:
    lines = [f"f = {to_text(system.f)}", f"g = {to_text(system.g)}"]
    for k in sorted(system.params):
        lines.append(f"param {k} = {system.params[k]!r}")
    lines.append(f"delay = {system.delay_kind.value}")
    lines.append(f"domain = {system.domain[0]!r},{system.domain[1]!r}")
    return "\n".join(lines) + "\n"

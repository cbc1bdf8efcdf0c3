"""Linear delay systems: symmetry structure, the extra-symmetry detector,
the constant-coefficient canonical form and its characteristic roots.

A homogeneous linear system always admits the scaling field y d/dy and
one "solution field" per solution.  Whether anything beyond that exists
is decided by an overdetermined differential-discrete system for a
coefficient xi(x); its first-order part reads xi' = K xi with K built
from the coefficients, and a solution exists only under the
compatibility condition

    K(g(x)) g'(x)^2 = g''(x) + K(x) g'(x).

When the detector succeeds the extra field is
xi d/dx + (xi' + a1 xi)/2 y d/dy, and the system is reducible to
constant coefficients: y'' = alpha y'_- + beta y + gamma y_-, x_- = x - C.
Exponential solutions of that form correspond to real roots of

    lambda^2 - alpha lambda e^(-lambda C) - beta - gamma e^(-lambda C) = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import expr as E
from .dods import (DodsSystem, InvarianceReport, _expression,
                   _key_values, _numbers, _param_line, check_invariance)
from .expr import Const, DomainError, Expr, compile_fn, diff, subs, to_text
from .integrate import (
    HistoryFunction,
    Trajectory,
    _grid,
    _real_roots,
    residual_on_trajectory,
    solve,
)
from .symmetry import VectorField


class LinearError(Exception):
    pass


@dataclass
class LinearDods:
    """y'' = a1 y' + a2 y'_- + a3 y + a4 y_- + b,  x_- = g(x)."""

    a1: Expr
    a2: Expr
    a3: Expr
    a4: Expr
    b: Expr
    g: Expr
    domain: tuple[float, float] = (0.0, 3.0)
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "b", "g"):
            e = getattr(self, name)
            stray = E.free_symbols(e) & set(E.VARIABLES) - {"x"}
            if stray:
                raise LinearError(f"{name} must be a function of x only")
        xs = self._probe_points()
        a2, a4 = self._fn(self.a2), self._fn(self.a4)
        if max(abs(fn(x)) for fn in (a2, a4) for x in xs) < 1e-14:
            raise LinearError("a2 and a4 vanish identically: no delay coupling")
        g = self._fn(self.g)
        for x in xs:
            if g(x) >= x:
                raise LinearError(f"delay relation fails g(x) < x at x = {x:g}")

    def _probe_points(self) -> list[float]:
        lo, hi = self.domain
        return _grid(lo, hi, 17)

    def _fn(self, e: Expr):
        """e as a compiled function of x, parameters bound."""
        return compile_fn(e, ("x",), self.params)

    def is_homogeneous(self) -> bool:
        b = self._fn(self.b)
        return all(abs(b(x)) < 1e-14 for x in self._probe_points())

    def f_expr(self) -> Expr:
        return (self.a1 * E.DY + self.a2 * E.DYM + self.a3 * E.Y
                + self.a4 * E.YM + self.b)

    def to_dods(self, box=None) -> DodsSystem:
        system = DodsSystem(f=E.simplify(self.f_expr()), g=self.g,
                            params=dict(self.params))
        if box:
            system.box = {**system.box, **box}
        return system


@dataclass
class CanonicalLinear:
    """Constant-coefficient normal form; C is the (positive) delay width."""

    alpha: float
    beta: float
    gamma: float
    C: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "C"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise LinearError(f"{name} must be finite, got {value}")
        if not self.C > 0:
            raise LinearError("delay width C must be positive")

    def to_linear(self, domain=(0.0, 3.0)) -> LinearDods:
        """The linear system, with alpha, beta, gamma and C as parameters
        of those names: every canonical system is one family, whose
        kernels are built once."""
        # a genuine delay system needs a delayed term present
        if self.alpha ** 2 + self.gamma ** 2 == 0.0:
            raise LinearError(
                "alpha and gamma both zero: no delayed term, not a delay system"
            )
        return LinearDods(
            a1=E.ZERO, a2=E.Param("alpha"), a3=E.Param("beta"),
            a4=E.Param("gamma"), b=E.ZERO, g=E.X - E.Param("C"),
            domain=domain, params={"alpha": self.alpha, "beta": self.beta,
                                   "gamma": self.gamma, "C": self.C},
        )

    def char_value(self, lam: float) -> float:
        try:
            e = math.exp(-lam * self.C)
        except OverflowError:  # the delayed terms set the sign, if any
            k = self.alpha * lam + self.gamma
            return lam * lam - self.beta - (k and math.copysign(math.inf, k))
        return lam * lam - self.alpha * lam * e - self.beta - self.gamma * e


@dataclass
class ExtraSymmetry:
    """The additional field xi d/dx + (xi' + a1 xi)/2 y d/dy."""

    xi: Expr | None
    eta_coeff: Expr | None
    K_used: str
    K: Expr
    field: VectorField | None
    invariance: InvarianceReport | None
    checks: dict[str, float]

    @property
    def xi_is_constant(self) -> bool:
        return self.checks.get("xi_spread", math.inf) < 1e-12


# ---------------------------------------------------------------------------
# infinite-dimensional structure of homogeneous systems


@dataclass
class LinearSymmetryReport:
    scaling: InvarianceReport
    perturbation_residuals: list[float]
    epsilon: float

    @property
    def passed(self) -> bool:
        return self.scaling.passed and all(
            r < 1e-6 for r in self.perturbation_residuals
        )


def _residual(L: LinearDods, t: Trajectory) -> float:
    """max |t'' - f| of residual_on_trajectory on t's dense output, 200
    samples at seed 42: O(h^2) for a solution of L.  A sample where f has
    no value is a LinearError, not a sample skipped."""
    report = residual_on_trajectory(L.to_dods(), t, n=200)
    if report.n_samples < 200:
        raise LinearError(f"f is undefined at {200 - report.n_samples} of"
                          " 200 samples of the trajectory")
    return report.max_residual_dode


def verify_linear_symmetries(
    L: LinearDods, basis_solutions: list[Trajectory]
) -> LinearSymmetryReport:
    """Scaling invariance plus the superposition content of solution fields.

    Scaling invariance is check_invariance of y d/dy at n = 200, seed 42.
    Each numeric solution rho gives a field rho d/dy: perturbing a
    solution by epsilon * rho, epsilon = 1e-3, must leave its residual
    y'' - f unchanged to o(epsilon).  f and the Hermite dense output are
    both linear in the solution, so that change is exactly epsilon times
    rho's own residual (_residual), and that is what is reported.  The
    report passes when each stays below 1e-6, so a rho that does not
    solve L fails it.
    """
    epsilon = 1e-3
    if not L.is_homogeneous():
        raise LinearError("non-homogeneous")
    if not basis_solutions:
        raise ValueError("need at least one basis solution")
    scaling = check_invariance(L.to_dods(), VectorField.from_text("0", "y", "Y"),
                               n=200, seed=42, tol=1e-8)
    return LinearSymmetryReport(
        scaling=scaling, epsilon=epsilon,
        perturbation_residuals=[epsilon * _residual(L, rho)
                                for rho in basis_solutions])


def inhomogeneous_scaling_residual(L: LinearDods, sigma: Trajectory) -> float:
    """Residual of the shifted scaling field (y - sigma(x)) d/dy, which L
    admits exactly when sigma is a particular solution.

    The field's prolonged residual is -(sigma'' - f(sigma)): the terms in
    y, ym, dy and dym cancel because f is linear in them, and the delay
    part is 0 because xi = 0.  So this is sigma's own residual
    (_residual), with sigma'' from its dense output: O(h^2) for a
    solution, and of the order of the defect for anything else.
    """
    return _residual(L, sigma)


# ---------------------------------------------------------------------------
# compatibility and the extra-symmetry detector


def compatibility_residual(g: Expr, K: Expr, xs: list[float],
                           params=None) -> float:
    """max |K(g(x)) g'^2 - g'' - K(x) g'| over xs."""
    fn = compile_fn(_compatibility(g, K), ("x",), params)
    return max(abs(fn(float(x))) for x in xs)


def _compatibility(g: Expr, K: Expr) -> Expr:
    """K(g(x)) g'^2 - g'' - K(x) g'."""
    gd = diff(g, "x")
    return subs(K, {"x": g}) * gd ** 2 - diff(gd, "x") - K * gd


def _adaptive_simpson(f, a: float, b: float) -> float:
    """The integral of f over [a, b] by adaptive Simpson, to 1e-12 per
    panel, bisecting at most 24 levels deep."""
    def simpson(l, r, fl, fm, fr):
        return (r - l) / 6.0 * (fl + 4.0 * fm + fr)

    def recurse(l, r, fl, fm, fr, whole, d):
        m = 0.5 * (l + r)
        lm, rm = 0.5 * (l + m), 0.5 * (m + r)
        flm, frm = f(lm), f(rm)
        left = simpson(l, m, fl, flm, fm)
        right = simpson(m, r, fm, frm, fr)
        if d <= 0 or abs(left + right - whole) < 15.0 * 1e-12:
            return left + right + (left + right - whole) / 15.0
        return (recurse(l, m, fl, flm, fm, left, d - 1)
                + recurse(m, r, fm, frm, fr, right, d - 1))

    if a == b:
        return 0.0
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 24)


def _xi(K_fn, anchor: float):
    """x -> exp of the integral of K_fn from anchor, computed once per x."""
    return functools.cache(
        lambda x: math.exp(_adaptive_simpson(K_fn, anchor, x)))


def _determining_trees(L: LinearDods, k_used: str):
    """K (K1 or K2, as k_used names), g', the compatibility residual and
    the three remaining determining equations, with the xi-derivatives
    written through K, all with L's params as symbols."""
    a1, a2, a3, a4 = L.a1, L.a2, L.a3, L.a4
    gd = diff(L.g, "x")
    gdd = diff(gd, "x")
    gddd = diff(gdd, "x")
    a1_g = subs(a1, {"x": L.g})
    K = E.simplify(
        -diff(a2, "x") / a2 + a1 / 2 - a1_g * gd / 2 + gdd / (2 * gd)
        if k_used == "K1" else
        -diff(a4, "x") / (2 * a4) + a1 / 4 - a1_g * gd / 4 - gdd / (4 * gd))
    Kd = diff(K, "x")
    Kdd = diff(Kd, "x")
    ratio2 = Kd + K ** 2            # xi''/xi
    ratio3 = Kdd + 3 * K * Kd + K ** 3  # xi'''/xi
    cond_a = a2 * K + (diff(a2, "x")
                       + (a2 / 2) * (-a1 + a1_g * gd - gdd / gd))
    cond_b = ratio3 + (2 * diff(a1, "x") - a1 ** 2 - 4 * a3) * K \
        + (diff(diff(a1, "x"), "x") - a1 * diff(a1, "x") - 2 * diff(a3, "x"))
    cond_c = (a2 / gd) * ratio2 \
        + (a2 * (a1_g + gdd / gd ** 2) + 4 * a4) * K \
        + (2 * diff(a4, "x")
           + a2 * (subs(diff(a1, "x"), {"x": L.g}) * gd + a1_g * gdd / gd
                   + gddd / gd ** 2 - gdd ** 2 / gd ** 3)
           + a4 * (-a1 + a1_g * gd + gdd / gd))
    return K, gd, _compatibility(L.g, K), (cond_a, cond_b, cond_c)


#: the points of the grid on which detect_extra_symmetry checks
_N_GRID = 50


def detect_extra_symmetry(L: LinearDods) -> ExtraSymmetry | None:
    """Case split on a2, build K symbolically, verify every condition.

    Checks, in order: the compatibility condition on a 50-point grid, to
    1e-9; the three remaining determining equations with xi from
    high-order quadrature and the discrete connection xi(g) = g' xi, each
    to 1e-7.  On success the field is assembled (closed form when K is
    constant) and must pass check_invariance.  Any failed check returns
    None.
    """
    import numpy as np

    if not L.is_homogeneous():
        raise LinearError("non-homogeneous")
    lo, hi = L.domain
    xs_probe = L._probe_points()
    a2_fn, a4_fn = L._fn(L.a2), L._fn(L.a4)
    a2_max = max(abs(a2_fn(x)) for x in xs_probe)
    a4_max = max(abs(a4_fn(x)) for x in xs_probe)
    if a2_max > 1e-14:
        k_used = "K1"
    elif a4_max > 1e-14:
        k_used = "K2"
    else:
        raise LinearError("invalid linear system: a2 and a4 both vanish")
    K, gd, compat_tree, conditions = E._memoized(
        ("determining", k_used), (L.a1, L.a2, L.a3, L.a4, L.g), L.params,
        lambda: _determining_trees(L, k_used))
    checks: dict[str, float] = {}

    g_fn, gd_fn = L._fn(L.g), L._fn(gd)
    # grid on which g stays inside the domain (needed for K(g), xi(g))
    grid = [x for x in _grid(lo, hi, 4 * _N_GRID) if lo <= g_fn(x) <= hi]
    if len(grid) < _N_GRID:
        raise LinearError(
            "domain too short: g(x) leaves it for almost every x"
        )
    grid = grid[:: max(1, len(grid) // _N_GRID)][:_N_GRID]

    try:
        compat_fn = L._fn(compat_tree)
        checks["compatibility"] = max(abs(compat_fn(x)) for x in grid)
    except DomainError:
        return None
    if checks["compatibility"] > 1e-9:
        return None

    K_fn = L._fn(K)
    xi = _xi(K_fn, lo)
    try:
        for name, cond in zip(("condition_a", "condition_b", "condition_c"),
                              conditions):
            fn = L._fn(cond)
            checks[name] = max(abs(fn(x) * xi(x)) for x in grid)
        checks["connection"] = max(
            abs(xi(g_fn(x)) - gd_fn(x) * xi(x)) for x in grid
        )
    except DomainError:
        return None
    if any(checks[k] > 1e-7 for k in
           ("condition_a", "condition_b", "condition_c", "connection")):
        return None

    k_values = [K_fn(x) for x in grid]
    checks["xi_spread"] = float(np.ptp([xi(x) for x in grid]))
    k_const = float(np.ptp(k_values)) < 1e-12 * (1.0 + abs(k_values[0]))
    xi_expr: Expr | None = None
    if k_const:
        k_bar = float(np.mean(k_values))
        if abs(k_bar) < 1e-13:
            xi_expr = Const(1.0)
        else:
            xi_expr = E.Call("exp", Const(k_bar) * (E.X - Const(lo)))
    K = E.simplify(E.bind_params(K, L.params))
    if xi_expr is not None:
        a1 = E.bind_params(L.a1, L.params)
        eta_coeff = E.simplify((diff(xi_expr, "x") + a1 * xi_expr) / 2)
        fieldv = VectorField(xi_expr, E.simplify(eta_coeff * E.Y), label="Z")
        box = {"x": (max(0.5, lo + 1e-3), max(1.5, hi - 1e-3))}
        if box["x"][0] >= box["x"][1]:
            box = {"x": (lo + 1e-3, hi - 1e-3)}
        inv_report = check_invariance(L.to_dods(box=box), fieldv, n=120,
                                      seed=7, tol=1e-8)
        if not inv_report.passed:
            return None
        return ExtraSymmetry(xi=xi_expr, eta_coeff=eta_coeff, K_used=k_used,
                             K=K, field=fieldv, invariance=inv_report,
                             checks=checks)
    # all numeric conditions hold but xi has no closed form in the grammar;
    # report the detection with the quadrature profile only
    return ExtraSymmetry(xi=None, eta_coeff=None, K_used=k_used, K=K,
                         field=None, invariance=None, checks=checks)


# ---------------------------------------------------------------------------
# canonical verification transform (constant xi case)


@dataclass
class CanonicalTransformReport:
    C: float
    alpha: float
    beta: float
    gamma: float
    fit_residual: float
    delay_spread: float


def verify_canonical_transform(
    L: LinearDods,
    extra: ExtraSymmetry,
    phi: HistoryFunction,
    x_end: float,
    h: float = 1e-3,
) -> CanonicalTransformReport:
    """Map a sample solution through the straightening change of variables
    and fit constant coefficients to the image.

    Only the constant-xi case is handled (that is what the detector returns
    in closed form); the transform is then x -> x / xi with
    y -> u y, u = exp(-int a1 / 2), up to constants.  The image's
    derivatives follow by the product rule, with u' = -a1 u / 2 and
    u'' = (a1^2 / 4 - a1' / 2) u: y and y' come from the dense output, y''
    from Trajectory.second_derivative and a1' from diff.  A small fit
    residual and a constant transformed delay certify the
    constant-coefficient form.
    """
    import numpy as np

    if extra.xi is None or not extra.xi_is_constant:
        raise LinearError("canonical transform check needs constant xi")
    traj = solve(L.to_dods(), phi, "from-phi", x_end, h)
    a1_fn, da1_fn, g_fn = L._fn(L.a1), L._fn(diff(L.a1, "x")), L._fn(L.g)
    anchor = traj.x_start

    def u(x: float) -> float:
        return math.exp(-0.5 * _adaptive_simpson(a1_fn, anchor, x))

    lo = traj.x_start
    hi = traj.x_end
    xs = [x for x in _grid(lo, hi, 60)
          if g_fn(x) >= traj.history.interval[0] + 1e-9
          and lo + 1e-6 <= x <= hi - 1e-6]
    rows, rhs, delays = [], [], []
    for x in xs:
        xm = g_fn(x)
        y, dy = traj.interpolate(x)
        ym, dym = traj.interpolate(xm)
        ax, ux, am, um = a1_fn(x), u(x), a1_fn(xm), u(xm)
        rows.append([um * (dym - 0.5 * am * ym), ux * y, um * ym])
        rhs.append(ux * (traj.second_derivative(x) - ax * dy
                         + (0.25 * ax * ax - 0.5 * da1_fn(x)) * y))
        delays.append(x - xm)
    a = np.asarray(rows)
    b = np.asarray(rhs)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    fit_residual = float(np.max(np.abs(a @ coef - b)))
    scale = max(1.0, float(np.max(np.abs(b))))
    return CanonicalTransformReport(
        C=float(np.mean(delays)),
        alpha=float(coef[0]), beta=float(coef[1]), gamma=float(coef[2]),
        fit_residual=fit_residual / scale,
        delay_spread=float(np.ptp(delays)),
    )


# ---------------------------------------------------------------------------
# characteristic roots


def _char_slope(cl: CanonicalLinear):
    """h'(lambda) with cl's values, derived by diff and compiled once."""
    h = "lam*lam - alpha*lam*exp(-lam*C) - beta - gamma*exp(-lam*C)"
    return E._memoized("characteristic slope", (), vars(cl), lambda: (
        compile_fn(diff(E.parse(h), "lam"), ("lam",), vars(cl))))


def characteristic_roots(
    cl: CanonicalLinear,
    lam_range: tuple[float, float],
    n_seed: int = 400,
) -> list[float]:
    """All real roots in the window, by integrate._real_roots over n_seed
    cells with h' from diff.  A root of multiplicity 3 or more is bisected
    on h alone.

    Every returned root satisfies |h(lambda)| < 1e-10; an empty list is a
    legitimate outcome.  A root refined to no better raises LinearError
    naming its bracket, and so does a window whose width overflows.
    """
    if n_seed < 1:
        raise ValueError(f"n_seed must be at least 1, got {n_seed}")
    lo, hi = lam_range
    if not lo < hi:
        raise ValueError("need lam_lo < lam_hi")
    if not math.isfinite(hi - lo):
        raise LinearError(f"window ({lo:g}, {hi:g}) is too wide for floats")
    h = cl.char_value
    out: list[float] = []
    for r, _, a, b in _real_roots(h, _char_slope(cl), lo, hi, n_seed,
                                  zero=1e-13):
        if not abs(h(r)) < 1e-10:
            raise LinearError(
                f"sign change over [{a!r}, {b!r}] refines to lambda = {r!r}"
                f" with |h| = {abs(h(r)):.3e}, not below 1e-10")
        out.append(r)
    return out


def verify_exponential_solution(cl: CanonicalLinear, lam: float) -> float:
    """Substitute y = e^(lambda x) symbolically; residual relative to
    e^(lambda x), the largest over 50 points of [0, 1].

    The substituted defect equals e^(lambda x) times the characteristic
    value, so the scaled residual is grid-independent; it is below 1e-10
    exactly when lambda is a root.
    """
    lam_c = Const(lam)
    y = E.Call("exp", lam_c * E.X)
    ym = E.Call("exp", lam_c * (E.X - Const(cl.C)))
    ddy = lam_c * lam_c * y
    dym = lam_c * ym
    defect = ddy - (Const(cl.alpha) * dym + Const(cl.beta) * y
                    + Const(cl.gamma) * ym)
    scaled = E.simplify(defect / y)
    fn = compile_fn(scaled, ("x",))
    return max(abs(fn(x)) for x in _grid(0.0, 1.0, 50))


# ---------------------------------------------------------------------------
# linear system files (extends the plain system format)


def load_linear(text: str) -> LinearDods:
    """Keys: a1..a4, b, g, param <name> (a finite number), domain."""
    values: dict[str, Expr] = {}
    params: dict[str, float] = {}
    domain = (0.0, 3.0)
    for lineno, key, value in _key_values(text, LinearError):
        if key in ("a1", "a2", "a3", "a4", "b", "g"):
            values[key] = _expression(value, lineno, LinearError)
        elif key.startswith("param "):
            name, number = _param_line(key, value, lineno, LinearError)
            params[name] = number
        elif key == "domain":
            domain = _numbers(value, lineno, LinearError, count=2)
        else:
            raise LinearError(f"line {lineno}: unknown key '{key}'")
    if "g" not in values:
        raise LinearError("linear system file must define g")
    zero = Const(0.0)
    return LinearDods(
        a1=values.get("a1", zero), a2=values.get("a2", zero),
        a3=values.get("a3", zero), a4=values.get("a4", zero),
        b=values.get("b", zero), g=values["g"],
        domain=domain, params=params,
    )


def dump_linear(L: LinearDods) -> str:
    lines = [f"{k} = {to_text(getattr(L, k))}"
             for k in ("a1", "a2", "a3", "a4", "b", "g")]
    for k in sorted(L.params):
        lines.append(f"param {k} = {L.params[k]!r}")
    lines.append(f"domain = {L.domain[0]!r},{L.domain[1]!r}")
    return "\n".join(lines) + "\n"

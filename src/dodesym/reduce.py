"""Group-invariant solutions of a one-parameter symmetry.

For a field with nonvanishing xi the plane invariant J1(x, y) and the
two-point invariant J2(x, y, xm, ym) are set to constants A and B, the
resulting reduction formulas y = h(x, A) and xm = k(x, A, B) are
substituted into both halves of the system, and the two reduced residual
functions, constant in x precisely when the field is a symmetry and the
ansatz valid, are solved for (A, B) by a damped Newton iteration on
their exact Jacobian, the compiled partials by A and B that diff derives.
A rank-deficient Jacobian at the root marks a free direction (a solution
family rather than a point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as E
from .dods import DodsSystem, check_invariance
from .expr import (Const, DomainError, Expr, Param, _memoized, compile_columns,
                   compile_fn, diff, subs)
from .integrate import HistoryFunction, _exact_drift, _grid
from .symmetry import _JET_BOX, VectorField, prolong


class ReduceError(Exception):
    pass


_A, _B = Param("A"), Param("B")


@dataclass
class InvariantPair:
    J1: Expr  # in (x, y)
    J2: Expr  # in (x, y, xm, ym)
    h_expr: Expr | None = None  # y = h(x, A)
    k_expr: Expr | None = None  # xm = k(x, A, B)

    def can_reduce(self) -> bool:
        return self.h_expr is not None and self.k_expr is not None


@dataclass
class InvariantSolution:
    h: Expr
    k: Expr
    A: float
    B: float
    residual: float
    free_parameters: list[str] = field(default_factory=list)
    degenerate_delay: bool = False

    def summary(self) -> str:
        frees = f" free: {','.join(self.free_parameters)}" if self.free_parameters else ""
        deg = " (delay relation degenerate)" if self.degenerate_delay else ""
        return (f"A = {self.A:.12g}, B = {self.B:.12g},"
                f" residual = {self.residual:.3e}{frees}{deg}")


def _is_const(e: Expr, samples) -> float | None:
    try:
        fn = compile_fn(e, ("x", "y"))
        vals = [fn(x, y) for x, y in samples]
    except (DomainError, E.UnboundSymbolError):
        return None
    if max(vals) - min(vals) < 1e-12 * (1.0 + abs(vals[0])):
        return float(vals[0])
    return None


def invariants_of(x_field: VectorField,
                  params: dict[str, float] | None = None) -> InvariantPair:
    """Closed-form invariants for the supported field families.

    Families: translations a d/dx + b d/dy; scalings x d/dx + a(y - beta) d/dy;
    exponential 1 d/dx + eps(y - beta) d/dy.  xi must not vanish.  Anything
    else raises, and the caller may supply a pair of its own, which is
    validated by exactly the same annihilation and Jacobian checks.
    """
    params = dict(params or {})
    xi = E.simplify(E.bind_params(x_field.xi, params))
    eta = E.simplify(E.bind_params(x_field.eta, params))
    samples = [(0.7, 1.3), (1.9, 0.6), (2.3, 2.1), (1.1, 1.7)]
    xi_c = _is_const(xi, samples)
    if xi_c is not None and xi_c == 0.0:
        raise ReduceError("xi vanishes identically: no reduction in this frame")

    eta_y = E.simplify(diff(eta, "y"))
    eta_yy = diff(eta_y, "y")
    eta_x = diff(eta, "x")
    a_c = _is_const(eta_y, samples)
    linear_in_y = _is_const(eta_yy, samples) == 0.0 and \
        _is_const(eta_x, samples) == 0.0
    c_c = _is_const(subs(eta, {"y": Const(0.0)}), samples)

    if xi_c is not None:
        eta_c = _is_const(eta, samples)
        if eta_c is not None:
            # translation a d/dx + b d/dy: J1 = y - (b/a) x, J2 = x - xm
            slope = eta_c / xi_c
            pair = InvariantPair(
                J1=E.Y - Const(slope) * E.X,
                J2=E.X - E.XM,
                h_expr=Const(slope) * E.X + _A,
                k_expr=E.X - _B,
            )
            return validate_invariants(x_field, pair, params=params)
        if linear_in_y and a_c is not None and a_c != 0.0 and c_c is not None:
            # exponential: xi = s, eta = a (y - beta) with beta = -c/a
            eps = a_c / xi_c
            beta = -c_c / a_c
            expo = E.Call("exp", Const(-eps) * E.X)
            pair = InvariantPair(
                J1=(E.Y - Const(beta)) * expo,
                J2=E.X - E.XM,
                h_expr=Const(beta) + _A * E.Call("exp", Const(eps) * E.X),
                k_expr=E.X - _B,
            )
            return validate_invariants(x_field, pair, params=params)
    if _is_const(E.simplify(xi - E.X), samples) == 0.0 and linear_in_y \
            and a_c is not None and c_c is not None:
        # scaling x d/dx + a(y - beta) d/dy, shifts absorbed
        beta = -c_c / a_c if a_c != 0.0 else 0.0
        pair = InvariantPair(
            J1=(E.Y - Const(beta)) / E.X ** a_c,
            J2=E.XM / E.X,
            h_expr=Const(beta) + _A * E.X ** a_c,
            k_expr=_B * E.X,
        )
        return validate_invariants(x_field, pair, params=params)
    raise ReduceError(
        "unsupported field family; supply user invariants (they are"
        " validated by the same checks)"
    )


def _annihilation(x_field: VectorField, pair: InvariantPair,
                  params: dict[str, float], n: int,
                  seed: int) -> tuple[float, int, int]:
    """The largest |pr X J| over the sampled points, the number of points
    checked and the number where |det d(J1, J2)/d(y, xm)| < 1e-10.

    Points are drawn until n are checked, at most 6n in all.  A point is
    checked where the four coefficients and all eight partials of J1 and J2
    are defined.  |pr X J1| counts where the coefficients and the partials
    of J1 are defined and |pr X J2| at checked points.  A NaN there (inf
    - inf after an overflow) makes the largest value NaN.
    """
    import numpy as np

    kernel = _memoized(
        "annihilation", (x_field.xi, x_field.eta, pair.J1, pair.J2), params,
        lambda: _annihilation_columns(x_field, pair, params))
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = drawn = jac_bad = 0
    while checked < n and drawn < 6 * n:
        # never more rows than still needed or left of the draw budget
        m = min(n - checked, 6 * n - drawn)
        drawn += m
        # (x, y, xm, ym) from the first four columns of the jet box, on
        # which xm < x
        pts = rng.uniform(_JET_BOX[0][:4], _JET_BOX[1][:4], (m, 4))
        out = np.array(kernel(*pts.T))
        c, d1, d2 = out[:4], out[4:8], out[8:]
        defined = np.isfinite(out).reshape(3, 4, m).all(axis=1)
        counts_j1 = defined[0] & defined[1]
        counts_j2 = counts_j1 & defined[2]
        with np.errstate(all="ignore"):
            for d, rows in ((d1, counts_j1), (d2, counts_j2)):
                ann = np.abs(sum(c[i] * d[i] for i in range(4)))
                worst = float(np.max(ann[rows], initial=worst))
            det = d1[1] * d2[2] - d1[2] * d2[1]
        checked += int(counts_j2.sum())
        jac_bad += int(np.sum(np.abs(det[counts_j2]) < 1e-10))
    return worst, checked, jac_bad


def _annihilation_columns(x_field: VectorField, pair: InvariantPair,
                          params: dict[str, float]):
    """One column kernel over (x, y, xm, ym) of the first four prolonged
    coefficients of x_field and the partials of J1 and J2, params bound."""
    coords = ("x", "y", "xm", "ym")
    # the coefficients of x, y, xm and ym come first in JET order
    return compile_columns(
        list(prolong(x_field).coefficients()[:4])
        + [diff(j, v) for j in (pair.J1, pair.J2) for v in coords], coords,
        params)


def validate_invariants(
    x_field: VectorField,
    pair: InvariantPair,
    params: dict[str, float] | None = None,
    n: int = 100,
    seed: int = 42,
) -> InvariantPair:
    """Annihilation by the prolonged field and the Jacobian condition.

    |pr X J| must stay at or below 1e-9 at the sampled points, and
    det d(J1, J2)/d(y, xm) away from zero, otherwise y and xm cannot be
    solved for.
    """
    worst, checked, jac_bad = _annihilation(x_field, pair, dict(params or {}),
                                            n, seed)
    if checked < n:
        raise ReduceError("could not sample enough admissible points")
    if not worst <= 1e-9:  # a NaN fails
        raise ReduceError(
            f"candidate invariants are not annihilated (residual {worst:.3e})"
        )
    if jac_bad:
        raise ReduceError(
            "Jacobian condition fails: d(J1,J2)/d(y,xm) is singular at"
            f" {jac_bad} of {checked} sampled points"
        )
    return pair


def _reduced_residual_exprs(system: DodsSystem, h: Expr, k: Expr):
    """R1, R2 of the ansatz y = h(x), xm = k(x) substituted into the system."""
    hp = diff(h, "x")
    hpp = diff(hp, "x")
    h_at_k = subs(h, {"x": k})
    hp_at_k = subs(hp, {"x": k})
    ansatz = {"y": h, "ym": h_at_k, "dy": hp, "dym": hp_at_k, "xm": k,
              "ddy": hpp}
    f_sub = subs(system.bound(system.f), ansatz)
    g_sub = subs(system.bound(system.g), ansatz)
    r1 = E.simplify(hpp - f_sub)
    r2 = E.simplify(k - g_sub)
    return r1, r2


def _window(interval: tuple[float, float]) -> tuple[float, float]:
    """lo, hi of a finite interval with lo < hi; anything else would
    check the reduced residuals at a single abscissa, or at none."""
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ReduceError(f"interval must be finite with lo < hi, got"
                          f" [{lo}, {hi}]")
    return lo, hi


def reduce_and_solve(
    system: DodsSystem,
    x_field: VectorField,
    pair: InvariantPair,
    guesses: list[tuple[float, float]] | None = None,
    interval: tuple[float, float] | None = None,
    seed: int = 42,
) -> InvariantSolution:
    """Substitute the reduction formulas and solve for the constants.

    The reduced residuals are solved at a reference abscissa, by damped
    Newton from each guess, keeping the root of smallest residual below
    1e-10, then checked for x-independence at ten spread-out abscissae,
    the operational signature that the field really is a symmetry and the
    ansatz valid.
    """
    import numpy as np

    if not pair.can_reduce():
        raise ReduceError(
            "invariant pair carries no reduction formulas; only the"
            " closed-form families (or a user-supplied h, k) reduce"
        )
    lo, hi = _window(interval if interval is not None else (1.0, 2.0))
    pre = check_invariance(system, x_field, n=80, seed=seed, tol=1e-8)
    if not pre.passed:
        raise ReduceError(
            f"field is not a symmetry of the system: {pre.summary()}"
        )
    x_ref = 0.5 * (lo + hi)
    r1, r2 = _reduced_residual_exprs(system, pair.h_expr, pair.k_expr)
    args = ("x", "A", "B")
    r1_fn, r2_fn = (compile_fn(r, args) for r in (r1, r2))
    partials = [compile_fn(diff(r, v), args) for r in (r1, r2)
                for v in ("A", "B")]

    def residual_vec(z):
        a, b = z
        return np.array([r1_fn(x_ref, a, b), r2_fn(x_ref, a, b)])

    def jacobian(z):
        a, b = z
        return np.array([fn(x_ref, a, b) for fn in partials]).reshape(2, 2)

    if guesses is None:
        span = hi - lo
        guesses = [(a, f * span) for a in (-4.5, -3.0, -1.5, -0.5, 0.5, 1.5,
                                           3.0, 4.5)
                   for f in (0.25, 0.5, 0.75)]

    best = None
    for guess in guesses:
        z = np.asarray(guess, dtype=float)
        try:
            fz = residual_vec(z)
        except DomainError:
            continue
        ok = True
        for _ in range(60):
            if np.max(np.abs(fz)) < 1e-13:
                break
            try:
                jac = jacobian(z)
            except DomainError:
                ok = False
                break
            step, *_ = np.linalg.lstsq(jac, -fz, rcond=None)
            lam = 1.0
            improved = False
            for _ in range(25):
                try:
                    trial = z + lam * step
                    ftrial = residual_vec(trial)
                except DomainError:
                    lam *= 0.5
                    continue
                if np.max(np.abs(ftrial)) < np.max(np.abs(fz)) or \
                        np.max(np.abs(ftrial)) < 1e-13:
                    z, fz = trial, ftrial
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        if not ok:
            continue
        res = float(np.max(np.abs(fz)))
        if res < 1e-10 and (best is None or res < best[1]):
            best = (z.copy(), res)
    if best is None:
        raise ReduceError("no root found from any starting guess")
    z, res = best

    # x-independence of the reduced residuals at the root
    spread = 0.0
    for fn in (r1_fn, r2_fn):
        vals = []
        for x in _grid(lo, hi, 10):
            try:
                vals.append(fn(x, float(z[0]), float(z[1])))
            except DomainError:
                continue
        if len(vals) >= 2:
            spread = max(spread, float(np.ptp(vals)))
    if spread > 1e-9:
        raise ReduceError(
            "reduced residuals vary with x (invalid ansatz or not a"
            f" symmetry): spread {spread:.3e}"
        )

    jac = jacobian(z)
    u, s, vt = np.linalg.svd(jac)
    frees: list[str] = []
    s_max = max(float(s[0]), 1e-300)
    for i in range(2):
        if float(s[i]) < 1e-8 * max(s_max, 1.0):
            direction = vt[i]
            frees.append("A" if abs(direction[0]) >= abs(direction[1]) else "B")
    degenerate = False
    if "B" in frees:
        col = jac[:, 1]
        row = np.array([r2_fn(x_ref, z[0], z[1])])
        degenerate = float(np.max(np.abs(col))) < 1e-10 and \
            float(np.max(np.abs(row))) < 1e-10
    a_val, b_val = float(z[0]), float(z[1])
    h_bound = subs(pair.h_expr, {"A": Const(a_val)})
    k_bound = subs(pair.k_expr, {"A": Const(a_val), "B": Const(b_val)})
    return InvariantSolution(
        h=E.simplify(h_bound), k=E.simplify(k_bound), A=a_val, B=b_val,
        residual=res, free_parameters=frees, degenerate_delay=degenerate,
    )


@dataclass
class SolutionVerification:
    grid_residual: float
    integrate_deviation: float | None


def verify_invariant_solution(
    system: DodsSystem,
    sol: InvariantSolution,
    interval: tuple[float, float],
    h_step: float = 1e-3,
    cross_check: bool = True,
) -> SolutionVerification:
    """Grid residual of the exact solution, at 50 points of the interval,
    plus a method-of-steps cross-check.

    The integrator is seeded with the solution restricted to the first
    step (the initial data must already satisfy y = h(x, A)) and the two
    curves compared over the interval.
    """
    lo, hi = _window(interval)
    grid = _grid(lo, hi, 50)
    r1, r2 = (compile_fn(r, ("x",))
              for r in _reduced_residual_exprs(system, sol.h, sol.k))
    grid_res = 0.0
    for x in grid:
        grid_res = max(grid_res, abs(r1(x)), abs(r2(x)))

    deviation = None
    if cross_check:
        k_fn = compile_fn(sol.k, ("x",))
        hist_lo = min(k_fn(x) for x in grid)
        deviation = _exact_drift(system, HistoryFunction(sol.h, (hist_lo, lo)),
                                 hi, h_step)
    return SolutionVerification(grid_residual=grid_res,
                                integrate_deviation=deviation)


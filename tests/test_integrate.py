import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dodesym import expr as E
from dodesym import integrate
from dodesym.dods import FREE_COORDS, DelayKind, DodsSystem, load_dods
from dodesym.expr import DomainError, parse
from dodesym.integrate import (
    DelayViolationError,
    FixedPointError,
    HistoryFunction,
    HistoryUnderrunError,
    IntegrationError,
    StepPlanError,
    Trajectory,
    _ConstantDelay,
    _ExplicitStateDelay,
    _StateDelay,
    _bisect,
    _delay_spec,
    _grid,
    _real_roots,
    _sign_scan,
    _step_plan,
    residual_on_trajectory,
    solve,
    solve_numeric,
)
from tests.conftest import bisect_root


def ramp_history():
    return HistoryFunction.from_text("x", (-1.0, 0.0))


def linear_delay_system():
    # ddy = ym with unit constant delay
    return DodsSystem(f=parse("ym"), g=parse("x-1"))


class DampedReference(_StateDelay):
    """The fixed-point iteration damped by 0.5 that the secant replaced,
    kept as a reference on maps where it converges."""

    def resolve(self, x, y, dy, lookup, prev_xm, hist_lo, completed_end):
        def g_at(s):
            ym, dym = lookup(s)
            return self.g(x, y, ym, dy, dym)

        hi = min(x - 1e-13 * max(1.0, abs(x)), completed_end)
        lo = hist_lo
        xm = min(max(prev_xm, lo), hi)
        for _ in range(100):
            nxt = min(max(0.5 * xm + 0.5 * g_at(xm), lo), hi)
            if abs(nxt - xm) < 5e-13 * max(1.0, abs(xm)):
                assert abs(g_at(nxt) - nxt) < 1e-10
                return nxt, 0, 0
            xm = nxt
        raise AssertionError("damped iteration did not converge")


def stepwise_quadrature_oracle(n_steps: int):
    """Exact solution of ddy = y(x-1), phi = x, dy(0) = 1 by polynomial
    integration interval by interval.  Polynomials in (x - step_start)
    with rational coefficients, so the values are exact.
    """
    # state per interval: polynomial coefficients of y in s = x - k
    polys = [[Fraction(0), Fraction(1)]]  # y = s on [-1, 0] with s = x + 1...
    # work instead with y_k(s) on [k, k+1], s = x - k; history: y(s-1) on
    # interval k uses previous polynomial shifted
    y_prev = [Fraction(-1), Fraction(1)]  # phi(x) = x = (s - 1) on s in [0,1]
    y_val = Fraction(0)
    dy_val = Fraction(1)
    out = []
    for _ in range(n_steps):
        ddy = y_prev  # ddy(s) = y_prev(s)
        dy = _integrate_poly(ddy, dy_val)
        y = _integrate_poly(dy, y_val)
        out.append(y)
        y_val = _eval_poly(y, Fraction(1))
        dy_val = _eval_poly(dy, Fraction(1))
        y_prev = y
    return out


def _integrate_poly(coeffs, constant):
    out = [constant]
    for i, c in enumerate(coeffs):
        out.append(c / (i + 1))
    return out


def _eval_poly(coeffs, s):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * s + c
    return total


class TestOracle:
    def test_first_interval_value(self):
        polys = stepwise_quadrature_oracle(2)
        assert _eval_poly(polys[0], Fraction(1)) == Fraction(2, 3)
        assert _eval_poly(polys[1], Fraction(1)) == Fraction(13, 10)

    def test_integrator_matches_oracle(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 1e-3)
        y1, _ = traj.interpolate(1.0)
        y2, _ = traj.interpolate(2.0)
        assert abs(y1 - 2.0 / 3.0) < 1e-8
        assert abs(y2 - 1.3) < 1e-8


class TestExponentialReference:
    def test_pure_exponential_solution(self, char_root_0011):
        # y = e^(lam x) solves ddy = ym exactly when lam^2 e^lam = 1
        lam = char_root_0011
        system = linear_delay_system()
        phi = HistoryFunction(
            E.bind_params(parse("exp(L*x)"), {"L": lam}), (-1.0, 0.0))
        traj = solve(system, phi, "from-phi", 3.0, 1e-3)
        worst = max(abs(y - math.exp(lam * x)) / math.exp(lam * x)
                    for x, y in zip(traj.xs, traj.ys))
        assert worst < 1e-9


class TestInterpolate:
    def test_breakpoints_are_exact(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.5, 0.01)
        for i in (0, 7, len(traj.xs) - 1):
            y, dy = traj.interpolate(traj.xs[i])
            assert y == traj.ys[i] and dy == traj.dys[i]

    def test_cubic_segments_are_reproduced(self):
        xs = [0.0, 0.5, 1.0]
        cubic = lambda x: x ** 3 - 2 * x ** 2 + 0.5 * x + 1  # noqa: E731
        dcubic = lambda x: 3 * x ** 2 - 4 * x + 0.5  # noqa: E731
        traj = Trajectory(
            xs=xs, ys=[cubic(x) for x in xs], dys=[dcubic(x) for x in xs],
            history=ramp_history(),
        )
        for x in (0.25, 0.4, 0.75):
            y, dy = traj.interpolate(x)
            assert y == pytest.approx(cubic(x), abs=1e-12)
            assert dy == pytest.approx(dcubic(x), abs=1e-12)

    def test_below_history_is_an_error(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.5, 0.01)
        with pytest.raises(HistoryUnderrunError):
            traj.interpolate(-1.5)

    @pytest.mark.parametrize("x_end", [1.5, None])
    def test_just_past_the_newest_node_reads_it(self, x_end):
        # one step per delay can round a delayed point one ulp past the
        # newest node, also when that node is the only one
        if x_end is None:
            traj = Trajectory(xs=[1.0], ys=[2.0], dys=[1.0],
                              history=ramp_history())
        else:
            traj = solve(linear_delay_system(), ramp_history(), 1.0, x_end,
                         0.01)
        x = math.nextafter(traj.xs[-1], math.inf)
        assert traj.interpolate(x) == (traj.ys[-1], traj.dys[-1])

    def test_beyond_computed_range_is_an_error(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.5, 0.01)
        with pytest.raises(IntegrationError):
            traj.interpolate(2.0)

    @pytest.mark.parametrize("x, error, message", [
        (math.nan, IntegrationError, "nan is beyond the computed range"),
        (math.inf, IntegrationError, "inf is beyond the computed range"),
        (2.0, IntegrationError, "2 is beyond the computed range"),
        (-math.inf, HistoryUnderrunError, "-inf is below the covered range"),
        (-1.5, HistoryUnderrunError, "-1.5 is below the covered range"),
    ])
    def test_off_grid_failures_are_named(self, x, error, message):
        # the steppers' rule for a point off the grid: a NaN point is
        # refused, not sent into the Hermite read
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.5, 0.01)
        with pytest.raises(IntegrationError) as err:
            traj.interpolate(x)
        assert type(err.value) is error and str(err.value) == message

    def test_history_reads_down_to_its_rounded_lowest_point(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.5, 0.01)
        for x in (-1.0 - 1e-12, -1.0, -0.25, math.nextafter(0.0, -1.0)):
            assert traj.interpolate(x) == traj.history.value(x)

    def test_second_derivative_of_a_cubic(self):
        # a node reads the segment to its right, the last node its left one
        xs = [0.0, 0.5, 1.0]
        traj = Trajectory(
            xs=xs, ys=[x ** 3 - 2 * x ** 2 for x in xs],
            dys=[3 * x ** 2 - 4 * x for x in xs], history=ramp_history())
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert traj.second_derivative(x) == pytest.approx(6 * x - 4,
                                                              abs=1e-12)
        for x in (-0.1, 1.1, math.nan):
            with pytest.raises(IntegrationError, match="only on the computed"):
                traj.second_derivative(x)

    def test_first_derivative_continuous_at_breakpoints(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 0.05)
        for i in range(1, len(traj.xs) - 1):
            x = traj.xs[i]
            left = traj.interpolate(x - 1e-12)[1]
            right = traj.interpolate(x + 1e-12)[1]
            assert abs(left - right) < 1e-9


class TestResidual:
    def test_exact_trajectory_residual_small(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 1e-3)
        rep = residual_on_trajectory(linear_delay_system(), traj, n=200)
        assert rep.max_residual_dode < 1e-6
        assert rep.max_residual_delay < 1e-14

    def test_perturbed_trajectory_detected(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 1e-3)
        # shift one stretch of the solution; the delayed term then disagrees
        # with the reconstructed second derivative one delay later
        for i, x in enumerate(traj.xs):
            if 0.4 <= x <= 0.6:
                traj.ys[i] += 0.01
        rep = residual_on_trajectory(linear_delay_system(), traj, n=400)
        assert rep.max_residual_dode > 1e-3


    def test_skipped_samples_are_not_counted(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 1e-3)
        # the same law, undefined for x < 1: those samples are skipped
        partial = DodsSystem(f=parse("ym + sqrt(x - 1) - sqrt(x - 1)"),
                             g=parse("x-1"))
        rep = residual_on_trajectory(partial, traj, n=200, seed=42)
        xs = np.random.default_rng(42).uniform(1e-9, 2.0 - 1e-9, size=200)
        used = int(np.sum(xs >= 1.0))
        assert 0 < used < 200
        assert rep.n_samples == used
        assert rep.max_residual_dode < 1e-6
        full = residual_on_trajectory(linear_delay_system(), traj, n=200)
        assert full.n_samples == 200


class TestConvergence:
    def test_fourth_order_on_smooth_history(self):
        system = linear_delay_system()
        phi = HistoryFunction.from_text("sin(x)", (-1.0, 0.0))

        def value(h):
            return solve(system, phi, "from-phi", 2.0, h).interpolate(2.0)[0]

        ref = (16.0 * value(0.00125) - value(0.0025)) / 15.0
        errors = [abs(value(h) - ref) for h in (0.02, 0.01, 0.005)]
        for coarse, fine in zip(errors, errors[1:]):
            ratio = coarse / fine
            assert 16.0 * 0.7 < ratio < 16.0 * 1.3
            assert abs(math.log2(ratio) - 4.0) < 0.3


class TestLinearity:
    def test_superposition(self):
        system = linear_delay_system()
        phi1 = HistoryFunction.from_text("sin(x)", (-1.0, 0.0))
        phi2 = HistoryFunction.from_text("x + 0.3", (-1.0, 0.0))
        c1, c2 = 0.6, -1.7
        combo_phi = HistoryFunction(
            E.Const(c1) * parse("sin(x)") + E.Const(c2) * parse("x + 0.3"),
            (-1.0, 0.0))
        t1 = solve(system, phi1, "from-phi", 2.5, 2e-3)
        t2 = solve(system, phi2, "from-phi", 2.5, 2e-3)
        tc = solve(system, combo_phi, "from-phi", 2.5, 2e-3)
        worst = max(abs(c - (c1 * a + c2 * b))
                    for c, a, b in zip(tc.ys, t1.ys, t2.ys))
        assert worst < 1e-9


class TestStateDependentDelay:
    def test_constant_delay_line_with_g_reading_y_is_state_dependent(self):
        # g decides the kind: the `delay = constant` line is not a promise
        system = load_dods("f = ym\ng = x - 1 - 0.1*y\ndelay = constant\n")
        assert system.delay_kind is DelayKind.STATE_DEPENDENT
        traj = solve(system, ramp_history(), 1.0, 2.0, 1e-2)
        assert traj.n_delay_iterations > 0
        want = solve(DodsSystem(f=parse("ym"), g=parse("x - 1 - 0.1*y")),
                     ramp_history(), 1.0, 2.0, 1e-2)
        assert (traj.xs, traj.ys) == (want.xs, want.ys)

    def test_contractive_fixed_point(self, char_root_0011):
        lam = char_root_0011
        # delay relation xm = x - c ym / y holds with width one on the
        # exponential solution; the iteration map is a contraction there
        system = DodsSystem(
            f=parse("ym"), g=parse("x - C0*(ym/y)"),
            params={"C0": math.exp(lam)},
        )
        phi = HistoryFunction(
            E.bind_params(parse("exp(L*x)"), {"L": lam}), (-1.2, 0.0))
        traj = solve(system, phi, "from-phi", 2.0, 1e-3)
        assert traj.n_fixed_point_fallbacks == 0
        worst = max(abs(y - math.exp(lam * x)) / math.exp(lam * x)
                    for x, y in zip(traj.xs, traj.ys))
        assert worst < 1e-6
        rep = residual_on_trajectory(system, traj, n=150)
        assert rep.max_residual_delay < 1e-10

    def test_secant_on_noncontractive_map(self, char_root_0011):
        lam = char_root_0011
        # steep dependence on ym makes a damped fixed-point iteration
        # diverge for later x; the secant on xm - g needs no fallback
        system = DodsSystem(
            f=parse("ym"), g=parse("x - 1 - 8*(ym - exp(L*(x-1)))"),
            params={"L": lam},
        )
        phi = HistoryFunction(
            E.bind_params(parse("exp(L*x)"), {"L": lam}), (-1.2, 0.0))
        traj = solve(system, phi, "from-phi", 2.0, 2e-3)
        assert traj.n_fixed_point_fallbacks == 0
        worst = max(abs(y - math.exp(lam * x)) / math.exp(lam * x)
                    for x, y in zip(traj.xs, traj.ys))
        assert worst < 1e-6

    @pytest.mark.parametrize("width,g,x_end,h", [
        # g is undefined for xm < x - 0.75, so at the first stage, where
        # the previous delayed point is x0 - 1, and the bracket scan finds
        # the root xm = x - 0.5
        (0.5, "x - 0.5 + 0.1*(sqrt(ym - exp(L*(x - 0.75)))"
              " - sqrt(exp(L*(x - 0.5)) - exp(L*(x - 0.75))))", 2.0, 2e-3),
        # xm - g has a square-root cusp at its root, where the secant
        # steps overshoot and do not converge
        (1.0, "x - 1 + 3*sgn(ym - exp(L*(x - 1)))"
              "*sqrt(abs(ym - exp(L*(x - 1))))", 1.0, 1e-2),
    ])
    def test_bracket_fallback(self, width, g, x_end, h):
        # y = exp(lam x) solves ddy = y(x - width) when lam^2 e^(lam
        # width) = 1, and on it the delay relation gives xm = x - width
        lam = bisect_root(lambda t: t * t * math.exp(t * width) - 1.0,
                          0.1, 2.0)
        system = DodsSystem(f=parse("ym"), g=parse(g), params={"L": lam})
        phi = HistoryFunction(
            E.bind_params(parse("exp(L*x)"), {"L": lam}), (-1.2, 0.0))
        traj = solve(system, phi, "from-phi", x_end, h)
        assert traj.n_fixed_point_fallbacks > 0
        assert traj.warnings == []
        worst = max(abs(y - math.exp(lam * x)) / math.exp(lam * x)
                    for x, y in zip(traj.xs, traj.ys))
        assert worst < 1e-9

    @pytest.mark.parametrize("f,g,params,phi,hist,x_end", [
        ("ym", "x - C0*(ym/y)", {"C0": math.exp(0.7034674224983917)},
         "exp(0.7034674224983917*x)", (-1.2, 0.0), 2.0),
        ("-0.7*ym", "x - 1 - 0.1*sin(y)", {}, "0.4 + 0.3*sin(x)",
         (-1.3, 0.0), 3.0),
    ])
    def test_matches_damped_iteration(self, f, g, params, phi, hist, x_end):
        system = DodsSystem(f=parse(f), g=parse(g), params=params)
        history = HistoryFunction(parse(phi), hist)
        traj = solve(system, history, "from-phi", x_end, 2e-3)
        reference = solve_numeric(
            E.compile_fn(system.bound(system.f),
                         ("x", "y", "xm", "ym", "dy", "dym")),
            DampedReference(_delay_spec(system, None).g, None),
            history, "from-phi", x_end, 2e-3)
        assert traj.xs == reference.xs
        for got, want in ((traj.ys, reference.ys), (traj.dys, reference.dys)):
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
        assert traj.n_fixed_point_fallbacks == 0

    def test_oracle_root_agrees_with_solver(self, char_root_0011):
        assert abs(char_root_0011 ** 2 * math.exp(char_root_0011) - 1.0) < 1e-13

    @pytest.mark.parametrize("roots,prev_xm,root", [
        ((0.2, 0.5, 0.8), 0.1, 0.2), ((0.2, 0.5, 0.8), 0.45, 0.5),
        ((0.2, 0.5, 0.8), 0.75, 0.8), ((0.2, 0.5), 0.4, 0.5)])
    def test_bracket_scan_takes_the_root_nearest_the_previous_point(
            self, roots, prev_xm, root):
        # xm - g = (s - 0.2)(s - 0.5)...: sign changes inside the cells
        # around 0.2 and 0.8, an exact zero at the grid node 0.5
        def g_at(s):
            return s - math.prod(s - r for r in roots)

        warns = []
        xm = _StateDelay(None, warns.append)._bracket_scan(g_at, 0.0, 1.0,
                                                           prev_xm)
        assert warns == [f"state-dependent delay has {len(roots)} candidate"
                         " roots; taking the one nearest the previous"
                         " delayed point"]
        assert abs(xm - root) < 1e-15
        if root == 0.5:
            assert xm == 0.5


def _secant_spec(system, warn):
    """_StateDelay on the g that _delay_spec compiles."""
    return _StateDelay(E.compile_fn(system.g, FREE_COORDS, system.params),
                       warn)


def _outcome(spec_of, f, g, phi, hist, x_end, h):
    """The solve under the delay spec_of(system, warn) gives: the
    trajectory as float.hex rows with its fallbacks, warnings and residual
    report, or the type and message of its failure; and the f evaluations
    made and the g evaluations counted."""
    system = DodsSystem(f=parse(f), g=parse(g))
    kernel = E.compile_fn(system.f, F_ARGS)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    warnings = []
    try:
        traj = solve_numeric(counted, spec_of(system, warnings.append),
                             HistoryFunction(parse(phi), hist), "from-phi",
                             x_end, h)
    except Exception as exc:
        return (type(exc).__name__, str(exc)), calls[0], None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrate, "_delay_spec", spec_of)
        report = residual_on_trajectory(system, traj)
    rows = [[v.hex() for v in vs] for vs in (traj.xs, traj.ys, traj.dys)]
    return ((rows, traj.n_fixed_point_fallbacks, warnings, report),
            calls[0], traj.n_delay_iterations)


#: (f, g, phi, history interval, x_end, h) of state-dependent delays whose
#: g reads no delayed value, and the failures such a g meets
EXPLICIT_CASES = {
    "sin-y": ("-0.7*ym", "x - 1 - 0.1*sin(y)", "0.4 + 0.3*sin(x)",
              (-1.3, 0.0), 3.0, 0.02),
    "dy-squared": ("-ym + 0.2*dym", "x - 1 - 0.05*dy^2", "0.4 + 0.3*sin(x)",
                   (-1.3, 0.0), 3.0, 0.02),
    "pantograph-y": ("-0.7*ym", "0.5*x - 0.01*y", "1 + 0.2*sin(x)",
                     (0.4, 1.0), 3.0, 0.02),
    "g-ahead-at-the-start": ("-ym", "x + 0.1 + 0.01*sin(y)", "1",
                             (-1.0, 0.0), 1.0, 0.1),
    "g-ahead-later": ("-ym", "x - 1 + 2*exp(-50*(x - 1.5)^2) + 0.01*sin(y)",
                      "1", (-1.0, 0.0), 2.0, 0.1),
    "below-the-history": ("ym", "x - 5 - 0.001*y", "x", (-1.0, 0.0), 1.0,
                          0.01),
    "g-undefined": ("-ym", "x - 1 + sqrt(y - 10)", "1", (-1.0, 0.0), 1.0,
                    0.1),
    "g-undefined-later": ("-ym", "x - 1 - 0.1*sin(y) + 0.1*sqrt(1.5 - x)",
                          "1", (-1.0, 0.0), 2.0, 0.1),
}

#: the secant's failure where no root of xm - g lies in its bracket
NO_ROOT_MESSAGE = ("state-dependent delay: no root of xm - g located in the"
                   " admissible bracket")

#: the failure of each EXPLICIT_CASES case that fails: no root is searched
#: for, so the message names xm, or g's error, and the bound broken
EXPLICIT_FAILURES = {
    "g-ahead-at-the-start": "state-dependent delay: xm = 0.108415 is past"
                            " the newest node 0 at x = 0",
    "g-ahead-later": "state-dependent delay: xm = 1.6133 is past the newest"
                     " node 1.3 at x = 1.4",
    "below-the-history": "state-dependent delay: xm = -5 is below the"
                         " history's start -1 at x = 0",
    "g-undefined": "state-dependent delay: g is undefined at x = 0: math"
                   " domain error in '((x - 1) + sqrt((y - 10)))'",
    "g-undefined-later": "state-dependent delay: g is undefined at x = 1.5:"
                         " math domain error in '(((x - 1) - (0.1 * sin(y)))"
                         " + (0.1 * sqrt((1.5 - x))))'",
}


class TestExplicitStateDelay:
    @pytest.mark.parametrize("name", list(EXPLICIT_CASES))
    def test_matches_the_secant(self, name):
        case = EXPLICIT_CASES[name]
        system = DodsSystem(f=parse(case[0]), g=parse(case[1]))
        assert isinstance(_delay_spec(system, None), _ExplicitStateDelay)
        got, n_f, n_g = _outcome(_delay_spec, *case)
        want, want_f, _ = _outcome(_secant_spec, *case)
        if n_g is None:
            # both fail at the same stage; the secant finds no root there
            assert (got[0], n_f) == (want[0], want_f)
            assert want == ("FixedPointError", NO_ROOT_MESSAGE)
            assert got[1] == EXPLICIT_FAILURES[name]
        else:
            assert (got, n_f) == (want, want_f)
            assert n_g == n_f  # one g evaluation per stage
        assert (n_g is None) == (name in EXPLICIT_FAILURES)

    @pytest.mark.parametrize("f,g,phi,hist,h,message", [
        # A2_4's default, whose xm falls below the history at x = 1.46
        ("(y - ym)*sin(dy) + dym", "x - dy^2 - 1", "0.3*x + 0.05*sin(x)",
         (-3.0, 0.0), 0.01, "state-dependent delay: xm = -3.02588 is below"
                            " the history's start -3 at x = 1.46"),
        # behind x at the second stage, yet past the step's start
        ("-ym", "x - 0.001*y^2 - 0.001", "1", (-1.0, 0.0), 0.1,
         "state-dependent delay: xm = 0.048 is past the newest node 0 at"
         " x = 0.05"),
    ])
    def test_a_failure_names_xm_and_its_bound(self, f, g, phi, hist, h,
                                              message):
        system = DodsSystem(f=parse(f), g=parse(g))
        with pytest.raises(FixedPointError) as err:
            solve(system, HistoryFunction(parse(phi), hist), "from-phi", 3.0,
                  h)
        assert str(err.value) == message

    @pytest.mark.parametrize("g,explicit", [
        ("x - 1 - 0.1*sin(y)*dy", True), ("x - 1 - 0.1*ym", False),
        ("x - 1 - 0.1*dym", False), ("x - 1 - 0.1*sin(y)*ym*dym", False)])
    def test_a_g_reading_a_delayed_value_keeps_the_secant(self, g, explicit):
        spec = _delay_spec(DodsSystem(f=parse("-ym"), g=parse(g)), None)
        assert type(spec) is (_ExplicitStateDelay if explicit else
                              _StateDelay)

    @pytest.mark.parametrize("g,x,y,completed_end,xm", [
        ("x - y", 0.0, 1.0, 0.0, -1.0),          # at the start of the history
        ("x - y", 0.0, 1.0 + 2.0 ** -40, 0.0,    # below it
         "xm = -1 is below the history's start -1 at x = 0"),
        ("x - y", 2.0, 0.5, 1.5, 1.5),           # at the newest node
        ("x - y", 2.0, 0.5 - 2.0 ** -40, 1.5,    # past it
         "xm = 1.5 is past the newest node 1.5 at x = 2"),
        ("x - y", 2.0, 2e-13, 2.0, 2.0 - 2e-13),  # 1e-13 relative behind x
        ("x - y", 2.0, 1e-13, 2.0, "xm = 2 is not below x = 2"),  # closer
        ("x - sqrt(y)", 2.0, -1.0, 2.0,          # g undefined
         "g is undefined at x = 2: math domain error in '(x - sqrt(y))'"),
    ])
    def test_one_evaluation_inside_the_bracket(self, g, x, y, completed_end,
                                               xm):
        # the bracket is the secant's: from the start of the history to
        # min(x - 1e-13 max(1, |x|), the newest node)
        def refuse(s):
            raise AssertionError("dense output read")

        spec = _delay_spec(DodsSystem(f=parse("-ym"), g=parse(g)), None)
        args = (x, y, 0.0, refuse, 0.5, -1.0, completed_end)
        if isinstance(xm, str):
            with pytest.raises(FixedPointError) as err:
                spec.resolve(*args)
            assert str(err.value) == f"state-dependent delay: {xm}"
        else:
            assert spec.resolve(*args) == (xm, 1, 0)

    def test_history_undefined_where_the_secant_starts(self):
        # phi is undefined at x0 - 1, the first stage's warm start: the
        # secant falls back to the bracket scan there and bisects xm - g to
        # the same xm; the explicit delay reads no history to find it
        case = ("-0.7*ym", "x - 0.5 - 0.1*sin(y)", "1/(x + 1)", (-2.0, 0.0),
                1.0, 0.01)
        got, n_f, n_g = _outcome(_delay_spec, *case)
        want, want_f, _ = _outcome(_secant_spec, *case)
        assert (got[0], got[2], got[3], n_f) == (want[0], want[2], want[3],
                                                 want_f)
        assert (got[1], want[1]) == (0, 1)
        assert n_g == n_f

    def test_history_undefined_at_xm(self):
        # phi is undefined at the first warm start and at xm: the secant's
        # scan found no root, the explicit delay reads the history at xm
        case = ("-0.7*ym", "x - 0.75 - 0.1*sin(y)", "1 + sqrt(x + 0.6)",
                (-2.0, 0.0), 0.3, 0.01)
        assert _outcome(_secant_spec, *case)[0][0] == "FixedPointError"
        assert _outcome(_delay_spec, *case)[0] == (
            "DomainError", "math domain error in '(1 + sqrt((x + 0.6)))'")


#: a window end: any finite float, or one within a few subnormals of zero,
#: so that two of them can be a subnormal width apart
_WINDOW_ENDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-320, max_value=1e-320))


@settings(max_examples=400, deadline=None)
@given(lo=_WINDOW_ENDS, hi=_WINDOW_ENDS, n=st.integers(2, 5000))
@example(lo=-3.0, hi=3.0, n=401)
@example(lo=0.0, hi=5e-324, n=4001)  # a step of zero
@example(lo=-1e300, hi=1e300, n=17)
@example(lo=-1.7e308, hi=1.7e308, n=3)  # a width past the float range
@example(lo=1.0, hi=1.0, n=2)
def test_grid_is_numpys_linspace_bit_for_bit(lo, hi, n):
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, n).tolist()
    got = _grid(lo, hi, n)
    assert all(type(s) is float for s in got)
    assert [s.hex() for s in got] == [s.hex() for s in want]


class TestSignScanAndBisect:
    def test_brackets_in_grid_order(self):
        # nodes 0, 0.25, ..., 1; raises at 0.5, zero at 0.75 (next to the
        # NaN) and at the last node, one sign change between 0 and 0.25
        values = {0.0: -1.0, 0.25: 2.0, 0.75: 0.0, 1.0: 0.0}

        def fn(s):
            if s == 0.5:
                raise ZeroDivisionError
            return values[s]

        grid, vals, brackets = _sign_scan(fn, 0.0, 1.0, 4,
                                          errors=(ZeroDivisionError,))
        assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(type(s) is float for s in grid)
        assert vals[:2] == [-1.0, 2.0] and math.isnan(vals[2])
        assert brackets == [(0.0, 0.25), (0.75, 0.75), (1.0, 1.0)]

    def test_zero_tolerance_and_strict_signs(self):
        _, _, brackets = _sign_scan(lambda s: s - 0.5, 0.0, 1.0, 2)
        assert brackets == [(0.5, 0.5)]
        # an exact zero ends no cell; a nonzero value within zero still does
        _, _, brackets = _sign_scan(lambda s: s - 0.5 + 1e-14, 0.0, 1.0, 2,
                                    zero=1e-13)
        assert brackets == [(0.0, 0.5), (0.5, 0.5)]
        _, _, brackets = _sign_scan(lambda s: s - 0.5 + 1e-14, 0.0, 1.0, 2)
        assert brackets == [(0.0, 0.5)]

    def test_unlisted_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            _sign_scan(lambda s: 1.0 / s, 0.0, 1.0, 4)

    @pytest.mark.parametrize("root", [1.5e308, -1e-300, 0.3, 7e200])
    def test_bisect_collapses_any_finite_bracket(self, root):
        got = _bisect(lambda s: s - root, -1.7e308, 1.7e308)
        assert abs(got - root) <= 1e-16 * max(1.0, abs(root))


class TestRealRoots:
    def test_touching_zero_inside_a_cell_is_one_double_root(self):
        # no node is a root and no cell changes sign
        roots = _real_roots(lambda s: (s - 0.33) ** 2, lambda s: 2 * (s - 0.33),
                            0.0, 1.0, 10)
        assert len(roots) == 1
        r, double, a, b = roots[0]
        assert double and r == pytest.approx(0.33, abs=1e-15)
        assert a < r < b

    def test_two_roots_inside_one_cell_are_split(self):
        roots = _real_roots(lambda s: (s - 0.33) ** 2 - 1e-8,
                            lambda s: 2 * (s - 0.33), 0.0, 1.0, 10)
        assert [r for r, _, _, _ in roots] == pytest.approx(
            [0.33 - 1e-4, 0.33 + 1e-4], abs=1e-15)
        assert not any(double for _, double, _, _ in roots)
        # both lie in the cell [0.3, 0.4], on either side of the minimum
        assert roots[0][3] == roots[1][2] == pytest.approx(0.33, abs=1e-15)

    def test_roots_on_grid_nodes(self):
        assert _real_roots(lambda s: s - 0.5, lambda s: 1.0,
                           0.0, 1.0, 10) == [(0.5, False, 0.5, 0.5)]
        assert _real_roots(lambda s: (s - 0.5) ** 2, lambda s: 2 * (s - 0.5),
                           0.0, 1.0, 10) == [(0.5, True, 0.5, 0.5)]
        # a node within zero that also ends a sign change is one root
        roots = _real_roots(lambda s: s - 0.5 + 1e-14, lambda s: 1.0,
                            0.0, 1.0, 2, zero=1e-13)
        assert [(r, double) for r, double, _, _ in roots] == [
            (_bisect(lambda s: s - 0.5 + 1e-14, 0.0, 0.5), False)]

    @pytest.mark.parametrize("p,q", [(0.95, 0.97), (0.03, 0.05)])
    def test_two_roots_inside_an_end_cell_are_split(self, p, q):
        # the end node is the dip: its missing outer neighbour counts as
        # farther from zero, and the derivative is bisected inside the cell
        roots = _real_roots(lambda s: (s - p) * (s - q),
                            lambda s: 2 * s - p - q, 0.0, 1.0, 10)
        assert [r for r, _, _, _ in roots] == pytest.approx([p, q],
                                                            abs=1e-15)
        assert not any(double for _, double, _, _ in roots)
        assert all(0.0 <= a < r < b <= 1.0 for r, _, a, b in roots)

    @pytest.mark.parametrize("q", [0.505, 0.595])
    def test_second_root_in_the_cell_beside_a_root_node(self, q):
        roots = _real_roots(lambda s: (s - 0.5) * (s - q),
                            lambda s: 2 * s - 0.5 - q, 0.0, 1.0, 10)
        assert len(roots) == 2
        assert roots[0] == (0.5, False, 0.5, 0.5)
        r, double, a, b = roots[1]
        assert not double and r == pytest.approx(q, abs=1e-15)
        # bisected between the extremum and the node after it
        assert a == pytest.approx((0.5 + q) / 2, abs=1e-15)
        assert b == np.linspace(0.0, 1.0, 11)[6]

    def test_where_fn_or_its_derivative_is_undefined_is_skipped(self):
        def fn(s):
            if 0.6 <= s <= 0.9:
                raise DomainError("undefined")
            return (s - 0.33) * (s - 0.77)

        roots = _real_roots(fn, lambda s: 2 * s - 1.1, 0.0, 1.0, 10)
        assert [r for r, _, _, _ in roots] == pytest.approx([0.33], abs=1e-15)

        def undefined(s):
            raise DomainError("undefined")

        assert _real_roots(lambda s: (s - 0.33) ** 2 - 1e-8, undefined,
                           0.0, 1.0, 10) == []

    def test_roots_in_adjacent_cells_keep_their_bisected_values(self):
        # node 0.3 lies between the two roots: two sign changes
        def fn(s):
            return (s - 0.3) ** 2 - 1e-8

        grid = np.linspace(0.0, 1.0, 11).tolist()
        assert _real_roots(fn, lambda s: 2 * (s - 0.3), 0.0, 1.0, 10) == [
            (_bisect(fn, grid[2], grid[3]), False, grid[2], grid[3]),
            (_bisect(fn, grid[3], grid[4]), False, grid[3], grid[4]),
        ]


class TestCounters:
    def test_constant_delay_needs_no_iterations(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 1e-2)
        steps = len(traj.xs) - 1
        assert traj.n_rhs_evals == 4 * steps
        assert traj.n_delay_iterations == 0
        assert traj.n_fixed_point_fallbacks == 0

    def test_state_delay_iterations(self):
        system = DodsSystem(f=parse("-0.7*ym"), g=parse("x - 1 - 0.1*sin(y)"))
        history = HistoryFunction.from_text("0.4 + 0.3*sin(x)", (-1.3, 0.0))
        traj = solve(system, history, "from-phi", 2.0, 1e-2)
        again = solve(system, history, "from-phi", 2.0, 1e-2)
        assert traj.n_rhs_evals == 4 * (len(traj.xs) - 1)
        # g does not read the delayed state: one g evaluation per resolution
        assert traj.n_delay_iterations == traj.n_rhs_evals
        assert (again.n_rhs_evals, again.n_delay_iterations) == \
            (traj.n_rhs_evals, traj.n_delay_iterations)

    @pytest.mark.parametrize("g,params,n_iter", [
        ("x - C0*(ym/y)", {"C0": math.exp(0.7034674224983917)}, 15999),
        ("x - 1 - 8*(ym - exp(L*(x-1)))", {"L": 0.7034674224983917}, 14000),
    ])
    def test_implicit_delay_iterations(self, g, params, n_iter):
        # the secant accepts the first iterate where |xm - g| < 1e-12
        system = DodsSystem(f=parse("ym"), g=parse(g), params=params)
        history = HistoryFunction(parse("exp(0.7034674224983917*x)"),
                                  (-1.2, 0.0))
        traj = solve(system, history, "from-phi", 2.0, 2e-3)
        assert (traj.n_rhs_evals, traj.n_delay_iterations,
                traj.n_fixed_point_fallbacks) == (4000, n_iter, 0)

    def test_iterations_count_every_g_evaluation(self):
        system = DodsSystem(f=parse("-0.7*ym"), g=parse("x - 1 - 0.1*sin(y)"))
        spec = _delay_spec(system, None)
        calls = []

        def g(*args):
            calls.append(args)
            return spec.g(*args)

        history = HistoryFunction.from_text("0.4 + 0.3*sin(x)", (-1.3, 0.0))
        traj = solve_numeric(
            E.compile_fn(system.bound(system.f),
                         ("x", "y", "xm", "ym", "dy", "dym")),
            _StateDelay(g, None), history, "from-phi", 1.0, 1e-2)
        assert traj.n_delay_iterations == len(calls)

    def test_constant_delay_is_found_once_per_solve(self, monkeypatch):
        calls = []
        real = DodsSystem.constant_delay
        monkeypatch.setattr(DodsSystem, "constant_delay",
                            lambda self: (calls.append(self), real(self))[1])
        system = DodsSystem(f=parse("-ym"), g=parse("x - 1"))
        solve(system, ramp_history(), 1.0, 2.0, 1e-2)
        assert calls == [system]

    def test_platoon_delay_spec(self):
        traj = solve_numeric(lambda x, y, xm, ym, dy, dym: ym,
                             _ConstantDelay(1.0), ramp_history(), 1.0, 2.0,
                             1e-2)
        want = solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 1e-2)
        assert (traj.xs, traj.ys, traj.dys) == (want.xs, want.ys, want.dys)
        assert traj.n_delay_iterations == 0


class TestErrors:
    def test_delay_violation(self):
        system = DodsSystem(f=parse("ym"), g=parse("x+1"))
        with pytest.raises(DelayViolationError):
            solve(system, ramp_history(), 1.0, 2.0, 1e-2)

    def test_history_underrun(self):
        short = HistoryFunction.from_text("x", (-0.25, 0.0))
        with pytest.raises(HistoryUnderrunError):
            solve(linear_delay_system(), short, 1.0, 1.0, 1e-2)

    def test_noncovered_state_delay_fails(self):
        system = DodsSystem(
            f=parse("ym"), g=parse("x - 5 - 0.001*y"),
        )
        with pytest.raises((FixedPointError, HistoryUnderrunError,
                            DelayViolationError)):
            solve(system, ramp_history(), 1.0, 1.0, 1e-2)

    def test_from_phi_initial_slope(self):
        traj = solve(linear_delay_system(),
                     HistoryFunction.from_text("sin(x)", (-1.0, 0.0)),
                     "from-phi", 0.5, 1e-2)
        assert traj.dys[0] == pytest.approx(math.cos(0.0), rel=1e-14)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            solve(linear_delay_system(), ramp_history(), 1.0, 2.0, 0.0)


class TestStepPlanBounds:
    def test_more_than_a_million_steps_is_refused(self):
        # g = x - 1e-7 with h = 0.01: ten million steps of 1e-7
        with pytest.raises(StepPlanError, match=(
                r"^the plan from 0 to 1 \(tau = 1e-07, h = 0.01\) takes"
                r" 10000000 steps, more than 1000000$")):
            _step_plan(0.0, 1.0, 0.01, 1e-7)
        with pytest.raises(StepPlanError, match=r"^the plan from 0 to 1"
                                                r" \(h = 1e-07\)"):
            _step_plan(0.0, 1.0, 1e-7)
        with pytest.raises(StepPlanError, match="1000001 steps"):
            _step_plan(0.0, 1e6 + 1, 1.0)
        # a million steps is planned; the lazy plan takes none here
        _step_plan(0.0, 1e6, 1.0)
        _step_plan(0.0, 1e6, 1.0, 2.0)

    def test_step_that_does_not_advance_x_is_refused(self):
        # 1e17 + 1 == 1e17 at x0
        with pytest.raises(StepPlanError, match=(
                r"^a step of 1 \(tau = 2, h = 1\) does not advance x"
                r" at 1e\+17$")):
            _step_plan(1e17, 1e17 + 1024, 1.0, 2.0)
        # x0 advances but x_end, past 2^53, does not
        with pytest.raises(StepPlanError, match=(
                r"^a step of 1 \(h = 1\) does not advance x at 9.0072e\+15$")):
            _step_plan(2.0**53 - 100, 2.0**53 + 100, 1.0)

    def test_half_an_ulp_is_refused(self):
        # past 2^53 the ulp is 2: a step of 1 advances x from 2^53 + 2 only
        # to the even 2^53 + 4, where it stalls, though x + 1 != x at both
        # ends
        x0, x_end = 2.0**53 + 2, 2.0**53 + 10
        assert x0 + 1.0 != x0 and x_end + 1.0 != x_end
        with pytest.raises(StepPlanError, match=(
                r"^a step of 1 \(h = 1\) does not advance x at 9.0072e\+15$")):
            _step_plan(x0, x_end, 1.0)
        # just over half an ulp advances from every mantissa
        steps = list(_step_plan(x0, x_end, 1.0 + 2.0**-52))
        assert [x for x, _ in steps] == [x0 + 2 * k for k in range(4)]

    @pytest.mark.parametrize("x_end,h,tau,shown", [
        (math.nan, 0.1, None, "(h = 0.1)"), (math.inf, 0.1, 1.0,
                                             "(tau = 1, h = 0.1)"),
        (1.0, math.nan, None, "(h = nan)"), (1.0, math.inf, 0.5,
                                             "(tau = 0.5, h = inf)"),
        (1.0, 0.1, math.inf, "(tau = inf, h = 0.1)"),
        (1.0, 0.1, math.nan, "(tau = nan, h = 0.1)")])
    def test_a_plan_that_is_not_finite_is_refused(self, x_end, h, tau,
                                                  shown):
        with pytest.raises(StepPlanError) as info:
            _step_plan(0.0, x_end, h, tau)
        assert str(info.value) == \
            f"the plan from 0 to {x_end:g} {shown} is not finite"

    @pytest.mark.parametrize("g", ["x - 1", "0.5*x", "x - 1 - 0.1*sin(y)"])
    def test_solve_without_an_end_takes_no_step(self, g):
        # NaN compares false with every edge: without the refusal, the
        # solve would end at once and look successful
        calls = [0]

        def f_eval(*args):
            calls[0] += 1
            return 0.0

        system = DodsSystem(f=parse("-ym"), g=parse(g))
        for run in (lambda: solve(system, ramp_history(), 0.0, math.nan, 0.1),
                    lambda: solve_numeric(f_eval, _delay_spec(system, None),
                                          ramp_history(), 0.0, math.nan,
                                          0.1)):
            with pytest.raises(StepPlanError, match="to nan .* is not finite$"):
                run()
        assert calls[0] == 0

    def test_solve_refuses_before_the_first_step(self):
        system = DodsSystem(f=parse("-ym"), g=parse("x - 1e-7"))
        calls = [0]

        def f_eval(*args):
            calls[0] += 1
            return 0.0

        with pytest.raises(StepPlanError):
            solve_numeric(f_eval, _delay_spec(system, None), ramp_history(),
                          0.0, 1.0, 0.01)
        assert calls[0] == 0


class TestCsv:
    def test_header_and_precision(self):
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.2, 0.05)
        text = traj.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "x,y,dy"
        assert len(lines) == len(traj.xs) + 1
        x, y, dy = (float(v) for v in lines[-1].split(","))
        assert x == traj.xs[-1] and y == traj.ys[-1] and dy == traj.dys[-1]


class TestHistoryFunction:
    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            HistoryFunction(parse("x"), (0.0, 0.0))


# ---------------------------------------------------------------------------
# the stepper against the per-stage driver


F_ARGS = ("x", "y", "xm", "ym", "dy", "dym")
ONE_STEP_PER_DELAY = Path(__file__).resolve().parent.parent / "examples" \
    / "one_step_per_delay.txt"


def _seeded(seed, g):
    """A system of delay g whose f and history take seeded coefficients."""
    a, b, c, d, p, q, w = np.random.default_rng(seed).uniform(
        -1.0, 1.0, 7).tolist()
    system = DodsSystem(f=parse("a*ym + b*dym - c*y*ym + d*sin(x)*dy"),
                        g=parse(g), params={"a": a, "b": b, "c": c, "d": d})
    phi = f"{p!r} + {q!r}*sin({2.0 + w!r}*x)"
    return system, phi


def _run(per_stage, system, phi, hist, dy0, x_end, h, f_eval=None):
    """The trajectory of solve, or with per_stage of solve_numeric on f_eval
    or the kernel solve compiles, as float.hex rows, with its counters and
    warnings."""
    history = HistoryFunction(parse(phi), hist)
    if per_stage:
        warnings = []
        traj = solve_numeric(
            f_eval or E.compile_fn(system.f, F_ARGS, system.params),
            integrate._delay_spec(system, warnings.append), history, dy0,
            x_end, h)
    else:
        traj = solve(system, history, dy0, x_end, h)
        warnings = traj.warnings
    return ([[v.hex() for v in vs] for vs in (traj.xs, traj.ys, traj.dys)],
            traj.n_rhs_evals, traj.n_delay_iterations,
            traj.n_fixed_point_fallbacks, warnings)


#: (g, history interval, x_end, h) of seeded systems
PLANNED_CASES = {
    # h does not divide tau: steps of tau / 3 that do not land on nodes
    "constant-h-not-dividing": ("x - 0.7", (-0.7, 0.0), 2.5, 0.3),
    "constant-fine": ("x - 1", (-1.0, 0.0), 3.3, 0.015),
    # one step per delay, where the newest-node clamp applies
    "one-step-per-delay": ("x - 0.9", (-0.7, 0.2), 4.0, 0.9),
    "one-step-h-past-tau": ("x - 0.35", (-0.5, 0.0), 3.0, 1.3),
    # x_end inside the first delay: every point in the history
    "inside-first-delay": ("x - 1", (-1.0, 0.0), 0.55, 0.01),
    # pantograph g = q x crossing x = 1/q, where xm leaves the history
    "pantograph-half": ("0.5*x", (0.5, 1.0), 3.0, 0.05),
    "pantograph-on-nodes": ("0.5*x", (0.5, 1.0), 3.0, 0.25),
    "pantograph-0.8": ("0.8*x", (0.8, 1.0), 1.6, 0.03),
    "independent-sin": ("x - 1 - 0.2*sin(x)", (-1.0, 0.0), 2.5, 0.02),
    # the unplanned kind runs in the same loop, placing a point per stage
    "state": ("x - 1 - 0.1*sin(y)", (-1.3, 0.0), 2.0, 0.02),
}


class TestStagePlan:
    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("name", list(PLANNED_CASES))
    def test_matches_the_per_stage_driver(self, name, seed):
        g, hist, x_end, h = PLANNED_CASES[name]
        system, phi = _seeded(seed, g)
        args = (system, phi, hist, "from-phi", x_end, h)
        assert _run(False, *args) == _run(True, *args)

    def test_one_step_per_delay_example(self):
        system = load_dods(ONE_STEP_PER_DELAY.read_text())
        for x_end in (2.0, 9.0):
            args = (system, "1", (-0.7, 0.2), "from-phi", x_end, 0.9)
            assert _run(False, *args) == _run(True, *args)

    def test_one_step_per_delay_plans_past_the_newest_node(self):
        # the example's last delayed point of a step rounds past the newest
        # node: it reads that node, and the next step reads its own point
        # 0.  Under the code of a delay g(x), here a counted x - 0.9, the
        # stepper takes the constant delay's plan and places its points
        system = load_dods(ONE_STEP_PER_DELAY.read_text())
        phi = HistoryFunction(parse("1"), (-0.7, 0.2))
        make, args = E._point_kernel(system.f, F_ARGS, system.params)._made
        times = []

        def delay(x):
            times.append(x)
            return x - 0.9

        grid, ys, dys = [0.2], [1.0], [0.0]
        steps = list(_step_plan(0.2, 9.0, 0.9, 0.9))
        integrate._stepper(make, integrate._IndependentDelay.xm)(*args)(
            steps, grid, ys, dys, delay, phi.value, -0.7 - 1e-12)
        want = solve(system, phi, "from-phi", 9.0, 0.9)
        assert (grid, ys, dys) == (want.xs, want.ys, want.dys)
        past = [k for k in range(len(steps) - 1)
                if grid[k + 1] - 0.9 > grid[k]]
        assert past
        read = []
        for k, (x, step) in enumerate(steps):
            if k == 0 or k - 1 in past:
                read.append(x)
            read += [x + 0.5 * step, x + step]
        assert times == read
        assert len(times) == 2 * len(steps) + 1 + len(past)

    def test_the_stepper_calls_no_kernel_of_f(self, monkeypatch):
        # solve takes f's factory from the memo, past a wrapper of
        # compile_fn, and inlines f: the wrapper's kernel is never called
        calls = [0]
        compile_fn = integrate.compile_fn
        system, phi = _seeded(3, "x - 1 - 0.2*sin(x)")

        def wrapped(e, *args):
            kernel = compile_fn(e, *args)
            if e is not system.f:
                return kernel

            def counted(*a):
                calls[0] += 1
                return kernel(*a)

            return counted

        args = (system, phi, (-1.0, 0.0), "from-phi", 2.5, 0.02)
        want = _run(False, *args)
        monkeypatch.setattr(integrate, "compile_fn", wrapped)
        assert _run(False, *args) == want and calls == [0]


class TestStepperShapes:
    def test_constants_share_one_exec(self, monkeypatch):
        sources = []
        monkeypatch.setattr(integrate, "exec", lambda src, ns: (
            sources.append(src), exec(src, ns)), raising=False)
        for c in (0.7, 1.3):
            system = DodsSystem(f=parse(f"{c!r}*ym + 0.25*dy*sin(x)"),
                                g=parse("x - 1"))
            args = (system, "1 + x", (-1.0, 0.0), "from-phi", 2.0, 0.05)
            assert _run(False, *args) == _run(True, *args)
        assert len(sources) == 1
        # the kernel's statements, once per stage
        assert sources[0].count("sin(") == 4

    def test_each_delay_kind_has_its_stepper(self, monkeypatch):
        sources = []
        monkeypatch.setattr(integrate, "exec", lambda src, ns: (
            sources.append(src), exec(src, ns)), raising=False)
        for g in ("x - 1", "x - 1 - 0.2*sin(x)", "x - 0.5",
                  "x - 1 - 0.1*sin(y)", "x - 1 - 0.1*ym"):
            solve(DodsSystem(f=parse("-ym"), g=parse(g)), ramp_history(),
                  0.0, 1.0, 0.1)
        # the two state specs share one stepper, which places a point at
        # each of the four stages and keeps none
        assert [src.count("_a2 = _a0 - delay") for src in sources] == [3, 0,
                                                                       0]
        assert sources[1].count("_a2 = delay(_a0)") == 3
        assert sources[2].count("_a2 = delay(_a0, _a1, _a4)") == 4
        assert "keep" in sources[0] and "keep" not in sources[2]

    def test_undefined_f_names_its_params(self):
        # f is undefined past x = 1.234: the stepper's rejection names f
        # with its params in place, as the point kernel's DomainError does
        case = ("a*ym + b*sqrt(c - x)", "x - 1", "1", (-1.0, 0.0), 0.0, 2.0,
                0.1, {"a": -0.7, "b": 0.3, "c": 1.234})
        got = _failure(False, *case)
        assert got == _failure(True, *case)
        assert got == (
            "StepRejectionError", "right-hand side not evaluable at x = 1.25:"
            " math domain error in '((-0.7 * ym) + (0.3 * sqrt((1.234 -"
            " x))))'", 50)


def _failure(per_stage, f, g, phi, hist, dy0, x_end, h, params=None):
    """(type, message, f evaluations made) of the failure of solve, or with
    per_stage of solve_numeric; the stepper reports its evaluations on the
    exception, and solve_numeric's are counted."""
    system = DodsSystem(f=parse(f), g=parse(g), params=params or {})
    kernel = E.compile_fn(system.f, F_ARGS, system.params)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    with pytest.raises(Exception) as info:
        _run(per_stage, system, phi, hist, dy0, x_end, h, f_eval=counted)
    made = calls[0] if per_stage else info.value.n_rhs_evals
    return type(info.value).__name__, str(info.value), made


#: (f, g, phi, history interval, dy0, x_end, h) and the failure's type
FAILURES = {
    "f-at-first-stage": (("ln(ym)", "0.5*x", "x - 0.9", (0.5, 1.0),
                          "from-phi", 3.0, 0.05), "StepRejectionError"),
    "f-at-a-half-step": (("ym*sqrt(1.234 - x)", "x - 1", "1", (-1.0, 0.0),
                          1.0, 2.0, 0.1), "StepRejectionError"),
    "g-undefined": (("-ym", "0.5*x + 0.1*sqrt(1.72 - x)", "1", (0.5, 1.0),
                     0.0, 2.0, 0.1), "DomainError"),
    "violation-at-start": (("-ym", "x + 0.5*sin(x) + 0.1", "1", (-1.0, 0.0),
                            0.0, 2.0, 0.1), "DelayViolationError"),
    "violation-later": (("-ym", "x - 1 + 2*exp(-50*(x - 1.5)^2)", "1",
                         (-1.0, 0.0), 0.0, 2.0, 0.1), "DelayViolationError"),
    "underrun-constant": (("-ym", "x - 1", "1", (-0.5, 0.0), 0.0, 2.0,
                           0.1), "HistoryUnderrunError"),
    "underrun-at-stage-4": (("ym", "-x - 0.5", "1", (-0.55, 0.0), 0.0, 1.0,
                             0.1), "HistoryUnderrunError"),
    "beyond-the-computed-range": (("-ym", "0.99*x", "1", (0.99, 1.0), 0.0,
                                   2.0, 0.05), "IntegrationError"),
    "history-undefined": (("-ym", "x - 1", "sqrt(x + 0.5)", (-1.0, 0.0),
                           0.0, 2.0, 0.1), "DomainError"),
    # stage 1's f fails where stage 4's point would fail too
    "f-before-an-underrun": (("ln(dy)", "-x - 0.5", "1", (-0.55, 0.0), -1.0,
                              1.0, 0.1), "StepRejectionError"),
    "f-before-g": (("ln(dy)", "0.5*x + 0.1*sqrt(1.05 - x)", "1", (0.5, 1.0),
                    -1.0, 2.0, 0.1), "StepRejectionError"),
    # stage 3 fails at the time and point of stage 2, which did not
    "f-at-stage-3": (("sqrt(dy) - 20*x", "x - 1", "1", (-1.0, 0.0), 0.5,
                      2.0, 0.1), "StepRejectionError"),
    # a square overflows at x = 1.35, stage 2 of the 14th step, for each
    # delay kind
    "square-overflow": (("-ym + exp(-(1e154*x)^2)", "x - 1", "1",
                         (-1.0, 0.0), 0.0, 2.0, 0.1), "StepRejectionError"),
    "square-overflow-independent": (("-ym + exp(-(1e154*x)^2)", "0.5*x", "1",
                                     (0.5, 1.0), 0.0, 2.0, 0.1),
                                    "StepRejectionError"),
    "square-overflow-state": (("-ym + exp(-(1e154*x)^2)", "x - 0.5 - 0.1*y",
                               "1", (-1.0, 0.0), 0.0, 2.0, 0.1),
                              "StepRejectionError"),
}


class TestFailureParity:
    @pytest.mark.parametrize("name", list(FAILURES))
    def test_same_failure_at_the_same_stage(self, name):
        case, kind = FAILURES[name]
        got = _failure(False, *case)
        assert got == _failure(True, *case)
        assert got[0] == kind

    def test_stage_four_point_of_the_first_step_fails(self):
        # the per-stage driver pins the stage: stages 1 and 2 evaluate f
        # first
        case, _ = FAILURES["underrun-at-stage-4"]
        assert _failure(False, *case) == (
            "HistoryUnderrunError", "-0.6 is below the covered range", 3)

    def test_stage_three_fails_where_stage_two_did_not(self):
        # the third step's stages 2 and 3 share x = 0.25 and their point
        case, _ = FAILURES["f-at-stage-3"]
        assert _failure(False, *case) == (
            "StepRejectionError", "right-hand side not evaluable at x ="
            " 0.25: math domain error in '(sqrt(dy) - (20 * x))'", 11)

    def test_an_overflowing_square_fails_as_pow_did(self):
        # the inlined product raises math.pow's OverflowError text
        case, _ = FAILURES["square-overflow"]
        assert _failure(False, *case) == (
            "StepRejectionError", "right-hand side not evaluable at x ="
            " 1.35: math range error in '((-ym) + exp((-((1e+154 * x) ^"
            " 2))))'", 54)


class TestReadCounts:
    def test_constant_delay_reads_the_history_twice_a_step(self, monkeypatch):
        calls = [0]
        value = HistoryFunction.value

        def counted(history, x):
            calls[0] += 1
            return value(history, x)

        monkeypatch.setattr(HistoryFunction, "value", counted)
        traj = solve(linear_delay_system(), ramp_history(), 1.0, 1.0, 0.01)
        steps = len(traj.xs) - 1
        assert steps == 100
        assert calls[0] <= 2 * steps + 2

    @pytest.mark.parametrize("g,hist", [("x - 1", (-1.0, 0.0)),
                                        ("0.5*x", (0.5, 1.0)),
                                        ("x - 1 - 0.2*sin(x)", (-1.0, 0.0))])
    def test_planned_delays_never_interpolate(self, g, hist, monkeypatch):
        def refuse(traj, x):
            raise AssertionError("interpolate called")

        monkeypatch.setattr(Trajectory, "interpolate", refuse)
        system = DodsSystem(f=parse("-ym"), g=parse(g))
        traj = solve(system, HistoryFunction.from_text("1 + x", hist), 0.0,
                     3.0, 0.01)
        assert traj.n_rhs_evals == 4 * (len(traj.xs) - 1)


# ---------------------------------------------------------------------------
# state-dependent delays in the stepper against the per-stage driver


def _outcome_of(per_stage, f, g, phi, hist, dy0, x_end, h):
    """_run of the case, or its _failure where it fails."""
    try:
        return _run(per_stage, DodsSystem(f=parse(f), g=parse(g)), phi, hist,
                    dy0, x_end, h)
    except Exception:
        return _failure(per_stage, f, g, phi, hist, dy0, x_end, h)


#: (f, g, phi, history interval, dy0, x_end, h) of state-dependent delays
STATE_CASES = {
    **{name: (f, g, phi, hist, "from-phi", x_end, h)
       for name, (f, g, phi, hist, x_end, h) in EXPLICIT_CASES.items()},
    "implicit-ym": ("-0.7*ym + 0.2*dym", "x - 1 - 0.1*sin(ym)",
                    "0.4 + 0.3*sin(x)", (-1.3, 0.0), "from-phi", 3.0, 0.02),
    "implicit-dym": ("-0.7*ym + 0.2*dym", "x - 1 - 0.3*dym",
                     "0.4 + 0.3*sin(x)", (-1.3, 0.0), "from-phi", 3.0, 0.02),
    # the secant fails at two stages, where the scan finds five roots
    "bracket-scan": ("-ym", "x - 0.6 - 0.5*sin(6*ym)", "sin(3*x)",
                     (-2.0, 0.0), "from-phi", 1.5, 0.05),
    "implicit-no-root": ("-0.7*ym", "x + 0.5 + 0.1*sin(ym)",
                         "0.4 + 0.3*sin(x)", (-1.3, 0.0), "from-phi", 3.0,
                         0.02),
    "implicit-no-root-later": ("-0.7*ym + 0.2*dym",
                               "x - 1 + 2*exp(-50*(x - 1.5)^2)"
                               " + 0.01*sin(ym)", "0.4 + 0.3*sin(x)",
                               (-1.3, 0.0), "from-phi", 3.0, 0.02),
}


#: the STATE_CASES that fail with a FixedPointError, and the f evaluations
#: made before
NO_ROOT = {"g-ahead-at-the-start": 0, "g-ahead-later": 55,
           "below-the-history": 0, "g-undefined": 0, "g-undefined-later": 59,
           "implicit-no-root": 0, "implicit-no-root-later": 277}


class _Unchecked(_ExplicitStateDelay):
    """xm = g(x, y, dy) outside the bracket too: a delay whose point the
    solve itself must refuse, ahead of its stage or below the history."""

    def resolve(self, x, y, dy, lookup, prev_xm, hist_lo, completed_end):
        return self.g(x, y, 0.0, dy, 0.0), 1, 0


class TestStateDelayParity:
    @pytest.mark.parametrize("name", list(STATE_CASES))
    def test_matches_the_per_stage_driver(self, name):
        got = _outcome_of(False, *STATE_CASES[name])
        assert got == _outcome_of(True, *STATE_CASES[name])
        assert (got[0] == "FixedPointError") == (name in NO_ROOT)

    def test_the_bracket_scan_falls_back_twice(self):
        _, n_f, n_g, fallbacks, warnings = _outcome_of(
            False, *STATE_CASES["bracket-scan"])
        assert (n_f, fallbacks) == (120, 2)
        assert n_g > n_f
        assert warnings == 2 * ["state-dependent delay has 5 candidate roots;"
                                " taking the one nearest the previous"
                                " delayed point"]

    @pytest.mark.parametrize("name", list(NO_ROOT))
    def test_no_root_fails_at_its_stage(self, name):
        assert _outcome_of(False, *STATE_CASES[name]) == (
            "FixedPointError", EXPLICIT_FAILURES.get(name, NO_ROOT_MESSAGE),
            NO_ROOT[name])

    @pytest.mark.parametrize("g,failure", [
        # xm passes stage 4 of the 14th step, at x = 1.4
        ("x - 1 + 2*exp(-50*(x - 1.5)^2) + 0.01*sin(y)",
         ("DelayViolationError", "delay relation puts the delayed point at"
          " 1.6133 >= x = 1.4", 55)),
        # xm leaves the history at stage 2 of the 15th step, at x = 1.45
        ("x - 1 - 2*exp(-50*(x - 1.5)^2) + 0.01*sin(y)",
         ("HistoryUnderrunError", "-1.31549 is below the covered range",
          57)),
    ])
    def test_an_unchecked_point_fails_at_its_stage(self, g, failure,
                                                   monkeypatch):
        monkeypatch.setattr(integrate, "_delay_spec", lambda system, warn:
                            _Unchecked(E.compile_fn(system.g, FREE_COORDS,
                                                    system.params)))
        case = ("-ym", g, "1", (-1.0, 0.0), 0.0, 2.0, 0.1)
        assert _failure(False, *case) == _failure(True, *case) == failure

    def test_solve_runs_no_per_stage_driver(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_numeric called")

        monkeypatch.setattr(integrate, "solve_numeric", refuse)
        for g, kind in (("x - 1", DelayKind.CONSTANT),
                        ("x - 1 - 0.2*sin(x)", DelayKind.SOLUTION_INDEPENDENT),
                        ("x - 1 - 0.1*sin(y)", DelayKind.STATE_DEPENDENT),
                        ("x - 1 - 0.1*ym", DelayKind.STATE_DEPENDENT)):
            system = DodsSystem(f=parse("-ym"), g=parse(g))
            assert system.delay_kind is kind
            traj = solve(system, ramp_history(), 0.0, 2.0, 0.1)
            assert traj.n_rhs_evals == 80
        # solve takes no branch on the delay kind, and no module of the
        # library calls the per-stage driver
        names = set(solve.__code__.co_names)
        assert not names & {"isinstance", "_ConstantDelay",
                            "_IndependentDelay", "_StateDelay",
                            "_ExplicitStateDelay", "solve_numeric"}
        package = Path(integrate.__file__).parent
        for module in package.glob("*.py"):
            text = module.read_text()
            assert text.count("solve_numeric(") == text.count(
                "def solve_numeric("), module.name

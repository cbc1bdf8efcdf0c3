"""Method-of-steps integration with cubic Hermite dense output.

Classical 4th-order one-step integration of (y, dy)' = (dy, f), reading
delayed values from the already-computed part of the trajectory or from
the initial history.  For constant delay the step grid is aligned so the
multiples of the delay are breakpoints, which confines derivative
discontinuities to nodes.  One function, _outside, rules on a delayed
point off the grid for Trajectory.interpolate and the steppers alike: at
the newest node, or rounded just past it (one step per delay allows
that), it reads that node.  Solution-independent delays evaluate g(x)
directly.  A state-dependent g that reads no delayed value (neither ym
nor dym) gives xm in one evaluation at each stage; one that does is
located by a safeguarded secant iteration on s - g(s), warm-started from
the previous stage, with a bracket scan and bisection as the fallback.

Constant and solution-independent delays are planned: the delayed point
of a stage depends on the stage time alone, so each distinct delayed
point is placed and read once (Bellen & Zennaro, Numerical Methods for
Delay Differential Equations, OUP 2003, on planning the method of
steps).  Stages 2 and 3 share their time and so their point, and stage
1 shares the previous step's stage-4 point unless that one was read at
the newest node it rounded past.  A state-dependent delay places a
point at every stage.  solve runs every kind in a generated stepper, one
per shape of f and delay code, that evaluates f's own statements at the
four stages inline; it reproduces the per-stage reference solve_numeric,
which no library code calls, bit for bit.  The platoon of the traffic
module is built from the same pieces: one loop takes all its cars
through each step of the constant delay, placing each delayed point once
for all of them.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

from .dods import DelayKind, DodsSystem, FREE_COORDS
from .expr import (_POINT_PRIMITIVES, DomainError, Expr, _point_kernel,
                   _PointBody, compile_fn, diff, free_symbols, parse)


class IntegrationError(Exception):
    pass


class DelayViolationError(IntegrationError):
    pass


class HistoryUnderrunError(IntegrationError):
    pass


class FixedPointError(IntegrationError):
    pass


class StepRejectionError(IntegrationError):
    pass


class StepPlanError(IntegrationError):
    """A step plan too long to take, or whose step does not advance x."""


@dataclass
class HistoryFunction:
    """Initial data phi(x) on [lo, hi]."""

    phi: Expr
    interval: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("history interval must have positive length")
        self._y = compile_fn(self.phi, ("x",))
        self._dy = compile_fn(diff(self.phi, "x"), ("x",))

    @staticmethod
    def from_text(text: str, interval: tuple[float, float]) -> "HistoryFunction":
        return HistoryFunction(parse(text), interval)

    def value(self, x: float) -> tuple[float, float]:
        lo, hi = self.interval
        if x < lo - 1e-12 or x > hi + 1e-12:
            raise HistoryUnderrunError(
                f"history covers [{lo:g}, {hi:g}], asked for {x:g}"
            )
        return self._y(x), self._dy(x)


def _hermite(x, x0, x1, y0, y1, d0, d1) -> tuple[float, float]:
    """(y, dy) at x of the cubic Hermite interpolant on [x0, x1] with the
    values y0, y1 and slopes d0, d1 at the two nodes."""
    h = x1 - x0
    s = x - x0
    slope = (y1 - y0) / h
    c2 = (3.0 * slope - 2.0 * d0 - d1) / h
    c3 = (d0 + d1 - 2.0 * slope) / (h * h)
    return (y0 + s * (d0 + s * (c2 + s * c3)),
            d0 + s * (2.0 * c2 + 3.0 * s * c3))


def _hermite_dd(x, x0, x1, y0, y1, d0, d1) -> float:
    h = x1 - x0
    s = x - x0
    slope = (y1 - y0) / h
    c2 = (3.0 * slope - 2.0 * d0 - d1) / h
    c3 = (d0 + d1 - 2.0 * slope) / (h * h)
    return 2.0 * c2 + 6.0 * s * c3


@dataclass
class Trajectory:
    """Breakpoint nodes with per-node (y, dy); C1 by construction."""

    xs: list[float]
    ys: list[float]
    dys: list[float]
    history: HistoryFunction
    warnings: list[str] = field(default_factory=list)
    #: delay resolutions that fell back to the bracket scan
    n_fixed_point_fallbacks: int = 0
    #: evaluations of f: four per step of a solve
    n_rhs_evals: int = 0
    #: g evaluations spent locating state-dependent delays: one per stage
    #: where g reads no delayed value
    n_delay_iterations: int = 0

    @property
    def x_start(self) -> float:
        return self.xs[0]

    @property
    def x_end(self) -> float:
        return self.xs[-1]

    def interpolate(self, x: float) -> tuple[float, float]:
        """(y, dy) from the Hermite dense output inside the grid, the
        history below it, and _outside at any other point."""
        xs = self.xs
        if xs[0] <= x < xs[-1]:
            i = bisect.bisect_right(xs, x) - 1
            if x == xs[i]:
                return self.ys[i], self.dys[i]
            return _hermite(x, xs[i], xs[i + 1], self.ys[i], self.ys[i + 1],
                            self.dys[i], self.dys[i + 1])
        lo = self.history.interval[0] - 1e-12
        if lo <= x < xs[0]:
            return self.history.value(x)
        # no point is at or past a NaN stage, so none violates it
        return _outside(math.nan, x, xs[-1], lo, self.ys, self.dys)

    def second_derivative(self, x: float) -> float:
        xs = self.xs
        if not xs[0] <= x <= xs[-1]:
            raise IntegrationError("second derivative only on the computed range")
        i = min(bisect.bisect_right(xs, x) - 1, len(xs) - 2)
        return _hermite_dd(x, xs[i], xs[i + 1], self.ys[i], self.ys[i + 1],
                           self.dys[i], self.dys[i + 1])

    def to_csv(self) -> str:
        lines = ["x,y,dy"]
        for x, y, dy in zip(self.xs, self.ys, self.dys):
            lines.append(f"{x:.17g},{y:.17g},{dy:.17g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# delay resolution


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi, the grid of every scalar
    scan, bit for bit `numpy.linspace(lo, hi, n).tolist()` by numpy's own
    formula: point i is i * step + lo with step = (hi - lo) / (n - 1), or
    i / (n - 1) * (hi - lo) + lo where that step is zero (a subnormal
    width), and the last point is hi."""
    lo, hi = float(lo), float(hi)
    width = hi - lo
    step = width / (n - 1)
    if step == 0.0:
        grid = [i / (n - 1) * width + lo for i in range(n - 1)]
    else:
        grid = [i * step + lo for i in range(n - 1)]
    grid.append(hi)
    return grid


def _sign_scan(fn, lo: float, hi: float, cells: int, zero: float = 0.0,
               errors=()):
    """fn on the cells + 1 points of `_grid(lo, hi, cells + 1)`, and its
    brackets.

    A value is NaN where fn raises one of errors.  Returns the grid, the
    values and the root brackets in grid order: (a, a) at a node where
    |fn| <= zero, and otherwise (a, b) over each cell whose end values have
    strictly opposite signs.
    """
    grid = _grid(lo, hi, cells + 1)
    values = []
    for s in grid:
        try:
            values.append(fn(s))
        except errors:
            values.append(math.nan)
    brackets = []
    for s, t, v, w in zip(grid, grid[1:] + [hi], values, values[1:] + [math.nan]):
        if abs(v) <= zero:
            brackets.append((s, s))
        elif v < 0.0 < w or w < 0.0 < v:
            brackets.append((s, t))
    return grid, values, brackets


def _bisect(fn, a: float, b: float) -> float:
    """A root of fn between a and b, where fn(a) and fn(b) differ in sign.

    Halves the bracket until fn is exactly zero, the bracket is below
    1e-16 relative or cannot shrink any further.  A finite bracket is at
    most 2^1025 wide and 1e-16 exceeds 2^-54, so the relative stop comes
    within 1080 halvings wherever the root lies: the cap of 2200 halvings
    never ends a finite bracket early.
    """
    fa = fn(a)
    for _ in range(2200):
        m = 0.5 * a + 0.5 * b  # 0.5 * (a + b) can overflow
        if m == a or m == b:
            return m
        fm = fn(m)
        if fm == 0.0 or (b - a) < 1e-16 * max(1.0, abs(m)):
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * a + 0.5 * b


def _real_roots(fn, dfn, lo: float, hi: float, cells: int, zero: float = 0.0):
    """The roots of fn on [lo, hi] over cells >= 1 scan cells, sorted, as
    (root, double, a, b) with bracket [a, b]; dfn is fn', and a DomainError
    skips a node or extremum.

    A node where |fn| <= zero is a root, double where |dfn| < 1e-6
    (1 + |node|); a cell whose ends differ in sign holds one, bisected.
    Every node, the two ends included, is a candidate for more (Press et
    al., Numerical Recipes, 3rd ed., 2007, 9.1): one whose |fn| is above
    zero and below both neighbours', all three of one sign, or a root node
    whose two neighbours share one strict sign.  Past an end the missing
    neighbour counts as farther from zero with the other one's sign, and
    the bracket [a, b] of a candidate's neighbours is clipped to [lo, hi].
    Where dfn changes sign over [a, b], its root r is a double root if
    |fn(r)| < 1e-10, and fn(r) of the other sign splits two roots, bisected
    on [a, r] and [r, b].  A root node keeps its value: it gets no double
    root beside it, and of the split only the side of r away from the node
    is bisected.  A root within 1e-9 relative of the one before it is
    dropped.
    """
    grid, values, brackets = _sign_scan(fn, lo, hi, cells, zero=zero,
                                        errors=DomainError)
    found = []
    for a, b in brackets:
        try:
            double = a == b and abs(dfn(a)) < 1e-6 * (1.0 + abs(a))
        except DomainError:
            double = False
        found.append((a if a == b else _bisect(fn, a, b), double, a, b))
    # the neighbours padded past each end: a value farther from zero with
    # the other neighbour's sign, and the end itself as the bracket end
    ends = [grid[0], *grid, grid[-1]]
    near = [math.copysign(math.inf, values[1]), *values,
            math.copysign(math.inf, values[-2])]
    for a, x, b, fa, fb, fc in zip(ends, grid, ends[2:], near, values,
                                   near[2:]):
        node_root = abs(fb) <= zero
        if node_root:  # its neighbours of one strict sign
            if not (fa > 0.0 < fc or fa < 0.0 > fc):
                continue
        # |fb| below both neighbours', the three of one sign (NaN fails)
        elif not (fa > fb < fc if fb > 0.0 else fa < fb > fc):
            continue
        try:
            if dfn(a) * dfn(b) < 0.0:
                r = _bisect(dfn, a, b)
                if abs(fr := fn(r)) < 1e-10:
                    if not node_root:
                        found.append((r, True, a, b))
                elif (fr < 0.0) != (fa < 0.0):
                    sides = [(a, r), (r, b)]
                    if node_root:
                        sides = [sides[r > x]]
                    found += [(_bisect(fn, p, q), False, p, q)
                              for p, q in sides]
        except DomainError:
            pass
    out = []
    for r in sorted(found):
        if not out or abs(r[0] - out[-1][0]) >= 1e-9 * max(1.0, abs(r[0])):
            out.append(r)
    return out


# How a driver finds the delayed point xm at each stage: the resolve of
# each class below returns (xm, g evaluations spent, 1 if it fell back to
# the bracket scan else 0).  Each also gives the stepper its xm as code:
# `xm` reads the stage's (x, y, dy) as (_a0, _a1, _a4) and, as `delay`,
# at(traj, x_end) of a solve of traj to x_end: a planned delay's tau or
# g, whose xm depends on the stage time alone, or the solve's _resolver.


class _ConstantDelay:
    xm = "_a0 - delay"

    def __init__(self, tau: float):
        if tau <= 0:
            raise DelayViolationError(f"constant delay must be positive, got {tau:g}")
        self.tau = tau

    def resolve(self, x, y, dy, lookup, prev_xm, hist_lo, completed_end):
        return x - self.tau, 0, 0

    def at(self, traj, x_end):
        return self.tau


class _IndependentDelay:
    xm = "delay(_a0)"

    def __init__(self, g_of_x):
        self.g = g_of_x

    def resolve(self, x, y, dy, lookup, prev_xm, hist_lo, completed_end):
        return self.g(x), 0, 0

    def at(self, traj, x_end):
        return self.g


def _resolver(delay, traj: Trajectory, x_end: float):
    """xm(x, y, dy) at the stages of a solve of traj to x_end: delay's
    resolve on traj.interpolate, warm-started from the previous stage's xm,
    its g evaluations and fallbacks added to traj's counters."""
    xs, lookup, hist_lo = traj.xs, traj.interpolate, traj.history.interval[0]
    prev_xm = xs[0] - min(1.0, x_end - xs[0])

    def resolve(x: float, y: float, dy: float) -> float:
        nonlocal prev_xm
        prev_xm, iters, fell_back = delay.resolve(x, y, dy, lookup, prev_xm,
                                                  hist_lo, xs[-1])
        traj.n_delay_iterations += iters
        traj.n_fixed_point_fallbacks += fell_back
        return prev_xm

    return resolve


#: the failure of a state-dependent delay that has no admissible xm
_NO_ROOT = ("state-dependent delay: no root of xm - g located in the"
            " admissible bracket")


def _bracket_top(x: float, completed_end: float) -> float:
    """The upper end of the admissible bracket of a state-dependent xm at
    stage x, whose lower end is the start of the history: 1e-13 relative
    behind x, and not past the newest node completed_end."""
    return min(x - 1e-13 * max(1.0, abs(x)), completed_end)


class _StateDelay:
    """xm = g(x, y, ym(xm), dy, dym(xm)) by a safeguarded secant, then bisection.

    For a g that reads the delayed state; _ExplicitStateDelay resolves one
    that does not in a single evaluation.  The secant iteration on F(s) =
    s - g(s) starts from the previous stage's xm with one fixed-point step,
    s1 = g(s0), and clamps every iterate to the admissible bracket.  It
    accepts the first iterate after s0 where |F| < 1e-12.  It also stops
    when a step falls below 5e-13 relative, and accepts the iterate there
    when |F| < 1e-10.  Otherwise, and on a zero secant denominator, 100
    steps without convergence, or g or the dense output undefined at an
    iterate, it falls back to a scan of F over 64 cells of the bracket
    with bisection (Bellen & Zennaro, Numerical Methods for Delay
    Differential Equations, OUP 2003, on locating state-dependent
    delays).  Multiple admissible solutions (several sign changes of F)
    pick the one nearest the previous step's xm and are reported in
    warnings.
    """

    xm, at = "delay(_a0, _a1, _a4)", _resolver

    def __init__(self, g_full, warn):
        self.g = g_full
        self._warn = warn

    def resolve(self, x, y, dy, lookup, prev_xm, hist_lo, completed_end):
        n_evals = 0

        def g_at(s: float) -> float:
            nonlocal n_evals
            n_evals += 1
            ym, dym = lookup(s)
            return self.g(x, y, ym, dy, dym)

        hi = _bracket_top(x, completed_end)
        lo = hist_lo
        s = min(max(prev_xm, lo), hi)
        try:
            g_s = g_at(s)
            f_s = s - g_s
            nxt = min(max(g_s, lo), hi)
            for _ in range(100):
                f_nxt = nxt - g_at(nxt)
                if abs(f_nxt) < 1e-12:
                    return nxt, n_evals, 0
                if abs(nxt - s) < 5e-13 * max(1.0, abs(nxt)):
                    if abs(f_nxt) < 1e-10:
                        return nxt, n_evals, 0
                    break
                if f_nxt == f_s:
                    break
                step = f_nxt * (nxt - s) / (f_nxt - f_s)
                s, f_s = nxt, f_nxt
                nxt = min(max(nxt - step, lo), hi)
        except (DomainError, HistoryUnderrunError):
            pass
        xm = self._bracket_scan(g_at, lo, hi, prev_xm)
        return xm, n_evals, 1

    def _bracket_scan(self, g_at, lo, hi, prev_xm):
        def defect(s: float) -> float:
            return s - g_at(s)

        _, _, brackets = _sign_scan(defect, lo, hi, 64,
                                    errors=(DomainError, HistoryUnderrunError))
        if not brackets:
            raise FixedPointError(_NO_ROOT)
        if len(brackets) > 1:
            self._warn(
                f"state-dependent delay has {len(brackets)} candidate roots;"
                " taking the one nearest the previous delayed point"
            )
        a, b = min(brackets, key=lambda ab: abs(0.5 * (ab[0] + ab[1]) - prev_xm))
        return a if a == b else _bisect(defect, a, b)


class _ExplicitStateDelay:
    """xm = g(x, y, dy) for a state-dependent g that reads no delayed value.

    One evaluation of g at the stage gives xm, and no dense output is
    read.  xm must lie in the bracket _StateDelay searches, from the start
    of the history to _bracket_top.  Outside it, or where g is undefined,
    the delay fails with a FixedPointError that names xm or g's error, the
    bound broken and x: no root is searched for.
    """

    xm, at = _StateDelay.xm, _resolver

    def __init__(self, g_full):
        self.g = g_full

    def resolve(self, x, y, dy, lookup, prev_xm, hist_lo, completed_end):
        try:
            xm = self.g(x, y, 0.0, dy, 0.0)  # ym and dym do not enter
        except DomainError as exc:
            raise FixedPointError(f"state-dependent delay: g is undefined"
                                  f" at x = {x:g}: {exc}") from None
        if hist_lo <= xm <= _bracket_top(x, completed_end):
            return xm, 1, 0
        if xm < hist_lo:
            where = f"below the history's start {hist_lo:g} at x = {x:g}"
        elif xm > completed_end:
            where = f"past the newest node {completed_end:g} at x = {x:g}"
        else:  # within 1e-13 of x at the first stage of a step
            where = f"not below x = {x:g}"
        raise FixedPointError(f"state-dependent delay: xm = {xm:g} is {where}")


def _delay_spec(system: DodsSystem, warn):
    """The delay resolution of the system's delay kind and, for a
    state-dependent delay, of whether g reads a delayed value."""
    kind, tau = system._delay()
    if kind is DelayKind.CONSTANT:
        return _ConstantDelay(tau)
    if kind is DelayKind.SOLUTION_INDEPENDENT:
        return _IndependentDelay(compile_fn(system.g, ("x",), system.params))
    g_full = compile_fn(system.g, FREE_COORDS, system.params)
    if free_symbols(system.g) & {"ym", "dym"}:
        return _StateDelay(g_full, warn)
    return _ExplicitStateDelay(g_full)


# ---------------------------------------------------------------------------
# the drivers


#: the most steps a plan may take; the largest plan of the tests and
#: scripts takes 8000
_MAX_STEPS = 10**6


def _step_plan(x0: float, x_end: float, h: float, tau: float | None = None):
    """The (start, size) of every step from x0 to x_end, in order, lazily.

    Under a constant delay tau the multiples of tau past x0 are edges, and
    each stretch between two edges takes steps of h_eff = tau / n_sub with
    n_sub = ceil(tau / h); otherwise the one stretch takes steps of h.  The
    last step of a stretch is cut short to end on its edge.  Raises
    StepPlanError for a non-finite x_end, h or tau, ValueError for h <= 0
    or x_end <= x0, and StepPlanError for a plan of more than _MAX_STEPS
    steps or one whose step is at most half an ulp of the largest |x| of
    the plan, so may not advance x, before any step is planned.
    """
    delay = "" if tau is None else f"tau = {tau:g}, "
    if not all(map(math.isfinite, (x_end, h, 0.0 if tau is None else tau))):
        raise StepPlanError(
            f"the plan from {x0:g} to {x_end:g} ({delay}h = {h:g}) is not"
            " finite")
    if h <= 0:
        raise ValueError("step size must be positive")
    if x_end <= x0:
        raise ValueError("x_end must lie beyond the history")
    h_eff = h if tau is None else tau / max(1, math.ceil(tau / h - 1e-12))
    n_steps = (x_end - x0) / h_eff
    if n_steps > _MAX_STEPS:
        raise StepPlanError(
            f"the plan from {x0:g} to {x_end:g} ({delay}h = {h:g}) takes"
            f" {n_steps:.0f} steps, more than {_MAX_STEPS}")
    # a step of at most half an ulp of x leaves x where it is, or advances
    # it only from an odd mantissa; |x| is largest at x0 or at x_end
    x = max(x0, x_end, key=abs)
    if not h_eff > math.ulp(x) / 2:
        raise StepPlanError(
            f"a step of {h_eff:g} ({delay}h = {h:g}) does not advance"
            f" x at {x:g}")
    if tau is None:
        return _steps(x0, h, [x_end])
    edges = []
    edge = x0
    while edge < x_end - 1e-12:
        edge = min(edge + tau, x_end)
        edges.append(edge)
    return _steps(x0, h_eff, edges)


def _steps(x: float, h_eff: float, edges: list[float]):
    for edge in edges:
        while x < edge - 1e-12:
            step = min(h_eff, edge - x)
            yield x, step
            x = x + step


#: the arguments of a right-hand side f, in the order its kernel takes them
_F_ARGS = ("x", "y", "xm", "ym", "dy", "dym")


def solve(
    system: DodsSystem,
    phi: HistoryFunction,
    dy0: float | str,
    x_end: float,
    h: float,
) -> Trajectory:
    """Integrate the system from the end of the history to x_end.

    dy0 may be a number or "from-phi" (left derivative of the history at
    its right end).  The first derivative is continuous across every
    breakpoint by construction; continuity of the second derivative at the
    start is neither required nor expected.

    Every delay kind runs the one stepper of f's shape and the delay's
    code (_stepper).  It gives the trajectory, counters, warnings and
    failures of the per-stage reference solve_numeric bit for bit.
    """
    make, args = _point_kernel(system.f, _F_ARGS, system.params)._made
    warnings: list[str] = []
    delay = _delay_spec(system, warnings.append)
    traj, steps = _start(delay, phi, dy0, x_end, h)
    _stepper(make, delay.xm)(*args)(
        steps, traj.xs, traj.ys, traj.dys, delay.at(traj, x_end), phi.value,
        phi.interval[0] - 1e-12)
    traj.n_rhs_evals = 4 * (len(traj.xs) - 1)
    traj.warnings = warnings
    return traj


def _rejection(x: float, reason) -> StepRejectionError:
    """The failure of a right-hand side that has no value at stage x."""
    return StepRejectionError(f"right-hand side not evaluable at x = {x:g}: {reason}")


def _exact_drift(system: DodsSystem, phi: HistoryFunction, x_end: float,
                 h: float) -> float:
    """max |y - exact| / max(1, |exact|) over the nodes of the solve from
    phi, where phi's own expression is the exact solution."""
    traj = solve(system, phi, "from-phi", x_end, h)
    dev = 0.0
    for x, y in zip(traj.xs, traj.ys):
        exact = phi._y(x)
        dev = max(dev, abs(y - exact) / max(1.0, abs(exact)))
    return dev


def _violation(xm: float, x: float) -> DelayViolationError:
    """The failure of a delayed point xm that is not behind its stage x."""
    return DelayViolationError(
        f"delay relation puts the delayed point at {xm:g} >= x = {x:g}")


def _start(delay, phi: HistoryFunction, dy0: float | str, x_end: float,
           h: float) -> tuple[Trajectory, object]:
    """The trajectory of a solve with its first node, where the history
    ends, and the plan of its steps."""
    x0 = phi.interval[1]
    steps = _step_plan(x0, x_end, h, delay.tau if isinstance(
        delay, _ConstantDelay) else None)
    y0, phi_dy0 = phi.value(x0)
    dy_start = phi_dy0 if dy0 == "from-phi" else float(dy0)
    return Trajectory(xs=[x0], ys=[y0], dys=[dy_start], history=phi), steps


def solve_numeric(
    f_eval,
    delay,
    phi: HistoryFunction,
    dy0: float | str,
    x_end: float,
    h: float,
) -> Trajectory:
    """The per-stage reference driver over a numeric right-hand side f(x,
    y, xm, ym, dy, dym), which solve's stepper reproduces bit for bit.

    delay, _delay_spec(system, warn) or _ConstantDelay(tau), locates xm at
    each of the four RK4 stages through a _resolver; the stage reads (ym,
    dym) there through Trajectory.interpolate and calls f_eval.  No
    library code calls it; the benchmark's tracing patches it by name.
    """
    traj, steps = _start(delay, phi, dy0, x_end, h)
    xs, ys, dys = traj.xs, traj.ys, traj.dys
    locate = _resolver(delay, traj, x_end)

    def rhs(x: float, y: float, dy: float) -> float:
        xm = locate(x, y, dy)
        if xm >= x:
            raise _violation(xm, x)
        ym, dym = traj.interpolate(xm)
        try:
            return f_eval(x, y, xm, ym, dy, dym)
        except DomainError as exc:
            raise _rejection(x, exc) from None

    y, dy = ys[0], dys[0]
    for x, step in steps:
        half = 0.5 * step
        k1 = rhs(x, y, dy)
        xh = x + half
        y2, d2 = y + half * dy, dy + half * k1
        k2 = rhs(xh, y2, d2)
        y3, d3 = y + half * d2, dy + half * k2
        k3 = rhs(xh, y3, d3)
        xe = x + step
        y4, d4 = y + step * d3, dy + step * k3
        k4 = rhs(xe, y4, d4)
        y = y + step * (dy + 2.0 * d2 + 2.0 * d3 + d4) / 6.0
        dy = dy + step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        xs.append(xe)
        ys.append(y)
        dys.append(dy)
    traj.n_rhs_evals = 4 * (len(xs) - 1)
    return traj


# -- the stepper ---------------------------------------------------------------
#
# For every delay kind, solve runs one generated loop per shape of f and
# code of the delay: its RK4 steps read each delayed point with
# _hermite's arithmetic and evaluate f's statements, as
# expr._generate emits them for f's point kernel, at the four stages
# inline.  It reads the variables of f's kernel: the stage (x, y, xm, ym,
# dy, dym) is (_a0, ..., _a5), and the cells are the kernel's own.  The
# loop is assembled from pieces: _rk4_source is the step, with its stage
# times and any shared points, and _read_point places a point once and
# reads any number of solutions on one grid there.  The platoon of the
# traffic module (traffic._lockstep) takes all its cars through each
# step of one such loop: every car reads itself at the point placed for
# all, reads the car in front from that car's values at the same point,
# and applies the car-following law at each stage.


def _reject(x: float, error, tree, n_rhs_evals: int):
    """The rejection solve_numeric raises where f's kernel fails at stage
    x, as the n_rhs_evals-th evaluation of f: with the DomainError the
    kernel raises for the error its statements raised, or for a
    non-finite result where error is None."""
    message = ("non-finite result" if error is None else "division by zero"
               if isinstance(error, ZeroDivisionError) else str(error))
    err = _rejection(x, DomainError(message, tree))
    err.n_rhs_evals = n_rhs_evals
    return err


def _outside(x, xm, newest, lo, ys, dys):
    """(ym, dym) at a delayed point xm of stage x off the grid: neither in
    the grid up to the newest node nor in the history from lo, its lowest
    point less 1e-12.  A point not behind its stage raises
    DelayViolationError, one below lo HistoryUnderrunError, and one more
    than 1e-12 past the newest node, or NaN, IntegrationError; any other
    reads the newest node."""
    if xm >= x:
        raise _violation(xm, x)
    if xm < lo:
        raise HistoryUnderrunError(f"{xm:g} is below the covered range")
    if not xm <= newest + 1e-12:
        raise IntegrationError(f"{xm:g} is beyond the computed range")
    return ys[-1], dys[-1]


def _indent(lines: list[str], n: int) -> list[str]:
    return [" " * n + line for line in lines]


def _read_point(xm: str, cars, off_grid: list[str]) -> list[str]:
    """The stepper's lines that set _a2 to the delay's code xm at stage
    time _a0 and read every solution of cars there.

    cars holds, for each solution, the names of its y and dy lists and of
    the two variables it reads its (ym, dym) into.  The point is placed
    once: a point inside the grid from x0 to the newest node is read by
    every solution at that node or in that segment, with _hermite's
    arithmetic; off_grid are the lines run at any other point.
    """
    node, segment = [], []
    for ys, dys, y, dy in cars:
        node += [f"{y} = {ys}[j]", f"{dy} = {dys}[j]"]
        segment += [
            f"y0 = {ys}[j]",
            f"d0 = {dys}[j]",
            f"d1 = {dys}[j + 1]",
            f"slope = ({ys}[j + 1] - y0) / h",
            "c2 = (3.0 * slope - 2.0 * d0 - d1) / h",
            "c3 = (d0 + d1 - 2.0 * slope) / hh",
            f"{y} = y0 + s * (d0 + s * (c2 + s * c3))",
            f"{dy} = d0 + s * (2.0 * c2 + 3.0 * s * c3)"]
    return [
        f"_a2 = {xm}",
        "if x0 <= _a2 < newest:",
        "    j = _bisect_right(grid, _a2) - 1",
        "    g0 = grid[j]",
        "    if _a2 == g0:",
        *_indent(node, 8),
        "    else:",
        "        h = grid[j + 1] - g0",
        "        hh = h * h",
        "        s = _a2 - g0",
        *_indent(segment, 8),
        "else:",
        *_indent(off_grid, 4),
    ]


def _evaluate(body: _PointBody, stage: int) -> list[str]:
    """The stepper's lines that set k<stage> to f at the stage: the
    statements of f's kernel, and its checks, failing as solve_numeric
    does."""
    n = f"4 * len(ys) - 4 + {stage}"
    lines = []
    if body.statements:
        lines += [
            "try:", *(f"    {line}" for line in body.statements),
            "except (ZeroDivisionError, ValueError, OverflowError) as exc:",
            f"    raise _reject(_a0, exc, {body.tree}, {n}) from None"]
    return lines + [
        f"if not _isfinite({body.out}):",
        f"    raise _reject(_a0, None, {body.tree}, {n})",
        f"k{stage} = {body.out}"]


#: a solution's stage y, the name of its stage dy and that name's code, at
#: each RK4 stage, for the suffix {i} of the solution's names
_STAGES = {
    1: ("y{i}", "dy{i}", None),
    2: ("y{i} + half * dy{i}", "d2{i}", "dy{i} + half * k1{i}"),
    3: ("y{i} + half * d2{i}", "d3{i}", "dy{i} + half * k2{i}"),
    4: ("y{i} + step * d3{i}", "d4{i}", "dy{i} + step * k3{i}"),
}


def _rk4_source(head: str, args: str, solutions, place, stage) -> str:
    """The text of a stepper's factory `_make`, which takes the arguments
    head and returns the loop `_run(steps, grid, args)`.

    The loop takes the steps of the plan steps from the last node of grid,
    appending each step's end to grid, for every solution whose names end
    in a suffix i of solutions: it starts from the last (y, dy) of the
    lists ys<i> and dys<i>, sets k1<i> to k4<i> in the stages and appends
    each step's (y, dy) to the lists.  In each step, stage(k) gives the
    lines of RK4 stage k (_STAGES), and place(done) the lines that read the
    delayed point of stage time _a0 after done stages of the step.  Stages
    2 and 3 share their point, and stage 1 keeps the previous step's
    stage-4 point unless that one lies past the newest node it was read
    at; where place is None, each stage places its own point instead.
    solve's stepper (_stepper_source) steps one solution; the platoon's
    (traffic._lockstep) steps each of its cars, stage by stage, in every
    step, and returns at the first car that collapses or fails.
    """
    start, finish = [], []
    for i in solutions:
        start += [f"y{i} = ys{i}[-1]", f"dy{i} = dys{i}[-1]"]
        finish += [
            f"y{i} = y{i} + step * (dy{i} + 2.0 * d2{i} + 2.0 * d3{i}"
            f" + d4{i}) / 6.0",
            f"dy{i} = dy{i} + step * (k1{i} + 2.0 * k2{i} + 2.0 * k3{i}"
            f" + k4{i}) / 6.0",
            f"ys{i}.append(y{i})",
            f"dys{i}.append(dy{i})"]
    shared = place is not None
    loop = [
        "half = 0.5 * step",
        "newest = grid[-1]",
        "_a0 = x",
        *(["if not keep:", *_indent(place(0), 4)] if shared else []),
        *stage(1),
        "_a0 = x + half",
        *(place(1) if shared else []),
        *stage(2),
        *stage(3),
        "_a0 = x + step",
        *([*place(3), "keep = _a2 <= newest"] if shared else []),
        *stage(4),
        *finish,
        "grid.append(_a0)",
    ]
    lines = [
        f"def _make({head}):",
        f"    def _run(steps, grid, {args}):",
        "        x0 = grid[0]",
        *_indent(start, 8),
        *(["        keep = False"] if shared else []),
        "        for x, step in steps:",
        *_indent(loop, 12),
        "    return _run",
    ]
    return "".join(f"{line}\n" for line in lines)


def _stepper_source(head: str, evaluate, xm: str) -> str:
    """The text of solve's stepper factory `_make`, which takes the
    arguments head and returns the loop `_run(steps, grid, ys, dys, delay,
    phi_value, lo)` of _rk4_source for one solution.

    delay is the spec's `at`, phi_value the history's value and lo the
    lowest point the history covers, less 1e-12.  A code xm that reads the
    stage's y or dy (_a1, _a4) is placed at each stage once they are set.
    A delayed point off the grid is read from phi_value in the history,
    and as _outside reads it otherwise.  A failure to read a point, the
    delay's own included, carries the evaluations of f made before it in
    the step as n_rhs_evals.  evaluate(stage) gives the lines that set
    k<stage> to the right-hand side at the stage, whose (x, y, xm, ym, dy,
    dym) is (_a0, ..., _a5).
    """
    off_grid = ["_a3, _a5 = phi_value(_a2) if lo <= _a2 < x0 else _outside(",
                "    _a0, _a2, newest, lo, ys, dys)"]
    per_stage = "_a1" in xm or "_a4" in xm
    # neither the right-hand side nor the delay may read the stage's y
    reads_y = "_a1" in xm or any("_a1" in line for line in evaluate(1))

    def place(done):
        return ["try:",
                *_indent(_read_point(xm, [("ys", "dys", "_a3", "_a5")],
                                     off_grid), 4),
                "except Exception as exc:",
                f"    exc.n_rhs_evals = 4 * len(ys) - 4 + {done}",
                "    raise"]

    def stage(k):
        y, dy, code = (text and text.format(i="") for text in _STAGES[k])
        return [*([f"_a1 = {y}"] if reads_y else []),
                f"_a4 = {dy}" if code is None else f"_a4 = {dy} = {code}",
                *(place(k - 1) if per_stage else []),
                *evaluate(k)]

    return _rk4_source(head, "ys, dys, delay, phi_value, lo", [""],
                       None if per_stage else place, stage)


#: the names every stepper's text is run with
_STEPPER_NAMES = {**_POINT_PRIMITIVES, "_reject": _reject,
                  "_outside": _outside, "_bisect_right": bisect.bisect_right}


def _exec_stepper(source: str, **names):
    """The factory `_make` of the stepper text source, run with
    _STEPPER_NAMES and names."""
    ns = {**_STEPPER_NAMES, **names}
    exec(source, ns)
    return ns["_make"]


@functools.lru_cache(maxsize=64)
def _stepper(make, xm: str):
    """The stepper's factory for the point kernels that the factory make
    returns, under the delay code xm: the stepper's shape table, so that
    the kernels of one shape, trees that differ only in their constants,
    share one exec of its text."""
    body = make._body
    return _exec_stepper(
        _stepper_source(body.head, functools.partial(_evaluate, body), xm))


# ---------------------------------------------------------------------------
# a posteriori residual


@dataclass
class ResidualReport:
    max_residual_dode: float
    max_residual_delay: float
    n_samples: int


def residual_on_trajectory(
    system: DodsSystem,
    trajectory: Trajectory,
    n: int = 200,
    seed: int = 42,
) -> ResidualReport:
    """The dense output's consistency with the system, to O(h^2): not the
    solve's error (8.7e-5 against 1.35e-9 for y'' = y(x-1), h = 0.04).

    Reports max |y'' - f| with delayed values interpolated, plus the delay
    defect |xm - g| under the system's own delay resolution.  Samples where
    f or g is undefined are skipped; n_samples counts the ones used.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    f_fn = compile_fn(system.f, _F_ARGS, system.params)
    warnings: list[str] = []
    spec = _delay_spec(system, warnings.append)
    g_full = compile_fn(system.g, FREE_COORDS, system.params)
    lo, hi = trajectory.x_start, trajectory.x_end
    hist_lo = trajectory.history.interval[0]
    max_dode = 0.0
    max_delay = 0.0
    used = 0
    prev_xm = lo - 0.1 * (hi - lo)
    for x in sorted(rng.uniform(lo + 1e-9, hi - 1e-9, size=n)):
        x = float(x)
        y, dy = trajectory.interpolate(x)
        xm, _, _ = spec.resolve(x, y, dy, trajectory.interpolate, prev_xm,
                             hist_lo, hi)
        prev_xm = xm
        ym, dym = trajectory.interpolate(xm)
        ddy = trajectory.second_derivative(x)
        try:
            fv = f_fn(x, y, xm, ym, dy, dym)
            gv = g_full(x, y, ym, dy, dym)
        except DomainError:
            continue
        used += 1
        max_dode = max(max_dode, abs(ddy - fv))
        max_delay = max(max_delay, abs(xm - gv))
    return ResidualReport(max_dode, max_delay, used)

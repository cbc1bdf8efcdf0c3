"""Car-following application: a follower reacting, after a reaction delay,
to the velocity difference and headway to its predecessor.

The two-car right-hand side is

    acc = alpha * v^n1 * (v_pred(t-) - v_-) / (pos_pred(t-) - pos_-)^n2

with the follower's own delayed position and velocity marked by a minus.
Internally the independent variable is x (time) and the dependent one y
(follower position); the leader enters through its position expression
evaluated at the delayed time, its velocity always obtained by symbolic
differentiation.  Three worked examples with exact invariant solutions
drive the tests: constant-velocity leader, power-law leader with
proportional delay, exponential leader with constant delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from . import expr as E
from . import reduce as reduce_mod
from .dods import DelayKind, DodsSystem, _key_values, _numbers
from .expr import Const, DomainError, Expr, compile_fn, diff, parse, subs
from .integrate import (
    HistoryFunction,
    HistoryUnderrunError,
    Trajectory,
    _bisect,
    _exact_drift,
    _hermite,
    _hermite_rows,
    _rejection,
    _segment_index,
    _sign_scan,
    _step_plan,
)
from .symmetry import VectorField


class TrafficError(Exception):
    pass


@dataclass
class TrafficParams:
    alpha: float
    n1: float
    n2: float
    leader: Expr  # position of the car in front, as a function of t
    tau: float | None = None  # constant reaction delay
    q: float | None = None    # proportional delay t_- = q t
    v: float | None = None
    k: float | None = None
    n: float | None = None
    epsilon: float | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha == 0.0:
            raise TrafficError("alpha must be nonzero")
        if (self.tau is None) == (self.q is None):
            raise TrafficError("exactly one of tau (constant) or q"
                               " (proportional) must be set")
        if self.tau is not None and self.tau <= 0:
            raise TrafficError("reaction delay tau must be positive")
        if self.q is not None and not 0.0 < self.q < 1.0:
            raise TrafficError("proportional delay needs 0 < q < 1")


def example_params(example_id: int, **overrides) -> TrafficParams:
    """Defaults for the three worked examples; overrides are keyword fields."""
    if example_id == 1:
        base = dict(alpha=1.0, n1=1.0, n2=1.0, tau=0.5, v=1.0)
        base.update(overrides)
        v = base["v"]
        return TrafficParams(alpha=base["alpha"], n1=base["n1"], n2=base["n2"],
                             tau=base["tau"], v=v, leader=Const(v) * E.T)
    if example_id == 2:
        base = dict(alpha=-1.0, n1=2.0, q=0.25, k=4.0, beta=0.0)
        base.update(overrides)
        n1 = base["n1"]
        if n1 * (n1 - 1.0) == 0.0:
            raise TrafficError("example 2 needs n1 (n1 - 1) != 0")
        if n1 < 1.0 and n1 != int(n1):
            raise TrafficError(
                "example 2 constraint coefficient is ill-defined for"
                " non-integer n1 < 1; restrict to n1 > 1 or integer n1"
            )
        n = 1.0 - 1.0 / n1
        k = base["k"]
        return TrafficParams(alpha=base["alpha"], n1=n1, n2=0.0,
                             q=base["q"], k=k, n=n, beta=base["beta"],
                             leader=Const(k) * E.T ** Const(n))
    if example_id == 3:
        base = dict(alpha=1.0, n=2.0, epsilon=0.5, tau=1.0, k=1.0)
        base.update(overrides)
        n = base["n"]
        if n == 0.0:
            raise TrafficError("example 3 needs n != 0")
        k, eps = base["k"], base["epsilon"]
        return TrafficParams(alpha=base["alpha"], n1=n, n2=n, tau=base["tau"],
                             k=k, n=n, epsilon=eps,
                             leader=Const(k) * E.Call("exp", Const(eps) * E.T))
    raise TrafficError(f"no example {example_id}")


def build_two_car(p: TrafficParams) -> DodsSystem:
    """Two-car system: the leader folded into the right-hand side.

    The leader's velocity is obtained by symbolic differentiation of its
    position expression, never numerically.
    """
    lead_pos_delayed = subs(p.leader, {"t": E.XM})
    lead_vel_delayed = subs(diff(p.leader, "t"), {"t": E.XM})
    core = Const(p.alpha) * E.DY ** Const(p.n1) * (lead_vel_delayed - E.DYM)
    if p.n2 != 0.0:
        core = core / (lead_pos_delayed - E.YM) ** Const(p.n2)
    if p.q is not None:
        g = Const(p.q) * E.X
        kind = DelayKind.SOLUTION_INDEPENDENT
    else:
        g = E.X - Const(p.tau)
        kind = DelayKind.CONSTANT
    system = DodsSystem(f=E.simplify(core), g=g, delay_kind=kind,
                        label="two-car")
    system.box = _sampling_box(p)
    return system


def _sampling_box(p: TrafficParams) -> dict[str, tuple[float, float]]:
    """A time window on which the headway stays positive for the defaults."""
    box = {"ym": (0.5, 1.4)}
    if p.q is not None:
        box["x"] = (1.0, 2.5)
        return box
    tau = p.tau or 0.5
    if p.epsilon is not None and p.k is not None:
        # leader k e^(eps t): need k e^(eps (x - tau)) > ym_hi
        t_lo = tau + max(0.0, math.log(1.6 / p.k) / p.epsilon)
    elif p.v is not None:
        # leader v t: need v (x - tau) > ym_hi
        t_lo = tau + 1.6 / max(p.v, 1e-6)
    else:
        t_lo = tau + 1.6
    box["x"] = (t_lo + 0.2, t_lo + 1.0)
    return box


def example_system(example_id: int, p: TrafficParams | None = None) -> DodsSystem:
    p = p if p is not None else example_params(example_id)
    system = build_two_car(p)
    system.label = f"traffic-example-{example_id}"
    return system


def example_symmetry(example_id: int, p: TrafficParams | None = None) -> VectorField:
    """The generator whose invariant solution the example constructs."""
    p = p if p is not None else example_params(example_id)
    if example_id == 1:
        return VectorField(Const(1.0), Const(p.v), label="d/dt + v d/dx")
    if example_id == 2:
        return VectorField(E.X, Const(p.n) * (E.Y - Const(p.beta)),
                           label="t d/dt + n (x - beta) d/dx")
    if example_id == 3:
        return VectorField(Const(1.0), Const(p.epsilon) * E.Y,
                           label="d/dt + eps x d/dx")
    raise TrafficError(f"no example {example_id}")


def example_algebra(example_id: int, p: TrafficParams | None = None) -> list[VectorField]:
    """Basis admitted by the example system (dimension two for example 2)."""
    p = p if p is not None else example_params(example_id)
    if example_id == 2:
        return [
            VectorField(E.X, Const(p.n) * E.Y, label="t d/dt + n x d/dx"),
            VectorField(Const(0.0), Const(1.0), label="d/dx"),
        ]
    return [example_symmetry(example_id, p)]


# ---------------------------------------------------------------------------
# the constraint equations for the invariant-solution constants


def constraint_function(example_id: int, p: TrafficParams):
    """Scalar equation c(A) = 0 that the invariant amplitude must satisfy."""
    if example_id == 2:
        n1, q, k, alpha = p.n1, p.q, p.k, p.alpha
        coeff = alpha * (n1 - 1.0) ** n1 / n1 ** (n1 - 1.0) * q ** (-1.0 / n1)

        def c(a: float) -> float:
            return coeff * (k - a) * a ** (n1 - 1.0) + 1.0

        return c
    if example_id == 3:
        n, eps, tau, k, alpha = p.n, p.epsilon, p.tau, p.k, p.alpha

        def c(a: float) -> float:
            base = eps * math.exp(eps * tau) * a / (k - a)
            return alpha * base ** (n - 1.0) - 1.0

        return c
    raise TrafficError("constraint equations exist for examples 2 and 3 only")


@dataclass
class ConstraintRoot:
    A: float
    B: float
    admissible: bool  # collision avoided: 0 < A < k
    double: bool = False
    verification: reduce_mod.SolutionVerification | None = None


@dataclass
class ConstraintResult:
    roots: list[ConstraintRoot]
    B: float
    warning: str | None = None

    @property
    def admissible_roots(self) -> list[ConstraintRoot]:
        return [r for r in self.roots if r.admissible]


def solve_constraint(
    example_id: int,
    p: TrafficParams,
    n_scan: int = 4000,
    verify: bool = True,
) -> ConstraintResult:
    """All real roots of the constraint by sign scan plus bisection.

    Double roots (the constraint touching zero) are located through a sign
    change of the derivative and flagged.  Roots at or beyond the leader
    amplitude mean the follower would sit on or ahead of the leader, so
    they are inadmissible; none admissible yields a collision warning.
    """
    c = constraint_function(example_id, p)
    k = p.k
    b_value = p.q if example_id == 2 else p.tau
    eps_edge = 1e-9 * k
    windows = [(eps_edge, k - eps_edge)]
    exponent = (p.n1 - 1.0) if example_id == 2 else (p.n - 1.0)
    if abs(exponent - round(exponent)) < 1e-12:
        windows.append((k + eps_edge, 3.0 * k))
    roots: list[ConstraintRoot] = []
    for lo, hi in windows:
        roots.extend(
            ConstraintRoot(A=a, B=b_value, admissible=(0.0 < a < k),
                           double=dbl)
            for a, dbl in _scan_roots(c, lo, hi, n_scan)
        )
    roots.sort(key=lambda r: r.A)
    warning = None
    if not any(r.admissible for r in roots):
        warning = ("no admissible invariant amplitude (A < leader scale):"
                   " a collision is unavoidable in this parameter regime")
    if verify:
        for r in roots:
            if r.admissible:
                r.verification = _verify_example_root(example_id, p, r.A)
    return ConstraintResult(roots=roots, B=b_value, warning=warning)


def _scan_roots(c, lo: float, hi: float, n_scan: int):
    errors = (ValueError, ZeroDivisionError, OverflowError)
    grid, vals, brackets = _sign_scan(c, lo, hi, n_scan, errors=errors)
    def dc(a: float) -> float:
        da = 1e-7 * (1.0 + abs(a))
        return (c(a + da) - c(a - da)) / (2.0 * da)

    found: list[tuple[float, bool]] = [
        (a, abs(dc(a)) < 1e-6 * (1.0 + abs(a))) if a == b
        else (_bisect(c, a, b), False)
        for a, b in brackets
    ]
    # double roots: zero minima of |c| located via the derivative (NaN fails)
    for i in range(1, n_scan):
        fa, fb, fc_ = vals[i - 1], vals[i], vals[i + 1]
        if abs(fb) < abs(fa) and abs(fb) < abs(fc_) and fa * fc_ > 0.0:
            try:
                if dc(grid[i - 1]) * dc(grid[i + 1]) < 0.0:
                    a_star = _bisect(dc, grid[i - 1], grid[i + 1])
                    if abs(c(a_star)) < 1e-9:
                        found.append((a_star, True))
            except errors:
                continue
    dedup: list[tuple[float, bool]] = []
    for a, dbl in sorted(found):
        if dedup and abs(a - dedup[-1][0]) < 1e-9 * max(1.0, abs(a)):
            continue
        dedup.append((a, dbl))
    return dedup


def exact_solution(example_id: int, p: TrafficParams, A: float) -> tuple[Expr, Expr]:
    """(position h(t), delayed time k(t)) of the invariant solution."""
    if example_id == 1:
        return Const(p.v) * E.X + Const(A), E.X - Const(p.tau)
    if example_id == 2:
        return (Const(p.beta) + Const(A) * E.X ** Const(p.n),
                Const(p.q) * E.X)
    if example_id == 3:
        return (Const(A) * E.Call("exp", Const(p.epsilon) * E.X),
                E.X - Const(p.tau))
    raise TrafficError(f"no example {example_id}")


def _verify_example_root(example_id: int, p: TrafficParams,
                         A: float) -> reduce_mod.SolutionVerification:
    system = example_system(example_id, p)
    h, kx = exact_solution(example_id, p, A)
    b_value = p.q if example_id == 2 else p.tau
    sol = reduce_mod.InvariantSolution(h=h, k=kx, A=A, B=b_value, residual=0.0)
    interval = (1.0, 3.0) if example_id == 2 else (0.5, 2.5)
    return reduce_mod.verify_invariant_solution(system, sol, interval,
                                                cross_check=False)


def compare_exact_vs_numeric(
    example_id: int,
    p: TrafficParams,
    t_end: float,
    h: float = 1e-3,
    A: float | None = None,
) -> float:
    """Seed the integrator with the invariant solution and measure drift.

    Returns max |numeric - exact| / max(1, |exact|) over the run.  The
    initial data must already satisfy the reduction formula, so the
    history is the exact solution restricted to the first step.
    """
    if A is None:
        if example_id == 1:
            A = -1.0
        else:
            result = solve_constraint(example_id, p, verify=False)
            adm = result.admissible_roots
            if not adm:
                raise TrafficError(result.warning or "no admissible root")
            A = adm[0].A
    system = example_system(example_id, p)
    h_expr, _ = exact_solution(example_id, p, A)
    if example_id == 2:
        t0 = 1.0
        hist = (p.q * t0, t0)
    else:
        t0 = 0.0
        hist = (-p.tau, t0)
    return _exact_drift(system, HistoryFunction(h_expr, hist), t_end, h)


# ---------------------------------------------------------------------------
# platoons


@dataclass
class PlatoonState:
    trajectories: list[Trajectory]
    leader: Expr
    count: int
    collisions: list[tuple[int, float]] = dc_field(default_factory=list)

    @property
    def collided(self) -> bool:
        return bool(self.collisions)


def simulate_platoon(
    p: TrafficParams,
    n_cars: int,
    histories: list[HistoryFunction],
    t_end: float,
    h: float,
    headway_floor: float = 1e-6,
) -> PlatoonState:
    """Follower chain under a constant reaction delay.

    Every history must end at the same t0 (a TrafficError names the first
    car whose history ends elsewhere), so that all cars share one node
    grid: the steps of a method-of-steps solve from t0 to t_end aligned to
    the delay tau.  The cars advance over it in lock-step, one lane of
    floats per car.  At each RK4 stage one Hermite row at the delayed point
    gives every car its own delayed values, car i reads car i-1's entry of
    that row as its predecessor's, and car 1 reads the leader.  Every car
    runs the same right-hand side, its two powers taken with math.pow: a
    power without a real value or a non-finite result is a
    StepRejectionError.

    A car collides at the first node after t0 where it has reached the car
    in front, and its trajectory ends at that node.  If its delayed headway
    falls below the floor first (which would make the right-hand side
    singular), its trajectory is cut two steps of h before that time: the
    grid nodes up to there and one partial step to it, or only its start
    when that time is not past t0.  It collides at that time unless one of
    the kept nodes has reached the car in front.  A car that fails -- a
    rejected step or a history that does not reach back one delay --
    raises the failure, even after a node where it reached the car in
    front.  The lowest car with such an event decides the outcome: the cars
    behind it are dropped, even one that failed earlier in time, and its
    collision is recorded or its failure raised.  That is the outcome of
    integrating the cars one after another in index order.
    """
    if p.q is not None:
        raise TrafficError("platoon simulation is stated for constant delay")
    if n_cars < 1:
        raise TrafficError("need at least one car")
    if len(histories) != n_cars:
        raise TrafficError("need one history per car")
    t0 = histories[0].interval[1]
    for i, phi in enumerate(histories[1:], start=2):
        if phi.interval[1] != t0:
            raise TrafficError(
                f"the history of car {i} ends at {phi.interval[1]:g}, not at"
                f" t0 = {t0:g}: the cars of a platoon share one node grid"
            )
    run = _LockStep(p, histories, t_end, h, headway_floor)
    run.advance()
    return run.settle()


class _Collapse:
    """The delayed headway fell below the floor at stage time x."""

    def __init__(self, x: float):
        self.x = x


class _Event:
    """What stops a car: the first node where it reached the car in front
    (or where the leader is undefined, node_error), a headway collapse at
    t_c or a failure."""

    def __init__(self, lane: int):
        self.lane = lane
        self.node: int | None = None
        self.node_error: Exception | None = None
        self.t_c: float | None = None
        self.error: Exception | None = None

    @property
    def final(self) -> bool:
        """A collapse or a failure ends the car's lane; a node does not, as
        a later failure of the same car still overrides it."""
        return self.t_c is not None or self.error is not None


class _LockStep:
    """Every car of a platoon as one lane of per-node rows on a shared grid.

    rows_y[j] and rows_d[j] hold position and velocity at grid[j] for the
    lanes still advancing then, car 1 first.  Those lanes are always the
    first `active`: a car's event drops every car behind it.  `event` is
    the event of the lowest car that has one.
    """

    def __init__(self, p: TrafficParams, histories: list[HistoryFunction],
                 t_end: float, h: float, floor: float):
        self.alpha, self.n1, self.n2, self.tau = p.alpha, p.n1, p.n2, p.tau
        self.leader = p.leader
        self.lead_pos = compile_fn(subs(p.leader, {"t": E.X}), ("x",))
        self.lead_vel = compile_fn(subs(diff(p.leader, "t"), {"t": E.X}),
                                   ("x",))
        self.floor = floor
        self.histories = histories
        self.lows = [phi.interval[0] - 1e-12 for phi in histories]
        self.t0, self.h = histories[0].interval[1], h
        self.steps = list(_step_plan(self.t0, t_end, h, p.tau))
        self.event: _Event | None = None
        self.active = len(histories)
        ys, dys, exc = self._history_rows(self.t0, 0, self.active)
        if exc is not None:
            self._record(len(ys), error=exc)
        self.grid = [self.t0]
        self.rows_y, self.rows_d = [ys], [dys]

    def _record(self, lane: int, **what) -> None:
        if self.event is None or lane < self.event.lane:
            self.event = _Event(lane)
        for name, value in what.items():
            setattr(self.event, name, value)
        self.active = lane if self.event.final else lane + 1

    def _history_rows(self, x: float, lo: int, hi: int):
        """(y, dy) of lanes lo..hi-1 at x from their histories, as two
        lists, and None; or, when a lane's history is undefined at x, the
        lists of the lanes before it and the error."""
        ys, dys = [], []
        try:
            for lane in range(lo, hi):
                if x < self.lows[lane]:
                    raise HistoryUnderrunError(
                        f"{x:g} is below the covered range")
                y, dy = self.histories[lane].value(x)
                ys.append(y)
                dys.append(dy)
        except (HistoryUnderrunError, DomainError) as exc:
            return ys, dys, exc
        return ys, dys, None

    def _rows(self, x: float, lo: int, hi: int):
        """_history_rows before t0; after it, the rows at the node x or
        their Hermite interpolant, as Trajectory.interpolate finds them: a
        point rounded just past the last node extrapolates the last
        segment."""
        if x < self.t0:
            return self._history_rows(x, lo, hi)
        grid, rows_y, rows_d = self.grid, self.rows_y, self.rows_d
        i = _segment_index(grid, x)
        if x == grid[i]:
            return rows_y[i][lo:hi], rows_d[i][lo:hi], None
        if x == grid[i + 1]:
            return rows_y[i + 1][lo:hi], rows_d[i + 1][lo:hi], None
        ys, dys = _hermite_rows(x, grid[i], grid[i + 1], rows_y[i][lo:hi],
                                rows_y[i + 1][lo:hi], rows_d[i][lo:hi],
                                rows_d[i + 1][lo:hi])
        return ys, dys, None

    def _accelerations(self, x: float, dys: list, lo: int):
        """Accelerations at stage time x of lanes lo, lo+1, ..., one per
        velocity in dys.

        Returns the accelerations of the lanes before the first that
        fails, and that lane's failure: a _Collapse, or the error that the
        scalar integrator would raise.  The failure is None when no lane
        fails.
        """
        xm = x - self.tau
        yms, dyms, exc = self._rows(xm, max(lo - 1, 0), lo + len(dys))
        if lo == 0:
            if not yms:
                return [], exc
            try:
                pred_y = [self.lead_pos(xm)] + yms
                pred_d = [self.lead_vel(xm)] + dyms
            except DomainError as err:
                return [], _rejection(x, err)
        else:
            pred_y, pred_d, yms, dyms = yms, dyms, yms[1:], dyms[1:]
        accs, failure = self._law(x, pred_y, pred_d, yms, dyms, dys)
        return accs, exc if failure is None else failure

    def _law(self, x, pred_y, pred_d, yms, dyms, dys):
        """The car-following law at stage time x, lane by lane, up to the
        first lane that fails; returns the accelerations and the failure."""
        alpha, n1, n2, floor = self.alpha, self.n1, self.n2, self.floor
        pow_, isfinite = math.pow, math.isfinite
        accs = []
        try:
            for pp, pv, ym, dym, dy in zip(pred_y, pred_d, yms, dyms, dys):
                gap = pp - ym
                if n2 != 0.0 and gap < floor:
                    return accs, _Collapse(x)
                acc = alpha * pow_(dy, n1) * (pv - dym)
                if n2 != 0.0:
                    acc = acc / pow_(gap, n2)
                if not isfinite(acc):
                    return accs, _rejection(x, "non-finite result")
                accs.append(acc)
        except (ValueError, OverflowError) as err:
            return accs, _rejection(x, err)
        except ZeroDivisionError as err:
            return accs, err
        return accs, None

    def _last_stage_in_order(self, x: float, step: float, ys: list,
                             dys: list, new_y: list, ks: tuple, d4: list):
        """Stage 4 of the step from x - step to x, whose delayed point has
        rounded past the newest node x - step (only one step per delay
        allows that), lane by lane.

        A car reads its own delayed values off its last segment there, but
        the car in front's off that car's next one, from x - step to x, as
        the car-by-car sweep did.  So each lane takes the row the lane in
        front has just finished; ks holds the first three stages.
        """
        xm, xn = x - self.tau, self.grid[-1]
        yms, dyms, exc = self._rows(xm, 0, len(d4))
        if not yms:
            return [], exc
        try:
            pred = self.lead_pos(xm), self.lead_vel(xm)
        except DomainError as err:
            return [], _rejection(x, err)
        accs = []
        for lane, (ym, dym, dy) in enumerate(zip(yms, dyms, d4)):
            acc, failure = self._law(x, [pred[0]], [pred[1]], [ym], [dym],
                                     [dy])
            if failure is not None:
                return accs, failure
            accs.append(acc[0])
            k1, k2, k3 = (k[lane] for k in ks)
            new_d = dys[lane] + step * (k1 + 2.0 * k2 + 2.0 * k3 + acc[0]) / 6.0
            pred = _hermite(xm, xn, x, ys[lane], new_y[lane], dys[lane], new_d)
        return accs, exc

    def _rk4(self, x: float, step: float, ys: list, dys: list, lo: int = 0):
        """One RK4 step from x of lanes lo, lo+1, ... at (ys, dys).

        Returns the new rows of the lanes before the first that fails in
        some stage, and that failure (None if every lane takes the step).
        The right-hand side does not read the stage position, so only the
        stage velocities are formed.
        """
        accel = self._accelerations
        half = 0.5 * step
        k1, exc = accel(x, dys, lo)
        d2 = [d + half * a for d, a in zip(dys, k1)]
        k2, exc2 = accel(x + half, d2, lo)
        d3 = [d + half * a for d, a in zip(dys, k2)]
        k3, exc3 = accel(x + half, d3, lo)
        d4 = [d + step * a for d, a in zip(dys, k3)]
        new_y = [y + step * (a + 2.0 * b + 2.0 * c + e) / 6.0
                 for y, a, b, c, e in zip(ys, dys, d2, d3, d4)]
        if x + step - self.tau > self.grid[-1]:
            k4, exc4 = self._last_stage_in_order(x + step, step, ys, dys,
                                                 new_y, (k1, k2, k3), d4)
        else:
            k4, exc4 = accel(x + step, d4, lo)
        new_d = [d + step * (a + 2.0 * b + 2.0 * c + e) / 6.0
                 for d, a, b, c, e in zip(dys, k1, k2, k3, k4)]
        del new_y[len(new_d):]
        # a later stage fails only on a lane below an earlier failure
        for failure in (exc4, exc3, exc2, exc):
            if failure is not None:
                return new_y, new_d, failure
        return new_y, new_d, None

    def advance(self) -> None:
        """Take every step of the grid, while any lane is advancing."""
        grid, rows_y, rows_d = self.grid, self.rows_y, self.rows_d
        for node, (x, step) in enumerate(self.steps, start=1):
            if not self.active:
                return
            ys, dys, exc = self._rk4(x, step, rows_y[-1], rows_d[-1])
            if isinstance(exc, _Collapse):
                self._record(len(ys), t_c=exc.x)
            elif exc is not None:
                self._record(len(ys), error=exc)
            grid.append(x + step)
            rows_y.append(ys)
            rows_d.append(dys)
            self._scan(node)

    def _scan(self, node: int) -> None:
        """Record the lowest lane at or past the car in front at the node.

        A lane with a node event already is not scanned again."""
        ys = self.rows_y[node]
        pending = self.event is not None and not self.event.final
        n_scan = self.active - 1 if pending else self.active
        if not n_scan:
            return
        try:
            pred = self.lead_pos(self.grid[node])
        except DomainError as exc:
            self._record(0, node=node, node_error=exc)
        else:
            for lane in range(n_scan):
                if pred - ys[lane] <= 0.0:
                    self._record(lane, node=node)
                    break
                pred = ys[lane]
        del ys[self.active:], self.rows_d[node][self.active:]

    def settle(self) -> PlatoonState:
        """The state the sequential sweep over the cars reports, or the
        error it raises."""
        ev = self.event
        if ev is not None and ev.error is not None:
            raise ev.error
        n_cars = len(self.histories)
        kept = n_cars if ev is None else ev.lane
        state = PlatoonState(trajectories=[], leader=self.leader, count=n_cars)
        for lane in range(kept):
            state.trajectories.append(
                self._trajectory(lane, len(self.grid) - 1, len(self.steps)))
        if ev is None:
            return state
        if ev.t_c is None:
            if ev.node_error is not None:
                raise ev.node_error
            traj = self._trajectory(ev.lane, ev.node, len(self.steps))
            t_c = self.grid[ev.node]
        else:
            traj, t_c = self._collapsed(ev)
        state.trajectories.append(traj)
        state.collisions.append((ev.lane + 1, float(t_c)))
        return state

    def _trajectory(self, lane: int, last: int, n_steps: int) -> Trajectory:
        """Lane's trajectory over grid nodes 0..last, after n_steps steps."""
        traj = Trajectory(xs=self.grid[:last + 1],
                          ys=[row[lane] for row in self.rows_y[:last + 1]],
                          dys=[row[lane] for row in self.rows_d[:last + 1]],
                          history=self.histories[lane], h=self.h)
        traj.n_rhs_evals = 4 * n_steps
        return traj

    def _collapsed(self, ev: _Event) -> tuple[Trajectory, float]:
        """The trajectory of a lane whose headway collapsed at ev.t_c, and
        its collision time.

        The lane is solved again to two steps of h before the collapse:
        the grid's own steps while they fit, then at most one partial step
        of this lane alone.  A collapse inside that partial step drops it.
        The re-run's nodes are then scanned for the car in front.
        """
        lane, t0 = ev.lane, self.t0
        end = ev.t_c - 2 * self.h
        if not end > t0:
            return self._trajectory(lane, 0, 0), ev.t_c
        shared, tail = 0, []
        for step in _step_plan(t0, end, self.h, self.tau):
            if not tail and shared < len(self.steps) \
                    and step == self.steps[shared]:
                shared += 1
            else:
                tail.append(step)
        traj = self._trajectory(lane, shared, shared)
        for x, step in tail:
            ys, dys, exc = self._rk4(x, step, traj.ys[-1:], traj.dys[-1:],
                                     lo=lane)
            if isinstance(exc, _Collapse):
                break
            if exc is not None:
                raise exc
            traj.xs.append(x + step)
            traj.ys.append(ys[0])
            traj.dys.append(dys[0])
            traj.n_rhs_evals += 4
        if ev.node is not None and ev.node <= shared:
            if ev.node_error is not None:
                raise ev.node_error
            return self._trajectory(lane, ev.node, len(traj.xs) - 1), \
                self.grid[ev.node]
        for j in range(shared + 1, len(traj.xs)):
            x = traj.xs[j]
            pred = (self.lead_pos(x) if lane == 0
                    else self._rows(x, lane - 1, lane)[0][0])
            if pred - traj.ys[j] <= 0.0:
                del traj.xs[j + 1:], traj.ys[j + 1:], traj.dys[j + 1:]
                return traj, x
        return traj, ev.t_c


# ---------------------------------------------------------------------------
# scenario files


def load_scenario(text: str):
    """Keys: leader, n1, n2, alpha, tau, cars, history.i, t0, t_end, h."""
    values: dict = {"n1": 1.0, "n2": 1.0, "t0": 0.0}
    histories: dict[int, Expr] = {}
    for lineno, key, value in _key_values(text, TrafficError):
        if key.startswith("history."):
            histories[_whole(key.split(".", 1)[1], lineno)] = parse(value)
        elif key in ("leader", "cars"):
            values[key] = value if key == "leader" else _whole(value, lineno)
        elif key in ("n1", "n2", "alpha", "tau", "t_end", "h", "t0"):
            values[key] = _numbers(value, lineno, TrafficError)[0]
        else:
            raise TrafficError(f"line {lineno}: unknown key '{key}'")
    for required in ("leader", "alpha", "tau", "cars", "t_end", "h"):
        if required not in values:
            raise TrafficError(f"scenario file is missing '{required}'")
    n_cars, t0, tau = values["cars"], values["t0"], values["tau"]
    params = TrafficParams(alpha=values["alpha"], n1=values["n1"],
                           n2=values["n2"], tau=tau,
                           leader=parse(values["leader"]))
    hist_fns = []
    for i in range(1, n_cars + 1):
        if i not in histories:
            raise TrafficError(f"scenario file is missing history.{i}")
        hist_fns.append(
            HistoryFunction(subs(histories[i], {"t": E.X}), (t0 - tau, t0))
        )
    return params, n_cars, hist_fns, values["t_end"], values["h"]


def _whole(text: str, lineno: int) -> int:
    """The whole number of a scenario line, or a TrafficError naming it."""
    value = _numbers(text, lineno, TrafficError)[0]
    if value.is_integer():
        return int(value)
    raise TrafficError(f"line {lineno}: expected a whole number, got '{text}'")

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

import functools
import math
from dataclasses import dataclass, field as dc_field, fields, replace

from . import expr as E
from . import reduce as reduce_mod
from .dods import DodsSystem, _expression, _key_values, _numbers
from .expr import Const, Expr, Param, bind_params, compile_fn, diff, subs
from .integrate import (
    HistoryFunction,
    Trajectory,
    _ConstantDelay,
    _STAGES,
    _exact_drift,
    _exec_stepper,
    _read_point,
    _real_roots,
    _rejection,
    _rk4_source,
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
    # position of the car in front, as a function of t; it may read the
    # numeric fields below as parameters of their names
    leader: Expr
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
        if self.tau is not None and not self.tau > 0:
            raise TrafficError("reaction delay tau must be positive")
        if self.q is not None and not 0.0 < self.q < 1.0:
            raise TrafficError("proportional delay needs 0 < q < 1")

    def values(self) -> dict[str, float]:
        """The numeric fields that are set, by name: the params of the
        two-car system and of the leader."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "leader" and getattr(self, f.name) is not None}


#: the fields each worked example takes, with their defaults
_EXAMPLE_DEFAULTS = {
    1: dict(alpha=1.0, n1=1.0, n2=1.0, tau=0.5, v=1.0),
    2: dict(alpha=-1.0, n1=2.0, q=0.25, k=4.0, beta=0.0),
    3: dict(alpha=1.0, n=2.0, epsilon=0.5, tau=1.0, k=1.0),
}


def example_params(example_id: int, **overrides) -> TrafficParams:
    """Defaults for the three worked examples; overrides are keyword fields.

    A field the example does not take is a TrafficError naming it and the
    fields the example takes; so is a NaN or infinite value.
    """
    if example_id not in _EXAMPLE_DEFAULTS:
        raise TrafficError(f"no example {example_id}")
    base = _EXAMPLE_DEFAULTS[example_id]
    for name in overrides:
        if name not in base:
            raise TrafficError(f"example {example_id} takes no {name}; it"
                               f" takes {', '.join(base)}")
        if not math.isfinite(overrides[name]):
            raise TrafficError(f"{name} must be finite, got"
                               f" {overrides[name]}")
    base = {**base, **overrides}
    if example_id == 1:
        return TrafficParams(**base, leader=Param("v") * E.T)
    if example_id == 2:
        n1 = base["n1"]
        if n1 * (n1 - 1.0) == 0.0:
            raise TrafficError("example 2 needs n1 (n1 - 1) != 0")
        if n1 < 1.0 and n1 != int(n1):
            raise TrafficError(
                "example 2 constraint coefficient is ill-defined for"
                " non-integer n1 < 1; restrict to n1 > 1 or integer n1"
            )
        return TrafficParams(**base, n2=0.0, n=1.0 - 1.0 / n1,
                             leader=Param("k") * E.T ** Param("n"))
    n = base["n"]
    if n == 0.0:
        raise TrafficError("example 3 needs n != 0")
    return TrafficParams(**base, n1=n, n2=n,
                         leader=Param("k") * E.Call(
                             "exp", Param("epsilon") * E.T))


def build_two_car(p: TrafficParams) -> DodsSystem:
    """Two-car system: the leader folded into the right-hand side.

    The leader's velocity is obtained by symbolic differentiation of its
    position expression, never numerically.  alpha, n1, n2, tau and q
    enter as parameters of those names and the system's params hold the
    values of p, so every parameter set of one family gives the same f and
    g, whose kernels are built once.  Only an exponent n2 of 0 and an
    exponent of exactly 1 stay in the structure, so that they cost no
    power.  bound_system(system) gives the trees built from constants.
    """
    lead_pos_delayed = subs(p.leader, {"t": E.XM})
    lead_vel_delayed = subs(diff(p.leader, "t"), {"t": E.XM})
    core = Param("alpha") * E.DY ** _exponent(p, "n1") * (
        lead_vel_delayed - E.DYM)
    if p.n2 != 0.0:
        core = core / (lead_pos_delayed - E.YM) ** _exponent(p, "n2")
    g = Param("q") * E.X if p.q is not None else E.X - Param("tau")
    return DodsSystem(f=E.simplify(core), g=g, params=p.values(),
                      box=_sampling_box(p))


def _exponent(p: TrafficParams, name: str) -> Expr:
    """The exponent of p named name: a parameter, or 1 where it is 1."""
    return E.ONE if getattr(p, name) == 1.0 else Param(name)


def bound_system(system: DodsSystem) -> DodsSystem:
    """A two-car system with its params bound into f and g as constants:
    the trees build_two_car makes from constants, f simplified and g as it
    is, with no params."""
    return replace(system, f=E.simplify(system.bound(system.f)),
                   g=system.bound(system.g), params={}, box=dict(system.box))


def bound_field(x_field: VectorField, params) -> VectorField:
    """x_field with params bound into its coefficients as constants."""
    return VectorField(bind_params(x_field.xi, params),
                       bind_params(x_field.eta, params), x_field.label)


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
    return build_two_car(p)


def example_symmetry(example_id: int, p: TrafficParams | None = None) -> VectorField:
    """The generator whose invariant solution the example constructs, with
    the values of p as constants."""
    p = p if p is not None else example_params(example_id)
    return bound_field(_symmetry(example_id), p.values())


def _symmetry(example_id: int) -> VectorField:
    """example_symmetry with the parameters as symbols."""
    if example_id == 1:
        return VectorField(Const(1.0), Param("v"), label="d/dt + v d/dx")
    if example_id == 2:
        return VectorField(E.X, Param("n") * (E.Y - Param("beta")),
                           label="t d/dt + n (x - beta) d/dx")
    if example_id == 3:
        return VectorField(Const(1.0), Param("epsilon") * E.Y,
                           label="d/dt + eps x d/dx")
    raise TrafficError(f"no example {example_id}")


def example_algebra(example_id: int, p: TrafficParams | None = None) -> list[VectorField]:
    """Basis admitted by the example system (dimension two for example 2),
    with the parameters as symbols whose values are the params of
    example_system(example_id, p)."""
    if example_id == 2:
        return [
            VectorField(E.X, Param("n") * E.Y, label="t d/dt + n x d/dx"),
            VectorField(Const(0.0), Const(1.0), label="d/dx"),
        ]
    return [_symmetry(example_id)]


# ---------------------------------------------------------------------------
# the constraint equations for the invariant-solution constants


def _constraint(example_id: int, p: TrafficParams) -> Expr:
    """c(A) as one expression in the parameter A."""
    a = Param("A")
    if example_id == 2:
        n1, q, k, alpha = p.n1, p.q, p.k, p.alpha
        coeff = alpha * (n1 - 1.0) ** n1 / n1 ** (n1 - 1.0) * q ** (-1.0 / n1)
        return Const(coeff) * (Const(k) - a) * a ** Const(n1 - 1.0) + 1.0
    if example_id == 3:
        n, eps, tau, k, alpha = p.n, p.epsilon, p.tau, p.k, p.alpha
        base = (Const(eps) * E.Call("exp", Const(eps) * Const(tau)) * a
                / (Const(k) - a))
        return Const(alpha) * base ** Const(n - 1.0) - 1.0
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
    verify: bool = True,
) -> ConstraintResult:
    """All real roots of the constraint by integrate._real_roots over 4000
    cells per window, with the exact c' that diff derives.

    A double root (c touching zero) is flagged.  Roots at or beyond the
    leader amplitude mean the follower would sit on or ahead of the
    leader, so they are inadmissible; none admissible yields a collision
    warning.
    """
    c_expr = _constraint(example_id, p)
    c, dc = (compile_fn(e, ("A",)) for e in (c_expr, diff(c_expr, "A")))
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
            for a, dbl, _, _ in _real_roots(c, dc, lo, hi, 4000)
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
    collisions: list[tuple[int, float]] = dc_field(default_factory=list)


def simulate_platoon(
    p: TrafficParams,
    n_cars: int,
    histories: list[HistoryFunction],
    t_end: float,
    h: float,
) -> PlatoonState:
    """Follower chain under a constant reaction delay.

    Every history must end at the same t0 (a TrafficError names the first
    car whose history ends elsewhere), so that all cars share one node
    grid: the steps from t0 to t_end aligned to tau, as a solve under the
    delay tau takes them.  The cars advance together, in groups of at most
    _GROUP cars, in one generated loop per shape (_lockstep) that takes
    every car through each RK4 step with the car-following law as its
    right-hand side.  The loop places each distinct delayed point of the
    stages once for all cars, reads every car's own (y, dy) there, at its
    node or in its segment, from the car's rows or its history, and hands
    each car the values the car in front read at that point; car 1 reads
    the leader, once at each point.  The first car of a later group reads
    the last car of the group in front, from its rows, as that car read
    itself.  A delayed point at the newest node, or rounded just past it
    (only one step per delay allows that), reads that node.  Every car
    runs the same right-hand side.  Its two powers are taken with
    math.pow, except that an exponent of 1 gives the base itself and one
    of 0 gives 1.0, as math.pow would: a power without a real value or a
    non-finite result is a StepRejectionError.  A t_end, h or tau that is
    not finite is a StepPlanError before any car is integrated.

    A car collides at the first node after t0 where it has reached the car
    in front, and its trajectory ends at that node.  If its delayed headway
    falls below 1e-6 first (which would make the right-hand side
    singular), at stage time t_c, its trajectory ends at the last grid
    node at or before t_c - 2h, or at its start if there is none past t0:
    no car is integrated twice.  The car collides at t_c unless one of the
    kept nodes has reached the car in front.  A car's n_rhs_evals counts
    every acceleration it computed, past its last kept node too.  A car
    fails where a step is rejected or its history does not reach back one
    delay.  The outcome is that of the lowest-index car that collides or
    fails, and the cars behind it are dropped: a failure is raised, even
    after a node where the car reached the car in front.  So a car that
    collapses or fails stops the cars behind it at that step, and the
    failure of a car is held while the cars in front of it run on, raised
    only if every one of them finishes without a collision.
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
    values = p.values()
    lead_pos = compile_fn(subs(p.leader, {"t": E.X}), ("x",), values)
    lead_vel = compile_fn(subs(diff(p.leader, "t"), {"t": E.X}), ("x",),
                          values)
    steps = list(_step_plan(t0, t_end, h, p.tau))
    state = PlatoonState(trajectories=[])
    front = None  # the last car of the group in front
    for first in range(0, n_cars, _GROUP):
        trajs, event = _advance(p, steps, histories[first:first + _GROUP],
                                front, (lead_pos, lead_vel))
        for car, traj in enumerate(trajs, start=first + 1):
            xs, ys, dys = traj.xs, traj.ys, traj.dys
            t_c, traj.n_rhs_evals = None, 4 * (len(ys) - 1)
            if event is not None and event[0] == car - first:
                if not isinstance(event[1], _Collapse):
                    raise event[1]
                t_c, traj.n_rhs_evals = event[1].x, event[1].n_accels
                end = t_c - 2 * h
                kept = 1  # the start node and the steps a solve to end takes
                for x, step in steps:
                    if step > end - x:
                        break
                    kept += 1
                del xs[kept:], ys[kept:], dys[kept:]
            for j in range(1, len(xs)):
                front_y = lead_pos(xs[j]) if front is None else front.ys[j]
                if front_y - ys[j] <= 0.0:
                    t_c = xs[j]
                    del xs[j + 1:], ys[j + 1:], dys[j + 1:]
                    break
            state.trajectories.append(traj)
            if t_c is not None:
                state.collisions.append((car, float(t_c)))
                return state
            front = traj
        if event is not None:  # a history without a value at t0
            raise event[1]
    return state


#: the delayed headway below which a platoon car's trajectory is cut
_HEADWAY_FLOOR = 1e-6

#: the most cars one generated loop steps, which bounds the text of a
#: loop, about 100 lines a car, and so the time to compile it
_GROUP = 16


class _Collapse(Exception):
    """The delayed headway fell below the floor at stage time x, after
    n_accels accelerations of the car."""

    def __init__(self, x: float, n_accels: int):
        super().__init__(f"headway collapsed at t = {x:g}")
        self.x = x
        self.n_accels = n_accels


def _advance(p: TrafficParams, steps, histories, front, lead):
    """Take the cars of histories, one group, through the steps of the
    plan steps, behind the trajectory front or, where front is None,
    behind the leader's compiled (position, velocity) lead.

    Returns the cars' trajectories, on one grid, and the event that ends
    the group: (i, exc) for its first car i (from 1) that collapsed (exc a
    _Collapse) or failed, or None.  The cars from an event car back stop
    at the step of the event, and the cars in front of it take that step
    again in a loop without them, so that a later event of one of them
    replaces it.  A car whose history has no value at t0 is an event
    without a trajectory.
    """
    t0 = histories[0].interval[1]
    trajs, event = [], None
    for i, phi in enumerate(histories, start=1):
        try:
            y0, dy0 = phi.value(t0)
        except Exception as exc:
            event = i, exc
            break
        trajs.append(Trajectory(xs=[], ys=[y0], dys=[dy0], history=phi))
    grid = [t0]
    speed, headway = _power("{}", "n1", p.n1), _power("{}", "n2", p.n2)
    n = len(trajs)
    while n:
        args = [a for t in trajs[:n] for a in (
            t.ys, t.dys, t.history.value, t.history.interval[0] - 1e-12)]
        if front is not None:
            args += [front.ys, front.dys, front.history.value]
        loop = _lockstep(n, front is not None, speed, headway)(
            p.alpha, p.n1, p.n2, math.pow, *(lead if front is None else ()))
        stop = loop(steps[len(grid) - 1:], grid, p.tau, *args)
        if stop is None:
            break
        event = stop
        n = stop[0] - 1
    for t in trajs:
        t.xs = grid[:len(t.ys)]
    return trajs, event


def _power(base: str, name: str, exponent: float) -> str:
    """The code of math.pow(base, name) where name holds exponent: the base
    itself at 1 and 1.0 at 0, which math.pow gives there for every float
    base."""
    return (base if exponent == 1.0 else "1.0" if exponent == 0.0 else
            f"_pow({base}, {name})")


@functools.cache
def _lockstep(n: int, behind_a_car: bool, speed: str, headway: str):
    """The factory of the loop that takes n cars of a platoon through each
    RK4 step together, under the car-following law alpha * speed * dv /
    headway, where speed and headway are _power codes of the base `{}`.

    The loop is `_run(steps, grid, delay, ys_1, dys_1, phi_1, lo_1, ...,
    ys_n, dys_n, phi_n, lo_n)` of integrate._rk4_source, with the names of
    car i ending in _i, followed by the front car's `ys_0, dys_0, phi_0`
    for a group behind a car; otherwise car 1 reads `lead_pos` and
    `lead_vel`, whose DomainError rejects the stage.  Each distinct
    delayed point is placed once, and every car reads itself there into
    (m_i, p_i) as a solve reads its own rows, with its own history and
    lower end off the grid; the front car reads its complete rows as it
    read them when they ended at the newest node.  Car i then takes the
    headway m_<i-1> - m_i and the velocity difference p_<i-1> - p_i from
    the car in front.  The loop returns None when it has taken every
    step, or (i, exc) at the first car i whose headway collapsed (a
    _Collapse) or which failed, before the step is appended.
    """
    cars = [f"_{c}" for c in range(1, n + 1)]
    reads = [(f"ys{i}", f"dys{i}", f"m{i}", f"p{i}") for i in cars]
    off_grid = []
    for c, i in enumerate(cars, start=1):
        off_grid += [
            "try:",
            f"    m{i}, p{i} = phi{i}(_a2) if lo{i} <= _a2 < x0 else"
            f" _outside(_a0, _a2, newest, lo{i}, ys{i}, dys{i})",
            "except Exception as exc:",
            f"    return {c}, exc"]
    if behind_a_car:
        reads.insert(0, ("ys_0", "dys_0", "m_0", "p_0"))
        off_grid.insert(0, "m_0, p_0 = phi_0(_a2) if _a2 < x0 else"
                           " (ys_0[len(grid) - 1], dys_0[len(grid) - 1])")
        front = []
    else:
        front = ["try:",
                 "    m_0 = lead_pos(_a2)",
                 "    p_0 = lead_vel(_a2)",
                 "except DomainError as err:",
                 "    return 1, _rejection(_a0, err)"]
    # with n2 = 0 the headway never enters: no floor and no division
    divides = headway != "1.0"

    def place(done):
        lines = _read_point(_ConstantDelay.xm, reads, off_grid) + front
        for c, i in enumerate(cars, start=1):
            ahead = f"_{c - 1}"
            if divides:
                lines += [
                    f"gap{i} = m{ahead} - m{i}",
                    f"if gap{i} < {_HEADWAY_FLOOR!r}:",
                    f"    return {c}, _Collapse(_a0, 4 * len(grid) - 4"
                    f" + {done})"]
            lines.append(f"dv{i} = p{ahead} - p{i}")
        return lines

    def stage(k):
        lines = []
        for c, i in enumerate(cars, start=1):
            _, dy, code = (text and text.format(i=i) for text in _STAGES[k])
            lines += [
                *([f"{dy} = {code}"] if code else []),
                "try:",
                f"    acc = alpha * {speed.format(dy)} * dv{i}",
                *([f"    acc = acc / {headway.format(f'gap{i}')}"]
                  if divides else []),
                "except (ValueError, OverflowError, ZeroDivisionError)"
                " as err:",
                f"    return {c}, _rejection(_a0, err)",
                "if not _isfinite(acc):",
                f"    return {c}, _rejection(_a0, 'non-finite result')",
                f"k{k}{i} = acc"]
        return lines

    head = "alpha, n1, n2, _pow" + ("" if behind_a_car else
                                    ", lead_pos, lead_vel")
    args = ", ".join(["delay", *(f"ys{i}, dys{i}, phi{i}, lo{i}"
                                 for i in cars),
                      *(["ys_0, dys_0, phi_0"] if behind_a_car else [])])
    return _exec_stepper(_rk4_source(head, args, cars, place, stage),
                         _Collapse=_Collapse, _rejection=_rejection)


# ---------------------------------------------------------------------------
# scenario files


def load_scenario(text: str):
    """Keys: leader, n1, n2, alpha, tau, cars, history.i, t0, t_end, h."""
    values: dict = {"n1": 1.0, "n2": 1.0, "t0": 0.0}
    histories: dict[int, tuple[int, str, Expr]] = {}
    for lineno, key, value in _key_values(text, TrafficError):
        if key.startswith("history."):
            car = _whole(key.split(".", 1)[1], lineno)
            if car in histories:
                raise TrafficError(
                    f"line {lineno}: '{key}' is a second history of car"
                    f" {car}, first on line {histories[car][0]}")
            histories[car] = lineno, key, _expression(value, lineno,
                                                      TrafficError)
        elif key == "leader":
            values[key] = _expression(value, lineno, TrafficError)
        elif key == "cars":
            values[key] = _whole(value, lineno)
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
                           leader=values["leader"])
    for car, (lineno, key, _) in histories.items():
        if not 1 <= car <= n_cars:
            raise TrafficError(
                f"line {lineno}: '{key}' names car {car}, but cars = {n_cars}")
    hist_fns = []
    for i in range(1, n_cars + 1):
        if i not in histories:
            raise TrafficError(f"scenario file is missing history.{i}")
        hist_fns.append(
            HistoryFunction(subs(histories[i][2], {"t": E.X}), (t0 - tau, t0))
        )
    return params, n_cars, hist_fns, values["t_end"], values["h"]


def _whole(text: str, lineno: int) -> int:
    """The whole number of a scenario line, or a TrafficError naming it."""
    value = _numbers(text, lineno, TrafficError)[0]
    if value.is_integer():
        return int(value)
    raise TrafficError(f"line {lineno}: expected a whole number, got '{text}'")

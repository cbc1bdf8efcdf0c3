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
    Trajectory,
    _ConstantDelay,
    _bisect,
    _exact_drift,
    _sign_scan,
    solve_numeric,
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

    Cars integrate in index order; car i only ever reads car i-1's past,
    so the sequential sweep reproduces the lockstep result exactly.  Every
    car, the first included, runs the same right-hand side, its two powers
    taken with math.pow: a power without a real value or a non-finite
    result is a DomainError, which the integrator reports as a
    StepRejectionError.  A car collides
    at the first node after its history where it has reached the car in
    front, its trajectory truncated at that node.  If no node does, it
    collides where the delayed headway falls below the floor (which would
    make the right-hand side singular), its trajectory ending two steps
    before, or at its start when no step ends that early.  The collision
    is recorded with its car and time, and the remaining cars are not
    advanced.
    """
    if p.q is not None:
        raise TrafficError("platoon simulation is stated for constant delay")
    if n_cars < 1:
        raise TrafficError("need at least one car")
    if len(histories) != n_cars:
        raise TrafficError("need one history per car")
    delay = _ConstantDelay(p.tau)
    lead_pos = compile_fn(subs(p.leader, {"t": E.X}), ("x",))
    lead_vel = compile_fn(subs(diff(p.leader, "t"), {"t": E.X}), ("x",))
    state = PlatoonState(trajectories=[], leader=p.leader, count=n_cars)

    def make_rhs(pred_lookup):
        alpha, n1, n2 = p.alpha, p.n1, p.n2

        def f_eval(x, y, xm, ym, dy, dym):
            pred_pos_d, pred_vel_d = pred_lookup(xm)
            gap = pred_pos_d - ym
            if n2 != 0.0 and gap < headway_floor:
                raise _Collision(x)
            try:
                acc = alpha * math.pow(dy, n1) * (pred_vel_d - dym)
                acc = acc / math.pow(gap, n2) if n2 != 0.0 else acc
            except (ValueError, OverflowError) as exc:
                raise DomainError(str(exc)) from None
            if not math.isfinite(acc):
                raise DomainError("non-finite result")
            return acc

        return f_eval

    for i, phi in enumerate(histories):
        if i == 0:
            pred_lookup = lambda s: (lead_pos(s), lead_vel(s))  # noqa: E731
            pred_now = lead_pos
            car_end = t_end
        else:
            pred_traj = state.trajectories[i - 1]
            pred_lookup = pred_traj.interpolate
            pred_now = lambda s: pred_traj.interpolate(s)[0]  # noqa: E731
            car_end = min(t_end, pred_traj.x_end)
        rhs = make_rhs(pred_lookup)
        x0, t_c = phi.interval[1], None
        try:
            traj = solve_numeric(rhs, delay, phi, "from-phi", car_end, h)
        except _Collision as exc:
            t_c = exc.x
            if t_c - 2 * h > x0:
                traj = solve_numeric(rhs, delay, phi, "from-phi", t_c - 2 * h, h)
            else:  # no step ends two steps before the collision
                y0, dy0 = phi.value(x0)
                traj = Trajectory([x0], [y0], [dy0], phi, h)
        # ordering violation scan at the nodes
        for j, (x, y) in enumerate(zip(traj.xs, traj.ys)):
            if x > x0 and pred_now(x) - y <= 0.0:
                t_c = x
                del traj.xs[j + 1:], traj.ys[j + 1:], traj.dys[j + 1:]
                break
        state.trajectories.append(traj)
        if t_c is not None:
            state.collisions.append((i + 1, float(t_c)))
            return state
    return state


class _Collision(Exception):
    def __init__(self, x: float):
        super().__init__(f"headway collapsed at t = {x:g}")
        self.x = x


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

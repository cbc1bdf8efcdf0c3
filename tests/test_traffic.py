import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dodesym import expr as E
from dodesym import integrate, traffic
from dodesym.dods import check_invariance
from dodesym.expr import DomainError, evaluate, parse
from dodesym.integrate import HistoryFunction, StepRejectionError, solve
from dodesym.traffic import (
    ConstraintResult,
    TrafficError,
    TrafficParams,
    build_two_car,
    compare_exact_vs_numeric,
    exact_solution,
    example_algebra,
    example_params,
    example_symmetry,
    example_system,
    load_scenario,
    simulate_platoon,
    solve_constraint,
)


class TestBuildTwoCar:
    def test_constant_velocity_leader(self):
        p = example_params(1)  # v = 1, tau = 0.5, alpha = n1 = n2 = 1
        system = example_system(1, p)
        pt = {"x": 2.2, "y": 2.0, "xm": 1.7, "ym": 1.0, "dy": 1.2,
              "dym": 0.8, "ddy": 0.0}
        expected = 1.0 * 1.2 * (1.0 - 0.8) / (1.0 * 1.7 - 1.0)
        assert evaluate(system.bound(system.f), pt) == pytest.approx(
            expected, rel=1e-12)
        assert evaluate(system.bound(system.g), pt) == pytest.approx(1.7)

    def test_power_law_leader_with_proportional_delay(self):
        p = example_params(2)  # alpha=-1, n1=2, n=1/2, q=0.25, k=4
        system = example_system(2, p)
        pt = {"x": 2.0, "y": 2.0, "xm": 0.5, "ym": 1.0, "dy": 1.5,
              "dym": 0.7, "ddy": 0.0}
        lead_vel = 4.0 * 0.5 * 0.5 ** (-0.5)
        expected = -1.0 * 1.5 ** 2 * (lead_vel - 0.7)
        assert evaluate(system.bound(system.f), pt) == pytest.approx(
            expected, rel=1e-12)
        assert evaluate(system.bound(system.g), pt) == pytest.approx(0.5)

    def test_exponential_leader(self):
        p = example_params(3)  # alpha=1, n=2, eps=0.5, tau=1, k=1
        system = example_system(3, p)
        pt = {"x": 2.2, "y": 2.0, "xm": 1.2, "ym": 1.0, "dy": 1.1,
              "dym": 0.9, "ddy": 0.0}
        lead_pos = math.exp(0.5 * 1.2)
        lead_vel = 0.5 * lead_pos
        expected = 1.1 ** 2 * (lead_vel - 0.9) / (lead_pos - 1.0) ** 2
        assert evaluate(system.bound(system.f), pt) == pytest.approx(
            expected, rel=1e-12)

    def test_leader_velocity_is_symbolic(self):
        # the delayed leader velocity must match the exact derivative
        p = example_params(3)
        system = example_system(3, p)
        f_text = E.to_text(system.f)
        assert "exp" in f_text  # derivative of k e^(eps t) stays exponential


def _const_built(example_id: int, p):
    """f, g and the symmetry of an example built with its values as
    constants, as build_two_car and example_symmetry built them before the
    parameters became symbols: the oracle of the templates."""
    Const = E.Const
    leader = {1: lambda: Const(p.v) * E.T,
              2: lambda: Const(p.k) * E.T ** Const(p.n),
              3: lambda: Const(p.k) * E.Call("exp", Const(p.epsilon) * E.T),
              }[example_id]()
    pos = E.subs(leader, {"t": E.XM})
    vel = E.subs(E.diff(leader, "t"), {"t": E.XM})
    core = Const(p.alpha) * E.DY ** Const(p.n1) * (vel - E.DYM)
    if p.n2 != 0.0:
        core = core / (pos - E.YM) ** Const(p.n2)
    g = Const(p.q) * E.X if p.q is not None else E.X - Const(p.tau)
    symmetry = {1: lambda: (Const(1.0), Const(p.v)),
                2: lambda: (E.X, Const(p.n) * (E.Y - Const(p.beta))),
                3: lambda: (Const(1.0), Const(p.epsilon) * E.Y),
                }[example_id]()
    return E.simplify(core), g, symmetry


def _sweep_params(rng, example_id: int) -> dict:
    """A parameter set from the ranges of the benchmark's traffic sweep."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    if example_id == 1:
        return {"alpha": u(0.5, 2.0), "tau": u(0.3, 1.0), "v": u(0.8, 1.5)}
    if example_id == 2:
        return {"n1": u(1.5, 3.0), "q": u(0.2, 0.6), "k": u(2.0, 6.0),
                "beta": u(-0.5, 0.5)}
    return {"alpha": u(0.5, 1.5), "n": u(1.5, 3.0), "epsilon": u(0.3, 0.8),
            "tau": u(0.5, 1.5), "k": u(1.0, 2.0)}


class TestParameterTemplates:
    """The examples are templates with their parameters as symbols; bound,
    they are the trees built from constants."""

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_bound_templates_are_the_constant_built_trees(self, example_id):
        import numpy as np

        from dodesym.traffic import bound_system

        rng = np.random.default_rng(100 + example_id)
        template = example_system(example_id).f
        for _ in range(100):
            p = example_params(example_id, **_sweep_params(rng, example_id))
            system = example_system(example_id, p)
            assert system.f is template  # one tree per family
            f, g, (xi, eta) = _const_built(example_id, p)
            bound = bound_system(system)
            assert bound.f is f and bound.g is g and bound.params == {}
            symmetry = example_symmetry(example_id, p)
            assert symmetry.xi is xi and symmetry.eta is eta

    def test_a_second_parameter_set_builds_nothing(self, monkeypatch):
        import numpy as np

        calls = []
        for name in ("_diff", "_generate"):
            real = getattr(E, name)
            monkeypatch.setattr(E, name, lambda *a, _r=real, _n=name: (
                calls.append(_n), _r(*a))[1])
        rng = np.random.default_rng(7)
        for example_id in (1, 2, 3):
            for request in range(2):
                p = example_params(example_id,
                                   **_sweep_params(rng, example_id))
                system = example_system(example_id, p)
                basis = example_algebra(example_id, p)
                calls.clear()
                misses = E.memo_info().misses
                reports = [check_invariance(system, f, n=2000, seed=request)
                           for f in basis]
                assert all(r.passed for r in reports)
            assert calls == [] and E.memo_info().misses == misses

    def test_a_domain_error_names_the_values(self):
        from dodesym.expr import DomainError, compile_fn

        p = example_params(1, v=1.25, alpha=0.5)
        system = example_system(1, p)
        names = ("x", "y", "xm", "ym", "dy", "dym")
        f = compile_fn(system.f, names, system.params)
        # the headway v xm - ym is zero
        with pytest.raises(DomainError) as err:
            f(3.0, 1.0, 2.0, 2.5, 1.0, 1.0)
        bound = E.bind_params(system.f, system.params)
        assert err.value.subexpr is bound
        assert str(err.value) == f"division by zero in '{E.to_text(bound)}'"
        assert "0.5" in str(err.value) and "1.25" in str(err.value)


class TestParamsValidation:
    def test_alpha_nonzero(self):
        with pytest.raises(TrafficError, match="alpha"):
            TrafficParams(alpha=0.0, n1=1, n2=1, tau=0.5, leader=parse("t"))

    def test_delay_must_be_given_once(self):
        with pytest.raises(TrafficError):
            TrafficParams(alpha=1.0, n1=1, n2=1, leader=parse("t"))
        with pytest.raises(TrafficError):
            TrafficParams(alpha=1.0, n1=1, n2=1, tau=0.5, q=0.5,
                          leader=parse("t"))

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.nan])
    def test_tau_must_be_positive(self, tau):
        # NaN <= 0 is false: the test is that tau > 0 holds
        with pytest.raises(TrafficError,
                           match="^reaction delay tau must be positive$"):
            TrafficParams(alpha=1.0, n1=1, n2=1, tau=tau, leader=parse("t"))

    def test_example2_exponent_restrictions(self):
        with pytest.raises(TrafficError, match="n1"):
            example_params(2, n1=1.0)
        with pytest.raises(TrafficError, match="non-integer"):
            example_params(2, n1=0.5)

    def test_proportional_delay_window(self):
        with pytest.raises(TrafficError, match="0 < q < 1"):
            example_params(2, q=1.5)

    @pytest.mark.parametrize("example_id,overrides,message", [
        (1, {"k": 9.0, "epsilon": 3.0},
         "example 1 takes no k; it takes alpha, n1, n2, tau, v"),
        (2, {"n2": 5.0, "tau": 3.0},
         "example 2 takes no n2; it takes alpha, n1, q, k, beta"),
        (3, {"v": 7.0, "q": 0.3},
         "example 3 takes no v; it takes alpha, n, epsilon, tau, k"),
    ])
    def test_field_the_example_does_not_take(self, example_id, overrides,
                                             message):
        with pytest.raises(TrafficError) as err:
            example_params(example_id, **overrides)
        assert str(err.value) == message

    @pytest.mark.parametrize("example_id,name,value", [
        (1, "v", math.nan), (1, "tau", math.inf), (1, "alpha", math.nan),
        (2, "q", -math.inf), (3, "k", math.nan),
    ])
    def test_non_finite_field_is_refused(self, example_id, name, value):
        with pytest.raises(TrafficError) as err:
            example_params(example_id, **{name: value})
        assert str(err.value) == f"{name} must be finite, got {value}"

    def test_example3_nonzero_exponent(self):
        with pytest.raises(TrafficError, match="n != 0"):
            example_params(3, n=0.0)


class TestSymmetries:
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_generators_pass_at_tight_tolerance(self, example_id):
        p = example_params(example_id)
        system = example_system(example_id, p)
        for fld in example_algebra(example_id, p):
            report = check_invariance(system, fld, n=200, tol=1e-9)
            assert report.passed, report.summary()

    def test_example2_combined_generator(self):
        p = example_params(2, beta=0.7)
        system = example_system(2, p)
        report = check_invariance(system, example_symmetry(2, p), n=200,
                                  tol=1e-9)
        assert report.passed


class TestConstraints:
    def test_example3_closed_form(self):
        p = example_params(3)
        result = solve_constraint(3, p)
        closed = p.k / (1.0 + p.epsilon * math.exp(p.epsilon * p.tau))
        assert len(result.roots) == 1
        root = result.roots[0]
        assert root.A == pytest.approx(closed, abs=1e-12)
        assert root.A == pytest.approx(0.5481, abs=1e-4)
        assert root.admissible and root.A < p.k
        assert result.B == p.tau
        c = E.compile_fn(traffic._constraint(3, p), ("A",))
        assert abs(c(root.A)) < 1e-12
        assert root.verification.grid_residual < 1e-10

    def test_example2_two_admissible_roots(self):
        p = example_params(2)  # alpha=-1, q=0.25, k=4
        result = solve_constraint(2, p)
        admissible = [r.A for r in result.admissible_roots]
        assert admissible == pytest.approx(
            [2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)], abs=1e-12)
        c = E.compile_fn(traffic._constraint(2, p), ("A",))
        for r in result.admissible_roots:
            assert abs(c(r.A)) < 1e-12
            assert r.A < p.k
            assert r.verification.grid_residual < 1e-10
        assert result.warning is None

    def test_example2_double_root_flagged(self):
        # alpha = -4, q = 1/4, k = 1 makes the quadratic a perfect square
        p = example_params(2, alpha=-4.0, k=1.0)
        result = solve_constraint(2, p, verify=False)
        assert len(result.roots) == 1
        root = result.roots[0]
        assert root.A == pytest.approx(0.5, abs=1e-12)
        assert root.double and root.admissible

    @pytest.mark.parametrize("q,k", [(0.25, 1.5), (0.3, 2.0), (0.5, 0.9),
                                     (0.2, 3.7)])
    def test_example2_double_root_to_full_precision(self, q, k):
        # n1 = 3: c(A) = coeff (k - A) A^2 + 1, where (k - A) A^2 peaks at
        # A = 2k/3 with 4k^3/27, and this alpha makes c touch zero there
        alpha = -243.0 / (32.0 * k ** 3) * q ** (1.0 / 3.0)
        p = example_params(2, alpha=alpha, n1=3.0, q=q, k=k)
        result = solve_constraint(2, p, verify=False)
        assert len(result.roots) == 1
        root = result.roots[0]
        assert root.double
        assert abs(root.A - 2.0 * k / 3.0) <= 1e-15

    @pytest.mark.parametrize("eps", [1e-8, 1e-9])
    def test_example2_close_pair_past_the_double_root(self, eps):
        # c(A) ~ -eps + 3 (A - 1)^2 near A = 1: roots at 1 -+ sqrt(eps/3),
        # with no grid node of the scan between them
        q, k = 0.25, 1.5
        alpha = -243.0 / (32.0 * k ** 3) * q ** (1.0 / 3.0) * (1.0 + eps)
        p = example_params(2, alpha=alpha, n1=3.0, q=q, k=k)
        result = solve_constraint(2, p, verify=False)
        assert result.warning is None
        assert len(result.roots) == 2
        d = math.sqrt(eps / 3.0)
        for root, sign in zip(result.roots, (-1.0, 1.0)):
            assert root.admissible and not root.double
            assert (root.A - 1.0) * sign == pytest.approx(d, rel=1e-3)

    @pytest.mark.parametrize("eps", [1e-11, 0.0])
    def test_example2_double_root_within_the_acceptance(self, eps):
        # |c| at the extremum is about eps, below the 1e-10 acceptance
        q, k = 0.25, 1.5
        alpha = -243.0 / (32.0 * k ** 3) * q ** (1.0 / 3.0) * (1.0 + eps)
        p = example_params(2, alpha=alpha, n1=3.0, q=q, k=k)
        result = solve_constraint(2, p, verify=False)
        assert len(result.roots) == 1
        root = result.roots[0]
        assert root.double and root.admissible
        assert abs(root.A - 1.0) <= 1e-15

    @pytest.mark.parametrize("example_id,overrides", [
        (2, {}), (2, dict(alpha=-2.0, q=0.5, k=2.0)),
        (2, dict(alpha=1.3, n1=2.5, q=0.7, k=3.0)),
        (2, dict(alpha=-1.4174111811317323, n1=3.0, q=0.25, k=1.5)),
        (2, dict(alpha=0.6, n1=-1.0, q=0.4, k=0.8)),
        (3, {}), (3, dict(alpha=-0.7, n=3.0, epsilon=0.8, tau=0.4, k=2.0)),
        (3, dict(alpha=2.0, n=0.5, epsilon=1.2, tau=2.0, k=0.6)),
        (3, dict(alpha=1.0, n=2.5, epsilon=-0.5, tau=1.0, k=1.0)),
        (3, dict(alpha=1.0, n=40.0, epsilon=0.5, tau=1.0, k=1.0)),
        (3, dict(alpha=1.0, n=2.0, epsilon=30.0, tau=30.0, k=1.0)),
    ])
    def test_constraint_keeps_the_closure_values(self, example_id, overrides):
        # the closures that computed c before it was one expression in A:
        # where one raised or gave no finite real value, c is a DomainError
        p = example_params(example_id, **overrides)
        if example_id == 2:
            coeff = (p.alpha * (p.n1 - 1.0) ** p.n1 / p.n1 ** (p.n1 - 1.0)
                     * p.q ** (-1.0 / p.n1))

            def closure(a):
                return coeff * (p.k - a) * a ** (p.n1 - 1.0) + 1.0
        else:
            def closure(a):
                base = p.epsilon * math.exp(p.epsilon * p.tau) * a / (p.k - a)
                return p.alpha * base ** (p.n - 1.0) - 1.0

        c = E.compile_fn(traffic._constraint(example_id, p), ("A",))
        edge = 1e-9 * p.k
        for lo, hi in ((edge, p.k - edge), (p.k + edge, 3.0 * p.k)):
            for a in np.linspace(lo, hi, 401).tolist():
                try:
                    want = closure(a)
                except (ValueError, ZeroDivisionError, OverflowError):
                    want = None
                if isinstance(want, float) and math.isfinite(want):
                    assert c(a).hex() == want.hex()
                else:
                    with pytest.raises(DomainError):
                        c(a)

    def test_example2_collision_regime_warns(self):
        p = example_params(2, alpha=1.0, k=1.0)
        result = solve_constraint(2, p, verify=False)
        assert not result.admissible_roots
        assert result.warning is not None
        assert "collision" in result.warning
        # the only root sits beyond the leader scale
        assert all(r.A > p.k for r in result.roots)


class TestCompare:
    def test_drifting_follower_stays_exact(self):
        p = example_params(1)
        dev = compare_exact_vs_numeric(1, p, t_end=5 * p.tau, h=1e-3, A=-1.0)
        assert dev < 1e-9

    def test_exponential_follower(self):
        p = example_params(3)
        dev = compare_exact_vs_numeric(3, p, t_end=3 * p.tau, h=1e-3)
        assert dev < 1e-6

    def test_power_law_follower_with_proportional_delay(self):
        p = example_params(2)
        dev = compare_exact_vs_numeric(2, p, t_end=4.0, h=1e-3)
        assert dev < 1e-6


class TestPlatoon:
    def test_single_car_reduces_to_direct_integration(self):
        p = example_params(1)
        phi = HistoryFunction(parse("x - 1"), (-p.tau, 0.0))
        state = simulate_platoon(p, 1, [phi], t_end=2.0, h=1e-3)
        direct = solve(build_two_car(p), phi, "from-phi", 2.0, 1e-3)
        assert state.trajectories[0].xs == direct.xs
        worst = max(abs(a - b) for a, b in zip(state.trajectories[0].ys,
                                               direct.ys))
        assert worst < 1e-12

    def test_invariant_offsets_propagate_down_the_chain(self):
        p = example_params(1)
        offsets = (1.0, 2.0, 3.0)
        hists = [HistoryFunction(parse(f"x - {a}"), (-p.tau, 0.0))
                 for a in offsets]
        state = simulate_platoon(p, 3, hists, t_end=2.5, h=1e-3)
        assert not state.collisions
        for a, traj in zip(offsets, state.trajectories):
            drift = max(abs(y - (x - a)) for x, y in zip(traj.xs, traj.ys))
            assert drift < 1e-8

    def test_ordering_is_monotone_in_the_offsets(self):
        p = example_params(1)
        offsets = (0.7, 1.6, 2.9)
        hists = [HistoryFunction(parse(f"x - {a}"), (-p.tau, 0.0))
                 for a in offsets]
        state = simulate_platoon(p, 3, hists, t_end=2.0, h=2e-3)
        t0, t1, t2 = state.trajectories
        for i in range(len(t0.xs)):
            assert t0.ys[i] > t1.ys[i] > t2.ys[i]

    def test_braking_leader_triggers_collision(self):
        # stopped leader, weakly reacting follower closing at unit speed
        p = TrafficParams(alpha=0.05, n1=1.0, n2=1.0, tau=0.5,
                          leader=parse("5 + 0*t"))
        phi = HistoryFunction(parse("x"), (-0.5, 0.0))
        state = simulate_platoon(p, 1, [phi], t_end=8.0, h=1e-3)
        assert state.collisions
        car, t_c = state.collisions[0]
        assert car == 1
        assert 4.0 < t_c < 6.0
        assert state.trajectories[0].x_end <= t_c

    def test_collision_halts_remaining_cars(self):
        p = TrafficParams(alpha=0.05, n1=1.0, n2=1.0, tau=0.5,
                          leader=parse("5 + 0*t"))
        hists = [HistoryFunction(parse("x"), (-0.5, 0.0)),
                 HistoryFunction(parse("x - 1"), (-0.5, 0.0))]
        state = simulate_platoon(p, 2, hists, t_end=8.0, h=1e-3)
        assert state.collisions
        assert len(state.trajectories) == 1  # second car never advanced

    def test_reaching_node_precedes_headway_collapse(self):
        # car 2's delayed headway collapses at t = 0.885, but it passes
        # car 1 at the node t = 0.39, where its trajectory ends
        p = TrafficParams(alpha=1.0, n1=1.0, n2=1.0, tau=0.5,
                          leader=parse("t + 10"))
        hists = [HistoryFunction(parse("0.2*x + 1"), (-0.5, 0.0)),
                 HistoryFunction(parse("2*x + 0.5"), (-0.5, 0.0))]
        state = simulate_platoon(p, 2, hists, t_end=3.0, h=0.01)
        car1, car2 = state.trajectories
        assert state.collisions == [(2, car2.x_end)]
        assert car2.x_end == pytest.approx(0.39, abs=1e-12)
        assert car2.ys[-1] >= car1.interpolate(car2.x_end)[0]
        assert all(y < car1.interpolate(x)[0]
                   for x, y in zip(car2.xs[1:-1], car2.ys[1:-1]))

    def test_non_finite_acceleration_is_a_step_rejection(self):
        # 1e300 * (1e10 - 1) overflows to inf: a named failure, never an
        # infinite trajectory
        p = TrafficParams(alpha=1e300, n1=1.0, n2=1.0, tau=0.5,
                          leader=parse("1e10*t + 1e10"))
        phi = HistoryFunction(parse("x"), (-0.5, 0.0))
        with pytest.raises(StepRejectionError, match="non-finite"):
            simulate_platoon(p, 1, [phi], t_end=1.0, h=0.01)

    def test_underflowing_headway_power_is_a_step_rejection(self):
        # 0.1^400 underflows to 0.0: the division by it is a named failure
        p = TrafficParams(alpha=1.0, n1=1.0, n2=400.0, tau=0.5,
                          leader=parse("t + 10"))
        phi = HistoryFunction(parse("x + 9.9"), (-0.5, 0.0))
        with pytest.raises(StepRejectionError,
                           match="^right-hand side not evaluable at x = 0:"
                                 " float division by zero$"):
            simulate_platoon(p, 1, [phi], t_end=1.0, h=0.01)

    def test_proportional_delay_is_refused(self):
        p = example_params(2)
        with pytest.raises(TrafficError, match="constant delay"):
            simulate_platoon(p, 1, [], t_end=2.0, h=1e-3)

    def test_history_count_must_match(self):
        p = example_params(1)
        with pytest.raises(TrafficError, match="one history per car"):
            simulate_platoon(p, 2, [], t_end=1.0, h=1e-2)

    def test_histories_must_end_at_one_time(self):
        p = example_params(1)
        hists = [HistoryFunction(parse("x - 1"), (-0.5, 0.0)),
                 HistoryFunction(parse("x - 2"), (-0.5, 0.0)),
                 HistoryFunction(parse("x - 3"), (-0.4, 0.1)),
                 HistoryFunction(parse("x - 4"), (-0.5, 0.2))]
        with pytest.raises(TrafficError,
                           match="history of car 3 ends at 0.1, not at t0 = 0"):
            simulate_platoon(p, 4, hists, t_end=1.0, h=1e-2)

    def test_collapse_keeps_the_grid_nodes_up_to_two_steps_before_it(self):
        # car 1's history spikes past the stopped leader at two delayed
        # points: the grid's stage at t_c = 10 h_eff reads the wide spike,
        # and the narrow one, at t_c - 2h - tau, lies between the delayed
        # points of the grid, where no stage reads it
        tau, h = 0.5, 0.03
        h_eff = tau / 17
        wide, narrow = 10 * h_eff - tau, 10 * h_eff - 2 * h - tau
        phi = parse(f"x + 1 + 10*exp(-((x - {wide!r})/0.001)^2)"
                    f" + 10*exp(-((x - {narrow!r})/0.00002)^2)")
        p = TrafficParams(alpha=1.0, n1=1.0, n2=1.0, tau=tau,
                          leader=parse("5 + 0*t"))
        state = simulate_platoon(p, 1, [HistoryFunction(phi, (-tau, 0.0))],
                                 t_end=1.0, h=h)
        traj = state.trajectories[0]
        assert state.collisions == [(1, pytest.approx(10 * h_eff, abs=1e-12))]
        # the grid nodes up to t_c - 2h, and no partial step to it
        assert len(traj.xs) == 8
        assert traj.x_end == pytest.approx(7 * h_eff, abs=1e-12)
        # every acceleration it computed: nine steps, and the three of the
        # tenth before its last stage at t_c read the spike
        assert traj.n_rhs_evals == 4 * 9 + 3


class TestExactSolutionForms:
    def test_invariant_forms(self):
        p1 = example_params(1)
        h, k = exact_solution(1, p1, -1.0)
        assert evaluate(h, {"x": 2.0}) == pytest.approx(1.0)
        assert evaluate(k, {"x": 2.0}) == pytest.approx(1.5)
        p2 = example_params(2)
        h2, k2 = exact_solution(2, p2, 0.5)
        assert evaluate(h2, {"x": 4.0}) == pytest.approx(0.5 * 2.0)
        assert evaluate(k2, {"x": 4.0}) == pytest.approx(1.0)
        p3 = example_params(3)
        h3, k3 = exact_solution(3, p3, 0.25)
        assert evaluate(h3, {"x": 2.0}) == pytest.approx(0.25 * math.e)


class TestScenarioFile:
    SCENARIO = """
# three drifting cars
leader = 1*t
alpha = 1.0
n1 = 1
n2 = 1
tau = 0.5
cars = 2
history.1 = t - 1
history.2 = t - 2
t_end = 2.0
h = 0.002
"""

    def test_load_and_run(self):
        p, n_cars, hists, t_end, h = load_scenario(self.SCENARIO)
        assert n_cars == 2 and t_end == 2.0 and h == 0.002
        state = simulate_platoon(p, n_cars, hists, t_end, h)
        assert not state.collisions
        drift = max(abs(y - (x - 1.0)) for x, y in
                    zip(state.trajectories[0].xs, state.trajectories[0].ys))
        assert drift < 1e-8

    def test_example_scenario_runs_without_collision(self):
        path = Path(__file__).resolve().parents[1] / "examples" / "platoon.txt"
        p, n_cars, hists, t_end, h = load_scenario(path.read_text())
        state = simulate_platoon(p, n_cars, hists, t_end, h)
        assert n_cars == 4 and not state.collisions
        assert [t.x_end for t in state.trajectories] == \
            pytest.approx([t_end] * 4, abs=1e-9)

    def test_unknown_key(self):
        with pytest.raises(TrafficError, match="unknown key"):
            load_scenario("leader = t\nwarp = 9\n")

    @pytest.mark.parametrize("old,new,line", [
        ("alpha = 1.0", "alpha = x", 4),
        ("tau = 0.5", "tau = 0.5,1", 7),
        ("cars = 2", "cars = 2.5", 8),
    ])
    def test_bad_number_names_its_line(self, old, new, line):
        with pytest.raises(TrafficError, match=f"line {line}: expected a"):
            load_scenario(self.SCENARIO.replace(old, new))

    def test_bad_history_index_names_its_line(self):
        bad = self.SCENARIO.replace("history.2 =", "history.two =")
        with pytest.raises(TrafficError, match="line 10: expected a number"):
            load_scenario(bad)

    @pytest.mark.parametrize("old,new,message", [
        ("leader = 1*t", "leader = 1*$t",
         "line 3: unknown character '$' at offset 3"),
        ("history.2 = t - 2", "history.2 = spam(t)",
         "line 10: unknown function 'spam' at offset 1"),
    ])
    def test_bad_expression_names_its_line(self, old, new, message):
        with pytest.raises(TrafficError) as err:
            load_scenario(self.SCENARIO.replace(old, new))
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, E.ParseError)

    def test_missing_history(self):
        bad = self.SCENARIO.replace("history.2 = t - 2\n", "")
        with pytest.raises(TrafficError, match="history.2"):
            load_scenario(bad)

    @pytest.mark.parametrize("extra, message", [
        ("history.3 = t - 3", "line 13: 'history.3' names car 3, but cars = 2"),
        ("history.0 = t", "line 13: 'history.0' names car 0, but cars = 2"),
        ("history.-1 = t", "line 13: 'history.-1' names car -1, but cars = 2"),
        ("history.02 = t - 3",
         "line 13: 'history.02' is a second history of car 2, first on"
         " line 10"),
        ("t_end = 3", "line 13: 't_end' is given again, first on line 11"),
    ])
    def test_histories_and_keys_name_their_line(self, extra, message):
        with pytest.raises(TrafficError) as err:
            load_scenario(self.SCENARIO + extra + "\n")
        assert str(err.value) == message

    def test_one_car_with_histories_of_cars_it_lacks(self):
        one = self.SCENARIO.replace("cars = 2", "cars = 1").replace(
            "history.2 = t - 2", "history.0 = t + 1")
        with pytest.raises(TrafficError, match="^line 10: 'history.0' names"
                           " car 0, but cars = 1$"):
            load_scenario(one)


#: sha256 of the default stdout of scripts/traffic_demo.py, recorded from
#: the platoon that integrated one car after another
TRAFFIC_DEMO_SHA256 = (
    "d8b20ac9dbc75f26788c698a62c950088a31e08e67df53a9a9e68a94c2af8541")


def test_traffic_demo_stdout_is_pinned():
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "traffic_demo.py")],
        capture_output=True, check=True, cwd=root, timeout=300).stdout
    assert hashlib.sha256(out).hexdigest() == TRAFFIC_DEMO_SHA256


# ---------------------------------------------------------------------------
# the platoon against the sweep that integrated one car after another with
# the scalar integrator

#: (alpha, tau, v, spacing, jitter) of round 0 of the benchmark's
#: steps-pipelines workload at seeds 101-103: the 10-car platoon request
#: uses every jitter, the 4-car scenario file the first four.
BENCH_PLATOONS = {
    101: (1.0854623864797661, 0.548275326050432, 1.2563811136222836,
          1.847028424612676,
          [0.0004547944889501977, -0.007743857837381334, -0.02668782876316739,
           -0.014975447980217977, 0.020457782292471215, 0.019089264877520544,
           0.010039525574152136, -0.0017647445341149662, 0.028190669562938683,
           0.020415645238776044]),
    102: (1.883366866698335, 0.4136167004931325, 1.21304977941021,
          2.2256430750639886,
          [0.0251379788332639, -0.021215374786372122, 0.0067569147701586965,
           -0.026753688093848475, 0.014586764606197983, 0.004377568773545289,
           -0.02240292169870213, -0.023179331950823022, 0.0014681869884790866,
           -0.00035935642254948663]),
    103: (0.8798590824398611, 0.33910971589806704, 1.4454812809476079,
          2.1488396141222257,
          [-0.018221293973721638, -0.02779472745034832, 0.020810248812019073,
           -0.0077360712398866355, -0.017441320935979908, -0.005605331784807776,
           -0.020227420431923906, -0.025708856247493687, -0.028692018591995425,
           -0.029487225745339376]),
}


def _bench_histories(seed, n_cars):
    _, _, v, spacing, jitter = BENCH_PLATOONS[seed]
    return [f"{v * (1.0 + j)!r}*x - {(i + 1) * spacing!r}"
            for i, j in enumerate(jitter[:n_cars])]


def _bench10(seed):
    alpha, tau, v, _, _ = BENCH_PLATOONS[seed]
    p = example_params(1, alpha=alpha, tau=tau, v=v)
    hists = [HistoryFunction.from_text(text, (-tau, 0.0))
             for text in _bench_histories(seed, 10)]
    return p, 10, hists, 5.0, 0.01


def _bench4(seed):
    alpha, tau, v, _, _ = BENCH_PLATOONS[seed]
    lines = [f"leader = {v!r}*t", f"alpha = {alpha!r}", "n1 = 1", "n2 = 1",
             f"tau = {tau!r}", "cars = 4", "t_end = 5.0", "h = 0.01"]
    lines += [f"history.{i + 1} = {text.replace('x', 't')}"
              for i, text in enumerate(_bench_histories(seed, 4))]
    return load_scenario("\n".join(lines) + "\n")


def _cars(leader, histories, t_end, h, tau=0.5, alpha=0.05, n1=1.0, n2=1.0):
    p = TrafficParams(alpha=alpha, n1=n1, n2=n2, tau=tau, leader=parse(leader))
    return (p, len(histories),
            [HistoryFunction(parse(text), (-tau, 0.0)) for text in histories],
            t_end, h)


PLATOON_CASES = {
    **{f"bench10-{seed}": (lambda seed=seed: _bench10(seed))
       for seed in BENCH_PLATOONS},
    **{f"bench4-{seed}": (lambda seed=seed: _bench4(seed))
       for seed in BENCH_PLATOONS},
    # stopped leader: car 1's headway collapses, its trajectory ends at
    # the last grid node at or before t_c - 2h
    "braking": lambda: _cars("5 + 0*t", ["x + 4.9", "x + 3", "x + 1"], 6.0,
                             0.003, tau=0.05, alpha=1.0),
    # stopped leader: car 1 collapses, but a kept node reaches the leader
    "braking-reach": lambda: _cars("5 + 0*t", ["x", "x - 1", "x - 2"], 8.0,
                                   0.03),
    # car 2 passes car 1 at a node before its headway collapses
    "reach-then-collapse": lambda: _cars(
        "t + 10", ["0.2*x + 1", "2*x + 0.5"], 3.0, 0.01, alpha=1.0),
    # car 2 collapses within two steps of t0: only its start node is kept
    "collapse-at-start": lambda: _cars(
        "t + 10", ["x + 5", "x + 5 - 1e-6 + 1e-3*(x + 0.5)"], 2.0, 1e-3),
    # car 1's acceleration overflows
    "overflow": lambda: _cars("1e10*t + 1e10", ["x", "x - 1"], 1.0, 0.01,
                              alpha=1e300),
    # car 2 fails at t0, but car 1 collides later: the collision stands
    "lower-collides-later": lambda: _cars(
        "5 + 0*t", ["x", "-x - 3"], 8.0, 0.01, n1=0.5),
    # car 2 fails at t0, but car 1 fails later: car 1's failure is raised
    "lower-raises-later": lambda: _cars(
        "exp(exp(t))", ["x", "-x - 3"], 8.0, 0.01, n1=0.5),
    # car 1 passes the leader at a node and runs on to t_end
    "reach-completes": lambda: _cars("t + 0.3", ["2*x + 0.5", "x - 1"], 6.0,
                                     0.01, alpha=3.0, n1=0.5, n2=0.0),
    # car 1 passes the leader at a node, then fails: the failure is raised
    "reach-then-raise": lambda: _cars("t + 0.3", ["2*x + 0.5", "x - 1"], 6.0,
                                      0.01, alpha=5.0, n1=0.5, n2=0.0),
    # car 2's history does not reach back a whole delay
    "short-history": lambda: (
        TrafficParams(alpha=1.0, n1=1.0, n2=1.0, tau=0.5, leader=parse("t")),
        2, [HistoryFunction(parse("x - 1"), (-0.5, 0.0)),
            HistoryFunction(parse("x - 2"), (-0.25, 0.0))], 2.0, 0.01),
    # one step per delay: stage 4 reads car 1 just past its newest node
    "one-step-per-delay": lambda: _cars(
        "t + 3 + 0.5*sin(3*t)",
        ["2.5570244371987876*x - 1.6428767367910138",
         "0.5*x - 2.9793926242698827"],
        3.110446121668833, 0.13723709241004053, tau=0.1,
        alpha=2.7011652761450753, n2=2.0),
    # one step per delay: a stage-4 delayed point rounds one ulp past the
    # newest node.  It reads that node now; the sweep that recorded the
    # other pins extrapolated the car's last segment there, and y and dy
    # moved by rounding (at most 1.1e-16)
    "one-step-rounds-past": lambda: _cars(
        "5.21935152549392 + 0*t",
        ["0.996508718949237*x - 0.6594397184886095",
         "0.282743897280908*x - 1.9145933826662884"
         " + 0.040449098886270296*sin(1.2082675424257432*x)",
         "1.80369487521425*x - 3.5937358592621127"],
        5.035614243568393, 1.175876917988393, tau=0.9064263382083607,
        alpha=1.7732599294790634),
    # the leader is undefined at nodes before its delayed values fail
    "leader-domain-solve": lambda: _cars(
        "sqrt(4 - t) + 10", ["x - 3", "x - 4"], 5.0, 0.01),
    # the leader is undefined at nodes only: the node scan fails
    "leader-domain-scan": lambda: _cars(
        "sqrt(4 - t) + 10", ["x - 3", "x - 4"], 4.3, 0.01),
    # car 3's acceleration overflows at t0, an earlier step than the one
    # where car 2's headway behind the stopped car 1 collapses: car 2's
    # collision stands and car 3 surfaces nothing
    "collapse-over-earlier-raise": lambda: _cars(
        "t + 20", ["0*x + 10", "x + 9.9", "1e300*x - 10"], 6.0, 0.003,
        tau=0.05, alpha=1.0),
    # car 1 reaches the leader at a node without a collapse, and car 2
    # fails at t0, earlier in time: car 1's collision stands
    "reach-over-earlier-raise": lambda: _cars(
        "t + 1", ["2*x + 0.5", "-x - 3"], 3.0, 0.01, alpha=0.5, n1=0.5,
        n2=0.0),
    # more cars than one generated loop steps
    "forty-cars": lambda: _cars(
        "t + 3 + 0.2*sin(2*t)",
        [f"{1 + 0.01 * (i * 7 % 5 - 2)!r}*x + {3 - 2 * i}"
         for i in range(1, 41)], 2.0, 0.01, tau=0.4, alpha=0.8),
    # car 2's history has no slope at t0: the failure of car 2
    "history-undefined-at-t0": lambda: _cars(
        "t + 10", ["x + 5", "sqrt(-x)", "x"], 2.0, 0.01),
    # car 3's history has no slope at t0, but car 1 collides later
    "collides-over-undefined-history": lambda: _cars(
        "5 + 0*t", ["x", "x - 1", "sqrt(-x)"], 8.0, 0.01, n1=0.5),
    # one step per delay behind a car of the group in front: car 17 reads
    # car 16 at the newest node its stage-4 points round past
    "one-step-eighteen-cars": lambda: _cars(
        "t + 3 + 0.5*sin(3*t)",
        [f"{0.5 + 0.25 * (i % 3)!r}*x - {1.5 * i!r}" for i in range(1, 19)],
        3.110446121668833, 0.13723709241004053, tau=0.1,
        alpha=2.7011652761450753, n2=2.0),
    # car 18 collapses behind the stopped car 17, and car 19 fails at t0
    "collapse-in-a-later-group": lambda: _cars(
        "t + 20", [f"x + {20 - i}" for i in range(1, 17)]
        + ["0*x + 3", "x + 2.9", "1e300*x - 10"], 2.0, 0.003, tau=0.05,
        alpha=1.0),
}

#: Recorded from the sweep that integrated one car after another with the
#: scalar integrator, all but one-step-rounds-past (see its case) and the
#: four whose headway collapses (braking, braking-reach,
#: reach-then-collapse, lower-collides-later), recorded from the cut to
#: the grid nodes at or before t_c - 2h, with the n_rhs_evals of a
#: collapsed car (those four and collapse-at-start) counting every
#: acceleration it computed: the collisions, each trajectory's
#: n_rhs_evals and node count, and a sha256 prefix of the trajectories'
#: CSVs in car order; or the error raised.  The cases from
#: collapse-over-earlier-raise on were recorded from the sweep that ran
#: one car after another in the stepper of a constant-delay solve.
PLATOON_PINS = {
    "bench10-101": ([], [2008] * 10, [503] * 10, "af54c166e0fdb542"),
    "bench10-102": ([], [2032] * 10, [509] * 10, "fd7a2dc8cd7284c4"),
    "bench10-103": ([], [2008] * 10, [503] * 10, "b4d711fa4a03d3d5"),
    "bench4-101": ([], [2008] * 4, [503] * 4, "fb77fd6f5f9f1b2a"),
    "bench4-102": ([], [2032] * 4, [509] * 4, "871a674f6e89e449"),
    "bench4-103": ([], [2008] * 4, [503] * 4, "7f3c2cafc20cbe1b"),
    "braking": ([(1, 0.9911764705882323)], [1347], [335], "9d674abd4c471eb2"),
    "braking-reach": ([(1, 5.2058823529411615)], [775], [178],
                      "0a682f2e562d3844"),
    "reach-then-collapse": ([(2, 0.3900000000000002)], [1200, 353], [301, 40],
                            "6a8952ac0a9dfae6"),
    "collapse-at-start": ([(2, 0.0005)], [8000, 1], [2001, 1],
                          "12f3475d20326787"),
    "overflow": ("raises", "StepRejectionError",
                 "right-hand side not evaluable at x = 0: non-finite result"),
    "lower-collides-later": ([(1, 5.209999999999932)], [2281], [522],
                             "020a5942e435ef2e"),
    "lower-raises-later": (
        "raises", "StepRejectionError",
        "right-hand side not evaluable at x = 7.06: non-finite result in"
        " '(exp(exp(x)) * exp(x))'"),
    "reach-completes": ([(1, 0.01)], [2400], [2], "929a307bb60109ca"),
    "reach-then-raise": (
        "raises", "StepRejectionError",
        "right-hand side not evaluable at x = 0.595: math domain error"),
    "short-history": ("raises", "HistoryUnderrunError",
                      "-0.5 is below the covered range"),
    "one-step-per-delay": ([], [128, 128], [33, 33], "7061b18d0c2a2267"),
    "one-step-rounds-past": ([], [24, 24, 24], [7, 7, 7], "c18efc4dbd39d7d3"),
    "leader-domain-solve": (
        "raises", "StepRejectionError",
        "right-hand side not evaluable at x = 4.505: math domain error in"
        " '(sqrt((4 - x)) + 10)'"),
    "leader-domain-scan": ("raises", "DomainError",
                           "math domain error in '(sqrt((4 - x)) + 10)'"),
    "collapse-over-earlier-raise": ([(2, 0.9911764705882323)], [8160, 1347],
                                    [2041, 335], "7cf8824266f7bf8b"),
    "reach-over-earlier-raise": ([(1, 0.6400000000000001)], [1200], [65],
                                 "1c957a40717b583a"),
    "forty-cars": ([], [800] * 40, [201] * 40, "e0cb1b46686118ae"),
    "history-undefined-at-t0": (
        "raises", "DomainError",
        "division by zero in '(-(1 / (2 * sqrt((-x)))))'"),
    "collides-over-undefined-history": ([(1, 5.209999999999932)], [2281],
                                        [522], "020a5942e435ef2e"),
    "one-step-eighteen-cars": ([], [128] * 18, [33] * 18, "03eede0fe62a9a0b"),
    "collapse-in-a-later-group": ([(18, 0.9911764705882323)],
                                  [2720] * 17 + [1347], [681] * 17 + [335],
                                  "d601b16db90422ac"),
}


def _fingerprint(case, run=simulate_platoon):
    try:
        state = run(*case)
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc))
    digest = hashlib.sha256()
    for traj in state.trajectories:
        digest.update(traj.to_csv().encode())
    return (state.collisions, [t.n_rhs_evals for t in state.trajectories],
            [len(t.xs) for t in state.trajectories], digest.hexdigest()[:16])


def reference_follow(t_end, h, counter):
    """One car of the platoon on integrate.solve_numeric, taking both
    powers with math.pow at every acceleration and counting the
    accelerations in counter[0]: follow(p, ahead, steps, traj) appends the
    car's nodes to traj and returns its (ym, dym) at every stage, and the
    car behind reads them at the same stage; car 1 reads the leader's
    compiled (position, velocity) ahead.  It raises traffic._Collapse
    where the delayed headway falls below the floor, with the nodes the
    car reached appended, and the failure of a stage without a value."""

    def follow(p, ahead, steps, traj):
        alpha, n1, n2 = p.alpha, p.n1, p.n2
        floor = -math.inf if n2 == 0.0 else traffic._HEADWAY_FLOOR
        reads, nodes = [], []

        def f_eval(x, y, xm, ym, dy, dym):
            k = len(reads)
            if k % 4 == 0:  # stage 1 starts at a node
                nodes.append((x, y, dy))
            fy, fd = ahead[k] if isinstance(ahead, list) else (
                ahead[0](xm), ahead[1](xm))
            reads.append((ym, dym))
            gap = fy - ym
            if gap < floor:
                raise traffic._Collapse(x, k)
            counter[0] += 1
            try:
                acc = alpha * math.pow(dy, n1) * (fd - dym) / math.pow(gap, n2)
            except (ValueError, OverflowError, ZeroDivisionError) as err:
                raise integrate._rejection(x, err) from None
            if not math.isfinite(acc):
                raise integrate._rejection(x, "non-finite result")
            return acc

        try:
            got = integrate.solve_numeric(
                f_eval, integrate._ConstantDelay(p.tau), traj.history,
                traj.dys[0], t_end, h)
        except traffic._Collapse:
            # the rows of the nodes the car had reached
            traj.xs += [x for x, _, _ in nodes[1:]]
            traj.ys += [y for _, y, _ in nodes[1:]]
            traj.dys += [dy for _, _, dy in nodes[1:]]
            raise
        traj.xs += got.xs[1:]
        traj.ys += got.ys[1:]
        traj.dys += got.dys[1:]
        return reads

    return follow


def reference_platoon(counter):
    """simulate_platoon as a sweep that integrates one car after another in
    index order with reference_follow, counting the accelerations in
    counter[0]: a car that collapses is cut to the grid nodes at or before
    t_c - 2h, a car collides at the first node where it has reached the
    car in front, and the first car that collides or fails ends the run
    before the cars behind it are integrated."""

    def run(p, n_cars, histories, t_end, h):
        t0 = histories[0].interval[1]
        values = p.values()
        ahead = tuple(
            E.compile_fn(E.subs(e, {"t": E.X}), ("x",), values)
            for e in (p.leader, E.diff(p.leader, "t")))
        lead_pos = ahead[0]
        follow = reference_follow(t_end, h, counter)
        steps = list(integrate._step_plan(t0, t_end, h, p.tau))
        front_ys = None
        state = traffic.PlatoonState(trajectories=[])
        for car, phi in enumerate(histories, start=1):
            y0, dy0 = phi.value(t0)
            traj = integrate.Trajectory(xs=[t0], ys=[y0], dys=[dy0],
                                        history=phi)
            xs, ys, dys = traj.xs, traj.ys, traj.dys
            try:
                ahead = follow(p, ahead, steps, traj)
                t_c, traj.n_rhs_evals = None, 4 * (len(ys) - 1)
            except traffic._Collapse as exc:
                t_c, end, traj.n_rhs_evals = exc.x, exc.x - 2 * h, exc.n_accels
                kept = 1
                for x, step in steps:
                    if step > end - x:
                        break
                    kept += 1
                del xs[kept:], ys[kept:], dys[kept:]
            for j in range(1, len(xs)):
                front_y = lead_pos(xs[j]) if front_ys is None else front_ys[j]
                if front_y - ys[j] <= 0.0:
                    t_c = xs[j]
                    del xs[j + 1:], ys[j + 1:], dys[j + 1:]
                    break
            state.trajectories.append(traj)
            if t_c is not None:
                state.collisions.append((car, float(t_c)))
                return state
            front_ys = ys
        return state

    return run


def _reference_run(case):
    """(fingerprint, accelerations computed) of case under
    reference_platoon."""
    counter = [0]
    return _fingerprint(case, reference_platoon(counter)), counter[0]


class TestLockStepPlatoon:
    @pytest.mark.parametrize("name", list(PLATOON_CASES))
    def test_matches_the_car_by_car_sweep(self, name):
        assert _fingerprint(PLATOON_CASES[name]()) == PLATOON_PINS[name]

    @pytest.mark.parametrize("name", list(PLATOON_CASES))
    def test_n_rhs_evals_counts_every_acceleration(self, name):
        # every acceleration the reference computed, past a car's last kept
        # node and in the step whose headway collapsed too
        case = PLATOON_CASES[name]
        got = _fingerprint(case())
        want, n_accels = _reference_run(case())
        assert got == want
        if got[0] != "raises":
            assert n_accels == sum(got[1])

    @pytest.mark.parametrize("n1", [0.0, 1.0, 0.5, 2.0])
    @pytest.mark.parametrize("n2", [0.0, 1.0, 2.0])
    def test_exponents_of_zero_and_one_take_no_power(self, n1, n2,
                                                     monkeypatch):
        # the same floats as math.pow gives, and no pow call at 0 and 1
        def case():
            return _cars("1.3*t + 4", ["1.1*x + 2.2", "x + 0.9"], 3.0, 0.01,
                         tau=0.4, alpha=0.8, n1=n1, n2=n2)

        want, _ = _reference_run(case())
        calls = [0]
        pow_ = math.pow

        def counted_pow(a, b):
            calls[0] += 1
            return pow_(a, b)

        monkeypatch.setattr(math, "pow", counted_pow)
        got = _fingerprint(case())
        assert got == want
        assert got[0] != "raises"
        powers = sum(n not in (0.0, 1.0) for n in (n1, n2))
        assert calls[0] == powers * sum(got[1])

    @pytest.mark.parametrize("name", list(PLATOON_CASES))
    def test_no_scalar_solve_and_no_interpolation(self, name, monkeypatch):
        calls = {"solve_numeric": 0, "interpolate": 0}
        solve_numeric = integrate.solve_numeric
        interpolate = integrate.Trajectory.interpolate

        def counted_solve(*args, **kwargs):
            calls["solve_numeric"] += 1
            return solve_numeric(*args, **kwargs)

        def counted_interpolate(traj, x):
            calls["interpolate"] += 1
            return interpolate(traj, x)

        # every dodesym namespace that binds the driver
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("dodesym") and \
                    getattr(module, "solve_numeric", None) is solve_numeric:
                monkeypatch.setattr(module, "solve_numeric", counted_solve)
        monkeypatch.setattr(integrate.Trajectory, "interpolate",
                            counted_interpolate)
        outcome = _fingerprint(PLATOON_CASES[name]())
        assert calls == {"solve_numeric": 0, "interpolate": 0}
        if name.startswith("bench"):
            assert outcome[0] == []  # no collision

    @pytest.mark.parametrize("name", ["bench10-101", "bench4-102",
                                      "one-step-per-delay",
                                      "one-step-rounds-past"])
    def test_leader_is_read_once_per_distinct_point(self, name, monkeypatch):
        # stage 3 shares stage 2's delayed point, and stage 1 the previous
        # step's stage-4 point: two leader reads a step, plus one, plus one
        # for each stage-4 point read at a newest node it rounded past
        case = PLATOON_CASES[name]()
        p = case[0]
        calls = []  # of the position, then of the velocity
        compile_fn = traffic.compile_fn

        def counted_compile(*args):
            kernel = compile_fn(*args)
            k = len(calls)
            calls.append(0)

            def counted(x):
                calls[k] += 1
                return kernel(x)

            return counted

        monkeypatch.setattr(traffic, "compile_fn", counted_compile)
        state = simulate_platoon(*case)
        xs = state.trajectories[0].xs
        steps = len(xs) - 1
        past = sum(xs[k + 1] - p.tau > xs[k] for k in range(steps - 1))
        assert (past > 0) == name.startswith("one-step")
        reads = 2 * steps + 1 + past
        # the position is read at every node past t0 too, where car 1 is
        # checked for reaching the leader
        assert calls == [reads + steps, reads]

    @pytest.mark.parametrize("name,loops", [
        # two full groups and one of eight, the later two behind a car
        ("forty-cars", [(16, False), (16, True), (8, True)]),
        # car 3 fails in step 0, so cars 1 and 2 take it again without
        # car 3; car 2 collapses later, and car 1 runs on alone
        ("collapse-over-earlier-raise", [(3, False), (2, False), (1, False)]),
        ("collapse-in-a-later-group",
         [(16, False), (3, True), (2, True), (1, True)]),
    ])
    def test_loops_take_the_cars_left(self, name, loops, monkeypatch):
        shapes = []
        lockstep = traffic._lockstep

        def counted(n, behind_a_car, speed, headway):
            shapes.append((n, behind_a_car))
            return lockstep(n, behind_a_car, speed, headway)

        monkeypatch.setattr(traffic, "_lockstep", counted)
        assert _fingerprint(PLATOON_CASES[name]()) == PLATOON_PINS[name]
        assert shapes == loops

    @pytest.mark.parametrize("name", ["bench10-101", "one-step-per-delay",
                                      "forty-cars"])
    def test_each_delayed_point_is_placed_once_for_all_cars(self, name):
        # the grid is searched once per delayed point inside it in each
        # group, as often as for car 1 alone
        names = integrate._STEPPER_NAMES
        bisect_right = names["_bisect_right"]
        calls = [0]

        def counted(grid, x):
            calls[0] += 1
            return bisect_right(grid, x)

        p, n_cars, hists, t_end, h = PLATOON_CASES[name]()
        traffic._lockstep.cache_clear()
        names["_bisect_right"] = counted
        try:
            simulate_platoon(p, n_cars, hists, t_end, h)
            searches, calls[0] = calls[0], 0
            simulate_platoon(p, 1, hists[:1], t_end, h)
        finally:
            names["_bisect_right"] = bisect_right
            traffic._lockstep.cache_clear()
        groups = -(-n_cars // traffic._GROUP)
        assert searches == groups * calls[0] > 0

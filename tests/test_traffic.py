import math

import pytest

from dodesym import expr as E
from dodesym.dods import check_invariance
from dodesym.expr import evaluate, parse
from dodesym.integrate import HistoryFunction, StepRejectionError, solve
from dodesym.traffic import (
    ConstraintResult,
    TrafficError,
    TrafficParams,
    build_two_car,
    compare_exact_vs_numeric,
    constraint_function,
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

    def test_example2_exponent_restrictions(self):
        with pytest.raises(TrafficError, match="n1"):
            example_params(2, n1=1.0)
        with pytest.raises(TrafficError, match="non-integer"):
            example_params(2, n1=0.5)

    def test_proportional_delay_window(self):
        with pytest.raises(TrafficError, match="0 < q < 1"):
            example_params(2, q=1.5)

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
        assert abs(constraint_function(3, p)(root.A)) < 1e-12
        assert root.verification.grid_residual < 1e-10

    def test_example2_two_admissible_roots(self):
        p = example_params(2)  # alpha=-1, q=0.25, k=4
        result = solve_constraint(2, p)
        admissible = [r.A for r in result.admissible_roots]
        assert admissible == pytest.approx(
            [2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)], abs=1e-12)
        c = constraint_function(2, p)
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
        assert not state.collided
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
        assert state.collided
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
        assert state.collided
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

    def test_proportional_delay_is_refused(self):
        p = example_params(2)
        with pytest.raises(TrafficError, match="constant delay"):
            simulate_platoon(p, 1, [], t_end=2.0, h=1e-3)

    def test_history_count_must_match(self):
        p = example_params(1)
        with pytest.raises(TrafficError, match="one history per car"):
            simulate_platoon(p, 2, [], t_end=1.0, h=1e-2)


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
        assert not state.collided
        drift = max(abs(y - (x - 1.0)) for x, y in
                    zip(state.trajectories[0].xs, state.trajectories[0].ys))
        assert drift < 1e-8

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

    def test_missing_history(self):
        bad = self.SCENARIO.replace("history.2 = t - 2\n", "")
        with pytest.raises(TrafficError, match="history.2"):
            load_scenario(bad)

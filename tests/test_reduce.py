import math

import numpy as np
import pytest

from dodesym import catalog
from dodesym import expr as E
from dodesym import reduce as reduce_mod
from dodesym import traffic
from dodesym.dods import DodsSystem
from dodesym.expr import Const, evaluate, parse
from dodesym.reduce import (
    InvariantPair,
    ReduceError,
    invariants_of,
    reduce_and_solve,
    validate_invariants,
    verify_invariant_solution,
)
from dodesym.symmetry import VectorField, prolong
from tests.conftest import bisect_root


class TestInvariantsOf:
    def test_translation_family(self):
        # time translation plus uniform drift: J1 = y - v x, J2 = x - xm
        x_field = VectorField(Const(1.0), Const(1.0))
        pair = invariants_of(x_field)
        assert evaluate(pair.J1, {"x": 2.0, "y": 5.0}) == pytest.approx(3.0)
        assert evaluate(pair.J2, {"x": 2.0, "xm": 0.5}) == pytest.approx(1.5)

    def test_scaling_family_with_shift(self):
        # x d/dx + n (y - beta) d/dy: J1 = (y - beta)/x^n, J2 = xm/x
        x_field = VectorField(E.X, Const(0.5) * (E.Y - Const(2.0)))
        pair = invariants_of(x_field)
        val = evaluate(pair.J1, {"x": 4.0, "y": 2.0 + 3.0 * 2.0})
        assert val == pytest.approx(3.0, rel=1e-12)
        assert evaluate(pair.J2, {"x": 4.0, "xm": 1.0}) == pytest.approx(0.25)

    def test_exponential_family(self):
        x_field = VectorField(Const(1.0), Const(0.5) * E.Y)
        pair = invariants_of(x_field)
        x0, a0 = 1.3, 0.7
        y0 = a0 * math.exp(0.5 * x0)
        assert evaluate(pair.J1, {"x": x0, "y": y0}) == pytest.approx(a0,
                                                                      rel=1e-12)

    @pytest.mark.parametrize("eta, j1, h", [
        # beta = -c/a = -0.0 in both
        ("0.5*y", "(y * exp((-0.5 * x)))", "(A * exp((0.5 * x)))"),
        ("-0.5*y", "(y * exp((0.5 * x)))", "(A * exp((-0.5 * x)))"),
    ])
    def test_a_zero_shift_is_not_written(self, eta, j1, h):
        x_field = VectorField.from_text("1", eta)
        pair = invariants_of(x_field)
        assert (E.to_text(pair.J1), E.to_text(pair.h_expr)) == (j1, h)
        shifted = (E.Y - Const(-0.0)) * pair.J1.right
        for x, y in ((0.7, 1.3), (1.9, -0.6), (2.3, 0.0)):
            assert evaluate(pair.J1, {"x": x, "y": y}) == \
                evaluate(shifted, {"x": x, "y": y})

    def test_a_zero_shift_of_a_scaling_is_not_written(self):
        pair = invariants_of(VectorField.from_text("x", "0.5*y"))
        assert E.to_text(pair.J1) == "(y / (x ^ 0.5))"
        assert E.to_text(pair.h_expr) == "(A * (x ^ 0.5))"

    def test_vanishing_xi_is_rejected(self):
        with pytest.raises(ReduceError, match="xi vanishes"):
            invariants_of(VectorField.from_text("0", "y"))

    def test_unsupported_family(self):
        with pytest.raises(ReduceError, match="unsupported"):
            invariants_of(VectorField.from_text("y", "x"))

    def test_user_pair_is_validated(self):
        x_field = VectorField(Const(1.0), Const(1.0))
        good = InvariantPair(J1=parse("y - x"), J2=parse("x - xm"))
        validate_invariants(x_field, good)
        bad = InvariantPair(J1=parse("y - 2*x"), J2=parse("x - xm"))
        with pytest.raises(ReduceError, match="not annihilated"):
            validate_invariants(x_field, bad)

    def test_partials_are_differentiated_once_per_call(self, monkeypatch):
        calls = []
        real = reduce_mod.diff

        def counting(e, v):
            calls.append(v)
            return real(e, v)

        monkeypatch.setattr(reduce_mod, "diff", counting)
        x_field = VectorField(E.X, Const(0.5) * E.Y)
        pair = InvariantPair(J1=parse("y/x^0.5"), J2=parse("xm/x"))
        counts = []
        for n in (10, 100):
            calls.clear()
            E._memo_clear()  # a warm call reuses the kernel and runs no diff
            validate_invariants(x_field, pair, n=n)
            counts.append(len(calls))
        # four partials of each of J1 and J2
        assert counts == [8, 8]

    def test_a_second_validation_adds_only_memo_hits(self):
        x_field = VectorField(E.X, Const(0.5) * E.Y)
        pair = InvariantPair(J1=parse("y/x^0.5"), J2=parse("xm/x"))
        first = validate_invariants(x_field, pair, params={"c": 1.0})
        before = E.memo_info()
        again = validate_invariants(x_field, pair, params={"c": 1.0})
        after = E.memo_info()
        assert after.misses == before.misses and after.hits > before.hits
        assert again == first
        # the memo keys parameters by name, and these trees read no "c"
        validate_invariants(x_field, pair, params={"c": 2.0})
        assert E.memo_info().misses == after.misses

    def test_jacobian_condition_rejects_xm_free_j2(self):
        x_field = VectorField(Const(1.0), Const(1.0))
        pair = InvariantPair(J1=parse("y - x"), J2=parse("y - x"))
        with pytest.raises(ReduceError, match="Jacobian"):
            validate_invariants(x_field, pair)


class TestReduceAndSolve:
    def test_drifting_family_has_free_amplitude(self):
        p = traffic.example_params(1)
        system = traffic.example_system(1, p)
        x_field = traffic.example_symmetry(1, p)
        pair = invariants_of(x_field)
        sol = reduce_and_solve(system, x_field, pair, interval=(2.2, 2.4))
        assert sol.B == pytest.approx(p.tau, abs=1e-12)
        assert "A" in sol.free_parameters
        assert sol.residual < 1e-10

    def test_power_law_amplitudes(self):
        # alpha = -2, q = 0.5, k = 2: (2 - A) A = 1/sqrt(2), two real roots
        p = traffic.example_params(2, alpha=-2.0, q=0.5, k=2.0)
        system = traffic.example_system(2, p)
        x_field = traffic.example_symmetry(2, p)
        pair = invariants_of(x_field)
        target = 1.0 / math.sqrt(2.0)
        expected = sorted((1.0 - math.sqrt(1.0 - target),
                           1.0 + math.sqrt(1.0 - target)))
        found = []
        for guess in ((0.3, 0.4), (1.7, 0.6)):
            sol = reduce_and_solve(system, x_field, pair, guesses=[guess],
                                   interval=(1.5, 2.5))
            assert sol.B == pytest.approx(0.5, abs=1e-11)
            found.append(sol.A)
        assert sorted(found) == pytest.approx(expected, abs=1e-9)
        # cross-check through the independent scalar bisection oracle
        coeff = -2.0 * (1.0 / 2.0) * 0.5 ** (-0.5)
        oracle = bisect_root(lambda a: coeff * (2.0 - a) * a + 1.0, 1e-6,
                             1.0)
        assert min(found) == pytest.approx(oracle, abs=1e-10)

    def test_exponential_amplitude_closed_form(self):
        p = traffic.example_params(3)  # n=2, eps=0.5, tau=1, k=1, alpha=1
        system = traffic.example_system(3, p)
        x_field = traffic.example_symmetry(3, p)
        pair = invariants_of(x_field)
        sol = reduce_and_solve(system, x_field, pair,
                               guesses=[(0.5, 1.2), (0.4, 0.7)],
                               interval=(2.0, 2.5))
        closed = p.k / (1.0 + p.epsilon * math.exp(p.epsilon * p.tau))
        assert sol.A == pytest.approx(closed, abs=1e-12)
        assert sol.B == pytest.approx(p.tau, abs=1e-12)
        assert not sol.free_parameters

    def test_solver_soundness_by_resubstitution(self):
        p = traffic.example_params(3)
        system = traffic.example_system(3, p)
        x_field = traffic.example_symmetry(3, p)
        pair = invariants_of(x_field)
        sol = reduce_and_solve(system, x_field, pair,
                               guesses=[(0.5, 1.2)], interval=(2.0, 2.5))
        check = verify_invariant_solution(system, sol, (2.0, 3.0),
                                          cross_check=False)
        assert check.grid_residual < 1e-10

    @pytest.mark.parametrize("guess", [(-1.5, 2.0), (3.0, -1.0)])
    def test_family_along_a_mixed_direction(self, guess):
        # d/dx reduces this system to R1 = exp(10 (A + B - 1)) - 1 and
        # R2 = 1 - A - B, which vanish on the whole line A + B = 1: the free
        # direction (1, -1) mixes A and B, so whether A or B is named
        # follows rounding
        system = DodsSystem(
            f=parse("1 - exp(10*(ym + x - xm - 1))"), g=parse("x - 1 + y"),
            box={"y": (0.5, 0.95), "ym": (0.5, 0.9)},
        )
        x_field = VectorField(Const(1.0), Const(0.0))
        sol = reduce_and_solve(system, x_field, invariants_of(x_field),
                               guesses=[guess])
        assert sol.free_parameters
        assert abs(sol.A + sol.B - 1.0) <= 1e-12
        assert abs(sol.A) <= 5.0

    def test_non_symmetry_is_rejected_upfront(self):
        p = traffic.example_params(1)
        system = traffic.example_system(1, p)
        lone_time_shift = VectorField(Const(1.0), Const(0.0))
        pair = InvariantPair(J1=parse("y"), J2=parse("x - xm"),
                             h_expr=parse("A + 0*x"), k_expr=parse("x - B"))
        with pytest.raises(ReduceError, match="not a symmetry"):
            reduce_and_solve(system, lone_time_shift, pair)

    @pytest.mark.parametrize("interval", [(2.2, 2.2), (2.4, 2.2),
                                          (2.2, math.inf), (math.nan, 2.4)])
    def test_interval_must_be_finite_with_lo_below_hi(self, interval):
        # one abscissa, or none, cannot show a residual varying with x
        p = traffic.example_params(1)
        system = traffic.example_system(1, p)
        x_field = traffic.example_symmetry(1, p)
        pair = invariants_of(x_field)
        message = r"^interval must be finite with lo < hi, got \["
        with pytest.raises(ReduceError, match=message):
            reduce_and_solve(system, x_field, pair, interval=interval)
        sol = reduce_and_solve(system, x_field, pair, interval=(2.2, 2.4))
        with pytest.raises(ReduceError, match=message):
            verify_invariant_solution(system, sol, interval)

    def test_pair_without_reduction_formulas(self):
        p = traffic.example_params(1)
        system = traffic.example_system(1, p)
        x_field = traffic.example_symmetry(1, p)
        bare = InvariantPair(J1=parse("y - x"), J2=parse("x - xm"))
        with pytest.raises(ReduceError, match="no reduction formulas"):
            reduce_and_solve(system, x_field, bare)

    def test_degenerate_delay_relation_reported(self):
        # xm = x - (y - ym)/dy holds identically on the drifting family, so
        # the second reduced equation vanishes for every (A, B)
        system = DodsSystem(
            f=parse("dy - dym"), g=parse("x - (y - ym)/dy"),
            box={"y": (1.6, 2.5), "ym": (0.5, 1.4)},
        )
        x_field = VectorField(Const(1.0), Const(1.0))
        pair = invariants_of(x_field)
        sol = reduce_and_solve(system, x_field, pair, interval=(1.5, 2.0))
        assert sol.degenerate_delay
        assert set(sol.free_parameters) == {"A", "B"}
        assert sol.residual < 1e-12


def _bound_kernels(system, pair):
    """The reference derivation: R1, R2 and their partials by A and B from
    the system's trees and the pair's h and k with every value bound,
    derived and compiled on each call."""
    r1, r2 = reduce_mod._reduced_residual_exprs(
        system.bound(system.f), system.bound(system.g), pair.h_expr,
        pair.k_expr)
    args = ("x", "A", "B")
    return [E.compile_fn(r, args) for r in (r1, r2)] + [
        E.compile_fn(E.diff(r, v), args) for r in (r1, r2) for v in "AB"]


def _example_cases(example_id, rng):
    """(params, guesses, interval) of a seeded parameter set of a traffic
    example that reduce_and_solve solves."""
    if example_id == 1:
        p = traffic.example_params(1, alpha=rng.uniform(0.5, 1.5),
                                   tau=rng.uniform(0.3, 0.9),
                                   v=rng.uniform(1.1, 1.5))
        return p, None, (2.2, 2.4)
    if example_id == 2:
        p = traffic.example_params(2, alpha=rng.uniform(-2.5, -1.5),
                                   q=rng.uniform(0.2, 0.6),
                                   k=rng.uniform(2.5, 3.5))
        root = traffic.solve_constraint(2, p, verify=False).roots[0]
        return p, [(0.95 * root.A, 0.8 * p.q)], (1.5, 2.5)
    p = traffic.example_params(3, alpha=rng.uniform(0.5, 1.5),
                               epsilon=rng.uniform(0.3, 0.7),
                               tau=rng.uniform(0.5, 1.2),
                               k=rng.uniform(1.0, 2.0))
    closed = p.k / (1.0 + p.alpha * p.epsilon * math.exp(p.epsilon * p.tau))
    return p, [(0.9 * closed, 0.8 * p.tau)], (2.0, 2.5)


class TestFamilyDerivation:
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_family_solves_as_the_bound_derivation(self, example_id,
                                                   monkeypatch):
        rng = np.random.default_rng(100 + example_id)
        for _ in range(4):
            p, guesses, interval = _example_cases(example_id, rng)
            system = traffic.example_system(example_id, p)
            x_field = traffic.example_symmetry(example_id, p)
            pair = invariants_of(x_field)
            got = reduce_and_solve(system, x_field, pair, guesses=guesses,
                                   interval=interval)
            with monkeypatch.context() as m:
                m.setattr(reduce_mod, "_reduced_kernels", _bound_kernels)
                want = reduce_and_solve(system, x_field, pair,
                                        guesses=guesses, interval=interval)
            assert got.A == pytest.approx(want.A, rel=1e-12, abs=0.0)
            assert got.B == pytest.approx(want.B, rel=1e-12, abs=0.0)
            assert got.free_parameters == want.free_parameters

    @pytest.mark.parametrize("example_id", [1, 2, 3])
    @pytest.mark.parametrize("symbolic", [True, False],
                             ids=["field-of-params", "field-of-constants"])
    def test_a_second_parameter_set_derives_nothing(self, example_id,
                                                    symbolic, monkeypatch):
        # the two sets share their exponents and their 0/1/-1 pattern
        work = dict.fromkeys(("_diff", "_generate", "_reduced_residual_exprs"),
                             0)
        for module, name in ((E, "_diff"), (E, "_generate"),
                             (reduce_mod, "_reduced_residual_exprs")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                work[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        rng = np.random.default_rng(200 + example_id)
        for first in (True, False):
            p, guesses, interval = _example_cases(example_id, rng)
            system = traffic.example_system(example_id, p)
            x_field = traffic._symmetry(example_id) if symbolic else \
                traffic.example_symmetry(example_id, p)
            pair = invariants_of(x_field, params=system.params)
            work.update(dict.fromkeys(work, 0))
            before, keys = E.memo_info(), set(E._memo)
            reduce_and_solve(system, x_field, pair, guesses=guesses,
                             interval=interval)
            built = [key[0] for key in E._memo if key not in keys]
        assert work["_reduced_residual_exprs"] == 0
        if symbolic:
            assert work == {"_diff": 0, "_generate": 0,
                            "_reduced_residual_exprs": 0}
            assert E.memo_info().misses == before.misses
        else:
            # the field of new constants is the one kernel built
            assert set(built) <= {"field"}
            assert E.memo_info().misses - before.misses == len(built)
            assert work["_generate"] == len(built)

    def test_zero_and_one_stay_constants(self):
        # with slope 0 as a symbol s, y - ym would be s*x + A - (s*(x - B)
        # + A) and R1 = 0 - c*s*s/(y - ym), 0/0 at s = 0; bound, it folds
        system = DodsSystem(f=parse("c*dy*dym/(y - ym)"), g=parse("x - 1"),
                            params={"c": 2.0})
        x_field = VectorField(Const(1.0), Const(0.0))
        pair = invariants_of(x_field)
        assert pair.family()[2] == {"slope": 0.0}
        sol = reduce_and_solve(system, x_field, pair, interval=(1.2, 1.8))
        assert (sol.A, sol.B, sol.free_parameters) == (-4.5, 1.0, ["A"])

    def test_a_system_without_params_binds_the_family(self, monkeypatch):
        # f and g of constants are one parameter set: the slope 1.3 is
        # bound, so that dym - 1.3 folds to 0 and R1 with it
        derived = []
        real = reduce_mod._reduced_residual_exprs
        monkeypatch.setattr(reduce_mod, "_reduced_residual_exprs",
                            lambda *trees: derived.append(trees) or real(*trees))
        system = DodsSystem(f=parse("0.7123*dy*(1.3 - dym)"),
                            g=parse("x - 0.5"))
        x_field = VectorField(Const(1.0), Const(1.3))
        sol = reduce_and_solve(system, x_field, invariants_of(x_field),
                               interval=(2.2, 2.4))
        assert (sol.B, sol.free_parameters) == (0.5, ["A"])
        (f, g, h, k), = derived
        assert E.to_text(h) == "((1.3 * x) + A)"
        assert E.simplify(real(f, g, h, k)[0]) is Const(0.0)

    def test_family_params_are_renamed_away_from_the_system(self):
        # system params named slope, A and B beside the family's slope 0.5
        # and the constants A and B: B = 2 * 0.5 * 3 * 1 / 6
        system = DodsSystem(f=parse("dy - dym"),
                            g=parse("x - slope*dy*A*B/6"),
                            params={"slope": 2.0, "A": 3.0, "B": 1.0})
        x_field = VectorField(Const(1.0), Const(0.5))
        pair = invariants_of(x_field, params=system.params)
        sol = reduce_and_solve(system, x_field, pair, interval=(1.2, 1.8))
        assert (sol.A, sol.B, sol.free_parameters) == (-4.5, 0.5, ["A"])

    def test_family_binds_to_the_printed_pair(self):
        # bound, each family's h and k are the trees written with constants
        a, b = E.Param("A"), E.Param("B")
        for x_field, params, h_expr, k_expr in (
                (VectorField(Const(2.0), Const(3.0)), {"slope": 1.5},
                 Const(1.5) * E.X + a, E.X - b),
                (VectorField(Const(1.0), Const(0.5) * (E.Y - Const(2.0))),
                 {"eps": 0.5, "beta": 2.0},
                 Const(2.0) + a * E.Call("exp", Const(0.5) * E.X), E.X - b),
                (VectorField(E.X, Const(0.5) * (E.Y - Const(2.0))),
                 {"a": 0.5, "beta": 2.0}, Const(2.0) + a * E.X ** 0.5,
                 b * E.X)):
            pair = invariants_of(x_field)
            h, k, values = pair.family()
            assert values == params
            assert pair.h_expr is h_expr and pair.k_expr is k_expr
            assert E.bind_params(h, params) is h_expr
            assert E.bind_params(k, params) is k_expr

    def test_a_user_pair_is_its_own_family(self):
        pair = InvariantPair(J1=parse("y - x"), J2=parse("x - xm"),
                             h_expr=parse("x + A"), k_expr=parse("x - B"))
        assert pair.family() == (pair.h_expr, pair.k_expr, {})

    def test_newton_work_of_the_drift_case(self):
        # R2 = 1 - B is linear, so each of the 24 default guesses takes one
        # full step: two residuals and one Jacobian each, and one more
        # Jacobian at the root
        system = DodsSystem(f=parse("dy - dym"), g=parse("x - 1"))
        x_field = VectorField(Const(1.0), Const(1.0))
        sol = reduce_and_solve(system, x_field, invariants_of(x_field),
                               interval=(1.2, 1.8))
        assert (sol.n_guesses, sol.n_newton_steps, sol.n_residual_evals,
                sol.n_jacobian_evals) == (24, 24, 48, 25)


#: the outcome of reduce_and_solve for a field of the catalog: solved, or
#: the ReduceError whose message starts with the text
_OUTCOMES = {"xi vanishes identically": "V",
             "unsupported field family": "U",
             "no root found from any starting guess": "N",
             "reduced residuals vary with x": "X"}

#: the outcome of each basis field of each catalog entry with a system,
#: in basis order, under the default instantiation and arguments
_CATALOG_OUTCOMES = {
    "A1_1": "V", "A2_1": "VV", "A2_2": "VS", "A2_3": "VV", "A2_4": "SV",
    "A3_1": "VVS", "A3_2a": "SVS", "A3_8": "VSU", "A3_11": "VVV",
    "A3_13": "SVV", "A3_15": "VVV", "A4_1": "VVVN", "A4_8": "VNVN",
    "A4_11": "VNVX", "A4_20": "SSVV", "A5_1": "VVVNN", "A5_6": "NUUVV",
    "A5_8": "SSVVV", "A6_2": "SXUVVV", "A6_3": "SSUVVV", "H3_DET": "VVVV",
    "S3_DET": "VVVV", "TRAFFIC_EX1": "S", "TRAFFIC_EX2": "SV",
    "TRAFFIC_EX3": "S",
}


def _outcome(system, x_field) -> str:
    try:
        reduce_and_solve(system, x_field,
                         invariants_of(x_field, params=system.params))
    except ReduceError as exc:
        return next((code for text, code in _OUTCOMES.items()
                     if str(exc).startswith(text)), str(exc))
    return "S"


def test_every_catalog_basis_field_has_its_outcome():
    # the last two failures of reduce_and_solve are reached by the catalog
    got = {}
    for entry in catalog.list_entries():
        if entry.has_system:
            system = catalog.instantiate(
                catalog.default_instantiation(entry.id))
            got[entry.id] = "".join(_outcome(system, f) for f in entry.basis)
    assert got == _CATALOG_OUTCOMES
    table = "".join(got.values())
    assert {code: table.count(code) for code in "SVUNX"} == \
        {"S": 17, "V": 51, "U": 5, "N": 7, "X": 2}


class TestVerification:
    def test_drifting_solution_grid_and_integrator(self):
        p = traffic.example_params(1)
        system = traffic.example_system(1, p)
        h_expr, k_expr = traffic.exact_solution(1, p, -1.0)
        from dodesym.reduce import InvariantSolution

        sol = InvariantSolution(h=h_expr, k=k_expr, A=-1.0, B=p.tau,
                                residual=0.0)
        check = verify_invariant_solution(system, sol, (0.0, 5 * p.tau),
                                          cross_check=True)
        assert check.grid_residual < 1e-12
        assert check.integrate_deviation < 1e-9

    def test_exponential_solution_grid(self):
        p = traffic.example_params(3)
        system = traffic.example_system(3, p)
        closed = p.k / (1.0 + p.epsilon * math.exp(p.epsilon * p.tau))
        h_expr, k_expr = traffic.exact_solution(3, p, closed)
        from dodesym.reduce import InvariantSolution

        sol = InvariantSolution(h=h_expr, k=k_expr, A=closed, B=p.tau,
                                residual=0.0)
        check = verify_invariant_solution(system, sol, (0.5, 2.5),
                                          cross_check=False)
        assert check.grid_residual < 1e-10

    def test_corrupted_amplitude_detected(self):
        p = traffic.example_params(3)
        system = traffic.example_system(3, p)
        closed = p.k / (1.0 + p.epsilon * math.exp(p.epsilon * p.tau))
        h_expr, k_expr = traffic.exact_solution(3, p, closed + 0.1)
        from dodesym.reduce import InvariantSolution

        sol = InvariantSolution(h=h_expr, k=k_expr, A=closed + 0.1, B=p.tau,
                                residual=0.0)
        check = verify_invariant_solution(system, sol, (0.5, 2.5),
                                          cross_check=False)
        assert check.grid_residual > 1e-4


class TestAnnihilationProperties:
    @pytest.mark.parametrize("example_id", [1, 2, 3])
    def test_prolonged_annihilation_of_invariants(self, example_id):
        p = traffic.example_params(example_id)
        x_field = traffic.example_symmetry(example_id, p)
        pair = invariants_of(x_field)  # validation runs the 100-point check
        assert pair.can_reduce()

    def test_delayed_invariant_consistency(self):
        p = traffic.example_params(3)
        x_field = traffic.example_symmetry(3, p)
        pair = invariants_of(x_field)
        closed = p.k / (1.0 + p.epsilon * math.exp(p.epsilon * p.tau))
        h_expr, k_expr = traffic.exact_solution(3, p, closed)
        from dodesym.reduce import InvariantSolution

        sol = InvariantSolution(h=h_expr, k=k_expr, A=closed, B=p.tau,
                                residual=0.0)
        # J1 at the delayed point of the solution is A
        k_fn, h_fn = (E.compile_fn(e, ("x",)) for e in (sol.k, sol.h))
        j1_fn = E.compile_fn(pair.J1, ("x", "y"))
        worst = 0.0
        for x in np.linspace(0.5, 2.5, 25).tolist():
            xm = k_fn(x)
            worst = max(worst, abs(j1_fn(xm, h_fn(xm)) - sol.A))
        assert worst < 1e-10


def reference_annihilation(x_field, pair, params=None, n=100, seed=42):
    """validate_invariants' numbers as a loop over single points of
    compile_fn closures: (worst |pr X J|, points checked, singular points)."""
    params = dict(params or {})
    pro = prolong(x_field)
    coords = ("x", "y", "xm", "ym")
    coeffs = [E.compile_fn(E.bind_params(c, params), coords)
              for c in (pro.xi, pro.eta, pro.xi_m, pro.eta_m)]
    partials = [[E.compile_fn(E.diff(E.bind_params(j, params), v), coords)
                 for v in coords] for j in (pair.J1, pair.J2)]
    (_, j1_y, j1_xm, _), (_, j2_y, j2_xm, _) = partials
    rng = np.random.default_rng(seed)
    worst, checked, jac_bad = 0.0, 0, 0
    for _ in range(6 * n):
        if checked >= n:
            break
        pt = (float(rng.uniform(1.6, 2.5)), float(rng.uniform(0.5, 2.5)),
              float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.5)))
        try:
            c = [fn(*pt) for fn in coeffs]
            for dj in partials:
                ann = 0.0  # summed left to right
                for i in range(4):
                    ann += c[i] * dj[i](*pt)
                # a NaN wins and stays
                worst = worst if math.isnan(worst) or abs(ann) <= worst \
                    else abs(ann)
            det = j1_y(*pt) * j2_xm(*pt) - j1_xm(*pt) * j2_y(*pt)
            jac_bad += abs(det) < 1e-10
        except E.DomainError:
            continue
        checked += 1
    return worst, checked, jac_bad


#: a generic pair, annihilated by few fields, so the maxima are not zero
GENERIC_PAIR = InvariantPair(J1=parse("y - x^2"), J2=parse("x*ym - xm"))

#: pairs whose coefficients or partials are undefined or overflow on part
#: of the box
PARTIAL_PAIRS = [
    (VectorField.from_text("1", "sqrt(y - 1.5)"),
     InvariantPair(J1=parse("ln(y - 1.2) - x"), J2=parse("x - xm"))),
    (VectorField.from_text("x", "y"),
     InvariantPair(J1=parse("sqrt(y - 1)/x"), J2=parse("ln(xm - 0.7)/x"))),
    (VectorField.from_text("1", "sqrt(y - 1)"),
     InvariantPair(J1=parse("y - x"), J2=parse("ln(ym - 1.1) + x - xm"))),
    (VectorField.from_text("1", "0"),
     InvariantPair(J1=parse("exp(705*y)"), J2=parse("x - xm"))),
    # |pr X J1| = exp(-4 ym) is largest where J2 is undefined (ym < 1.1)
    (VectorField.from_text("1", "0"),
     InvariantPair(J1=parse("y - x*exp(-4*ym)"),
                   J2=parse("sqrt(ym - 1.1) + x - xm"))),
    # singular everywhere, and counted only where the field is defined
    (VectorField.from_text("1", "sqrt(y - 1.5)"),
     InvariantPair(J1=parse("y - x"), J2=parse("y + x"))),
    # pr X J1 is inf - inf = NaN at every point, so the maximum is NaN
    (VectorField.from_text("1e300", "-1e300"),
     InvariantPair(J1=parse("1e10*x + 1e10*y"), J2=parse("x - xm"))),
    # pr X J1 is inf on part of the box and inf - inf = NaN on the rest
    (VectorField.from_text("1e300", "1e300*(y - 1.5)"),
     InvariantPair(J1=parse("1e10*x - 1e10*y"), J2=parse("x - xm"))),
]


class TestAnnihilationMatchesPointLoop:
    """validate_invariants' maxima and counts equal a loop over single
    points, bit for bit."""

    @pytest.mark.parametrize("entry", [e for e in catalog.list_entries()
                                       if e.basis], ids=lambda e: e.id)
    def test_catalog_fields(self, entry):
        for i, f in enumerate(entry.basis):
            for seed in (0, 1):
                got = reduce_mod._annihilation(f, GENERIC_PAIR,
                                               entry.default_params, 30,
                                               seed + i)
                assert repr(got) == repr(reference_annihilation(
                    f, GENERIC_PAIR, entry.default_params, 30, seed + i))

    @pytest.mark.parametrize("x_field,pair", PARTIAL_PAIRS)
    def test_undefined_and_overflowing_points(self, x_field, pair):
        for seed in range(6):
            for n in (1, 13, 100):
                got = reduce_mod._annihilation(x_field, pair, {}, n, seed)
                assert repr(got) == repr(
                    reference_annihilation(x_field, pair, {}, n, seed))

    def test_draw_budget(self):
        # partials defined on y < 0.52 only: 6n draws leave too few points
        pair = InvariantPair(J1=parse("sqrt(0.52 - y)"), J2=parse("x - xm"))
        x_field = VectorField.from_text("1", "0")
        got = reduce_mod._annihilation(x_field, pair, {}, 20, 4)
        assert got == reference_annihilation(x_field, pair, {}, 20, 4)
        assert got[1] < 20
        with pytest.raises(ReduceError, match="enough admissible"):
            validate_invariants(x_field, pair, n=20, seed=4)

    def test_nan_annihilation_fails(self):
        # |pr X J1| is inf - inf = NaN at every point: a NaN at a counted
        # point fails, as a NaN residual does in check_invariance
        x_field, pair = PARTIAL_PAIRS[6]
        with pytest.raises(ReduceError, match=r"not annihilated \(residual nan\)"):
            validate_invariants(x_field, pair)

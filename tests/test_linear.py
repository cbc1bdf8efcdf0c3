import hashlib
import math

import numpy as np
import pytest

from dodesym import expr as E
from dodesym.dods import DodsSystem, check_invariance
from dodesym.expr import Const, parse
from dodesym.integrate import HistoryFunction, solve
from dodesym.linear import (
    CanonicalLinear,
    LinearDods,
    LinearError,
    _determining_trees,
    _xi,
    characteristic_roots,
    compatibility_residual,
    detect_extra_symmetry,
    dump_linear,
    inhomogeneous_scaling_residual,
    load_linear,
    verify_canonical_transform,
    verify_exponential_solution,
    verify_linear_symmetries,
)
from dodesym.symmetry import VectorField
from tests.conftest import bisect_root


def delayed_position_system(b="0"):
    # y'' = y_-, unit constant delay
    return LinearDods(a1=Const(0.0), a2=Const(0.0), a3=Const(0.0),
                      a4=Const(1.0), b=parse(b), g=parse("x-1"),
                      domain=(0.0, 3.0))


class TestLinearDods:
    def test_rejects_missing_delay_coupling(self):
        with pytest.raises(LinearError, match="delay coupling"):
            LinearDods(a1=Const(1.0), a2=Const(0.0), a3=Const(1.0),
                       a4=Const(0.0), b=Const(0.0), g=parse("x-1"))

    def test_rejects_forward_delay(self):
        with pytest.raises(LinearError, match="g\\(x\\) < x"):
            LinearDods(a1=Const(0.0), a2=Const(1.0), a3=Const(0.0),
                       a4=Const(0.0), b=Const(0.0), g=parse("x+1"))

    def test_homogeneity_probe(self):
        assert delayed_position_system().is_homogeneous()
        assert not delayed_position_system(b="1").is_homogeneous()


class TestVerifyLinearSymmetries:
    def test_scaling_field_on_homogeneous_system(self):
        L = delayed_position_system()
        phi = HistoryFunction.from_text("x", (-1.0, 0.0))
        rho = solve(L.to_dods(), phi, "from-phi", 3.0, 1e-3)
        report = verify_linear_symmetries(L, [rho])
        assert report.scaling.passed
        assert report.scaling.max_residual_dode < 1e-10
        assert all(r < 1e-6 for r in report.perturbation_residuals)
        assert report.passed

    def test_two_independent_solution_fields(self):
        L = delayed_position_system()
        rhos = []
        for text in ("x", "1 + 0.5*x^2"):
            phi = HistoryFunction.from_text(text, (-1.0, 0.0))
            rhos.append(solve(L.to_dods(), phi, "from-phi", 3.0, 1e-3))
        report = verify_linear_symmetries(L, rhos)
        assert report.passed

    def test_inhomogeneous_input_is_refused(self):
        with pytest.raises(LinearError, match="non-homogeneous"):
            verify_linear_symmetries(delayed_position_system(b="1"), [])

    def test_shifted_scaling_for_inhomogeneous_system(self):
        # with a particular solution sigma, (y - sigma) d/dy passes instead
        L = delayed_position_system(b="1")
        phi = HistoryFunction.from_text("x", (-1.0, 0.0))
        sigma = solve(L.to_dods(), phi, "from-phi", 3.0, 1e-3)
        assert inhomogeneous_scaling_residual(L, sigma) < 1e-6


class TestLinearChecksCanFail:
    # solves y'' = -5y + 3y', not y'' = y(x-1) + b
    @pytest.fixture(scope="class")
    def wrong_solution(self):
        system = DodsSystem(f=parse("-5*y + 3*dy"), g=parse("x-1"))
        phi = HistoryFunction.from_text("x", (-1.0, 0.0))
        return solve(system, phi, "from-phi", 3.0, 1e-3)

    def test_shifted_scaling_fails_a_non_solution(self, wrong_solution):
        L = delayed_position_system(b="1")
        assert inhomogeneous_scaling_residual(L, wrong_solution) > 10.0

    def test_superposition_fails_a_non_solution(self, wrong_solution):
        report = verify_linear_symmetries(delayed_position_system(),
                                          [wrong_solution])
        assert report.scaling.passed
        assert report.perturbation_residuals[0] > 1e-2
        assert not report.passed

    def test_undefined_f_is_refused_not_skipped(self, wrong_solution):
        # a3 has no value anywhere on the trajectory
        L = LinearDods(a1=Const(0.0), a2=Const(0.0), a3=parse("sqrt(-x-10)"),
                       a4=Const(1.0), b=Const(1.0), g=parse("x-1"))
        with pytest.raises(LinearError, match="undefined at 200 of 200"):
            inhomogeneous_scaling_residual(L, wrong_solution)


class TestSuperpositionAndShift:
    def test_solution_shift_reaches_homogeneous_system(self):
        L_in = delayed_position_system(b="1")
        L_hom = delayed_position_system()
        phi_sigma = HistoryFunction.from_text("x", (-1.0, 0.0))
        sigma = solve(L_in.to_dods(), phi_sigma, "from-phi", 3.0, 1e-3)
        phi_y = HistoryFunction.from_text("2*x + 0.3", (-1.0, 0.0))
        y_full = solve(L_in.to_dods(), phi_y, "from-phi", 3.0, 1e-3)
        # the difference must solve the homogeneous system: integrate it
        # from its own restriction and compare
        diff_phi = HistoryFunction.from_text("x + 0.3", (-1.0, 0.0))
        y_diff = solve(L_hom.to_dods(), diff_phi, "from-phi", 3.0, 1e-3)
        worst = max(
            abs((yf - ys) - yd)
            for yf, ys, yd in zip(y_full.ys, sigma.ys, y_diff.ys)
        )
        assert worst < 1e-9


class TestCompatibility:
    def test_constant_delay_constant_k(self):
        xs = list(np.linspace(0.0, 2.0, 50))
        assert compatibility_residual(parse("x-2"), parse("0.7"), xs) < 1e-12

    def test_proportional_delay_reciprocal_k(self):
        xs = list(np.linspace(1.0, 3.0, 50))
        assert compatibility_residual(parse("0.5*x"), parse("1.3/x"), xs) < 1e-12

    def test_mismatched_pair(self):
        xs = list(np.linspace(0.0, 2.0, 50))
        assert compatibility_residual(parse("x-1"), parse("x"), xs) >= 0.5


class TestDetector:
    def test_constant_coefficient_system_yields_translation(self):
        L = CanonicalLinear(1.0, 0.2, 0.3, 1.0).to_linear()
        found = detect_extra_symmetry(L)
        assert found is not None
        assert found.K_used == "K1"
        assert found.xi == Const(1.0)
        assert found.xi_is_constant
        # Z = d/dx exactly
        assert E.to_text(found.field.xi) == "1"
        assert found.invariance.passed

    def test_first_coefficient_feeds_the_vertical_part(self):
        L = LinearDods(a1=Const(0.4), a2=Const(1.0), a3=Const(0.0),
                       a4=Const(0.3), b=Const(0.0), g=parse("x-1"),
                       domain=(0.0, 3.0))
        found = detect_extra_symmetry(L)
        assert found is not None and found.xi == Const(1.0)
        # eta = (a1/2) y
        assert E.evaluate(found.field.eta, {"x": 1.0, "y": 2.0}) == \
            pytest.approx(0.4, rel=1e-12)
        assert found.invariance.passed

    def test_variable_a2_with_proportional_delay_fails_cleanly(self):
        # K1 = 2/x satisfies the compatibility condition, but the third
        # determining equation has residual 2/(q x^2); the checks decide
        L = LinearDods(a1=Const(0.0), a2=parse("1/x^2"), a3=Const(0.0),
                       a4=Const(0.0), b=Const(0.0), g=parse("0.5*x"),
                       domain=(1.0, 3.0))
        k1 = _determining_trees(L, "K1")[0]
        for x in (1.2, 2.0, 2.8):
            assert E.evaluate(k1, {"x": x}) == pytest.approx(2.0 / x,
                                                             rel=1e-12)
        assert detect_extra_symmetry(L) is None

    def test_a2_zero_branch_uses_k2(self):
        # K2 = -1/2 is compatible, but the third-derivative condition is not
        L = LinearDods(a1=Const(0.0), a2=Const(0.0), a3=Const(0.0),
                       a4=parse("exp(x)"), b=Const(0.0), g=parse("x-1"),
                       domain=(0.0, 3.0))
        k2 = _determining_trees(L, "K2")[0]
        for x in (0.5, 1.5):
            assert E.evaluate(k2, {"x": x}) == pytest.approx(-0.5, rel=1e-12)
        xs = list(np.linspace(1.0, 3.0, 30))
        assert compatibility_residual(L.g, k2, xs) < 1e-12
        assert detect_extra_symmetry(L) is None

    def test_gamma_only_constant_system_uses_k2(self):
        L = CanonicalLinear(0.0, 0.1, 1.0, 1.0).to_linear()
        found = detect_extra_symmetry(L)
        assert found is not None and found.K_used == "K2"
        assert found.xi == Const(1.0)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(LinearError, match="non-homogeneous"):
            detect_extra_symmetry(delayed_position_system(b="1"))


def _linear(a1, a2, a3, a4, g, domain):
    return LinearDods(a1=parse(a1), a2=parse(a2), a3=parse(a3), a4=parse(a4),
                      b=Const(0.0), g=parse(g), domain=domain)


#: sha256 of repr(detect_extra_symmetry(...)), first 16 hex digits, with xi
#: integrated from the left end of the domain at every point
DETECTOR_DIGESTS = {
    "canonical-K1": "e021f8f7fc8affdc",
    "a1-feeds-eta": "ef74989bd0eb9123",
    "gamma-only-K2": "e904b9d7505fb8dc",
    "constant-a1-K2": "f2428f5b4f50f38d",
    "varying-K-proportional": "aac029ef981144c3",
}


class TestDetectorResults:
    """detect_extra_symmetry's results, bit for bit."""

    @pytest.mark.parametrize("name, system", [
        ("canonical-K1", lambda: CanonicalLinear(1.0, 0.2, 0.3, 1.0).to_linear()),
        ("a1-feeds-eta", lambda: _linear("0.4", "1", "0", "0.3", "x-1",
                                         (0.0, 3.0))),
        ("gamma-only-K2", lambda: CanonicalLinear(0.0, 0.1, 1.0, 1.0).to_linear()),
        ("constant-a1-K2", lambda: _linear("0.4", "0", "0", "0.3", "x-1",
                                           (0.0, 4.0))),
        # K = 1/x: xi = x comes from the quadrature, which sets every check
        ("varying-K-proportional",
         lambda: _linear("0", "1/x", "0.3/x^2", "0.2/x^2", "0.5*x", (1.0, 3.0))),
    ])
    def test_digest(self, name, system):
        r = repr(detect_extra_symmetry(system()))
        assert hashlib.sha256(r.encode()).hexdigest()[:16] == \
            DETECTOR_DIGESTS[name]

    def test_varying_k_is_detected_without_a_closed_form(self):
        found = detect_extra_symmetry(
            _linear("0", "1/x", "0.3/x^2", "0.2/x^2", "0.5*x", (1.0, 3.0)))
        assert found is not None and found.xi is None
        assert found.checks["connection"] < 1e-12

    def test_canonical_systems_share_their_kernels(self, monkeypatch):
        calls = []
        for name in ("_diff", "_generate"):
            real = getattr(E, name)
            monkeypatch.setattr(E, name, lambda *a, _r=real, _n=name: (
                calls.append(_n), _r(*a))[1])
        scaling = VectorField(Const(0.0), E.Y)
        first = CanonicalLinear(0.7, -0.3, 0.4, 0.6).to_linear()
        check_invariance(first.to_dods(), scaling, n=2000, seed=3)
        detect_extra_symmetry(first)
        calls.clear()
        misses = E.memo_info().misses
        second = CanonicalLinear(-0.45, 0.8, -0.9, 0.35).to_linear()
        report = check_invariance(second.to_dods(), scaling, n=2000, seed=4)
        found = detect_extra_symmetry(second)
        assert calls == [] and E.memo_info().misses == misses
        assert report.passed and found is not None and found.xi_is_constant


class TestXi:
    # K = 1/x anchored at 1: xi = x.  The points are the detector's 200
    # candidate grid points on (1, 3) and their images under g = 0.5 x
    grid = np.linspace(1.0, 3.0, 200).tolist()
    points = grid + [0.5 * x for x in grid]

    def test_values_do_not_depend_on_the_order_asked(self):
        forward, backward = (_xi(lambda x: 1.0 / x, 1.0) for _ in "ab")
        ahead = [forward(x).hex() for x in self.points]
        behind = [backward(x).hex() for x in reversed(self.points)]
        assert ahead == behind[::-1]

    def test_reciprocal_k_gives_the_identity(self):
        xi = _xi(lambda x: 1.0 / x, 1.0)
        assert max(abs(xi(x) / x - 1.0) for x in self.points) < 1e-14


class TestCanonicalTransform:
    @pytest.mark.parametrize("a1,gamma,delay", [
        (0.4, 0.3, 1.0), (-0.7, 0.5, 0.8), (1.1, -0.4, 0.5), (0.0, 0.9, 1.0)])
    def test_constant_a1_maps_to_constant_coefficients(self, a1, gamma, delay):
        L = LinearDods(a1=Const(a1), a2=Const(0.0), a3=Const(0.0),
                       a4=Const(gamma), b=Const(0.0),
                       g=E.X - Const(delay), domain=(0.0, 4.0))
        found = detect_extra_symmetry(L)
        assert found is not None
        phi = HistoryFunction.from_text("1 + 0.2*x", (-1.0, 0.0))
        report = verify_canonical_transform(L, found, phi, x_end=4.0)
        assert report.delay_spread < 1e-9
        assert report.C == pytest.approx(delay, abs=1e-9)
        assert report.fit_residual < 1e-4
        # predicted image coefficients: beta = a1^2/4, gamma e^(-a1 C / 2)
        assert report.beta == pytest.approx(a1 ** 2 / 4.0, abs=1e-4)
        assert report.gamma == pytest.approx(gamma * math.exp(-a1 * delay / 2),
                                             abs=1e-4)
        assert abs(report.alpha) < 1e-4


class TestCharacteristicRoots:
    def test_pure_square_case(self):
        roots = characteristic_roots(CanonicalLinear(0, 1, 0, 1), (-3, 3))
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_delayed_position_case(self, char_root_0011):
        roots = characteristic_roots(CanonicalLinear(0, 0, 1, 1), (-3, 3))
        assert len(roots) == 1
        lam = roots[0]
        assert lam == pytest.approx(char_root_0011, abs=1e-12)
        assert abs(lam * lam * math.exp(lam) - 1.0) < 1e-10
        assert lam == pytest.approx(0.7035, abs=1e-4)

    def test_zero_root_found_on_grid(self):
        roots = characteristic_roots(CanonicalLinear(1, 0, 0, 1), (-3, 3))
        assert any(abs(r) < 1e-12 for r in roots)
        # the delayed-velocity balance has a second real root
        other = bisect_root(lambda t: t - math.exp(-t), 0.1, 1.5)
        assert any(abs(r - other) < 1e-10 for r in roots)

    def test_empty_window(self):
        roots = characteristic_roots(CanonicalLinear(0, 0, 1, 1), (-3, -2))
        assert roots == []

    def test_char_value_past_the_float_range_keeps_its_sign(self):
        # e^(-lam C) overflows: the delayed terms decide, or vanish
        assert CanonicalLinear(0, 1, 0, 1).char_value(-1000.0) == 999999.0
        assert CanonicalLinear(1, 1, 0.5, 1).char_value(-1000.0) == math.inf
        assert CanonicalLinear(0, 1, -0.5, 1).char_value(-1000.0) == math.inf
        assert CanonicalLinear(0, 1, 0.5, 1).char_value(-1000.0) == -math.inf

    def test_window_wider_than_any_sign_change_bracket_halving(self):
        # each 5e297-wide bracket next to 0 needs about 1000 halvings
        roots = characteristic_roots(CanonicalLinear(0, 1, 0, 1),
                                     (-1e300, 1e300))
        assert roots == [-1.0, 1.0]

    def test_window_whose_width_overflows_is_rejected(self):
        with pytest.raises(LinearError, match="too wide for floats"):
            characteristic_roots(CanonicalLinear(0, 1, 0, 1), (-1e308, 1e308))

    def test_refinement_that_misses_value_tol_names_its_bracket(self):
        # near lambda = 141421.356 one float step moves h by about 4e-6
        with pytest.raises(LinearError, match=r"^sign change over \[.*\]"
                           r" refines to lambda = 141421\.356.* not below 1e-10$"):
            characteristic_roots(CanonicalLinear(0, 2e10, 0, 1), (0, 2e5))

    @pytest.mark.parametrize("window,n_seed", [((-3, 3), 400),
                                               ((0.5, 2), 400),
                                               ((-2, 2), 1000)])
    def test_double_root_is_one_root(self, window, n_seed):
        # gamma = -2e: h(1) = h'(1) = 0 and h''(1) > 0; with n_seed 1000 a
        # grid node lands on 1
        cl = CanonicalLinear(0.0, 3.0, -2.0 * math.e, 1.0)
        roots = characteristic_roots(cl, window, n_seed=n_seed)
        assert roots == pytest.approx([1.0], abs=1e-12)

    def test_double_root_next_to_a_root_node_is_one_root(self):
        # the middle node lies 1e-7 past lambda = 1, where |h| is 2e-14:
        # the node is the root, and the minimum beside it is not a second
        cl = CanonicalLinear(0.0, 3.0, -2.0 * math.e, 1.0)
        lo = 1.0 + 1e-7 - 3.0
        assert characteristic_roots(cl, (lo, lo + 6.0)) == [1.0000001]

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10])
    def test_close_pair_inside_one_pair_of_cells(self, delta):
        cl = CanonicalLinear(0.0, 3.0, -2.0 * math.e * (1.0 - delta), 1.0)
        roots = characteristic_roots(cl, (-3, 3))
        assert len(roots) == 2
        for lam in roots:
            assert abs(cl.char_value(lam)) < 1e-10
            assert abs(lam - 1.0) <= 2.0 * math.sqrt(delta)

    def test_root_on_a_node_where_the_slope_overflows(self):
        # h = lambda^2 - 1e6 with no delayed term: e^(-lambda C) overflows
        # at the node -1000, where h' is undefined
        assert characteristic_roots(CanonicalLinear(0, 1e6, 0, 1),
                                    (-2000, 0)) == [-1000.0]

    @pytest.mark.parametrize("n_seed", [0, -3, 10**6 + 1])
    def test_rejects_fewer_than_one_cell(self, n_seed, monkeypatch):
        # and more than 10**6 cells, refused before any grid is built
        def no_scan(*args, **kwargs):
            raise AssertionError("the window was scanned")

        monkeypatch.setattr("dodesym.linear._real_roots", no_scan)
        bound = "at least 1" if n_seed < 1 else "at most 1000000"
        with pytest.raises(ValueError,
                           match=f"^n_seed must be {bound}, got {n_seed}$"):
            characteristic_roots(CanonicalLinear(0, 1, 0, 1), (-3, 3),
                                 n_seed=n_seed)

    def test_every_root_verifies(self):
        for quad in ((0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
                     (0.5, 0.3, -0.2, 0.7)):
            cl = CanonicalLinear(*quad)
            for lam in characteristic_roots(cl, (-4, 4)):
                assert verify_exponential_solution(cl, lam) < 1e-10


class TestVerifyExponential:
    def test_exact_root(self):
        assert verify_exponential_solution(CanonicalLinear(0, 1, 0, 1),
                                           1.0) < 1e-12

    def test_non_root_residual(self):
        # |lambda^2 - beta| at lambda = 2, beta = 1
        res = verify_exponential_solution(CanonicalLinear(0, 1, 0, 1), 2.0)
        assert res == pytest.approx(3.0, rel=1e-12)

    def test_scan_root_passes(self, char_root_0011):
        assert verify_exponential_solution(CanonicalLinear(0, 0, 1, 1),
                                           char_root_0011) < 1e-10


class TestCanonicalLinearType:
    def test_requires_positive_delay_width(self):
        with pytest.raises(LinearError):
            CanonicalLinear(0, 1, 0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_coefficient_is_refused(self, index, value):
        # a NaN C is refused too, although NaN <= 0 is false
        quad = [0.0, 1.0, 0.0, 1.0]
        quad[index] = value
        name = ("alpha", "beta", "gamma", "C")[index]
        with pytest.raises(LinearError, match=f"^{name} must be finite"):
            CanonicalLinear(*quad)

    def test_degenerate_quadruple_cannot_become_a_system(self):
        # no delayed term at all: fine for root analysis, not as a system
        cl = CanonicalLinear(0, 1, 0, 1)
        with pytest.raises(LinearError):
            cl.to_linear()


#: every linear system the tests of this module build
_LINEAR_CASES = {
    "delayed-position": delayed_position_system,
    "delayed-position-inhomogeneous": lambda: delayed_position_system(b="1"),
    **{f"canonical{q}": lambda q=q: CanonicalLinear(*q).to_linear()
       for q in [(1.0, 0.2, 0.3, 1.0), (0.0, 0.1, 1.0, 1.0),
                 (0.7, -0.3, 0.4, 0.6), (-0.45, 0.8, -0.9, 0.35)]},
    "a1-feeds-eta": lambda: _linear("0.4", "1", "0", "0.3", "x-1", (0.0, 3.0)),
    "constant-a1-K2": lambda: _linear("0.4", "0", "0", "0.3", "x-1",
                                      (0.0, 4.0)),
    "varying-K-proportional": lambda: _linear(
        "0", "1/x", "0.3/x^2", "0.2/x^2", "0.5*x", (1.0, 3.0)),
    "variable-a2": lambda: _linear("0", "1/x^2", "0", "0", "0.5*x",
                                   (1.0, 3.0)),
    "exp-a4": lambda: _linear("0", "0", "0", "exp(x)", "x-1", (0.0, 3.0)),
    **{f"constant-a1{q}": lambda q=q: LinearDods(
        a1=Const(q[0]), a2=Const(0.0), a3=Const(0.0), a4=Const(q[1]),
        b=Const(0.0), g=E.X - Const(q[2]), domain=(0.0, 4.0))
       for q in [(0.4, 0.3, 1.0), (-0.7, 0.5, 0.8), (1.1, -0.4, 0.5),
                 (0.0, 0.9, 1.0)]},
}


class TestFileFormat:
    def test_round_trip(self):
        L = LinearDods(a1=parse("0.4"), a2=parse("1"), a3=parse("0"),
                       a4=parse("0.3*x"), b=parse("0"), g=parse("x-1"),
                       domain=(0.0, 3.0), params={"c": 2.0})
        text = dump_linear(L)
        again = load_linear(text)
        assert again.a4 is L.a4
        assert again.domain == L.domain
        assert again.params == L.params

    @pytest.mark.parametrize("name", list(_LINEAR_CASES))
    def test_round_trip_gives_the_same_nodes(self, name):
        L = _LINEAR_CASES[name]()
        again = load_linear(dump_linear(L))
        for key in ("a1", "a2", "a3", "a4", "b", "g"):
            assert getattr(again, key) is getattr(L, key), key
        assert again.domain == L.domain
        assert again.params == L.params

    def test_unknown_key(self):
        with pytest.raises(LinearError, match="unknown key"):
            load_linear("a1 = 0\nbogus = 3\ng = x-1\n")

    def test_needs_delay(self):
        with pytest.raises(LinearError, match="define g"):
            load_linear("a2 = 1\n")

    @pytest.mark.parametrize("line", ["param a = x", "domain = 5"])
    def test_malformed_number_names_the_line(self, line):
        with pytest.raises(LinearError, match="line 3"):
            load_linear(f"a2 = 1\ng = x - 1\n{line}\n")

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_a_non_finite_param_names_its_line(self, value):
        with pytest.raises(LinearError) as err:
            load_linear(f"a2 = b\ng = x - 1\nparam b = {value}\n")
        assert str(err.value) == \
            f"line 3: parameter 'b' must be finite, got '{value}'"

    def test_malformed_expression_names_the_line(self):
        with pytest.raises(LinearError) as err:
            load_linear("a2 = 1\ng = x - (1\n")
        assert str(err.value) == "line 2: expected ')' at offset 7"
        assert isinstance(err.value.__cause__, E.ParseError)


class TestScalingInvarianceSample:
    def test_five_random_homogeneous_instances(self):
        rng = np.random.default_rng(17)
        from dodesym.dods import check_invariance
        from dodesym.symmetry import VectorField

        for _ in range(5):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            L = LinearDods(
                a1=Const(float(coeffs[0])), a2=Const(float(coeffs[1])),
                a3=Const(float(coeffs[2])),
                a4=Const(float(coeffs[3]) + 1.5),  # keep a4 well nonzero
                b=Const(0.0), g=parse("x - 0.8"), domain=(0.0, 3.0),
            )
            report = check_invariance(L.to_dods(),
                                      VectorField.from_text("0", "y"), n=100)
            assert report.max_residual_dode < 1e-10
            assert report.max_residual_delay < 1e-10

import numpy as np
import pytest

from dodesym import expr as E
from dodesym.dods import (
    DelayKind,
    DodsError,
    DodsSystem,
    SamplingError,
    _residual_fns,
    check_algebra,
    check_invariance,
    dump_dods,
    load_dods,
    sample_point,
)
from dodesym.expr import evaluate, parse
from dodesym.symmetry import JET, VectorField, prolong


def a24_example():
    # ddy = (y - ym) sin(dy) + dym, with delay width 1 + dy^2
    return DodsSystem(f=parse("(y-ym)*sin(dy)+dym"), g=parse("x-(1+dy^2)"),
                      delay_kind=DelayKind.STATE_DEPENDENT)


POINT = {"x": 1.0, "y": 2.0, "xm": 0.5, "ym": 1.5, "dy": 1.0, "dym": 0.7,
         "ddy": 0.3}


def const(v):
    return E.Const(v)


def prolonged_residuals(f, g, field, point=POINT):
    """pr X (ddy - f) and pr X (xm - g) at a jet point, computed by the
    compiled evaluators that check_invariance uses."""
    system = DodsSystem(f=parse(f), g=parse(g))
    residuals = _residual_fns(system, field)
    return residuals(tuple(point[v] for v in JET))


class TestApplyProlonged:
    """The prolonged field applied to the two constraint functions."""

    def test_difference_is_translation_invariant(self):
        # pr X (ddy - (y - ym)) = zeta2 - (eta - eta_m), all zero for d/dy
        r_dode, _ = prolonged_residuals("y - ym", "x - 1",
                                        VectorField.from_text("0", "1"))
        assert r_dode == 0.0

    def test_width_is_shift_invariant(self):
        # pr X (xm - (x - 1)) = xi_m - xi = 0 for d/dx
        _, r_delay = prolonged_residuals("ym", "x - 1",
                                         VectorField.from_text("1", "0"))
        assert r_delay == 0.0

    def test_vertical_fields_leave_x_alone(self):
        # pr X (xm - 0.5) = xi_m and pr X (xm - (x - 1)) = xi_m - xi
        field = VectorField.from_text("0", "y")
        _, moves_xm = prolonged_residuals("ym", "0.5", field)
        _, moves_x_and_xm = prolonged_residuals("ym", "x - 1", field)
        assert moves_xm == 0.0 and moves_x_and_xm == 0.0

    def test_matches_term_by_term_sum(self):
        # phi = ddy - f with f = dy*dym - xm*ym; its partials written by hand
        field = VectorField.from_text("x", "y^2")
        r_dode, _ = prolonged_residuals("dy*dym - xm*ym", "x - 1", field)
        p = POINT
        partials = (0.0, 0.0, p["ym"], p["xm"], -p["dym"], -p["dy"], 1.0)
        total = sum(evaluate(c, p) * d
                    for c, d in zip(prolong(field).coefficients(), partials))
        assert r_dode == pytest.approx(total, rel=1e-14)


class TestCheckInvariance:
    def test_translations_pass_on_difference_system(self):
        system = a24_example()
        for spec in (("0", "1"), ("1", "0")):
            report = check_invariance(system, VectorField.from_text(*spec),
                                      n=200)
            assert report.passed
            assert report.max_residual_dode < 1e-10
            assert report.max_residual_delay < 1e-10

    def test_scaling_fails_with_unit_residual(self):
        # the inhomogeneous term breaks scaling; the residual equals its image
        system = DodsSystem(f=parse("y-ym+1"), g=parse("x-1"))
        report = check_invariance(system, VectorField.from_text("0", "y"),
                                  n=100)
        assert not report.passed
        assert report.max_residual_dode == pytest.approx(1.0, abs=1e-9)

    def test_report_carries_worst_point(self):
        system = a24_example()
        report = check_invariance(system, VectorField.from_text("0", "y"),
                                  n=50)
        assert set(report.worst_point) == {"x", "y", "xm", "ym", "dy", "dym",
                                           "ddy"}

    def test_incompatible_sampling_domain(self):
        bad = DodsSystem(f=parse("ln(y - 10) + ym*0 + dym"), g=parse("x-1"))
        with pytest.raises(SamplingError, match="incompatible sampling"):
            check_invariance(bad, VectorField.from_text("0", "1"), n=40)

    def test_residual_is_linear_in_the_field(self):
        system = a24_example()
        x1 = VectorField.from_text("0", "y")
        x2 = VectorField.from_text("x", "0")
        a, b = 0.7, -1.3
        combo = VectorField(E.simplify(const(a) * x1.xi + const(b) * x2.xi),
                            E.simplify(const(a) * x1.eta + const(b) * x2.eta))
        res1, res2, resc = (_residual_fns(system, fld)
                            for fld in (x1, x2, combo))
        g_fn = E.compile_fn(system.g, ("x", "y", "ym", "dy", "dym"))
        f_fn = E.compile_fn(system.f, ("x", "y", "xm", "ym", "dy", "dym"))
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = sample_point(rng, system.box)
            xm = g_fn(p["x"], p["y"], p["ym"], p["dy"], p["dym"])
            full = {**p, "xm": xm}
            full["ddy"] = f_fn(full["x"], full["y"], full["xm"], full["ym"],
                               full["dy"], full["dym"])
            args = tuple(full[v] for v in JET)
            # both halves: pr X (ddy - f) and pr X (xm - g)
            for lhs, r1, r2 in zip(resc(args), res1(args), res2(args)):
                assert abs(lhs - (a * r1 + b * r2)) < 1e-10


class TestCheckAlgebra:
    def test_three_field_family(self):
        # ddy = dy (dy / (y - ym)), delay width dym/(y - ym) + 1
        system = DodsSystem(
            f=parse("dy*(dy/(y-ym))"),
            g=parse("x - (dym/(y-ym) + 1)"),
            delay_kind=DelayKind.STATE_DEPENDENT,
            box={"y": (1.6, 2.5), "ym": (0.5, 1.4)},
        )
        fields = [VectorField.from_text("1", "0"),
                  VectorField.from_text("0", "1"),
                  VectorField.from_text("0", "y")]
        reports = check_algebra(system, fields, n=150)
        assert all(r.passed for r in reports)

    def test_extra_field_fails_while_basis_passes(self):
        system = a24_example()
        fields = [VectorField.from_text("1", "0"),
                  VectorField.from_text("0", "1"),
                  VectorField.from_text("0", "x", "x d/dy")]
        reports = check_algebra(system, fields, n=120)
        assert reports[0].passed and reports[1].passed
        assert not reports[2].passed
        assert reports[2].max_residual_dode > 1e-3


class TestSystemValidation:
    def test_requires_delayed_dependence(self):
        system = DodsSystem(f=parse("y + dy"), g=parse("x-1"))
        with pytest.raises(DodsError, match="delayed"):
            system.validate()

    def test_rejects_constant_g_when_kind_says_otherwise(self):
        system = DodsSystem(f=parse("ym"), g=parse("x-1"),
                            delay_kind=DelayKind.STATE_DEPENDENT)
        with pytest.raises(DodsError, match="constant"):
            system.validate()

    def test_g_must_not_use_xm(self):
        with pytest.raises(DodsError):
            DodsSystem(f=parse("ym"), g=parse("xm - 1"))

    def test_f_may_use_xm(self):
        DodsSystem(f=parse("ym + xm"), g=parse("x-1"))


class TestFileFormat:
    def test_round_trip(self):
        system = a24_example()
        system.params["alpha"] = 2.0
        text = dump_dods(system)
        again = load_dods(text)
        assert E.to_text(again.f) == E.to_text(system.f)
        assert E.to_text(again.g) == E.to_text(system.g)
        assert again.params == system.params
        assert again.delay_kind is system.delay_kind

    def test_unknown_key_rejected(self):
        with pytest.raises(DodsError, match="unknown key"):
            load_dods("f = ym\ng = x-1\nfrobnicate = 3\n")

    def test_missing_half_rejected(self):
        with pytest.raises(DodsError, match="both f and g"):
            load_dods("f = ym\n")

    def test_param_and_domain_lines(self):
        system = load_dods(
            "f = a*ym\ng = x - 1\nparam a = 2.5\ndelay = constant\n"
            "domain = 0,5\n"
        )
        assert system.params == {"a": 2.5}
        assert system.domain == (0.0, 5.0)

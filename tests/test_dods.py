import dataclasses
import math

import numpy as np
import pytest

from dodesym import catalog, dods, traffic
from dodesym import expr as E
from dodesym.dods import (
    DEFAULT_BOX,
    FREE_COORDS,
    DelayKind,
    DodsError,
    DodsSystem,
    InvarianceReport,
    SamplingError,
    _residuals,
    _sample_manifold,
    check_algebra,
    check_invariance,
    dump_dods,
    load_dods,
    sample_point,
)
from dodesym.expr import evaluate, parse
from dodesym.linear import CanonicalLinear
from dodesym.symmetry import JET, VectorField, field_kernel, prolong


def a24_example():
    # ddy = (y - ym) sin(dy) + dym, with delay width 1 + dy^2
    return DodsSystem(f=parse("(y-ym)*sin(dy)+dym"), g=parse("x-(1+dy^2)"))


POINT = {"x": 1.0, "y": 2.0, "xm": 0.5, "ym": 1.5, "dy": 1.0, "dym": 0.7,
         "ddy": 0.3}


def const(v):
    return E.Const(v)


def prolonged_residuals(f, g, field, point=POINT):
    """pr X (ddy - f) and pr X (xm - g) at a jet point, computed by the
    column kernels that check_invariance uses."""
    system = DodsSystem(f=parse(f), g=parse(g))
    jet = np.array([[point[v]] for v in JET])
    _, *partials = system.kernels().f_partials(*jet)
    r_dode, r_delay, ok = _residuals(field_kernel(field, system.params), jet,
                                     np.stack(partials))
    assert ok.tolist() == [True]
    return float(r_dode[0]), float(r_delay[0])


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
        kernels = system.kernels()
        jet, _, d = _sample_manifold(np.random.default_rng(2), system.box, 25,
                                     kernels)
        assert jet.shape == (7, 25)
        res1, res2, resc = (
            _residuals(field_kernel(fld, system.params), jet, d)
            for fld in (x1, x2, combo))
        # both halves: pr X (ddy - f) and pr X (xm - g)
        for lhs, r1, r2 in zip(resc[:2], res1[:2], res2[:2]):
            assert np.all(np.abs(lhs - (a * r1 + b * r2)) < 1e-10)


def nan_max(a, b):
    """max() under which a NaN, in either place, is the maximum."""
    return b if math.isnan(b) or b > a else a


def reference_rows(system, x_field, n=200, seed=42):
    """The sampling of check_invariance as a loop over single points with
    compile_fn closures: the accepted rows in the order drawn, each as
    (point, dode residual, delay residual), and the number of rows
    rejected before the n-th was accepted."""
    rng = np.random.default_rng(seed)
    g_fn = E.compile_fn(system.bound(system.g), FREE_COORDS)
    f_fn = E.compile_fn(system.bound(system.f), JET)
    coeffs = [E.compile_fn(system.bound(c), JET)
              for c in prolong(x_field).coefficients()]
    df = [E.compile_fn(system.bound(E.diff(system.f, v)), JET) for v in JET]
    dg = [E.compile_fn(system.bound(E.diff(system.g, v)), JET) for v in JET]
    rows, bad = [], 0
    while len(rows) < n:
        if bad > n and bad > len(rows):
            raise SamplingError("incompatible sampling domain")
        p = sample_point(rng, system.box)
        try:
            xm = g_fn(*(p[v] for v in FREE_COORDS))
            if xm >= p["x"]:
                raise E.DomainError("delay not below x")
            args = [p["x"], p["y"], xm, p["ym"], p["dy"], p["dym"], 0.0]
            args[6] = f_fn(*args)
            c = [fn(*args) for fn in coeffs]
            r_dode = c[6] - sum(c[i] * df[i](*args) for i in range(7))
            r_delay = c[2] - sum(c[i] * dg[i](*args) for i in range(7))
        except E.DomainError:
            bad += 1
            continue
        rows.append((dict(zip(JET, args)), r_dode, r_delay))
    return rows, bad


def reference_check(system, x_field, n=200, seed=42, tol=1e-8):
    """check_invariance as a fold over reference_rows: the algorithm the
    column-wise check must reproduce."""
    rows, bad = reference_rows(system, x_field, n, seed)
    worst, max_dode, max_delay = {}, 0.0, 0.0
    for point, r_dode, r_delay in rows:
        # each maximum is taken over every row, a NaN residual being the
        # maximum from its row on; the worst point is the last row to raise
        # either maximum before the first NaN residual, else that NaN row
        if not (math.isnan(max_dode) or math.isnan(max_delay)) and (
                not worst or abs(r_dode) > max_dode
                or abs(r_delay) > max_delay
                or math.isnan(r_dode) or math.isnan(r_delay)):
            worst = point
        max_dode = nan_max(max_dode, abs(r_dode))
        max_delay = nan_max(max_delay, abs(r_delay))
    return InvarianceReport(max_dode, max_delay, n, worst, tol,
                            x_field.label or x_field.describe(), bad)


def reference_validate(system, n=20, seed=7):
    """DodsSystem.validate as a loop over single points; the error class
    it raises, or None."""
    rng = np.random.default_rng(seed)
    f_ym = E.compile_fn(system.bound(E.diff(system.f, "ym")), JET)
    f_dym = E.compile_fn(system.bound(E.diff(system.f, "dym")), JET)
    g_fn = E.compile_fn(system.bound(system.g), FREE_COORDS)
    f_fn = E.compile_fn(system.bound(system.f), JET)
    dep, accepted = 0.0, 0
    for _ in range(8 * n):
        if accepted >= n:
            break
        p = sample_point(rng, system.box)
        try:
            xm = g_fn(*(p[v] for v in FREE_COORDS))
            if xm >= p["x"]:
                continue
            args = (p["x"], p["y"], xm, p["ym"], p["dy"], p["dym"], 0.0)
            f_fn(*args)
            dep = max(dep, abs(f_ym(*args)), abs(f_dym(*args)))
        except E.DomainError:
            continue
        accepted += 1
    if accepted < n:
        return SamplingError
    if dep < 1e-12:
        return DodsError
    return None


def _rejecting_traffic_system():
    """Example 2 (xm = x/4, f with xm^-0.5) on an x range crossing 0:
    rows with x <= 0 put xm at or past x, where xm^-0.5 is singular."""
    p = traffic.example_params(2)
    system = traffic.example_system(2, p)
    system.box = {**system.box, "x": (-0.5, 2.5)}
    return system, traffic.example_algebra(2, p)


class TestColumnwiseMatchesPointLoop:
    """Reports equal the point loop's, worst point and rejections included."""

    @pytest.mark.parametrize("entry_id", ["A3_11", "A6_3", "H3_DET",
                                          "TRAFFIC_EX1", "TRAFFIC_EX3"])
    def test_catalog_systems(self, entry_id):
        entry, system = catalog._build_system(
            catalog.default_instantiation(entry_id))
        fields = list(entry.basis) + [catalog.negative_control(entry)]
        want = [reference_check(system, fld, n=120, seed=7 + i)
                for i, fld in enumerate(fields)]
        assert [check_invariance(system, fld, n=120, seed=7 + i)
                for i, fld in enumerate(fields)] == want
        # kernels compiled once for the system give the same reports
        assert check_algebra(system, fields, n=120, seed=7) == want
        assert not want[-1].passed

    @pytest.mark.parametrize("n", [50, 1300])
    def test_box_that_rejects_rows(self, n, monkeypatch):
        # n=1300 spans three blocks of 512 rows
        monkeypatch.setattr(dods, "_BLOCK_ROWS", 512)
        system, fields = _rejecting_traffic_system()
        for i, fld in enumerate(fields):
            got = check_invariance(system, fld, n=n, seed=11 + i)
            assert got == reference_check(system, fld, n=n, seed=11 + i)
            assert got.n_rejected > 0

    @pytest.mark.parametrize("block_rows", [7, 1024, 4096])
    def test_block_size_does_not_change_the_report(self, block_rows,
                                                   monkeypatch):
        # n=1300 takes at least 186 blocks of 7 rows, two of 1024 or one of
        # 4096, then tail blocks for the rejected rows
        monkeypatch.setattr(dods, "_BLOCK_ROWS", block_rows)
        system, fields = _rejecting_traffic_system()
        for i, fld in enumerate(fields):
            got = check_invariance(system, fld, n=1300, seed=11 + i)
            assert repr(got) == repr(reference_check(system, fld, n=1300,
                                                     seed=11 + i))

    @pytest.mark.parametrize("f,g", [
        # dg/dy is 0/0 where g itself is defined (y < 1)
        ("ym + dym", "x - 1 - sqrt(abs(y - 1) + y - 1)"),
        # the same for f
        ("ym + sqrt(abs(y - 1) + y - 1)", "x - 1"),
        # f itself is undefined for y < 1, its partials vary by row
        ("ym*dy + sqrt(y - 1)", "x - 1"),
        # xm = x exactly for y >= 2: no delay there
        ("ym + dym", "x - (abs(y - 2) - (y - 2))"),
        # a square in f overflows for y > 2.34, as pow's did; under sgn
        # every partial of f is 0, so only the square's mark rejects
        ("ym + sgn((1e154*(y - 1))^2)", "x - 1"),
    ])
    def test_each_rejection_rule(self, f, g):
        system = DodsSystem(f=parse(f), g=parse(g))
        fld = VectorField.from_text("x", "y")
        got = check_invariance(system, fld, n=150, seed=9)
        assert got == reference_check(system, fld, n=150, seed=9)
        assert got.n_rejected > 0

    @pytest.mark.parametrize("f,worst_max", [
        # 1e160 * exp(400 (x - 1.5)) overflows for x > 2.35: the residual
        # is inf - inf = NaN there, which the maximum shows
        ("exp(400*(x - 1.5))*(y - ym) + y^2 + dym", math.nan),
        # here the overflowing term stands alone: the residual is -inf
        ("exp(400*(x - 1.5))*y + ym*dym", math.inf),
    ])
    def test_non_finite_residuals(self, f, worst_max):
        system = DodsSystem(f=parse(f), g=parse("x - 1"))
        fld = VectorField.from_text("0", "1e160")
        want = reference_check(system, fld, n=200, seed=3)
        got = check_invariance(system, fld, n=200, seed=3)
        # repr: NaN fields compare unequal under ==
        assert repr(got) == repr(want)
        assert repr(want.max_residual_dode) == repr(worst_max)
        assert not got.passed
        if math.isnan(worst_max):
            # the first NaN row is the worst point: x > 2.35 overflows
            assert got.worst_point["x"] > 2.35
            assert "<= nan" in got.summary()

    #: xm = x/2 reads the field's x^2 into the delay residual; the dode
    #: residual is inf - inf = NaN wherever 1e160 * exp(400 (x - 1.5))
    #: overflows, on 12 to 22 of 200 rows, the first of them early
    NAN_SYSTEM = ("exp(400*(x - 1.5))*(y - ym) + y^2 + dym", "0.5*x")

    @pytest.mark.parametrize("block_rows", [16, 4096])
    def test_delay_maximum_rises_after_a_nan(self, block_rows, monkeypatch):
        # blocks of 16 rows put the rise in a later block than the NaN
        monkeypatch.setattr(dods, "_BLOCK_ROWS", block_rows)
        system = DodsSystem(f=parse(self.NAN_SYSTEM[0]),
                            g=parse(self.NAN_SYSTEM[1]))
        fld = VectorField.from_text("x^2", "1e160")
        for seed in range(3):
            rows, _ = reference_rows(system, fld, 200, seed)
            first = next(i for i, (_, r, _) in enumerate(rows) if math.isnan(r))
            before = max(abs(r) for _, _, r in rows[:first + 1])
            got = check_invariance(system, fld, n=200, seed=seed)
            assert repr(got) == repr(reference_check(system, fld, 200, seed))
            assert math.isnan(got.max_residual_dode)
            # the delay maximum is over all 200 rows, past the first NaN
            assert got.max_residual_delay == max(abs(r) for _, _, r in rows)
            assert got.max_residual_delay > before

    def test_the_first_nan_row_is_the_worst_point(self):
        system = DodsSystem(f=parse(self.NAN_SYSTEM[0]),
                            g=parse(self.NAN_SYSTEM[1]))
        fld = VectorField.from_text("x^2", "1e160")
        for seed in range(3):
            rows, _ = reference_rows(system, fld, 200, seed)
            nans = [point for point, r, _ in rows if math.isnan(r)]
            assert len(nans) >= 10 and nans[0] != nans[-1]
            got = check_invariance(system, fld, n=200, seed=seed)
            assert got.worst_point == nans[0]

    def test_nan_residual_everywhere_fails(self, monkeypatch):
        # 1e160*1e160 - 1e160*1e160 is inf - inf on every row; n = 1300
        # takes three blocks of 512, the later ones starting from a NaN
        # maximum
        monkeypatch.setattr(dods, "_BLOCK_ROWS", 512)
        system = DodsSystem(f=parse("1e160*(y - ym) + dym"), g=parse("x - 1"))
        fld = VectorField.from_text("0", "1e160")
        got = check_invariance(system, fld, n=1300, seed=3)
        want = reference_check(system, fld, n=1300, seed=3)
        assert repr(got) == repr(want)
        assert math.isnan(got.max_residual_dode) and not got.passed
        assert got.summary().startswith("FAIL")
        # the first row drawn is the worst point
        first = check_invariance(system, fld, n=1, seed=3)
        assert got.worst_point == first.worst_point

    def test_sampling_error_on_the_same_inputs(self):
        # sqrt(y - 1.5) is undefined on half the y range, so whether more
        # than half the draws fail first depends on the seed
        system = DodsSystem(f=parse("ym + sqrt(y - 1.5)"), g=parse("x - 1"))
        fld = VectorField.from_text("1", "0")
        outcomes = set()
        for seed in range(40):
            try:
                want = reference_check(system, fld, n=12, seed=seed)
            except SamplingError:
                with pytest.raises(SamplingError, match="incompatible"):
                    check_invariance(system, fld, n=12, seed=seed)
                outcomes.add("raised")
            else:
                assert check_invariance(system, fld, n=12, seed=seed) == want
                outcomes.add("report")
        assert outcomes == {"raised", "report"}

    def test_validate_on_the_same_inputs(self):
        # sqrt(y - 2.2) leaves about 15% of rows: 20 of at most 160 draws
        # are sometimes found and sometimes not
        system = DodsSystem(f=parse("ym + sqrt(y - 2.2)"), g=parse("x - 1"))
        outcomes = set()
        for seed in range(40):
            want = reference_validate(system, seed=seed)
            if want is None:
                system.validate(seed=seed)
            else:
                with pytest.raises(want):
                    system.validate(seed=seed)
            outcomes.add(want)
        assert outcomes == {None, SamplingError}


def _every_box():
    """The default box, and the box of every catalog system and of every
    traffic example."""
    boxes = [{}]
    for entry in catalog.list_entries():
        if entry.has_system:
            boxes.append(catalog._build_system(
                catalog.default_instantiation(entry.id))[1].box)
    boxes += [traffic.example_system(ex, traffic.example_params(ex)).box
              for ex in (1, 2, 3)]
    return boxes


class TestDraw:
    """A block is drawn in one pass, bit for bit as numpy's uniform."""

    def test_equals_uniform_on_every_box(self):
        boxes = _every_box()
        assert len(boxes) == 29
        for box in boxes:
            lo, hi = zip(*(box.get(v, DEFAULT_BOX[v]) for v in FREE_COORDS))
            for seed in range(1000):
                m = 1 + seed % 11
                rng, ref = (np.random.default_rng(seed) for _ in range(2))
                got = dods._draw(rng, box, m)
                want = ref.uniform(lo, hi, size=(m, 5)).T
                assert got.shape == (5, m)
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
                # the next block starts where the next uniform call would
                assert rng.random() == ref.random()

    @pytest.mark.parametrize("bounds,error", [
        ((-1e308, 1e308), OverflowError), ((0.5, math.inf), OverflowError),
        ((-math.inf, 1.0), OverflowError), ((math.nan, 2.5), OverflowError),
        ((2.5, 1.6), ValueError),
    ])
    def test_a_box_uniform_refuses_is_refused(self, bounds, error):
        with pytest.raises(error) as want, np.errstate(over="ignore"):
            np.random.default_rng(1).uniform(*zip(bounds, bounds), size=(3, 2))
        system = DodsSystem(f=parse("ym + dym"), g=parse("x - 1"),
                            box={"y": bounds})
        with pytest.raises(error) as got, np.errstate(over="ignore"):
            check_invariance(system, VectorField.from_text("1", "0"), n=10)
        assert str(got.value) == str(want.value)


def _counted_on_manifold(monkeypatch):
    """The number of rows of each block put on the manifold, in order."""
    blocks = []
    on_manifold = dods._on_manifold
    monkeypatch.setattr(dods, "_on_manifold", lambda free, kernels: (
        blocks.append(free.shape[1]) or on_manifold(free, kernels)))
    return blocks


class TestTailBlocks:
    """A tail block is sized by the acceptance rate so far; rows drawn
    after the n-th accepted one count nowhere."""

    #: f is undefined for y < 1, a quarter of the default box
    SYSTEM = ("ym*dy^1.5 + sqrt(y - 1)", "x - 1")

    def test_a_quarter_rejected_takes_two_blocks(self, monkeypatch):
        blocks = _counted_on_manifold(monkeypatch)
        system = DodsSystem(f=parse(self.SYSTEM[0]), g=parse(self.SYSTEM[1]))
        fld = VectorField.from_text("x", "y")
        for seed in range(10):
            blocks.clear()
            report = check_invariance(system, fld, n=2000, seed=seed)
            assert len(blocks) == 2 and blocks[0] == 2000, (seed, blocks)
            assert 600 < report.n_rejected < 800
        assert report == reference_check(system, fld, n=2000, seed=9)

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 300])
    def test_rows_past_the_last_one_needed_count_nowhere(self, n):
        system = DodsSystem(f=parse(self.SYSTEM[0]), g=parse(self.SYSTEM[1]))
        fld = VectorField.from_text("x", "y")
        for seed in range(4):
            got = check_invariance(system, fld, n=n, seed=seed)
            assert got == reference_check(system, fld, n=n, seed=seed)

    def test_abort_rule_inside_a_tail_block(self):
        # half the box is undefined: at n = 200 whether more than half the
        # draws fail first depends on the seed
        system = DodsSystem(f=parse("ym + sqrt(y - 1.5)"), g=parse("x - 1"))
        fld = VectorField.from_text("1", "0")
        outcomes = set()
        for seed in range(30):
            try:
                want = reference_check(system, fld, n=200, seed=seed)
            except SamplingError:
                with pytest.raises(SamplingError, match="incompatible"):
                    check_invariance(system, fld, n=200, seed=seed)
                outcomes.add("raised")
            else:
                assert check_invariance(system, fld, n=200, seed=seed) == want
                outcomes.add("report")
        assert outcomes == {"raised", "report"}


class TestRejectedSamples:
    def test_counts_the_rows_rejected_before_n_were_accepted(self):
        system, fields = _rejecting_traffic_system()
        report = check_invariance(system, fields[1], n=200, seed=5)
        drawn = report.n_samples + report.n_rejected
        lo, hi = zip(*(system.box.get(v, DEFAULT_BOX[v]) for v in FREE_COORDS))
        x = np.random.default_rng(5).uniform(lo, hi, size=(drawn, 5))[:, 0]
        # exactly the rows with x <= 0 are rejected; the last row is accepted
        assert report.n_rejected == int(np.sum(x <= 0.0)) > 0
        assert x[-1] > 0.0
        assert "rejected" not in report.summary()

    def test_none_rejected_on_an_admissible_box(self):
        report = check_invariance(a24_example(), VectorField.from_text("0", "1"),
                                  n=100)
        assert report.n_rejected == 0 and type(report.n_rejected) is int


class TestCheckAlgebra:
    def test_three_field_family(self):
        # ddy = dy (dy / (y - ym)), delay width dym/(y - ym) + 1
        system = DodsSystem(
            f=parse("dy*(dy/(y-ym))"),
            g=parse("x - (dym/(y-ym) + 1)"),
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


def report_key(r):
    """Everything a report says, floats by their bits."""
    return (r.max_residual_dode.hex(), r.max_residual_delay.hex(),
            {v: x.hex() for v, x in r.worst_point.items()}, r.n_samples,
            r.n_rejected, r.field_label, r.passed)


class TestCheckAlgebraMatchesFieldByField:
    """check_algebra puts the first blocks of its fields on the manifold
    in one kernel call where they fit in it; its reports are
    check_invariance's of each field with seed + i, bit for bit."""

    @staticmethod
    def _field_by_field(system, fields, n, seed):
        return [report_key(check_invariance(system, fld, n=n, seed=seed + i))
                for i, fld in enumerate(fields)]

    @pytest.mark.parametrize("n,seeds", [(60, range(5)), (200, range(5)),
                                         (dods._BLOCK_ROWS + 100, [3])])
    def test_catalog_defaults(self, n, seeds):
        checked = 0
        for entry in catalog.list_entries():
            if not entry.has_system:
                continue
            entry, system = catalog._build_system(
                catalog.default_instantiation(entry.id))
            fields = list(entry.basis) + [catalog.negative_control(entry)]
            for seed in seeds:
                got = [report_key(r)
                       for r in check_algebra(system, fields, n=n, seed=seed)]
                assert got == self._field_by_field(system, fields, n, seed)
            checked += 1
        assert checked == 25

    @pytest.mark.parametrize("n", [50, 250, 1300])
    def test_rejected_rows_and_tail_blocks(self, n, monkeypatch):
        # the first blocks of the two fields share one kernel call of 512
        # rows (n=50, 250) or take one call each (n=1300); each field
        # then draws tail blocks for its rejections
        monkeypatch.setattr(dods, "_BLOCK_ROWS", 512)
        system, fields = _rejecting_traffic_system()
        got = check_algebra(system, fields, n=n, seed=11)
        assert [report_key(r) for r in got] == \
            self._field_by_field(system, fields, n, 11)
        assert all(r.n_rejected > 0 for r in got)

    def test_sampling_error_at_the_second_field(self, monkeypatch):
        # the second field's eta is undefined for y < 2.2, most of the box
        system = DodsSystem(f=parse("ym + dym"), g=parse("x - 1"))
        fields = [VectorField.from_text("1", "0"),
                  VectorField.from_text("0", "sqrt(y - 2.2)"),
                  VectorField.from_text("0", "1")]
        check_invariance(system, fields[0], n=40, seed=5)
        with pytest.raises(SamplingError) as alone:
            check_invariance(system, fields[1], n=40, seed=6)
        built = []
        kernel = dods.field_kernel
        monkeypatch.setattr(dods, "field_kernel",
                            lambda fld, params=None: built.append(fld)
                            or kernel(fld, params))
        with pytest.raises(SamplingError) as together:
            check_algebra(system, fields, n=40, seed=5)
        assert str(together.value) == str(alone.value)
        assert type(together.value) is type(alone.value)
        # the third field was never reached
        assert built == fields[:2]

    def test_no_fields(self):
        assert check_algebra(a24_example(), [], n=0) == []


class TestKernelsOncePerSystem:
    @staticmethod
    def _count_generated(monkeypatch):
        """Record each function the expression compiler generates, and
        count the calls of each."""
        made = []
        generate = E._generate

        def counted(*args):
            fn = generate(*args)
            calls = [0]
            made.append(calls)

            def call(*cols):
                calls[0] += 1
                return fn(*cols)

            return call

        monkeypatch.setattr(E, "_generate", counted)
        return made

    def test_system_kernels_compile_once(self, monkeypatch):
        made = self._count_generated(monkeypatch)
        system = a24_example()
        fields = [VectorField.from_text("1", "0"),
                  VectorField.from_text("0", "1"),
                  VectorField.from_text("0", "y")]
        system.validate()
        assert len(made) == 2  # g, and one kernel of f and the 14 partials
        check_algebra(system, fields, n=50)
        check_invariance(system, fields[0], n=50)
        system.box = {"y": (1.0, 2.0)}
        check_invariance(system, fields[2], n=50)
        assert len(made) == 2 + 3  # one kernel per distinct field

    def test_one_call_of_each_kernel_per_block(self, monkeypatch):
        made = self._count_generated(monkeypatch)
        monkeypatch.setattr(dods, "_BLOCK_ROWS", 512)
        system = a24_example()
        system.kernels()
        check_invariance(system, VectorField.from_text("0", "y"), n=3000)
        g_calls, f_partials_calls, field_calls = (c[0] for c in made)
        # every block draws, puts its rows on the manifold with f and the
        # partials in one call, and evaluates the field at its kept rows
        assert g_calls >= 6  # n=3000 needs at least six blocks of 512
        assert [f_partials_calls, field_calls] == [g_calls] * 2

    def test_one_kernel_call_for_the_first_blocks_of_a_basis(self,
                                                              monkeypatch):
        made = self._count_generated(monkeypatch)
        system = a24_example()
        fields = [VectorField.from_text("1", "0"),
                  VectorField.from_text("0", "1"),
                  VectorField.from_text("0", "y")]
        reports = check_algebra(system, fields, n=50)
        # no row is rejected, so no field draws a tail block
        assert [r.n_rejected for r in reports] == [0, 0, 0]
        assert [c[0] for c in made] == [1, 1, 1, 1, 1]  # g, f_partials, fields

    def test_first_blocks_share_calls_in_groups_that_fit(self, monkeypatch):
        made = self._count_generated(monkeypatch)
        monkeypatch.setattr(dods, "_BLOCK_ROWS", 512)
        fields = [VectorField.from_text("1", "0"),
                  VectorField.from_text("0", "1"),
                  VectorField.from_text("0", "y")]
        check_algebra(a24_example(), fields, n=200)
        # two first blocks of 200 rows fit in a call of 512
        assert [c[0] for c in made] == [2, 2, 1, 1, 1]

    def test_params_edit_rebuilds_the_kernels(self):
        def system(a):
            return DodsSystem(f=parse("y - ym + a"), g=parse("x-1"),
                              params={"a": a})

        scaling = VectorField.from_text("0", "y")
        edited = system(1.0)
        before = check_invariance(edited, scaling, n=60)
        edited.params["a"] = 2.5
        after = check_invariance(edited, scaling, n=60)
        assert repr(after) == repr(check_invariance(system(2.5), scaling, n=60))
        assert before.max_residual_dode == pytest.approx(1.0)
        assert after.max_residual_dode == pytest.approx(2.5)


class TestMergedKernel:
    def test_equals_separate_kernels_of_f_and_the_partials(self):
        system = DodsSystem(f=parse("a*ym*xm + ln(y - 1) + dym*sqrt(dy)"),
                            g=parse("x - 1 - 0.1*sin(y)"), params={"a": 1.5})
        partials = [E.diff(e, v) for e in (system.f, system.g) for v in JET]
        block = np.random.default_rng(23).uniform(0.5, 2.5, size=(7, 200))
        # columns in JET order: x, y, xm, ym, dy, dym, ddy
        singular = np.array([
            [1.0, 0.7, 0.5, 1.5, 1.0, 0.7, 0.0],  # ln(y - 1) undefined
            [1.0, 2.0, 0.5, 1.5, 0.0, 0.7, 0.0],  # 1/(2*sqrt(dy)) at dy = 0
            [1.0, 2.0, 0.5, -0.0, -0.0, 0.7, 0.0],  # signed zeros
        ]).T
        jet = np.hstack([block, singular])
        merged = system.kernels().f_partials(*jet)
        separate = (E.compile_columns(system.f, JET, system.params)(*jet),
                    *E.compile_columns(partials, JET, system.params)(*jet))
        assert [m.tobytes() for m in merged] == [s.tobytes() for s in separate]
        # the singular rows are what they claim to be
        f, f_y, f_dy, f_xm = (merged[i] for i in (
            0, 1 + JET.index("y"), 1 + JET.index("dy"), 1 + JET.index("xm")))
        assert np.isnan(f[-3]) and np.isfinite(f_y[-3])
        assert np.isfinite(f[-2]) and np.isnan(f_dy[-2])
        assert np.signbit(f_xm[-1]) and f_xm[-1] == 0.0
        assert np.isnan(f[:200]).any() and np.isfinite(f[:200]).any()


class TestKernelMemo:
    """System and field kernels are built once per distinct content and
    shared by every object that carries it."""

    def test_equal_content_generates_nothing_new(self, monkeypatch):
        made = TestKernelsOncePerSystem._count_generated(monkeypatch)
        first = check_invariance(a24_example(), VectorField.from_text("0", "y"),
                                 n=50)
        assert len(made) == 3  # g, f with the partials, and the field
        again = check_invariance(
            a24_example(), VectorField.from_text("0", "y", label="scaling"),
            n=50)
        assert len(made) == 3
        assert repr(again) == repr(dataclasses.replace(first,
                                                       field_label="scaling"))

    def test_signed_zeros_get_separate_entries(self):
        def system(a):
            return DodsSystem(f=parse("ym + a*dy"), g=parse("x-1"),
                              params={"a": a})

        # a parameter is a closure cell: both systems bind the one entry,
        # each with its own sign of zero (ym = -0.0, dy = 1.0)
        row = [np.array([v]) for v in (1.0, 1.0, 0.5, -0.0, 1.0, 1.0, 0.0)]
        plus, minus = (system(a).kernels().f_partials(*row)[0]
                       for a in (0.0, -0.0))
        assert np.signbit(plus).tolist() == [False]
        assert np.signbit(minus).tolist() == [True]
        assert E.memo_info().size == 1
        # interned nodes keep the sign of zero apart, and so do fields
        zero, minus_zero = (VectorField(const(v), parse("y"))
                            for v in (0.0, -0.0))
        assert zero != minus_zero
        assert field_kernel(zero) is not field_kernel(minus_zero)
        assert field_kernel(zero) is field_kernel(zero)
        assert E.memo_info().size == 3

    def test_size_stays_at_the_bound(self):
        bound = E.memo_info().bound
        systems = [DodsSystem(f=parse(f"ym + {i}"), g=parse("x-1"))
                   for i in range(bound + 5)]
        kernels = [s.kernels() for s in systems]
        assert E.memo_info().size == bound
        # the least recently used entries left first
        assert systems[-1].kernels() is kernels[-1]
        assert systems[0].kernels() is not kernels[0]
        assert E.memo_info().misses == bound + 6

    def test_failed_build_is_not_kept(self):
        system = DodsSystem(f=parse("ym + a"), g=parse("x-1"))
        for _ in range(2):
            with pytest.raises(E.UnboundSymbolError):
                system.kernels()
        assert E.memo_info() == (0, 2, 0, E.memo_info().bound)

    def test_memo_info_counts(self):
        system, scaling = a24_example(), VectorField.from_text("0", "y")
        assert E.memo_info() == (0, 0, 0, 256)
        check_invariance(system, scaling, n=50)
        assert E.memo_info() == (0, 2, 2, 256)  # the system and the field
        check_invariance(a24_example(), scaling, n=50)
        info = E.memo_info()
        assert (info.hits, info.misses, info.size, info.bound) == (2, 2, 2, 256)

    def test_no_attribute_on_the_system(self):
        system = a24_example()
        system.kernels()
        assert not hasattr(system, "_compiled")


class TestSystemValidation:
    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError, match="at least 1"):
            a24_example().validate(n=0)

    def test_requires_delayed_dependence(self):
        system = DodsSystem(f=parse("y + dy"), g=parse("x-1"))
        with pytest.raises(DodsError, match="delayed"):
            system.validate()

    def test_delay_line_does_not_override_constant_g(self):
        # g decides the kind: a constant g under `delay = state` validates
        system = load_dods("f = ym\ng = x - 1\ndelay = state\n")
        system.validate()
        assert system.delay_kind is DelayKind.CONSTANT

    def test_g_must_not_use_xm(self):
        with pytest.raises(DodsError):
            DodsSystem(f=parse("ym"), g=parse("xm - 1"))

    def test_f_may_use_xm(self):
        DodsSystem(f=parse("ym + xm"), g=parse("x-1"))


class TestDelayKind:
    #: the kind each system was declared with before g alone decided it
    DECLARED = {
        **{eid: "state" for eid in (
            "A1_1", "A2_1", "A2_2", "A2_3", "A2_4", "A3_1", "A3_2a", "A3_8",
            "A3_11", "A3_13", "A4_8", "A4_11", "A4_20", "A5_1", "A5_6",
            "A5_8", "A6_2", "A6_3")},
        **{eid: "constant" for eid in (
            "A3_15", "A4_1", "H3_DET", "S3_DET", "TRAFFIC_EX1",
            "TRAFFIC_EX3", "traffic 1", "traffic 3", "canonical linear",
            "solve constant")},
        **{name: "independent" for name in (
            "TRAFFIC_EX2", "traffic 2", "solve independent")},
        "solve state": "state",
    }

    #: system files of the shapes the benchmark solves, with their own line
    SOLVE_FILES = {
        "constant": "f = -1.3*ym - 0.2*dy\ng = x - 0.8\n",
        "independent": "f = -1.3*ym + 0.2*dym\ng = 0.5*x\n",
        "state": "f = -1.3*ym\ng = x - 1 - 0.1*sin(y)\n",
    }

    def test_derived_kind_is_the_declared_kind(self):
        systems = {
            entry.id: catalog._build_system(
                catalog.default_instantiation(entry.id))[1]
            for entry in catalog.list_entries() if entry.has_system}
        assert len(systems) == 25
        for ex in (1, 2, 3):
            systems[f"traffic {ex}"] = traffic.example_system(ex)
        systems["canonical linear"] = CanonicalLinear(
            0.5, 0.3, -0.2, 0.7).to_linear().to_dods()
        for kind, text in self.SOLVE_FILES.items():
            systems[f"solve {kind}"] = load_dods(f"{text}delay = {kind}\n")
        assert {name: system.delay_kind.value
                for name, system in systems.items()} == self.DECLARED


class TestConstantDelay:
    @staticmethod
    def system(g, **params):
        return DodsSystem(f=parse("ym"), g=parse(g), params=params)

    def test_tau_keeps_its_bits(self):
        # x - g(x) is 0.1 at 0 but 0.09999999999999998 at 0.7
        g = parse("x - 0.1")
        tau = self.system("x - 0.1").constant_delay()
        assert repr(tau) == repr(0.0 - evaluate(g, {"x": 0.0}))
        assert tau != 0.7 - evaluate(g, {"x": 0.7})

    def test_bound_parameter(self):
        assert self.system("x - T", T=0.25).constant_delay() == 0.25

    def test_g_reading_y_is_not_constant(self):
        assert self.system("x - 1 - 0*y").constant_delay() is None

    def test_g_undefined_at_a_probe_is_not_constant(self):
        # ln(x) is undefined at the probe x = 0
        assert self.system("x - 1 + 0*ln(x)").constant_delay() is None

    def test_spread_bound(self):
        assert self.system("x - 1 - 1e-11*x").constant_delay() is None
        assert self.system("x - 1 - 1e-13*x").constant_delay() == 1.0

    def test_unbound_parameter_is_named(self):
        with pytest.raises(E.UnboundSymbolError, match="'T'"):
            self.system("x - T").constant_delay()


class TestFileFormat:
    def test_round_trip(self):
        system = a24_example()
        system.params["alpha"] = 2.0
        text = dump_dods(system)
        again = load_dods(text)
        assert again.f is system.f and again.g is system.g
        assert again.params == system.params
        assert again.delay_kind is system.delay_kind

    def test_infinite_constants_survive_a_round_trip(self):
        # inf prints as a literal that overflows back to it, not as a name
        system = DodsSystem(f=E.Const(math.inf) * E.YM, g=parse("x - 1e400"))
        text = dump_dods(system)
        assert text == "f = (1e999 * ym)\ng = (x - 1e999)\n"
        again = load_dods(text)
        assert again.f is system.f and again.g is system.g
        assert E.free_symbols(again.f) == {"ym"}
        # -inf reads back as itself, as every negative constant does
        negative = DodsSystem(f=E.Const(-math.inf) * E.YM, g=parse("x - 1"))
        again = load_dods(dump_dods(negative))
        assert again.f is negative.f

    @pytest.mark.parametrize("entry_id", [
        e.id for e in catalog.list_entries() if e.has_system])
    def test_every_catalog_default_reads_back_as_its_nodes(self, entry_id):
        system = catalog._build_system(
            catalog.default_instantiation(entry_id))[1]
        again = load_dods(dump_dods(system))
        assert again.f is system.f and again.g is system.g
        assert again.params == system.params

    def test_a_negative_base_of_a_power_keeps_its_value(self):
        system = DodsSystem(f=E.simplify(parse("(-2)^x + ym")),
                            g=parse("x - 1"))
        text = dump_dods(system)
        assert text == "f = (((-2) ^ x) + ym)\ng = (x - 1)\n"
        again = load_dods(text)
        assert again.f is system.f
        assert E.evaluate(again.f, {"x": 2.0, "ym": 0.0}) == 4.0

    def test_unknown_key_rejected(self):
        with pytest.raises(DodsError, match="unknown key"):
            load_dods("f = ym\ng = x-1\nfrobnicate = 3\n")

    def test_missing_half_rejected(self):
        with pytest.raises(DodsError, match="both f and g"):
            load_dods("f = ym\n")

    @pytest.mark.parametrize("text, message", [
        ("f = -ym\ng = x - 1\nf = ym\n",
         "line 3: 'f' is given again, first on line 1"),
        ("f = a*ym\nparam a = 1\ng = x - 1\n# b\nparam  a = 2\n",
         "line 5: 'param  a' is given again, first on line 2"),
        ("f = ym\ng = x - 1\ndelay = constant\ndelay = state\n",
         "line 4: 'delay' is given again, first on line 3"),
    ])
    def test_a_key_given_twice_names_both_lines(self, text, message):
        with pytest.raises(DodsError) as err:
            load_dods(text)
        assert str(err.value) == message

    def test_a_key_given_twice_in_a_linear_file(self):
        from dodesym.linear import LinearError, load_linear

        with pytest.raises(LinearError) as err:
            load_linear("g = x - 1\na1 = 1\ndomain = 0,3\na1 = 2\n")
        assert str(err.value) == "line 4: 'a1' is given again, first on line 2"

    def test_param_and_delay_lines(self):
        system = load_dods(
            "f = a*ym\ng = x - 1\nparam a = 2.5\ndelay = constant\n")
        assert system.params == {"a": 2.5}
        with pytest.raises(DodsError, match="line 3: unknown key 'domain'"):
            load_dods("f = ym\ng = x - 1\ndomain = 0,5\n")

    @pytest.mark.parametrize("line", ["param = 2", "param   = 2", " param=2"])
    def test_a_param_without_a_name_is_an_unknown_key(self, line):
        with pytest.raises(DodsError) as err:
            load_dods(f"f = ym\ng = x - 1\n{line}\n")
        assert str(err.value) == "line 3: unknown key 'param'"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_a_non_finite_param_names_its_line(self, value):
        # a NaN or infinite parameter would fail every check later, for
        # another reason: a sampling failure, a non-finite delay
        with pytest.raises(DodsError) as err:
            load_dods(f"f = -a*ym\ng = x - 1\nparam a = {value}\n")
        assert str(err.value) == \
            f"line 3: parameter 'a' must be finite, got '{value}'"

    def test_bad_delay_word_names_its_line(self):
        with pytest.raises(DodsError, match="line 3: delay must be"):
            load_dods("f = ym\ng = x - 1\ndelay = fixed\n")

    def test_dump_writes_f_g_and_params(self):
        system = DodsSystem(f=parse("a*ym"), g=parse("x - 1"),
                            params={"a": 2.5})
        assert dump_dods(system) == "f = (a * ym)\ng = (x - 1)\nparam a = 2.5\n"

    # `domain` is not a key: its line is named as an unknown key
    @pytest.mark.parametrize("line", ["param a = x", "domain = 5"])
    def test_malformed_number_names_the_line(self, line):
        with pytest.raises(DodsError, match="line 3"):
            load_dods(f"f = ym\ng = x - 1\n{line}\n")

    def test_malformed_expression_names_the_line(self):
        with pytest.raises(DodsError) as err:
            load_dods("# y'' = -ym\nf = -ym + \ng = x - 1\n")
        assert str(err.value) == "line 2: unexpected end of input at offset 6"
        assert isinstance(err.value.__cause__, E.ParseError)

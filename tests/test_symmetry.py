import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodesym import catalog, symmetry
from dodesym import expr as E
from dodesym.expr import Const, evaluate, parse
from dodesym.symmetry import (
    ClosureError,
    SymmetryError,
    VectorField,
    check_closure,
    invariant_count,
    lie_bracket,
    prolong,
    JET,
)
from tests.conftest import jacobi_sum


def field(xi, eta, label=""):
    return VectorField.from_text(xi, eta, label)


def sample_jet_point(rng):
    """A jet point of the box invariant_count samples, drawn coordinate by
    coordinate in JET order."""
    lo = (1.6, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    hi = (2.5, 2.5, 1.5, 2.5, 2.5, 2.5, 2.5)
    return {v: float(rng.uniform(a, b)) for v, a, b in zip(JET, lo, hi)}


def assert_expr_zero(e, samples=20, seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        pt = sample_jet_point(rng)
        assert abs(evaluate(e, pt)) < 1e-12


#: every catalog field list with its default parameters
CATALOG_BASES = [(entry.id, list(entry.basis), entry.default_params)
                 for entry in catalog.list_entries() if entry.basis]

#: fields whose coefficients simplify to other trees
UNSIMPLIFIED = ("unsimplified", [field("x + x - x*1", "y*1 + 0*x"),
                                 field("x^1*y - 0", "(y - y) + 3*2")], {})

#: every catalog basis field and the bracket of every pair of one basis
CATALOG_FIELDS = [f for _, basis, _ in CATALOG_BASES for f in basis] + [
    lie_bracket(a, b) for _, basis, _ in CATALOG_BASES
    for i, a in enumerate(basis) for b in basis[i + 1:]]


def reference_zetas(f):
    """zeta1 and zeta2 built with three simplify passes: every partial,
    every total derivative and every coefficient."""
    def total_d(h, with_ddy):
        out = E.diff(h, "x") + E.DY * E.diff(h, "y")
        if with_ddy:
            out = out + E.DDY * E.diff(h, "dy")
        return E.simplify(out)

    d_xi = total_d(f.xi, False)
    zeta1 = E.simplify(total_d(f.eta, False) - E.DY * d_xi)
    return zeta1, E.simplify(total_d(zeta1, True) - E.DDY * d_xi)


#: fields undefined on part of the sampling boxes
PARTIAL_FIELDS = [field("1", "sqrt(y - 1.5)"), field("0", "ln(y - 0.6)"),
                  field("x", "sqrt(2.2 - x) + y")]


class TestProlong:
    def test_constant_vertical_field(self):
        pro = prolong(field("0", "1"))
        assert pro.eta_m == Const(1.0)
        for coeff in (pro.zeta1, pro.zeta1_m, pro.zeta2):
            assert coeff == Const(0.0)

    def test_uniform_scaling(self):
        # hand expansion: D(y) - dy D(x) = 0, D(0) - ddy = -ddy
        pro = prolong(field("x", "y"))
        assert pro.zeta1 == Const(0.0)
        assert_expr_zero(pro.zeta2 + E.DDY)

    def test_quadratic_vertical_field(self):
        # hand expansion of D(x^2): zeta1 = 2x, zeta2 = 2, shifted 2 xm
        pro = prolong(field("0", "x^2"))
        assert_expr_zero(pro.zeta1 - 2 * E.X)
        assert_expr_zero(pro.zeta2 - Const(2.0))
        assert_expr_zero(pro.zeta1_m - 2 * E.XM)

    def test_delayed_coefficients_are_renamed_base_coefficients(self):
        pro = prolong(field("x*y", "sin(x)+y^2"))
        rng = np.random.default_rng(5)
        for _ in range(10):
            pt = sample_jet_point(rng)
            assert evaluate(pro.xi_m, pt) == pytest.approx(
                evaluate(pro.xi, {**pt, "x": pt["xm"], "y": pt["ym"]}),
                rel=1e-14)
            assert evaluate(pro.eta_m, pt) == pytest.approx(
                evaluate(pro.eta, {**pt, "x": pt["xm"], "y": pt["ym"]}),
                rel=1e-14)

    def test_zeta1_is_infinitesimal_slope_transport(self):
        # transporting a line element through the flow of the field and
        # differencing in the group parameter reproduces zeta1
        f = field("x^2*0.5", "x*y")
        pro = prolong(f)
        rng = np.random.default_rng(11)
        eps = 1e-5
        for _ in range(15):
            pt = sample_jet_point(rng)
            x, y, dy = pt["x"], pt["y"], pt["dy"]

            def slope_after(sign):
                # first-order flow applied to the point and its direction
                xi_v = evaluate(f.xi, {"x": x, "y": y})
                eta_v = evaluate(f.eta, {"x": x, "y": y})
                dxi = (evaluate(E.diff(f.xi, "x"), {"x": x, "y": y})
                       + dy * evaluate(E.diff(f.xi, "y"), {"x": x, "y": y}))
                deta = (evaluate(E.diff(f.eta, "x"), {"x": x, "y": y})
                        + dy * evaluate(E.diff(f.eta, "y"), {"x": x, "y": y}))
                del xi_v, eta_v
                return (dy + sign * eps * deta) / (1.0 + sign * eps * dxi)

            central = (slope_after(+1) - slope_after(-1)) / (2 * eps)
            assert abs(central - evaluate(pro.zeta1, pt)) < 1e-6

    @pytest.mark.parametrize("entry_id,basis,params",
                             CATALOG_BASES + [UNSIMPLIFIED])
    def test_coefficients_are_simplified_renamings(self, entry_id, basis,
                                                   params):
        # compared by repr, so 0.0 and -0.0 differ
        shift = {"x": E.XM, "y": E.YM}
        for f in basis:
            pro = prolong(f)
            for c in pro.coefficients():
                assert repr(E.simplify(c)) == repr(c)
            assert repr(pro.xi_m) == repr(E.subs(pro.xi, shift))
            assert repr(pro.eta_m) == repr(E.subs(pro.eta, shift))
            assert repr(pro.zeta1_m) == repr(
                E.subs(pro.zeta1, {**shift, "dy": E.DYM}))
            # the renamings are what simplifying the renamed trees gives
            assert repr(pro.xi_m) == repr(E.simplify(E.subs(f.xi, shift)))
            assert repr(pro.eta_m) == repr(E.simplify(E.subs(f.eta, shift)))

    def test_one_simplify_pass_matches_three(self):
        # compared by repr, so 0.0 and -0.0 differ
        for f in CATALOG_FIELDS + UNSIMPLIFIED[1]:
            pro = prolong(f)
            assert repr((pro.zeta1, pro.zeta2)) == repr(reference_zetas(f))

    def test_simplify_is_idempotent_on_catalog_trees(self):
        trees = [c for f in CATALOG_FIELDS for c in prolong(f).coefficients()]
        for e in catalog.list_entries():
            trees += [t for t in (e.f_template, e.g_template, e.default_f,
                                  e.default_g, e.second_order_minor,
                                  *e.f_slots, *e.g_slots) if t is not None]
            if e.has_system:
                _, system = catalog._build_system(
                    catalog.default_instantiation(e.id))
                trees += [system.f, system.g] + [
                    E.diff(t, v) for t in (system.f, system.g) for v in JET]
        assert len(trees) > 1500
        for tree in trees:
            once = E.simplify(tree)
            assert repr(E.simplify(once)) == repr(once)

    def test_rejects_jet_symbols_in_coefficients(self):
        with pytest.raises(ValueError):
            VectorField.from_text("dy", "0")


class TestBracket:
    def test_affine_pair(self):
        b = lie_bracket(field("0", "1"), field("0", "y"))
        assert b.xi == Const(0.0) and b.eta == Const(1.0)

    def test_projective_pair(self):
        b = lie_bracket(field("0", "1"), field("0", "y^2"))
        assert_expr_zero(b.eta - 2 * E.Y)

    def test_translation_against_weighted_scaling(self):
        b = lie_bracket(field("1", "0"), field("x", "a*y"))
        assert b.xi == Const(1.0)
        assert_expr_zero(E.bind_params(b.eta, {"a": 0.7}))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([("0", "1"), ("1", "0"), ("x", "y"), ("0", "x"),
                            ("0", "y"), ("x", "0"), ("0", "y^2")]),
           st.sampled_from([("0", "1"), ("x", "y"), ("0", "x*y"),
                            ("x^2", "x*y")]))
    def test_antisymmetry(self, spec_a, spec_b):
        a = field(*spec_a)
        b = field(*spec_b)
        ab = lie_bracket(a, b)
        ba = lie_bracket(b, a)
        assert_expr_zero(ab.xi + ba.xi, samples=10)
        assert_expr_zero(ab.eta + ba.eta, samples=10)


class TestClosure:
    def test_abelian_translations(self):
        res = check_closure([field("1", "0"), field("0", "1")])
        assert res.residual < 1e-12
        assert np.allclose(res.constants[(0, 1)], 0.0, atol=1e-12)

    def test_affine_algebra(self):
        res = check_closure([field("0", "1", "X1"), field("x", "y", "X2")])
        assert res.constant(0, 1, 0) == pytest.approx(1.0, abs=1e-10)
        assert res.constant(0, 1, 1) == pytest.approx(0.0, abs=1e-10)

    def test_projective_triple(self):
        res = check_closure([field("0", "1"), field("0", "y"),
                             field("0", "y^2")])
        assert res.constant(0, 1, 0) == pytest.approx(1.0, abs=1e-9)
        assert res.constant(0, 2, 1) == pytest.approx(2.0, abs=1e-9)
        assert res.constant(1, 2, 2) == pytest.approx(1.0, abs=1e-9)

    def test_failure_names_the_pair(self):
        with pytest.raises(ClosureError) as err:
            check_closure([field("0", "x", "A"), field("1", "0", "B")])
        assert err.value.pair == ("A", "B")

    def test_requires_two_fields(self):
        with pytest.raises(ValueError):
            check_closure([field("0", "1")])


class TestJacobi:
    @pytest.mark.parametrize("triple", [
        (("0", "1"), ("0", "y"), ("0", "y^2")),
        (("1", "0"), ("0", "1"), ("x", "a*y")),
        (("0", "1"), ("x", "y"), ("2*x*y", "y^2")),
    ])
    def test_cyclic_double_brackets_vanish(self, triple):
        fields = tuple(field(*spec) for spec in triple)
        assert jacobi_sum(fields, params={"a": 0.5}) < 1e-10

    @pytest.mark.parametrize("entry_id,basis,params",
                             [c for c in CATALOG_BASES if len(c[1]) >= 3])
    def test_matches_point_loop(self, entry_id, basis, params):
        """The point loop of jacobi_sum over the first three fields of a
        catalog basis finds the identity within 1e-10."""
        assert jacobi_sum(basis[:3], params=params, seed=5) < 1e-10


class TestInvariantCount:
    def test_single_vertical_field(self):
        report = invariant_count([field("0", "1")])
        assert report.rank_z == 1 and report.k == 6
        assert report.dim_m == 7

    def test_two_translations(self):
        report = invariant_count([field("1", "0"), field("0", "1")])
        assert report.rank_z == 2 and report.k == 5

    def test_four_dimensional_nilpotent_family(self):
        fields = [field("0", "1"), field("0", "x"), field("0", "x^2"),
                  field("1", "0")]
        report = invariant_count(fields)
        assert report.rank_z == 4 and report.k == 3

    def test_invariant_under_change_of_basis(self):
        fields = [field("0", "1"), field("0", "x"), field("0", "x^2"),
                  field("1", "0")]
        k_before = invariant_count(fields).k
        rng = np.random.default_rng(9)
        while True:
            m = rng.uniform(-2, 2, size=(4, 4))
            if abs(np.linalg.det(m)) > 0.3:
                break
        mixed = []
        for row in m:
            xi = sum((Const(float(c)) * f.xi for c, f in zip(row, fields)),
                     Const(0.0))
            eta = sum((Const(float(c)) * f.eta for c, f in zip(row, fields)),
                      Const(0.0))
            mixed.append(VectorField(E.simplify(xi), E.simplify(eta)))
        assert invariant_count(mixed).k == k_before

    def test_sample_points_respect_delay_ordering(self):
        report = invariant_count([field("0", "1")])
        for pt in report.sample_points:
            as_dict = dict(zip(JET, pt))
            assert as_dict["xm"] < as_dict["x"]


# ---------------------------------------------------------------------------
# the column-kernel checks against loops over single points


def reference_invariant_count(fields, params=None, n_points=5, seed=42,
                              sv_tol=1e-8):
    """invariant_count as a loop over single points of compile_fn closures:
    (rank_z, sample_points)."""
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    compiled = [[E.compile_fn(E.bind_params(c, params), JET)
                 for c in prolong(f).coefficients()] for f in fields]
    best_rank = 0
    points = []
    trials = 0
    while len(points) < n_points and trials < 20 * n_points:
        trials += 1
        pt = sample_jet_point(rng)
        args = tuple(pt[v] for v in JET)
        try:
            z = np.array([[fn(*args) for fn in row] for row in compiled])
        except E.DomainError:
            continue
        sv = np.linalg.svd(z, compute_uv=False)
        best_rank = max(best_rank,
                        int(np.sum(sv > sv_tol * max(sv[0], 1e-300))))
        points.append(args)
    if len(points) < n_points:
        raise SymmetryError("could not sample enough generic jet points")
    return best_rank, points


def reference_closure(fields, params=None, seed=42, tol=1e-9):
    """check_closure as a loop over single points of compile_fn closures:
    the sorted constants and the residual, or the error text."""
    n = len(fields)
    params = dict(params or {})
    rng = np.random.default_rng(seed)

    def fns(f):
        return [E.compile_fn(E.bind_params(c, params), ("x", "y"))
                for c in (f.xi, f.eta)]

    basis = [fns(f) for f in fields]
    constants, worst = {}, 0.0
    for i in range(n):
        for j in range(i + 1, n):
            bracket = fns(lie_bracket(fields[i], fields[j]))
            solved = None
            for attempt in range(2):
                pts = [(float(rng.uniform(0.5, 2.5)),
                        float(rng.uniform(0.5, 2.5))) for _ in range(n + 3)]
                rows, rhs = [], []
                try:
                    for p in pts:
                        rows.append([fn[0](*p) for fn in basis])
                        rows.append([fn[1](*p) for fn in basis])
                        rhs.append(bracket[0](*p))
                        rhs.append(bracket[1](*p))
                except E.DomainError:
                    continue
                a, b = np.asarray(rows), np.asarray(rhs)
                c, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
                if rank < n and attempt == 0:
                    continue
                solved = (c, float(np.max(np.abs(a @ c - b))))
                break
            names = (fields[i].label or i, fields[j].label or j)
            if solved is None:
                return ("could not sample a well-posed span system for "
                        f"[{names[0]}, {names[1]}]")
            if solved[1] > tol:
                return (f"bracket [{names[0]}, {names[1]}] leaves the span"
                        f" (residual {solved[1]:.3e})")
            constants[(i, j)] = solved[0].tolist()
            worst = max(worst, solved[1])
    return sorted(constants.items()), worst


def closure_outcome(fields, params=None, seed=42):
    try:
        result = check_closure(fields, params=params, seed=seed)
    except ClosureError as exc:
        return str(exc)
    return (sorted((k, v.tolist()) for k, v in result.constants.items()),
            result.residual)


def rank_outcome(fields, params=None, n_points=5, seed=42):
    try:
        report = invariant_count(fields, params=params, n_points=n_points,
                                 seed=seed)
    except SymmetryError as exc:
        return str(exc)
    assert report.k == 7 - report.rank_z
    return report.rank_z, report.sample_points


def reference_rank_outcome(fields, params=None, n_points=5, seed=42):
    try:
        return reference_invariant_count(fields, params, n_points, seed)
    except SymmetryError as exc:
        return str(exc)


@pytest.fixture
def basis_calls(monkeypatch):
    """The number of rows of each call of a basis kernel check_closure
    builds, in call order."""
    calls = []
    plane_kernel = symmetry._plane_kernel

    def counting(fields, params):
        kernel = plane_kernel(fields, params)

        def counted(x, y):
            calls.append(len(x))
            return kernel(x, y)
        return counted

    monkeypatch.setattr(symmetry, "_plane_kernel", counting)
    return calls


#: 20 fields whose 190 brackets close: d/dx, y d/dy and sin(k x) d/dy,
#: cos(k x) d/dy for k = 1..9; 190 blocks of 23 points are 4370 rows
TRIG_FIELDS = [field("1", "0"), field("0", "y")] + [
    field("0", f"{t}({k}*x)") for k in range(1, 10) for t in ("sin", "cos")]


class TestColumnsMatchPointLoop:
    """Rank and closure answers equal a loop over single points, bit for bit
    (compared by repr, so 0.0 and -0.0 differ)."""

    @pytest.mark.parametrize("entry_id,basis,params", CATALOG_BASES)
    def test_catalog_rank(self, entry_id, basis, params):
        for seed in (0, 1, 2):
            assert repr(rank_outcome(basis, params, seed=seed)) == \
                repr(reference_rank_outcome(basis, params, seed=seed))

    @pytest.mark.parametrize("entry_id,basis,params",
                             [c for c in CATALOG_BASES if len(c[1]) >= 2])
    def test_catalog_closure(self, entry_id, basis, params):
        for seed in (0, 1, 2):
            assert repr(closure_outcome(basis, params, seed)) == \
                repr(reference_closure(basis, params, seed))

    @pytest.mark.parametrize("partial", PARTIAL_FIELDS)
    def test_rank_redraws_undefined_points(self, partial):
        fields = [partial, field("1", "0")]
        redrawn = 0
        for seed in range(8):
            for n_points in (1, 5, 9):
                want = reference_rank_outcome(fields, n_points=n_points,
                                              seed=seed)
                got = rank_outcome(fields, n_points=n_points, seed=seed)
                assert repr(got) == repr(want)
                # the points kept are not the first ones drawn
                rng = np.random.default_rng(seed)
                first = [tuple(sample_jet_point(rng).values())
                         for _ in range(n_points)]
                redrawn += got[1] != first
        assert redrawn

    def test_rank_draw_budget(self):
        # defined on y < 0.51 only: 20 * n_points draws are not enough
        fields = [field("1", "sqrt(0.51 - y)")]
        assert rank_outcome(fields, seed=3) == \
            reference_rank_outcome(fields, seed=3) == \
            "could not sample enough generic jet points"

    @pytest.mark.parametrize("partial", PARTIAL_FIELDS)
    def test_closure_with_undefined_points(self, partial):
        for seed in range(10):
            fields = [field("1", "0"), partial, field("0", "1")]
            assert repr(closure_outcome(fields, seed=seed)) == \
                repr(reference_closure(fields, seed=seed))

    @pytest.mark.parametrize("entry_id,basis,params",
                             [c for c in CATALOG_BASES if len(c[1]) >= 2])
    def test_closure_evaluates_the_basis_once(self, entry_id, basis, params,
                                              basis_calls):
        n = len(basis)
        for seed in (0, 1, 2, 42):
            basis_calls.clear()
            check_closure(basis, params, seed)
            assert basis_calls == [n * (n - 1) // 2 * (n + 3)]
            assert basis_calls[0] <= symmetry._BLOCK_ROWS

    def test_closure_draws_more_than_one_block(self, basis_calls):
        # 4096 // 23 = 178 blocks, then a block for each pair left; a
        # rank-deficient first block costs its pair the next block: at
        # seed 1 in the first draw, at seed 5 in the second
        for seed, blocks in ((0, [178, 12]), (1, [178, 13]),
                             (5, [178, 12, 1])):
            basis_calls.clear()
            assert repr(closure_outcome(TRIG_FIELDS, seed=seed)) == \
                repr(reference_closure(TRIG_FIELDS, seed=seed))
            assert basis_calls == [23 * b for b in blocks]

    @pytest.mark.parametrize("block_rows", [60, 23, 5])
    def test_closure_with_smaller_draws(self, monkeypatch, basis_calls,
                                        block_rows):
        # a draw holds at least one block, even one larger than the bound;
        # no pair retries at seed 4
        monkeypatch.setattr(symmetry, "_BLOCK_ROWS", block_rows)
        blocks = max(1, block_rows // 23)
        basis_calls.clear()
        assert repr(closure_outcome(TRIG_FIELDS, seed=4)) == \
            repr(reference_closure(TRIG_FIELDS, seed=4))
        assert basis_calls == [blocks * 23] * (190 // blocks) + \
            [190 % blocks * 23] * (190 % blocks > 0)

    def test_closure_retries_past_the_drawn_blocks(self, basis_calls):
        # ln(y - 0.6) is undefined at a block of 6 points with chance
        # 1 - 0.95^6; a retry takes a block of a later pair, so the pairs
        # left are drawn again, and the brackets close
        fields = [field("1", "0"), field("x", "0"), field("0", "ln(y - 0.6)")]
        draws = {}
        for seed in range(12):
            basis_calls.clear()
            assert repr(closure_outcome(fields, seed=seed)) == \
                repr(reference_closure(fields, seed=seed))
            draws[seed] = list(basis_calls)
        assert draws[1] == [18, 6] and draws[5] == [18, 12]
        assert draws[7] == [18, 6, 6]
        assert check_closure(fields, seed=7).residual < 1e-9

    def test_closure_redraws_after_an_undefined_first_draw(self):
        # ln(y - 0.6) is undefined at the first draw of seed 1 and defined
        # at its second; [d/dx, ln(y - 0.6) d/dy] = 0 is in the span
        fields = [field("1", "0"), field("0", "ln(y - 0.6)")]
        rng = np.random.default_rng(1)
        first, second = (rng.uniform(0.5, 2.5, size=(5, 2)) for _ in "12")
        assert (first[:, 1] <= 0.6).any() and (second[:, 1] > 0.6).all()
        result = check_closure(fields, seed=1)
        assert result.constants[(0, 1)].tolist() == [0.0, 0.0]
        assert repr(closure_outcome(fields, seed=1)) == \
            repr(reference_closure(fields, seed=1))

    def test_closure_redraws_after_a_rank_deficient_first_draw(self):
        # y - 1.5 and abs(y - 1.5) are parallel when every y of the first
        # draw of seed 34 lies on one side of 1.5
        fields = [field("0", "1"), field("0", "y - 1.5"),
                  field("0", "abs(y - 1.5)")]
        first = np.random.default_rng(34).uniform(0.5, 2.5, size=(6, 2))
        assert len(set(np.sign(first[:, 1] - 1.5))) == 1
        assert repr(closure_outcome(fields, seed=34)) == \
            repr(reference_closure(fields, seed=34))

    def test_closure_rejects_an_overflowing_bracket(self):
        # the basis is finite on the box, the bracket 2e308*y is not
        # wherever y > 0.9
        fields = [field("0", "1e200"), field("0", "1e108*y^2")]
        assert closure_outcome(fields, seed=3) == reference_closure(
            fields, seed=3) == ("could not sample a well-posed span system"
                                " for [0;1e200, 0;1e108*y^2]")

import dataclasses
import hashlib
import math
import re
import sys
from pathlib import Path

import pytest

from dodesym import catalog, expr as E
from dodesym.catalog import (
    CatalogError,
    Instantiation,
    check_entry,
    default_instantiation,
    export_text,
    get_entry,
    instantiate,
    list_entries,
    negative_control,
    parse_catalog_text,
    verify_entry_closure,
)
from dodesym.dods import DodsSystem, check_invariance
from dodesym.expr import evaluate, parse
from dodesym.symmetry import VectorField

REQUIRED_IDS = [
    "A1_1", "A2_1", "A2_2", "A2_3", "A2_4",
    "A3_1", "A3_2a", "A3_8", "A3_11", "A3_13", "A3_15",
    "A4_1", "A4_8", "A4_11", "A4_20",
    "A5_1", "A5_6", "A5_8",
    "A6_2", "A6_3",
]


class TestListing:
    def test_required_entries_present(self):
        ids = {e.id for e in list_entries()}
        for required in REQUIRED_IDS:
            assert required in ids
        # linear-family markers and the traffic systems ride along
        assert {"S_m", "H_m", "H3_DET", "S3_DET"} <= ids
        assert {"TRAFFIC_EX1", "TRAFFIC_EX2", "TRAFFIC_EX3"} <= ids

    def test_six_field_projective_product(self):
        assert get_entry("A6_3").n_basis == 6

    def test_single_field_family(self):
        entry = get_entry("A1_1")
        assert entry.n_basis == 1
        assert E.to_text(entry.basis[0].eta) == "1"

    def test_five_field_template_structure(self):
        # f template: 2 (dy - slope)/width + C1/width^2
        entry = get_entry("A5_1")
        system = instantiate(default_instantiation("A5_1"), check_n=20)
        pt = {"x": 2.0, "y": 2.2, "ym": 0.9, "dy": 1.3, "dym": 0.8}
        xm = evaluate(system.bound(system.g), pt)
        dx = pt["x"] - xm
        slope = (pt["y"] - pt["ym"]) / dx
        expected = 2.0 * (pt["dy"] - slope) / dx + 0.3 / dx ** 2
        got = evaluate(system.bound(system.f), {**pt, "xm": xm})
        assert got == pytest.approx(expected, rel=1e-12)
        # delay solved from width = C2 / (dy + dym - 2 slope)
        width_relation = dx * (pt["dy"] + pt["dym"] - 2.0 * slope)
        assert width_relation == pytest.approx(1.2, rel=1e-12)
        assert entry.n_basis == 5


class TestInstantiate:
    def test_difference_family_with_supplied_functions(self):
        inst = Instantiation(
            entry_id="A2_4",
            f_expr=parse("u1*sin(u2)+u3"),
            g_expr=parse("1 + u2^2"),
        )
        system = instantiate(inst)
        from dodesym.dods import check_algebra

        reports = check_algebra(system, list(get_entry("A2_4").basis), n=150)
        assert len(reports) == 2 and all(r.passed for r in reports)

    def test_projective_family_spec_choice(self):
        inst = Instantiation(
            entry_id="A3_11",
            f_expr=parse("u2"),
            g_expr=parse("u1 - 1/u2"),
        )
        system = instantiate(inst)
        from dodesym.dods import check_algebra

        reports = check_algebra(system, list(get_entry("A3_11").basis), n=150)
        assert len(reports) == 3 and all(r.passed for r in reports)

    def test_constraint_violation_is_named(self):
        inst = default_instantiation("A3_2a")
        inst.params["a"] = 0.0
        with pytest.raises(CatalogError, match="constraint"):
            instantiate(inst)

    def test_nonpositive_delay_rejected(self):
        inst = Instantiation(entry_id="A2_4", f_expr=parse("u1"),
                             g_expr=parse("0 - 1"))
        with pytest.raises(CatalogError, match="non-positive|singular"):
            instantiate(inst)

    def test_xm_dependent_delay_slot_rejected(self):
        # slot u1 of this family carries the delayed abscissa
        inst = Instantiation(entry_id="A2_2", f_expr=parse("u2"),
                             g_expr=parse("0.4 + 0.01*u1"))
        with pytest.raises(CatalogError, match="not explicit"):
            instantiate(inst)

    def test_unknown_slot_rejected(self):
        inst = Instantiation(entry_id="A2_4", f_expr=parse("u9"),
                             g_expr=parse("1"))
        with pytest.raises(CatalogError, match="unknown slots"):
            instantiate(inst)

    def test_marker_entries_have_no_system(self):
        with pytest.raises(CatalogError, match="marker"):
            instantiate(Instantiation(entry_id="S_m"))


class TestConstraintRules:
    @pytest.mark.parametrize("rule,params,expected", [
        ("0 < abs(a) <= 1", {"a": 0.5}, True),
        ("0 < abs(a) <= 1", {"a": -1.0}, True),
        ("0 < abs(a) <= 1", {"a": 0.0}, False),
        ("0 < abs(a) <= 1", {"a": 1.5}, False),
        ("0 < abs(a) <= 1", {"a": -2.0}, False),
        ("C2 > 0", {"C2": 1.2}, True),
        ("C2 > 0", {"C2": 0.0}, False),
        ("C2 > 0", {"C2": -1.0}, False),
        ("C1 != 0", {"C1": 0.0}, False),
        ("C1 != 0", {"C1": -0.3}, True),
        ("C1 < 1.0", {"C1": 0.99}, True),
        ("C1 < 1.0", {"C1": 1.0}, False),
    ])
    def test_rule_shapes_accept_and_reject(self, rule, params, expected):
        assert catalog._check_rule(rule, params) is expected

    def test_every_stored_rule_holds_for_its_defaults(self):
        for entry in list_entries():
            for rule, _ in entry.constraints:
                assert catalog._check_rule(rule, entry.default_params)

    @pytest.mark.parametrize("rule", [
        "__import__('os').getpid() > 0",
        "__import__('sys').modules.__setitem__('dodesym_rule_ran', 1) or 1 > 0",
        "C1",
        "C1 > ",
    ])
    def test_rule_that_is_not_an_expression_comparison(self, rule):
        with pytest.raises(CatalogError):
            catalog._check_rule(rule, {"C1": 1.0})
        assert "dodesym_rule_ran" not in sys.modules

    def test_unbound_parameter_is_an_expression_error(self):
        with pytest.raises(E.UnboundSymbolError):
            catalog._check_rule("C3 > 0", {"C1": 1.0})


class TestEveryEntry:
    @pytest.mark.parametrize("entry_id", REQUIRED_IDS + ["H3_DET", "S3_DET"])
    def test_default_instantiation_passes(self, entry_id):
        reports = check_entry(entry_id, n=60)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("entry_id", REQUIRED_IDS)
    def test_closure_holds(self, entry_id):
        result = verify_entry_closure(entry_id)
        if result is not None:
            assert result.residual < 1e-9


class TestStructureConstants:
    def test_affine_pair(self):
        res = verify_entry_closure("A2_1")
        assert res.constant(0, 1, 0) == pytest.approx(1.0, abs=1e-9)

    def test_projective_triple(self):
        res = verify_entry_closure("A3_11")
        assert res.constant(0, 1, 0) == pytest.approx(1.0, abs=1e-9)
        assert res.constant(0, 2, 1) == pytest.approx(2.0, abs=1e-9)
        assert res.constant(1, 2, 2) == pytest.approx(1.0, abs=1e-9)

    def test_two_commuting_affine_copies(self):
        res = verify_entry_closure("A4_20")
        assert res.constant(0, 1, 0) == pytest.approx(1.0, abs=1e-9)
        assert res.constant(2, 3, 2) == pytest.approx(1.0, abs=1e-9)
        for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert max(abs(c) for c in res.constants[pair]) < 1e-9

    @pytest.mark.parametrize("entry_id", ["A2_3", "A2_4"])
    def test_commutative_pairs(self, entry_id):
        res = verify_entry_closure(entry_id)
        assert max(abs(c) for c in res.constants[(0, 1)]) < 1e-9


class TestNegativeControl:
    @pytest.mark.parametrize("entry_id", ["A2_4", "A4_1", "A6_2", "A3_15"])
    def test_perturbed_field_fails(self, entry_id):
        # families whose span contains x^2 d/dy need a different bump,
        # which the screening picks automatically
        entry = get_entry(entry_id)
        system = instantiate(default_instantiation(entry_id), check_n=20)
        bad = negative_control(entry)
        report = check_invariance(system, bad, n=120)
        assert max(report.max_residual_dode,
                   report.max_residual_delay) > 1e-3

    #: the perturbation negative_control adds to the eta of the first
    #: field for each entry with a basis; S_m and H_m have none
    PICKED = {
        "A1_1": "0.1*x^2", "A2_1": "0.1*x^2", "A2_2": "0.1*x^2",
        "A2_3": "0.1*x^2", "A2_4": "0.1*x^2", "A3_1": "0.1*x^2",
        "A3_2a": "0.1*x^2", "A3_8": "0.1*x^2", "A3_11": "0.1*x^2",
        "A3_13": "0.1*x^2", "A3_15": "0.1*x^3", "A4_1": "0.1*x^3",
        "A4_8": "0.1*x^2", "A4_11": "0.1*x^2", "A4_20": "0.1*x^2",
        "A5_1": "0.1*x^3", "A5_6": "0.1*x^2", "A5_8": "0.1*x^2",
        "A6_2": "0.1*x^3", "A6_3": "0.1*x^2", "H3_DET": "0.1*x^2",
        "S3_DET": "0.1*sin(5*x)", "TRAFFIC_EX1": "0.1*x^2",
        "TRAFFIC_EX2": "0.1*x^2", "TRAFFIC_EX3": "0.1*x^2",
    }

    def test_picked_perturbations_are_pinned(self):
        entries = [e for e in list_entries() if e.basis]
        assert [e.id for e in entries] == list(self.PICKED)
        for entry in entries:
            base = entry.basis[0]
            want = VectorField(base.xi, E.simplify(
                base.eta + parse(self.PICKED[entry.id])),
                label=f"{base.label}+perturbation")
            # compared by repr, so 0.0 and -0.0 differ
            assert repr(negative_control(entry)) == repr(want)

    @pytest.mark.parametrize("entry_id", ["S_m", "H_m"])
    def test_an_entry_without_a_basis_is_refused(self, entry_id):
        with pytest.raises(CatalogError) as err:
            negative_control(get_entry(entry_id))
        assert str(err.value) == \
            f"entry '{entry_id}' has no basis field to perturb"


class TestDeterminantFamilies:
    def test_h3_degenerate_chi_rejected(self):
        # chi = x^3 has its second-order minor vanishing at x = 1/3
        entry = dataclasses.replace(get_entry("H3_DET"), id="H3_TMP",
                                    box={"x": (0.2, 0.5)})
        catalog._all_entries()["H3_TMP"] = entry
        try:
            with pytest.raises(CatalogError):
                instantiate(default_instantiation("H3_TMP"), check_n=10)
        finally:
            catalog._all_entries().pop("H3_TMP", None)

    @pytest.mark.parametrize("minor, reason", [
        ("sqrt(x - 1)", "is singular"),  # undefined on part of the grid
        ("exp(1000*x)", "is singular"),  # overflows
        ("xm - 0.2", "vanishes"),  # a sign change along xm = x - 1
        ("1e-12*x", "vanishes"),  # nearly zero against its largest value
    ])
    def test_second_order_condition_rejections(self, minor, reason):
        entry = dataclasses.replace(get_entry("H3_DET"),
                                    second_order_minor=parse(minor))
        system = DodsSystem(f=parse("ym"), g=parse("x - 1"))
        message = (f"entry 'H3_DET': the second-order condition {reason} on"
                   " the requested interval; rejected")
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            catalog._check_nondegeneracy(entry, system)

    def test_second_order_condition_accepted(self):
        entry = dataclasses.replace(get_entry("H3_DET"),
                                    second_order_minor=parse("1 + xm^2"))
        system = DodsSystem(f=parse("ym"), g=parse("x - 1"))
        assert catalog._check_nondegeneracy(entry, system) is None

    def test_check_entry_checks_each_field_once(self, monkeypatch):
        from dodesym import dods

        calls = []
        real = dods.field_kernel

        def counting(field, params=None):
            calls.append(field)
            return real(field, params)

        monkeypatch.setattr(dods, "field_kernel", counting)
        reports = check_entry("A3_11", n=40)
        assert calls == list(get_entry("A3_11").basis)
        assert [r.n_samples for r in reports] == [40, 40, 40]
        assert all(r.passed for r in reports)

    def test_s3_passes_by_default(self):
        reports = check_entry("S3_DET", n=60)
        assert all(r.passed for r in reports)


#: sha256 prefixes of repr(check_entry(id, n=200)), pinned from the code
#: before kernels were shared between systems of equal content
CHECK_ENTRY_DIGESTS = {
    "A1_1": "568dd5a361b686f7",
    "A2_1": "a10211f6feb85496",
    "A2_2": "16e6842902eab9cb",
    "A2_3": "5d93038457b71ced",
    "A2_4": "8961c6bde6eb90ef",
    "A3_1": "5a0f863ea935b616",
    "A3_2a": "e4b4ad4fc596e099",
    "A3_8": "40eec48d17894553",
    "A3_11": "b205721c54c64ae5",
    "A3_13": "5dd4c91322f1ae1c",
    "A3_15": "dc450c07149983e6",
    "A4_1": "40d9f52a76bb1aab",
    "A4_8": "1bc993c7f0c26df6",
    "A4_11": "3f5d5dba56952bec",
    "A4_20": "36a7ed00b8660e52",
    "A5_1": "3e5fe46783714be6",
    "A5_6": "32c65018d20002e6",
    "A5_8": "7266a4389d1f92fb",
    "A6_2": "ae60d2dbf2198c22",
    "A6_3": "dc3e82e4613a0733",
    "H3_DET": "aed65bccd62b0686",
    "S3_DET": "7b28a8d2bcaf0e80",
    "TRAFFIC_EX1": "6d5adba978ca4ebe",
    "TRAFFIC_EX2": "8a9274a231c09b0f",
    "TRAFFIC_EX3": "085be5a744e85663",
}


def test_check_entry_reports_are_the_same_cold_and_warm():
    ids = [e.id for e in list_entries() if e.has_system]
    cold = [repr(check_entry(i, n=200)) for i in ids]
    misses = E.memo_info().misses
    warm = [repr(check_entry(i, n=200)) for i in ids]
    assert E.memo_info().misses == misses  # every kernel was shared
    assert warm == cold
    digests = {i: hashlib.sha256(r.encode()).hexdigest()[:16]
               for i, r in zip(ids, cold)}
    assert digests == CHECK_ENTRY_DIGESTS


def test_warm_check_entry_runs_no_symbolic_work(monkeypatch):
    # after one pass, a second finds every system, kernel and simplified
    # tree in the memo or the per-node caches of expr
    ids = [e.id for e in list_entries() if e.has_system]
    cold = [repr(check_entry(i, n=20)) for i in ids]
    calls = {"_simplify": 0, "_diff": 0, "_generate": 0, "validate": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_simplify", "_diff", "_generate"):
        counted(E, name, name)
    counted(DodsSystem, "validate", "validate")
    warm = [repr(check_entry(i, n=20)) for i in ids]
    assert calls == {"_simplify": 0, "_diff": 0, "_generate": 0, "validate": 0}
    assert warm == cold


def test_each_call_builds_a_new_system():
    first, second = (catalog._build_system(default_instantiation("A2_4"))[1]
                     for _ in range(2))
    assert first is not second and first.box is not second.box
    first.box["x"] = (7.0, 8.0)
    first.params["a"] = 99.0
    again = catalog._build_system(default_instantiation("A2_4"))[1]
    assert again.box == second.box and again.params == second.params
    assert again.f is second.f and again.g is second.g


def test_each_parameter_value_is_checked_against_the_constraints():
    # kernels are shared by parameter name; a concrete system is not,
    # because its constraints and its validation read the values
    def build(a):
        inst = dataclasses.replace(default_instantiation("A3_2a"),
                                   params={"a": a})
        return catalog._build_system(inst)[1]

    assert build(0.5).params == {"a": 0.5}
    assert build(0.25).params == {"a": 0.25}
    with pytest.raises(CatalogError, match="constraint violated"):
        build(2.0)
    kinds = [key[0] for key in E._memo if key[0][0] == "instantiation"]
    assert len(kinds) == 2


def _normal(value):
    """A value of an entry field that == compares in full: every
    expression is compared as its node, and nodes are interned, so == on
    them is identity."""
    if isinstance(value, VectorField):
        return value.xi, value.eta, value.label
    if isinstance(value, (tuple, list)):
        return tuple(_normal(v) for v in value)
    return value


def _assert_same_entry(got, want):
    for f in dataclasses.fields(catalog.CatalogEntry):
        assert _normal(getattr(got, f.name)) == \
            _normal(getattr(want, f.name)), (want.id, f.name)


#: `catalog export` as it was when Python builders made every entry, before
#: the entries became the data file catalog.txt: each entry read from that
#: file must equal its record here, node for node, except the f_template of
#: the determinant blocks, which the file stores simplified
BUILT_EXPORT = Path(__file__).parent / "data" / "catalog_export.txt"
BUILT_EXPORT_SHA256 = ("b77f2fa5552b4b3bb8d95a5799da84595732d2f3341746a48a6"
                       "60e174a08473e")

#: the blocks whose f_template is the simplify of the recorded one
REDUCED = ("H3_DET", "S3_DET")


def _jet_row(u, point):
    """u'', u', u'(xm), u and u(xm) at point for a function u of x: the
    row a basis field u d/dy adds to a determinant block's matrix."""
    d1 = E.diff(u, "x")
    return [evaluate(e, {"x": point[at]}) for e, at in (
        (E.diff(d1, "x"), "x"), (d1, "x"), (d1, "xm"), (u, "x"), (u, "xm"))]


def _hadamard(matrix):
    """Hadamard's bound on |det|: the product of the row norms."""
    import numpy as np

    return float(np.prod(np.linalg.norm(matrix, axis=1)))


class TestShippedData:
    def test_every_entry_is_the_one_the_builders_made(self):
        text = BUILT_EXPORT.read_text(encoding="utf-8")
        assert hashlib.sha256(text.encode()).hexdigest() == BUILT_EXPORT_SHA256
        record = parse_catalog_text(text)
        entries = list_entries()
        assert [e.id for e in entries] == [e.id for e in record]
        for entry, want in zip(entries, record):
            if want.id in REDUCED:
                assert entry.f_template is E.simplify(want.f_template)
                want = dataclasses.replace(want, f_template=entry.f_template)
            _assert_same_entry(entry, want)
        # the export differs from the record on those two lines only
        for want in record:
            if want.id in REDUCED:
                old, new = want.f_template, E.simplify(want.f_template)
                line = f"f_template = {E.to_text(old)}\n"
                assert text.count(line) == 1
                text = text.replace(line, f"f_template = {E.to_text(new)}\n")
        assert export_text() == text

    def test_the_determinant_blocks_meet_their_identity(self):
        # a block's matrix has the jet row (ddy, dy, dym, y, ym), with
        # ddy = f, and one _jet_row per basis field u(x) d/dy: 1, x, then
        # chi.  S3_DET: its determinant is F.  H3_DET, whose algebra also
        # has y d/dy: without the dym column it is F times the determinant
        # without the ddy column.  The second-order minor is the cofactor
        # of ddy.  At seeded points of the box, with xm = x - 1 (the
        # default G) and a random F.
        import numpy as np

        rng = np.random.default_rng(20261022)
        for entry_id in REDUCED * 200:
            entry = get_entry(entry_id)
            box = catalog._build_system(
                default_instantiation(entry_id))[1].box
            point = {k: rng.uniform(lo, hi) for k, (lo, hi) in box.items()}
            point["xm"] = point["x"] - 1.0
            point["F"] = rng.uniform(-2.0, 2.0)
            jet = [evaluate(entry.f_template, point),
                   *(point[k] for k in ("dy", "dym", "y", "ym"))]
            rows = np.array([jet] + [_jet_row(f.eta, point)
                                     for f in entry.basis
                                     if "y" not in E.free_symbols(f.eta)])
            if entry_id == "H3_DET":
                num, den = rows[:, [0, 1, 3, 4]], rows[:, 1:]
            else:
                num, den = rows, np.ones((1, 1))
            defect = np.linalg.det(num) - point["F"] * np.linalg.det(den)
            assert abs(defect) <= 1e-10 * (
                _hadamard(num) + abs(point["F"]) * _hadamard(den)), point
            cofactor = num[1:, 1:]
            minor = evaluate(entry.second_order_minor, point)
            assert abs(minor - np.linalg.det(cofactor)) <= \
                1e-10 * _hadamard(cofactor), point

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_the_traffic_blocks_are_the_worked_examples(self, example):
        from dodesym import traffic

        p = traffic.example_params(example)
        system = traffic.example_system(example, p)
        basis = tuple(traffic.bound_field(f, system.params)
                      for f in traffic.example_algebra(example, p))
        bound = traffic.bound_system(system)
        want = catalog.CatalogEntry(
            id=f"TRAFFIC_EX{example}",
            algebra_label="car-following example",
            basis=basis,
            f_template=bound.f,
            g_template=bound.g,
            default_params=dict(bound.params),
            box=dict(bound.box),
            delay_kind=bound.delay_kind,
            notes=f"two-car system of worked example {example}; fixed form",
        )
        _assert_same_entry(get_entry(want.id), want)

    def test_the_file_is_read_once(self, monkeypatch):
        monkeypatch.setattr(catalog, "_CACHE", None)
        calls = []
        real = catalog.parse_catalog_text

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(catalog, "parse_catalog_text", counted)
        for _ in range(2):
            assert len(list_entries()) == 27
            get_entry("A4_1")
        assert len(calls) == 1


class TestExport:
    def test_round_trip(self):
        text = export_text()
        entries = parse_catalog_text(text)
        by_id = {e.id: e for e in entries}
        assert set(by_id) == {e.id for e in list_entries()}
        binds = {"x": 2.1, "y": 2.3, "xm": 0.8, "ym": 1.1, "dy": 1.4,
                 "dym": 0.9, "ddy": 0.5, "F": 0.37, "G": 0.73}
        for original in list_entries():
            again = by_id[original.id]
            assert again.algebra_label == original.algebra_label
            assert again.n_basis == original.n_basis
            if original.has_system:
                full = {**binds, **original.default_params}
                for attr in ("f_template", "g_template"):
                    assert evaluate(getattr(again, attr), full) == \
                        pytest.approx(evaluate(getattr(original, attr), full),
                                      rel=1e-12)
                assert again.default_params == original.default_params

    def test_round_trip_keeps_every_field(self):
        originals = list_entries()
        again = parse_catalog_text(export_text())
        assert [e.id for e in again] == [e.id for e in originals]
        for original, entry in zip(originals, again):
            _assert_same_entry(entry, original)
        by_id = {e.id: e for e in again}
        assert by_id["H3_DET"].second_order_minor is not None
        assert by_id["S3_DET"].second_order_minor is not None
        assert [f.label for f in by_id["TRAFFIC_EX2"].basis] == \
            ["t d/dt + n x d/dx", "d/dx"]

    @pytest.mark.parametrize("line,message", [
        ("param a = x", "line 3: expected a number, got 'x'"),
        ("box x = 1", "line 3: expected 2 comma-separated numbers, got '1'"),
        ("box yy = 1.6,2.5", "line 3: box coordinate must be one of x, y,"
                             " ym, dy, dym, got 'yy'"),
        ("box y = 1.6,inf", "line 3: box bounds must be finite with lo < hi"
                            " and a finite width, got '1.6,inf'"),
        ("box y = nan,2.5", "line 3: box bounds must be finite with lo < hi"
                            " and a finite width, got 'nan,2.5'"),
        ("box y = 2.5,1.6", "line 3: box bounds must be finite with lo < hi"
                            " and a finite width, got '2.5,1.6'"),
        ("box y = -1e308,1e308", "line 3: box bounds must be finite with"
                                 " lo < hi and a finite width, got"
                                 " '-1e308,1e308'"),
        ("delay = bogus", "line 3: delay must be constant, independent or"
                          " state"),
        ("f_template = F +", "line 3: unexpected end of input at offset 4"),
        ("default_G = 0.5*", "line 3: unexpected end of input at offset 5"),
        ("g_slot u1 = x y", "line 3: unexpected 'y' at offset 3"),
        ("field = 1 ; y^ :: X1", "line 3: unexpected end of input at offset 3"),
        ("second_order_minor = (ddy", "line 3: expected ')' at offset 5"),
        ("param a = nan", "line 3: parameter 'a' must be finite, got 'nan'"),
        ("param a = -inf",
         "line 3: parameter 'a' must be finite, got '-inf'"),
    ])
    def test_malformed_line_is_named(self, line, message):
        text = f"entry Z\nalgebra = L1\n{line}\nend\n"
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("line, first", [
        ("algebra = L2", 2), ("f_template = F", 3), ("default_F = u1", 4),
        ("delay = state", 5), ("param a = 2", 6), ("param  a = 2", 6),
        ("box y = 1.6,2.5", 7), ("f_slot u1 = x", 8), ("notes = again", 9),
    ])
    def test_a_key_given_twice_names_both_lines(self, line, first):
        text = ("entry Z\nalgebra = L1\nf_template = F\ndefault_F = u1\n"
                "delay = state\nparam a = 1\nbox y = 1,2\nf_slot u1 = y\n"
                f"notes = once\n{line}\nend\n")
        key = line.partition("=")[0].strip()
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == \
            f"line 10: '{key}' is given again, first on line {first}"

    def test_fields_and_constraints_repeat(self):
        text = ("entry Z\nalgebra = L1\nfield = 0 ; 1 :: X1\n"
                "field = 0 ; y :: X2\nconstraint = a > 0 :: one\n"
                "constraint = a < 1 :: two\nend\n")
        entry, = parse_catalog_text(text)
        assert [f.label for f in entry.basis] == ["X1", "X2"]
        assert entry.constraints == (("a > 0", "one"), ("a < 1", "two"))

    @pytest.mark.parametrize("kind", ["f_slot", "g_slot"])
    def test_swapped_slot_lines_are_refused(self, kind):
        # read in file order, the swapped lines gave A1_1 the slots
        # (y - ym, x, ...): another family
        lines = export_text().splitlines()
        i = lines.index(f"{kind} u1 = x")
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        assert lines[i] == f"{kind} u2 = (y - ym)"
        with pytest.raises(CatalogError) as err:
            parse_catalog_text("\n".join(lines))
        assert str(err.value) == \
            f"line {i + 1}: expected '{kind} u1', got '{kind} u2'"

    @pytest.mark.parametrize("line, message", [
        ("f_slotty u1 = x", "line 3: unknown key 'f_slotty u1'"),
        ("f_slot = x", "line 3: expected 'f_slot u1', got 'f_slot'"),
        ("g_slot u2 = x", "line 3: expected 'g_slot u1', got 'g_slot u2'"),
        ("g_slot u1x = x", "line 3: expected 'g_slot u1', got 'g_slot u1x'"),
    ])
    def test_a_slot_line_names_the_next_slot(self, line, message):
        text = f"entry Z\nalgebra = L1\n{line}\nend\n"
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == message

    def test_a_block_without_g_slots_reads_back_its_f_slots(self):
        text = "\n".join(line for line in export_text().splitlines()
                         if not line.startswith("g_slot"))
        again = parse_catalog_text(text)
        for original, entry in zip(list_entries(), again):
            assert entry.f_slots == original.f_slots
            assert entry.g_slots == original.g_slots == original.f_slots

    def test_g_slots_default_to_the_f_slots(self):
        slots = (parse("x"), parse("dy - dym"))
        entry = catalog.CatalogEntry(id="Z", algebra_label="L1", basis=(),
                                     f_slots=slots)
        assert entry.g_slots == slots
        assert catalog.CatalogEntry(id="Z", algebra_label="L1", basis=(),
                                    f_slots=slots, g_slots=()).g_slots == ()

    def test_unclosed_last_entry_is_an_error(self):
        # three exported blocks with the last `end` removed
        blocks = export_text().split("end\n\n")[:3]
        text = "end\n\n".join(blocks[:2] + [blocks[2].removesuffix("end\n")])
        assert text.count("\nend\n") == 2
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == "entry 'A2_2' is not closed by 'end'"

    def test_entry_opened_inside_another_is_an_error(self):
        text = "entry A1_1\nalgebra = L1\nentry A2_1\nalgebra = L2\nend\n"
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == \
            "line 3: entry 'A1_1' is not closed by 'end'"

    @pytest.mark.parametrize("text, message", [
        # the table of entries is keyed by id and would keep the last block
        ("entry A\nend\n\nentry B\nend\nentry A\nend\n",
         "line 6: 'entry A' is given again, first on line 1"),
        ("entry\nalgebra = L1\nend\n", "line 1: 'entry' needs an id"),
        ("entry A1_1\nend\nentry \t\nend\n", "line 3: 'entry' needs an id"),
        ("entry A B\nend\n", "line 1: entry id 'A B' contains white space"),
        ("entry A\tB\nend\n",
         "line 1: entry id 'A\tB' contains white space"),
    ])
    def test_an_ambiguous_entry_line_is_refused(self, text, message):
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == message

    def test_comment_lines_are_skipped(self):
        text = ("# a catalog\nentry Z\n# the algebra\nalgebra = L1\n"
                "  # indented\nend\n")
        entry, = parse_catalog_text(text)
        assert (entry.id, entry.algebra_label) == ("Z", "L1")

    def test_reparsed_entry_still_checks(self):
        text = export_text()
        by_id = {e.id: e for e in parse_catalog_text(text)}
        entry = by_id["A2_4"]
        # run the invariance check directly on the reconstructed entry
        from dodesym.dods import DodsSystem, check_algebra
        from dodesym.expr import subs

        f = subs(entry.f_template,
                 {"F": subs(entry.default_f,
                            {f"u{i+1}": s for i, s in enumerate(entry.f_slots)})})
        g = subs(entry.g_template,
                 {"G": subs(entry.default_g,
                            {f"u{i+1}": s for i, s in enumerate(entry.g_slots)})})
        system = DodsSystem(f=f, g=g)
        reports = check_algebra(system, list(entry.basis), n=80)
        assert all(r.passed for r in reports)

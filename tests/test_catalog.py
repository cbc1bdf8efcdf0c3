import dataclasses
import hashlib
import math
import re
import sys

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
    make_h3_entry,
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
        entry = make_h3_entry(E.X ** 3, entry_id="H3_TMP")
        entry.default_f = parse("0.3*u1")
        entry.default_g = parse("u1 - 1")
        entry.box = {"x": (0.2, 0.5)}
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
        # every expression reads back as the node it was exported from:
        # nodes are interned, so == on them is identity
        def normal(value):
            if isinstance(value, VectorField):
                return value.xi, value.eta, value.label
            if isinstance(value, (tuple, list)):
                return tuple(normal(v) for v in value)
            return value

        originals = list_entries()
        again = parse_catalog_text(export_text())
        assert [e.id for e in again] == [e.id for e in originals]
        for original, entry in zip(originals, again):
            for f in dataclasses.fields(catalog.CatalogEntry):
                assert normal(getattr(entry, f.name)) == \
                    normal(getattr(original, f.name)), (original.id, f.name)
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
    ])
    def test_malformed_line_is_named(self, line, message):
        text = f"entry Z\nalgebra = L1\n{line}\nend\n"
        with pytest.raises(CatalogError) as err:
            parse_catalog_text(text)
        assert str(err.value) == message

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

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dodesym import catalog, traffic
from dodesym import expr as E
from dodesym.dods import check_algebra, check_invariance
from dodesym.expr import Const, parse
from dodesym.integrate import HistoryFunction, solve
from dodesym.linear import (
    CanonicalLinear,
    LinearDods,
    characteristic_roots,
    compatibility_residual,
    detect_extra_symmetry,
    verify_exponential_solution,
)
from dodesym.reduce import invariants_of, reduce_and_solve
from dodesym.symmetry import VectorField, invariant_count
from tests.conftest import bisect_root, jacobi_sum

PKG_ROOT = Path(__file__).resolve().parents[1]


def verdict(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_catalog_invariance():
    started = time.time()
    checkable = [e for e in catalog.list_entries() if e.has_system]
    assert len(checkable) >= 19
    worst = 0.0
    weakest_control = math.inf
    for entry in checkable:
        system = catalog.instantiate(catalog.default_instantiation(entry.id),
                                     check_n=20)
        reports = check_algebra(system, list(entry.basis), n=200, seed=42,
                                tol=1e-8)
        for r in reports:
            assert r.passed, f"{entry.id}: {r.summary()}"
            worst = max(worst, r.max_residual_dode, r.max_residual_delay)
        control = catalog.negative_control(entry)
        bad = check_invariance(system, control, n=200, seed=43)
        weakest_control = min(
            weakest_control, max(bad.max_residual_dode,
                                 bad.max_residual_delay))
    elapsed = time.time() - started
    ok = worst < 1e-8 and weakest_control > 1e-3 and elapsed < 30.0
    verdict(
        "criterion 1 (catalog invariance)",
        ok,
        f"{len(checkable)} entries, worst residual {worst:.2e} < 1e-8,"
        f" weakest negative control {weakest_control:.2e} > 1e-3,"
        f" runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_algebra_structure():
    details = []
    # affine relation [X1, X2] = X1 for the s_{2,1} entries
    for entry_id in ("A2_1", "A2_2"):
        res = catalog.verify_entry_closure(entry_id)
        assert res.residual < 1e-9
        assert abs(res.constant(0, 1, 0) - 1.0) < 1e-9
        details.append(f"{entry_id} span {res.residual:.1e}")
    # projective pattern for A3_11
    res = catalog.verify_entry_closure("A3_11")
    assert res.residual < 1e-9
    assert abs(res.constant(0, 1, 0) - 1.0) < 1e-9
    assert abs(res.constant(0, 2, 1) - 2.0) < 1e-9
    assert abs(res.constant(1, 2, 2) - 1.0) < 1e-9
    # full commutativity of the translation pairs
    for entry_id in ("A2_3", "A2_4"):
        res = catalog.verify_entry_closure(entry_id)
        assert max(abs(c) for c in res.constants[(0, 1)]) < 1e-9
    # Jacobi identity across every catalog basis
    worst_jacobi = 0.0
    for entry in catalog.list_entries():
        if entry.n_basis < 3:
            continue
        for triple in itertools.combinations(entry.basis, 3):
            worst_jacobi = max(
                worst_jacobi,
                jacobi_sum(triple, params=entry.default_params))
    assert worst_jacobi < 1e-10
    verdict(
        "criterion 2 (algebra structure)",
        True,
        f"{'; '.join(details)}; worst Jacobi {worst_jacobi:.1e} < 1e-10",
    )


def test_criterion_3_invariant_counts():
    k1 = invariant_count([VectorField.from_text("0", "1")]).k
    k2 = invariant_count([VectorField.from_text("1", "0"),
                          VectorField.from_text("0", "1")]).k
    k3 = invariant_count(list(catalog.get_entry("A4_1").basis)).k
    ok = (k1, k2, k3) == (6, 5, 3)
    verdict("criterion 3 (invariant counts)", ok,
            f"k = {k1}, {k2}, {k3} (expected 6, 5, 3)")


def test_criterion_4_linear_theory():
    # (a) scaling field on five random homogeneous instances
    rng = np.random.default_rng(17)
    worst_scaling = 0.0
    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        L = LinearDods(
            a1=Const(float(coeffs[0])), a2=Const(float(coeffs[1])),
            a3=Const(float(coeffs[2])), a4=Const(float(coeffs[3]) + 1.5),
            b=Const(0.0), g=parse("x - 0.8"), domain=(0.0, 3.0),
        )
        r = check_invariance(L.to_dods(), VectorField.from_text("0", "y"),
                             n=100, seed=5)
        worst_scaling = max(worst_scaling, r.max_residual_dode,
                            r.max_residual_delay)
    assert worst_scaling < 1e-10

    # (b) integrator superposition
    L = LinearDods(a1=Const(0.0), a2=Const(0.0), a3=Const(0.0),
                   a4=Const(1.0), b=Const(0.0), g=parse("x-1"))
    system = L.to_dods()
    t1 = solve(system, HistoryFunction.from_text("sin(x)", (-1.0, 0.0)),
               "from-phi", 2.5, 2e-3)
    t2 = solve(system, HistoryFunction.from_text("x + 0.3", (-1.0, 0.0)),
               "from-phi", 2.5, 2e-3)
    combo = HistoryFunction(Const(0.6) * parse("sin(x)")
                            + Const(-1.7) * parse("x + 0.3"), (-1.0, 0.0))
    tc = solve(system, combo, "from-phi", 2.5, 2e-3)
    superpose = max(abs(c - (0.6 * a + -1.7 * b))
                    for c, a, b in zip(tc.ys, t1.ys, t2.ys))
    assert superpose < 1e-9

    # (c) constant coefficients give a constant xi
    found = detect_extra_symmetry(CanonicalLinear(1.0, 0.2, 0.3, 1.0)
                                  .to_linear())
    assert found is not None and found.xi == Const(1.0)
    assert found.checks["xi_spread"] < 1e-12

    # (d) root windows
    roots_sq = characteristic_roots(CanonicalLinear(0, 1, 0, 1), (-3, 3))
    assert len(roots_sq) == 2
    assert abs(roots_sq[0] + 1.0) < 1e-12 and abs(roots_sq[1] - 1.0) < 1e-12
    roots_dp = characteristic_roots(CanonicalLinear(0, 0, 1, 1), (-3, 3))
    pos = [r for r in roots_dp if r > 0]
    assert len(pos) == 1
    assert abs(pos[0] ** 2 * math.exp(pos[0]) - 1.0) < 1e-10

    # (e) every returned root verifies as an exponential solution
    worst_exp = 0.0
    for quad in ((0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1)):
        cl = CanonicalLinear(*quad)
        for lam in characteristic_roots(cl, (-3, 3)):
            worst_exp = max(worst_exp, verify_exponential_solution(cl, lam))
    assert worst_exp < 1e-10
    verdict(
        "criterion 4 (linear theory)",
        True,
        f"scaling {worst_scaling:.1e} < 1e-10, superposition"
        f" {superpose:.1e} < 1e-9, xi spread"
        f" {found.checks['xi_spread']:.1e}, roots of (0,1,0,1) ="
        f" {{-1, 1}}, |lam^2 e^lam - 1| ="
        f" {abs(pos[0]**2*math.exp(pos[0])-1.0):.1e},"
        f" exponential residuals {worst_exp:.1e} < 1e-10",
    )


def test_criterion_5_compatibility_condition():
    xs = list(np.linspace(0.2, 2.2, 50))
    r1 = compatibility_residual(parse("x-2"), parse("0.7"), xs)
    xs_pos = list(np.linspace(1.0, 3.0, 50))
    r2 = compatibility_residual(parse("0.5*x"), parse("1.3/x"), xs_pos)
    r3 = compatibility_residual(parse("x-1"), parse("x"), xs)
    ok = r1 < 1e-12 and r2 < 1e-12 and r3 >= 0.5
    verdict("criterion 5 (compatibility condition)", ok,
            f"residuals {r1:.1e}, {r2:.1e} < 1e-12; control {r3:.2f} >= 0.5")


def test_criterion_6_integrator():
    started = time.time()
    from dodesym.dods import DodsSystem

    system = DodsSystem(f=parse("ym"), g=parse("x-1"))
    traj = solve(system, HistoryFunction.from_text("x", (-1.0, 0.0)), 1.0,
                 1.0, 1e-3)
    err = abs(traj.interpolate(1.0)[0] - 2.0 / 3.0)
    assert err < 1e-8

    phi = HistoryFunction.from_text("sin(x)", (-1.0, 0.0))

    def value(h):
        return solve(system, phi, "from-phi", 2.0, h).interpolate(2.0)[0]

    ref = (16.0 * value(0.00125) - value(0.0025)) / 15.0
    errors = [abs(value(h) - ref) for h in (0.02, 0.01, 0.005)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    elapsed = time.time() - started
    ok = err < 1e-8 and all(abs(p - 4.0) < 0.3 for p in orders) \
        and elapsed < 5.0
    verdict(
        "criterion 6 (integrator)",
        ok,
        f"|y(1) - 2/3| = {err:.2e} < 1e-8, observed orders"
        f" {orders[0]:.2f}, {orders[1]:.2f} within 4 +- 0.3,"
        f" runtime {elapsed:.1f}s < 5s",
    )


def test_criterion_7_traffic_example_one():
    p = traffic.example_params(1)
    dev = traffic.compare_exact_vs_numeric(1, p, t_end=5 * p.tau, h=1e-3,
                                           A=-1.0)
    system = traffic.example_system(1, p)
    report = check_invariance(system, traffic.example_symmetry(1, p), n=200,
                              seed=42, tol=1e-9)
    ok = dev < 1e-9 and report.passed
    verdict(
        "criterion 7 (traffic example 1)",
        ok,
        f"drift from vt + A is {dev:.2e} < 1e-9 over [0, 5 tau];"
        f" generator residuals {report.max_residual_dode:.1e},"
        f" {report.max_residual_delay:.1e} < 1e-9",
    )


def test_criterion_8_traffic_examples_two_three():
    # example 3: closed form for n = 2
    p3 = traffic.example_params(3)
    res3 = traffic.solve_constraint(3, p3)
    closed = p3.k / (1.0 + p3.epsilon * math.exp(p3.epsilon * p3.tau))
    root3 = res3.roots[0]
    assert abs(root3.A - closed) < 1e-12
    c3 = E.compile_fn(traffic._constraint(3, p3), ("A",))
    assert abs(c3(root3.A)) < 1e-12
    assert root3.verification.grid_residual < 1e-10
    assert root3.A < p3.k
    dev3 = traffic.compare_exact_vs_numeric(3, p3, t_end=3 * p3.tau, h=1e-3)
    assert dev3 < 1e-6

    # example 2: both amplitudes verify and respect the collision bound
    p2 = traffic.example_params(2)
    res2 = traffic.solve_constraint(2, p2)
    c2 = E.compile_fn(traffic._constraint(2, p2), ("A",))
    assert res2.admissible_roots
    for root in res2.admissible_roots:
        assert abs(c2(root.A)) < 1e-12
        assert root.A < p2.k
        assert root.verification.grid_residual < 1e-10
    dev2 = traffic.compare_exact_vs_numeric(2, p2, t_end=4.0, h=1e-3)
    assert dev2 < 1e-6

    # the repulsive regime has no admissible amplitude and warns
    p2w = traffic.example_params(2, alpha=1.0, k=1.0)
    res2w = traffic.solve_constraint(2, p2w, verify=False)
    assert not res2w.admissible_roots
    assert res2w.warning is not None and "collision" in res2w.warning
    verdict(
        "criterion 8 (traffic examples 2 and 3)",
        True,
        f"example-3 amplitude matches k/(1 + eps e^(eps tau)) to"
        f" {abs(root3.A - closed):.1e}; constraint residuals < 1e-12;"
        f" solution residuals < 1e-10; deviations {dev2:.1e},"
        f" {dev3:.1e} < 1e-6; repulsive regime warns with no admissible root",
    )


def test_criterion_9_reduction_machinery():
    worst_annihilation = 0.0
    for example_id in (1, 2, 3):
        p = traffic.example_params(example_id)
        x_field = traffic.example_symmetry(example_id, p)
        # validation inside invariants_of enforces < 1e-9 at 100 points
        pair = invariants_of(x_field)
        assert pair.can_reduce()
        del pair
    p1 = traffic.example_params(1)
    sol = reduce_and_solve(traffic.example_system(1, p1),
                           traffic.example_symmetry(1, p1),
                           invariants_of(traffic.example_symmetry(1, p1)),
                           interval=(2.2, 2.4))
    ok = "A" in sol.free_parameters and abs(sol.B - p1.tau) < 1e-10
    verdict(
        "criterion 9 (reduction machinery)",
        ok,
        "invariant annihilation < 1e-9 for all three generators;"
        f" example-1 free amplitude detected (free = {sol.free_parameters},"
        f" B = {sol.B:.6g})",
    )
    assert worst_annihilation < 1e-9


def test_criterion_10_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")

    def run():
        return subprocess.run(
            [sys.executable, "-m", "dodesym", "--seed", "42", "traffic",
             "--example", "3"],
            capture_output=True, text=True, env=env, cwd=PKG_ROOT,
            timeout=300,
        )

    a, b = run(), run()
    ok = a.returncode == 0 and a.stdout == b.stdout and a.stderr == b.stderr
    verdict("criterion 10 (determinism)", ok,
            f"two seeded runs produced {len(a.stdout)} identical bytes")

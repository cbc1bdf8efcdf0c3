"""integrate._real_roots against the two root finders it replaced.

The references are the constraint's scan (traffic._scan_roots) and the
characteristic scan, bisection and dedup of linear.characteristic_roots
as they were before both called _real_roots.  Neither looked inside a
pair of cells without a sign change, and the characteristic scan had no
double-root pass; wherever they find roots, the new finder must give the
same values, bit for bit.
"""

import math
import random

from dodesym.expr import DomainError, compile_fn, diff
from dodesym.integrate import _bisect, _real_roots, _sign_scan
from dodesym.linear import CanonicalLinear, LinearError, characteristic_roots
from dodesym.traffic import _constraint, example_params


def reference_scan_roots(c, dc, lo, hi, n_scan):
    grid, vals, brackets = _sign_scan(c, lo, hi, n_scan, errors=DomainError)
    found = [
        (a, abs(dc(a)) < 1e-6 * (1.0 + abs(a))) if a == b
        else (_bisect(c, a, b), False)
        for a, b in brackets
    ]
    for i in range(1, n_scan):
        fa, fb, fc_ = vals[i - 1], vals[i], vals[i + 1]
        if abs(fb) < abs(fa) and abs(fb) < abs(fc_) and fa * fc_ > 0.0:
            try:
                if dc(grid[i - 1]) * dc(grid[i + 1]) < 0.0:
                    a_star = _bisect(dc, grid[i - 1], grid[i + 1])
                    if abs(c(a_star)) < 1e-9:
                        found.append((a_star, True))
            except DomainError:
                continue
    dedup = []
    for a, dbl in sorted(found):
        if dedup and abs(a - dedup[-1][0]) < 1e-9 * max(1.0, abs(a)):
            continue
        dedup.append((a, dbl))
    return dedup


def reference_characteristic_roots(cl, lam_range, n_seed=400):
    lo, hi = lam_range
    h = cl.char_value
    _, _, brackets = _sign_scan(h, lo, hi, n_seed, zero=1e-13)
    roots = sorted((a if a == b else _bisect(h, a, b), a, b)
                   for a, b in brackets)
    out = []
    for r, a, b in roots:
        if out and abs(r - out[-1]) < 1e-9 * max(1.0, abs(r)):
            continue
        if not abs(h(r)) < 1e-10:
            raise LinearError(f"sign change over [{a!r}, {b!r}]")
        out.append(r)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LinearError as exc:
        return str(exc).split(" refines")[0]


def test_characteristic_roots_of_random_systems():
    rng = random.Random(5)
    with_roots = 0
    for _ in range(1000):
        cl = CanonicalLinear(rng.uniform(-3, 3), rng.uniform(-3, 3),
                             rng.uniform(-3, 3), rng.uniform(0.2, 2.0))
        lo = rng.uniform(-6, 2)
        window = (lo, lo + rng.uniform(0.5, 8))
        want = _outcome(reference_characteristic_roots, cl, window)
        got = _outcome(characteristic_roots, cl, window)
        assert got == want, (cl, window)
        with_roots += bool(want) and not isinstance(want, str)
    assert with_roots > 300


def _random_constraint(rng, i):
    """Example 2 and 3 in turn, and every fifth set an example 2 whose
    constraint touches zero at A = 2k/3 (n1 = 3), a double root."""
    if i % 5 == 4:
        q, k = rng.uniform(0.1, 0.9), rng.uniform(0.5, 4)
        alpha = -243.0 / (32.0 * k ** 3) * q ** (1.0 / 3.0)
        return 2, example_params(2, alpha=alpha, n1=3.0, q=q, k=k)
    if i % 2 == 0:
        return 2, example_params(2, alpha=rng.uniform(-3, 3),
                                 n1=rng.choice([2.0, 3.0, 4.0, 2.5]),
                                 q=rng.uniform(0.1, 0.9),
                                 k=rng.uniform(0.5, 4))
    return 3, example_params(3, alpha=rng.uniform(-2, 2),
                             n=rng.choice([2.0, 3.0, 0.5, 2.5]),
                             epsilon=rng.uniform(-1, 1),
                             tau=rng.uniform(0.2, 2), k=rng.uniform(0.5, 3))


def test_constraint_roots_of_random_parameter_sets():
    rng = random.Random(3)
    found = doubles = 0
    for i in range(50):
        example_id, p = _random_constraint(rng, i)
        c_expr = _constraint(example_id, p)
        c, dc = (compile_fn(e, ("A",)) for e in (c_expr, diff(c_expr, "A")))
        edge = 1e-9 * p.k
        for lo, hi in ((edge, p.k - edge), (p.k + edge, 3.0 * p.k)):
            want = reference_scan_roots(c, dc, lo, hi, 4000)
            got = [(r, dbl) for r, dbl, _, _ in _real_roots(c, dc, lo, hi,
                                                            4000)]
            assert got == want, (p, lo, hi)
            found += len(want)
            doubles += sum(dbl for _, dbl in want)
    assert found > 40 and doubles == 10


def test_close_pairs_keep_the_resolved_values():
    # gamma = -2e (1 - delta): two roots near 1 -+ sqrt(delta); the
    # reference resolves the pairs wider than about one scan cell (0.015)
    resolved = 0
    for j in range(400):
        delta = 10.0 ** (-7.0 + 5.0 * j / 399.0)
        cl = CanonicalLinear(0.0, 3.0, -2.0 * math.e * (1.0 - delta), 1.0)
        got = characteristic_roots(cl, (-3, 3))
        assert len(got) == 2
        want = reference_characteristic_roots(cl, (-3, 3))
        if len(want) == 2:
            assert got == want
            resolved += 1
    assert resolved == 208

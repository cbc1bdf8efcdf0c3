import math

import numpy as np
import pytest

from dodesym import expr
from dodesym.symmetry import lie_bracket


def bisect_root(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection, used as an independent oracle in several tests."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or (hi - lo) < 1e-16 * max(1.0, abs(mid)):
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def jacobi_sum(fields, params=None, seed: int = 42) -> float:
    """The largest |xi| or |eta| of the cyclic double-bracket sum
    [[a, b], c] + [[b, c], a] + [[c, a], b] of fields = (a, b, c), params
    bound, at 50 points of the box (0.5, 2.5)^2 drawn from seed, one
    compile_fn call per point.  The Jacobi identity makes it zero."""
    a, b, c = fields
    t = [lie_bracket(lie_bracket(a, b), c),
         lie_bracket(lie_bracket(b, c), a),
         lie_bracket(lie_bracket(c, a), b)]
    fns = [expr.compile_fn(expr.bind_params(expr.simplify(s), params or {}),
                           ("x", "y"))
           for s in (t[0].xi + t[1].xi + t[2].xi,
                     t[0].eta + t[1].eta + t[2].eta)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        x, y = float(rng.uniform(0.5, 2.5)), float(rng.uniform(0.5, 2.5))
        worst = max(worst, abs(fns[0](x, y)), abs(fns[1](x, y)))
    return worst


@pytest.fixture
def char_root_0011() -> float:
    """Positive root of lam^2 e^lam = 1, computed independently."""
    return bisect_root(lambda t: t * t * math.exp(t) - 1.0, 0.1, 2.0)


@pytest.fixture(autouse=True)
def empty_kernel_memo():
    """Every test starts with an empty kernel memo, so no test depends on
    kernels an earlier one left behind, nor on the order tests run in."""
    expr._memo_clear()

import math

import pytest

from dodesym import expr


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


@pytest.fixture
def char_root_0011() -> float:
    """Positive root of lam^2 e^lam = 1, computed independently."""
    return bisect_root(lambda t: t * t * math.exp(t) - 1.0, 0.1, 2.0)


@pytest.fixture(autouse=True)
def empty_kernel_memo():
    """Every test starts with an empty kernel memo, so no test depends on
    kernels an earlier one left behind, nor on the order tests run in."""
    expr._memo_clear()

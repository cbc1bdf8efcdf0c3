"""Step-size study for the method-of-steps integrator.

Solves y'' = y(x - 1) from a sine history and prints the observed error
at x = 2 against a Richardson-extrapolated reference for a ladder of
step sizes, together with the local convergence order.  The ladder stops
at h = 0.01: below it the error reaches the accuracy of the reference
(about 1e-13) and its ratios no longer measure the order.  Exits 1 when
an observed order falls outside [3.9, 4.1], the range of a fourth-order
method.

Usage: python scripts/convergence_study.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dodesym.dods import DodsSystem  # noqa: E402
from dodesym.expr import parse  # noqa: E402
from dodesym.integrate import HistoryFunction, solve  # noqa: E402


def main() -> int:
    system = DodsSystem(f=parse("ym"), g=parse("x-1"))
    phi = HistoryFunction.from_text("sin(x)", (-1.0, 0.0))

    def value(h):
        return solve(system, phi, "from-phi", 2.0, h).interpolate(2.0)[0]

    ref = (16.0 * value(0.000625) - value(0.00125)) / 15.0
    steps = [0.04, 0.02, 0.01]
    errors = [abs(value(h) - ref) for h in steps]
    print(f"{'h':>10s} {'error at x=2':>15s} {'order':>8s}")
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for h, err, order in zip(steps, errors, [None] + orders):
        shown = "" if order is None else f"{order:8.3f}"
        print(f"{h:10.5f} {err:15.3e} {shown:>8s}")
    if not all(3.9 <= order <= 4.1 for order in orders):
        print("observed order outside [3.9, 4.1]")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

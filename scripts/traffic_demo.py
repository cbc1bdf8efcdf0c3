"""Run the three worked car-following examples end to end.

For each example: build the two-car system, verify its generator(s),
solve the amplitude constraint where one exists, and compare the exact
invariant solution against the method-of-steps integration.  Finishes
with a three-car platoon riding the example-1 invariant configuration.

Usage: python scripts/traffic_demo.py [--h 1e-3]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dodesym import expr as E  # noqa: E402
from dodesym import traffic  # noqa: E402
from dodesym.dods import check_invariance  # noqa: E402
from dodesym.integrate import HistoryFunction  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--h", type=float, default=1e-3)
    args = parser.parse_args()

    for example_id in (1, 2, 3):
        p = traffic.example_params(example_id)
        system = traffic.example_system(example_id, p)
        print(f"--- example {example_id} ---")
        law = traffic.bound_system(system).f
        print(f"acceleration law: {E.to_text(law)}")
        for fld in traffic.example_algebra(example_id, p):
            report = check_invariance(system, fld, n=200, tol=1e-9)
            print(f"  {report.summary()}")
        if example_id == 1:
            amplitude = -1.0
            t_end = 5.0 * p.tau
        else:
            result = traffic.solve_constraint(example_id, p)
            for root in result.roots:
                tag = "admissible" if root.admissible else "collision"
                extra = " (double)" if root.double else ""
                print(f"  amplitude A = {root.A:.12g} [{tag}]{extra}")
            amplitude = result.admissible_roots[0].A
            t_end = 4.0 if example_id == 2 else 3.0 * p.tau
        dev = traffic.compare_exact_vs_numeric(example_id, p, t_end=t_end,
                                               h=args.h, A=amplitude)
        print(f"  exact vs numeric deviation over the run: {dev:.3e}")

    print("--- three-car platoon, drifting configuration ---")
    p = traffic.example_params(1)
    hists = [HistoryFunction(E.parse(f"x - {a}"), (-p.tau, 0.0))
             for a in (1.0, 2.0, 3.0)]
    state = traffic.simulate_platoon(p, 3, hists, t_end=3.0, h=args.h)
    for i, traj in enumerate(state.trajectories, start=1):
        drift = max(abs(y - (x - i)) for x, y in zip(traj.xs, traj.ys))
        print(f"  car {i}: offset drift {drift:.3e}")
    print(f"  collisions: {state.collisions or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: verify, bracket, rank, catalog, integrate, roots, reduce,
traffic.  Exit codes: 0 success; 1 a check failed or the library rejected
its input (stdout line `error: <Type>: <msg>`); 2 usage error; 3 any
other exception, a bug, with its traceback on stderr.  All random
sampling is seeded (default 42), so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import traceback

from . import expr as E
from .dods import DodsSystem, check_invariance, load_dods
from .symmetry import ClosureError, VectorField, check_closure, invariant_count

CHECK_FAIL = 1  # argparse itself exits 2 on usage errors
CRASH = 3
#: what failed checks, bad input and missing files raise, by module and
#: class name; anything else is a bug
KNOWN_ERRORS = {
    "builtins": ("ValueError", "OSError"),
    "dodesym.expr": ("ExprError",),
    "dodesym.symmetry": ("SymmetryError",),
    "dodesym.dods": ("DodsError",),
    "dodesym.catalog": ("CatalogError",),
    "dodesym.integrate": ("IntegrationError",),
    "dodesym.linear": ("LinearError",),
    "dodesym.reduce": ("ReduceError",),
    "dodesym.traffic": ("TrafficError",),
}


def _known_errors() -> tuple[type[Exception], ...]:
    """The KNOWN_ERRORS classes of the modules loaded so far: each command
    imports the modules it runs, and a module not loaded raised nothing."""
    return tuple(getattr(sys.modules[module], name)
                 for module, names in KNOWN_ERRORS.items()
                 if sys.modules.get(module) is not None for name in names)


def _field_spec(text: str) -> tuple[str, str]:
    """(xi, eta) of an 'xi;eta' field spec; its expressions are parsed
    by the command, so that a malformed one is a failed check."""
    xi, sep, eta = text.partition(";")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"field spec must look like 'xi;eta', got '{text}'")
    return xi.strip(), eta.strip()


def _param(text: str) -> tuple[str, str]:
    """(name, value) of a name=value pair; the command converts the value."""
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"needs name=value, got '{text}'")
    return name.strip(), value


def _params_from_args(pairs: list[tuple[str, str]] | None) -> dict[str, float]:
    return {name: float(value) for name, value in pairs or []}


def _pair(text: str) -> tuple[float, float]:
    a, _, b = text.partition(",")
    return float(a), float(b)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _system(args) -> DodsSystem:
    """The system file of args.system with its --param values applied."""
    system = load_dods(_read(args.system))
    system.params.update(_params_from_args(args.param))
    return system


def cmd_verify(args) -> int:
    system = _system(args)
    system.validate()
    fld = VectorField.from_text(*args.field)
    report = check_invariance(system, fld, n=args.n, seed=args.seed)
    print(report.summary())
    print(f"worst point: {_fmt_point(report.worst_point)}")
    return 0 if report.passed else CHECK_FAIL


def _fmt_point(point: dict) -> str:
    return ", ".join(f"{k}={v:.6g}" for k, v in point.items())


def cmd_bracket(args) -> int:
    fields = [VectorField.from_text(*s) for s in args.fields]
    params = _params_from_args(args.param)
    try:
        result = check_closure(fields, params=params, seed=args.seed)
    except ClosureError as exc:
        print(f"FAIL: {exc}")
        return CHECK_FAIL
    print(f"closed under commutation; span residual {result.residual:.3e}")
    for (i, j), coeffs in sorted(result.constants.items()):
        pretty = ", ".join(f"{c:.10g}" for c in coeffs)
        print(f"[X{i + 1}, X{j + 1}] = ({pretty}) . basis")
    return 0


def cmd_rank(args) -> int:
    fields = [VectorField.from_text(*s) for s in args.fields]
    params = _params_from_args(args.param)
    report = invariant_count(fields, params=params, seed=args.seed)
    print(f"dim M = {report.dim_m}")
    print(f"rank Z = {report.rank_z}")
    print(f"invariant count k = {report.k}")
    return 0


def cmd_catalog(args) -> int:
    from . import catalog as catalog_mod

    if args.action == "list":
        for entry in catalog_mod.list_entries():
            print(entry.summary())
        return 0
    if args.action == "export":
        path = args.id or "catalog.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(catalog_mod.export_text())
        print(f"wrote {len(catalog_mod.list_entries())} entries to {path}")
        return 0
    if not args.id:
        _parser().error(f"catalog {args.action} needs an entry id")
    entry = catalog_mod.get_entry(args.id)
    if args.action == "show":
        print(f"entry {entry.id} ({entry.algebra_label})")
        for fld in entry.basis:
            print(f"  field {fld.label}: {fld.describe()}")
        if entry.has_system:
            print(f"  f template: {E.to_text(entry.f_template)}")
            print(f"  g template: {E.to_text(entry.g_template)}")
            for i, s in enumerate(entry.f_slots):
                print(f"  slot u{i + 1} = {E.to_text(s)}")
        if entry.notes:
            print(f"  notes: {entry.notes}")
        return 0
    if not entry.has_system:
        print(f"{entry.id} is a marker entry; nothing to check")
        return 0
    reports = catalog_mod.check_entry(entry.id, n=args.n, seed=args.seed)
    ok = True
    for r in reports:
        print(r.summary())
        ok = ok and r.passed
    return 0 if ok else CHECK_FAIL


def cmd_integrate(args) -> int:
    from .integrate import HistoryFunction, solve

    system = _system(args)
    phi = HistoryFunction(E.parse(args.phi), _pair(args.history))
    dy0 = args.dy0 if args.dy0 == "from-phi" else float(args.dy0)
    traj = solve(system, phi, dy0, args.to, args.h)
    csv = traj.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {len(traj.xs)} breakpoints to {args.out}")
    else:
        sys.stdout.write(csv)
    for w in traj.warnings:
        print(f"warning: {w}")
    return 0


def cmd_roots(args) -> int:
    from .linear import (CanonicalLinear, characteristic_roots,
                         verify_exponential_solution)

    window = _pair(args.range)
    cl = CanonicalLinear(args.alpha, args.beta, args.gamma, args.C)
    roots = characteristic_roots(cl, window, n_seed=args.nseed)
    if not roots:
        print("no real roots in the window")
        return 0
    for r in roots:
        resid = verify_exponential_solution(cl, r)
        print(f"lambda = {r:.12g}   exponential-solution residual {resid:.3e}")
    return 0


def cmd_reduce(args) -> int:
    from . import reduce as reduce_mod

    system = _system(args)
    system.validate()
    fld = VectorField.from_text(*args.field)
    pair = reduce_mod.invariants_of(fld, params=system.params)
    print(f"J1 = {E.to_text(pair.J1)}")
    print(f"J2 = {E.to_text(pair.J2)}")
    sol = reduce_mod.reduce_and_solve(
        system, fld, pair,
        guesses=[_pair(g) for g in args.guess] if args.guess else None,
        interval=_pair(args.interval) if args.interval else None,
        seed=args.seed)
    print(f"h(x) = {E.to_text(sol.h)}")
    print(f"k(x) = {E.to_text(sol.k)}")
    print(sol.summary())
    return 0


def cmd_traffic(args) -> int:
    from . import traffic as traffic_mod

    if args.scenario:
        return _traffic_scenario(args)
    overrides = {}
    for name in ("alpha", "n1", "n2", "tau", "q", "v", "k", "n", "epsilon",
                 "beta"):
        value = getattr(args, name if name != "n" else "npow")
        if value is not None:
            overrides[name] = value
    p = traffic_mod.example_params(args.example, **overrides)
    system = traffic_mod.example_system(args.example, p)
    bound = traffic_mod.bound_system(system)
    print(f"example {args.example}: ddy = {E.to_text(bound.f)}")
    print(f"            delay: xm = {E.to_text(bound.g)}")
    ok = True
    for fld in traffic_mod.example_algebra(args.example, p):
        r = check_invariance(system, fld, n=args.n, seed=args.seed, tol=1e-9)
        print(r.summary())
        ok = ok and r.passed

    a_value = args.A
    if args.example in (2, 3):
        result = traffic_mod.solve_constraint(args.example, p)
        print(f"constraint constants: B = {result.B:.12g}")
        for root in result.roots:
            flags = []
            if root.double:
                flags.append("double root")
            flags.append("admissible" if root.admissible else
                         "collision (A >= leader scale)")
            extra = ""
            if root.verification is not None:
                extra = (f"  solution residual"
                         f" {root.verification.grid_residual:.3e}")
            print(f"  A = {root.A:.12g}  [{', '.join(flags)}]{extra}")
        if result.warning:
            print(f"warning: {result.warning}")
            ok = ok and bool(args.allow_collision_regime)
        adm = result.admissible_roots
        if a_value is None and adm:
            a_value = adm[0].A
    if a_value is None and args.example == 1:
        a_value = -1.0

    if a_value is not None:
        t_end = args.tend if args.tend is not None else (
            4.0 if args.example == 2 else 5.0 * (p.tau or 1.0))
        deviation = traffic_mod.compare_exact_vs_numeric(
            args.example, p, t_end=t_end, h=args.h, A=a_value)
        threshold = 1e-9 if args.example == 1 else 1e-6
        verdict = "PASS" if deviation < threshold else "FAIL"
        print(f"exact vs numeric deviation = {deviation:.3e}"
              f" ({verdict}, threshold {threshold:.0e})")
        ok = ok and deviation < threshold
    return 0 if ok else CHECK_FAIL


def _traffic_scenario(args) -> int:
    from . import traffic as traffic_mod

    params, n_cars, histories, t_end, h = traffic_mod.load_scenario(
        _read(args.scenario))
    state = traffic_mod.simulate_platoon(params, n_cars, histories, t_end, h)
    for i, traj in enumerate(state.trajectories, start=1):
        print(f"car {i}: {len(traj.xs)} breakpoints,"
              f" t in [{traj.x_start:.6g}, {traj.x_end:.6g}]")
        if args.out_prefix:
            path = f"{args.out_prefix}_car{i}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(traj.to_csv())
            print(f"  wrote {path}")
    if state.collisions:
        for car, t_c in state.collisions:
            print(f"collision: car {car} at t = {t_c:.6g}")
        return CHECK_FAIL
    print("no collisions")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser that reads a token starting with `-` as a value, not as an
    option, when it is a number or window (-3e-05, -.5, -3,3) or a field
    spec (-x;y).  Subparsers are built of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-.*;")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built once: parsing leaves it as it is."""
    parser = _Parser(
        prog="dodesym",
        description="symmetry analysis of second-order delay systems",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for all random sampling (default 42)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a field against a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--field", type=_field_spec, required=True,
                   help="'xi;eta'")
    p.add_argument("--param", type=_param, action="append", help="name=value")
    p.add_argument("--n", type=int, default=200)

    p = sub.add_parser("bracket", help="structure constants of a field list")
    p.add_argument("--fields", type=_field_spec, nargs="+", required=True)
    p.add_argument("--param", type=_param, action="append")

    p = sub.add_parser("rank", help="prolonged coefficient rank and k")
    p.add_argument("--fields", type=_field_spec, nargs="+", required=True)
    p.add_argument("--param", type=_param, action="append")

    p = sub.add_parser("catalog", help="list/show/check/export stored families")
    p.add_argument("action", choices=("list", "show", "check", "export"))
    p.add_argument("id", nargs="?")
    p.add_argument("--n", type=int, default=200)

    p = sub.add_parser("integrate", help="method-of-steps run, CSV output")
    p.add_argument("--system", required=True)
    p.add_argument("--phi", required=True, help="history expression in x")
    p.add_argument("--history", default="-1,0", help="history interval lo,hi")
    p.add_argument("--dy0", default="from-phi")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--param", type=_param, action="append")

    p = sub.add_parser("roots", help="real characteristic roots")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--range", required=True, help="lo,hi")
    p.add_argument("--nseed", type=int, default=400)

    p = sub.add_parser("reduce", help="group-invariant solution constants")
    p.add_argument("--system", required=True)
    p.add_argument("--field", type=_field_spec, required=True)
    p.add_argument("--guess", action="append", help="a,b (repeatable)")
    p.add_argument("--interval", help="lo,hi reference window")
    p.add_argument("--param", type=_param, action="append")

    p = sub.add_parser("traffic", help="run a car-following example pipeline")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--example", type=int, choices=(1, 2, 3))
    which.add_argument("--scenario", help="platoon scenario file")
    p.add_argument("--out-prefix", help="write per-car CSVs with this prefix")
    p.add_argument("--alpha", type=float)
    p.add_argument("--n1", type=float)
    p.add_argument("--n2", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--npow", type=float, help="exponent n (example 3)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--A", type=float)
    p.add_argument("--tend", type=float)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--allow-collision-regime", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up by name at call time, so that a command function
        # replaced on this module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except _known_errors() as exc:  # diagnostics to stdout, failure exit code
        print(f"error: {type(exc).__name__}: {exc}")
        return CHECK_FAIL
    except Exception:
        traceback.print_exc()
        return CRASH


if __name__ == "__main__":
    sys.exit(main())

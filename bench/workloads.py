"""Seeded workloads for the dodesym benchmark, and the known answers they check.

A workload is a stream of rounds.  Round r of a workload is a list of
requests made from (seed, r) alone: plain numbers and strings, nothing
built by the library.  Each request is one *answer* -- one user question
run to its verdict -- except the catalog text round trip, which is a
per-round check that is gated but not timed as an answer.

Every request carries the known answer it must reproduce (`expect`).  The
answer functions turn the inputs into library calls, collect the observed
facts (verdicts, residual maxima, counts, CLI exit codes and stdout), and
`gate` compares facts with expectations.  An answer that raises, or whose
facts differ from the known answer, is a failed answer; it never stops the
runner.

Workloads:

catalog-sweep    every catalog entry with a system, in catalog order; the
                 same 25 systems recur on every pass (repeated input, heavy
                 symbolic work per answer).
dense-verify     a stream of distinct systems (seeded traffic parameters
                 and constant-coefficient linear systems), each checked at
                 n=2000 (per-sample residual evaluation dominates).
steps-pipelines  method-of-steps solves of each delay kind, a platoon, an
                 exact-vs-numeric comparison, a reduction, characteristic
                 roots, and the same pipelines through the CLI.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from dodesym import catalog, cli, dods, integrate, linear, reduce, symmetry, traffic
from dodesym import expr as E
from dodesym.symmetry import VectorField

#: Catalog entries that carry a system, in catalog order, with their basis
#: size.  The invariant count of every entry is 7 - (basis size).
CATALOG_SYSTEMS = (
    ("A1_1", 1), ("A2_1", 2), ("A2_2", 2), ("A2_3", 2), ("A2_4", 2),
    ("A3_1", 3), ("A3_2a", 3), ("A3_8", 3), ("A3_11", 3), ("A3_13", 3),
    ("A3_15", 3), ("A4_1", 4), ("A4_8", 4), ("A4_11", 4), ("A4_20", 4),
    ("A5_1", 5), ("A5_6", 5), ("A5_8", 5), ("A6_2", 6), ("A6_3", 6),
    ("H3_DET", 4), ("S3_DET", 4), ("TRAFFIC_EX1", 1), ("TRAFFIC_EX2", 2),
    ("TRAFFIC_EX3", 1),
)

#: Every entry in the exported catalog text, systems and markers alike.
CATALOG_SIZE = 27

WORKLOADS = ("catalog-sweep", "dense-verify", "steps-pipelines")

#: Nominal seconds one round takes on a 2-core x86 host; a traced run uses
#: them to fix its round count from --seconds alone, so that its counts are
#: a function of the seed and --seconds and never of the host's speed.
NOMINAL_ROUND_S = {"catalog-sweep": 1.6, "dense-verify": 1.0,
                   "steps-pipelines": 0.6}


@dataclass(frozen=True)
class Request:
    kind: str
    inputs: dict
    expect: dict = field(default_factory=dict)
    answer: bool = True  # False: a per-round check, gated but not timed


class Context:
    """Where CLI pipelines write their seeded files."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir

    def path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p


# ---------------------------------------------------------------------------
# generators: plain data from (seed, round)


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def requests(workload: str, seed: int, r: int) -> list[Request]:
    """Round r of a workload; the same (seed, r) gives the same requests."""
    rng = _rng(seed, r)
    if workload == "catalog-sweep":
        return _catalog_round(rng)
    if workload == "dense-verify":
        return _dense_round(rng)
    if workload == "steps-pipelines":
        return _steps_round(rng)
    raise ValueError(f"unknown workload '{workload}'")


def _catalog_round(rng) -> list[Request]:
    pass_seed = _sub_seed(rng)
    out = [
        Request("catalog_entry", {"entry_id": eid, "n": 200, "seed": pass_seed},
                {"verdicts": "PASS", "invariant_count": 7 - nb,
                 "closure": "closed" if nb > 1 else "single field"})
        for eid, nb in CATALOG_SYSTEMS
    ]
    out.append(Request("catalog_roundtrip", {},
                       {"entries": CATALOG_SIZE, "same_text": True},
                       answer=False))
    return out


def _traffic_inputs(rng, example: int) -> dict:
    if example == 1:
        params = {"alpha": _u(rng, 0.5, 2.0), "tau": _u(rng, 0.3, 1.0),
                  "v": _u(rng, 0.8, 1.5)}
    elif example == 2:
        params = {"n1": _u(rng, 1.5, 3.0), "q": _u(rng, 0.2, 0.6),
                  "k": _u(rng, 2.0, 6.0), "beta": _u(rng, -0.5, 0.5)}
    else:
        params = {"alpha": _u(rng, 0.5, 1.5), "n": _u(rng, 1.5, 3.0),
                  "epsilon": _u(rng, 0.3, 0.8), "tau": _u(rng, 0.5, 1.5),
                  "k": _u(rng, 1.0, 2.0)}
    return {"example": example, "params": params, "n": 2000,
            "seed": _sub_seed(rng), "perturbation": _u(rng, 0.05, 0.2)}


def _signed(rng, lo: float, hi: float) -> float:
    return _u(rng, lo, hi) * (1.0 if rng.uniform() < 0.5 else -1.0)


def _linear_inputs(rng) -> dict:
    return {"alpha": _signed(rng, 0.2, 1.0), "beta": _u(rng, -1.0, 1.0),
            "gamma": _signed(rng, 0.2, 1.0), "C": _u(rng, 0.3, 1.0),
            "n": 2000, "seed": _sub_seed(rng),
            "perturbation": _u(rng, 0.05, 0.2)}


def _dense_round(rng) -> list[Request]:
    verdicts = {"basis": "PASS", "perturbed": "FAIL"}
    out = [Request("traffic_invariance", _traffic_inputs(rng, ex), verdicts)
           for ex in (1, 2, 3)]
    out += [Request("linear_invariance", _linear_inputs(rng),
                    {**verdicts, "extra_symmetry": "found", "xi": "constant"})
            for _ in range(3)]
    return out


def _steps_round(rng) -> list[Request]:
    def ex1():
        return {"alpha": _u(rng, 0.5, 2.0), "tau": _u(rng, 0.3, 1.0),
                "v": _u(rng, 0.8, 1.5)}

    solve_kinds = {
        "constant": {"a": _u(rng, 0.5, 1.5), "b": _u(rng, 0.1, 0.5),
                     "tau": _u(rng, 0.5, 1.0), "c0": _u(rng, 0.5, 1.5),
                     "c1": _u(rng, 0.2, 1.0), "x_end": 3.0, "h": 0.005},
        "independent": {"a": _u(rng, 0.5, 1.5), "b": _u(rng, 0.1, 0.5),
                        "q": _u(rng, 0.3, 0.6), "c0": _u(rng, 0.5, 1.5),
                        "c1": _u(rng, 0.2, 1.0), "x_end": 3.0, "h": 0.005},
        "state": {"a": _u(rng, 0.5, 1.5), "e": _u(rng, 0.05, 0.15),
                  "c0": _u(rng, 0.5, 1.5), "c1": _u(rng, 0.2, 1.0),
                  "x_end": 2.0, "h": 0.01},
    }
    # |y'' - f| of the dense output; breakpoints are aligned only for a
    # constant delay, so the pantograph run carries an O(h) error where
    # x = 1/q (at most 2.3e-4 over 1900 seeded runs)
    residual_bounds = {"constant": 1e-4, "independent": 1e-3, "state": 1e-3}
    out = [
        Request("solve", {"kind": kind, **spec, "seed": _sub_seed(rng)},
                {"residual_dode": ("<", residual_bounds[kind]),
                 "residual_delay": ("<", 1e-9)})
        for kind, spec in solve_kinds.items()
    ]
    platoon = {**ex1(), "cars": 10, "spacing": _u(rng, 1.5, 2.5),
               "jitter": [_u(rng, -0.03, 0.03) for _ in range(10)],
               "t_end": 5.0, "h": 0.01}
    out.append(Request("platoon", platoon, {"collisions": 0, "cars_run": 10}))
    out.append(Request("exact_vs_numeric", {**ex1(), "A": _u(rng, -2.0, -0.5),
                                            "t_end": 5.0, "h": 0.01},
                       {"deviation": ("<", 1e-9)}))
    out.append(Request(
        "reduce",
        {"alpha": _u(rng, 0.5, 1.5), "epsilon": _u(rng, 0.3, 0.7),
         "tau": _u(rng, 0.5, 1.2), "k": _u(rng, 1.0, 2.0),
         "interval": [2.0, 2.5], "h": 0.01, "seed": _sub_seed(rng)},
        {"A_error": ("<", 1e-9), "B_error": ("<", 1e-11),
         "grid_residual": ("<", 1e-10), "integrate_deviation": ("<", 1e-6)}))
    roots = {"alpha": _u(rng, -0.5, 0.5), "beta": _u(rng, 0.5, 1.5),
             "gamma": _u(rng, -0.3, 0.3), "C": _u(rng, 0.3, 1.0),
             "range": [-3.0, 3.0]}
    out.append(Request("roots", roots, {"positive_root": True,
                                        "exp_residual": ("<", 1e-10)}))
    # the same pipelines through the command line
    cli_seed = _sub_seed(rng) % 100000
    out.append(Request("cli_integrate", {**solve_kinds["constant"],
                                         "kind": "constant",
                                         "cli_seed": cli_seed},
                       {"exit": 0, "rows_match": True}))
    out.append(Request("cli_integrate", {**solve_kinds["state"], "kind": "state",
                                         "cli_seed": cli_seed},
                       {"exit": 0, "rows_match": True}))
    auto = {"a": _u(rng, 0.5, 1.5), "b": _u(rng, 0.1, 0.5),
            "tau": _u(rng, 0.5, 1.0), "cli_seed": cli_seed}
    out.append(Request("cli_verify", {**auto, "field": "1;0"},
                       {"exit": 0, "verdict": "PASS"}))
    out.append(Request("cli_verify", {**auto, "field": "1;0.1*x^2"},
                       {"exit": 1, "verdict": "FAIL"}))
    out.append(Request("cli_traffic", {**ex1(), "t_end": 3.0, "h": 0.01,
                                       "cli_seed": cli_seed},
                       {"exit": 0, "verdicts": "PASS"}))
    out.append(Request("cli_platoon", {**platoon, "cars": 4,
                                       "jitter": platoon["jitter"][:4],
                                       "cli_seed": cli_seed},
                       {"exit": 0, "collisions": "no collisions"}))
    out.append(Request("cli_reduce", {**ex1(), "interval": [2.2, 2.4],
                                      "cli_seed": cli_seed},
                       {"exit": 0, "free": "A", "B_error": ("<", 1e-11)}))
    out.append(Request("cli_roots", {**roots, "cli_seed": cli_seed},
                       {"exit": 0, "exp_residual": ("<", 1e-10)}))
    return out


# ---------------------------------------------------------------------------
# answers: generated inputs -> library calls -> observed facts


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _all(verdicts) -> str:
    verdicts = list(verdicts)
    return "PASS" if all(v == "PASS" for v in verdicts) else ",".join(verdicts)


def _catalog_entry(inp, ctx):
    eid, seed = inp["entry_id"], inp["seed"]
    reports = catalog.check_entry(eid, n=inp["n"], seed=seed)
    closure = catalog.verify_entry_closure(eid, seed=seed)
    entry = catalog.get_entry(eid)
    z = symmetry.invariant_count(list(entry.basis), params=entry.default_params,
                                 seed=seed)
    return {
        "verdicts": _all(_verdict(r.passed) for r in reports),
        "residuals": [(r.max_residual_dode, r.max_residual_delay)
                      for r in reports],
        "closure": "single field" if closure is None else "closed",
        "closure_residual": None if closure is None else closure.residual,
        "invariant_count": z.k,
    }


def _entry_text(e) -> tuple:
    """Every exported field of an entry, expressions as re-parsed text.

    An exported constant such as -1 parses back as a negation node of the
    same value, so expressions are compared after one parse of their text.
    second_order_minor is not part of the export format and is left out.
    """
    def text(x):
        return None if x is None else E.to_text(E.parse(E.to_text(x)))

    return (e.id, e.algebra_label,
            tuple((text(f.xi), text(f.eta)) for f in e.basis),
            text(e.f_template), text(e.g_template),
            tuple(text(s) for s in e.f_slots),
            tuple(text(s) for s in e.g_slots),
            text(e.default_f), text(e.default_g),
            tuple(sorted(e.default_params.items())), e.constraints,
            tuple(sorted(e.box.items())), e.delay_kind.value, e.notes)


def _catalog_roundtrip(inp, ctx):
    text = catalog.export_text()
    back = catalog.parse_catalog_text(text)
    original = [_entry_text(e) for e in catalog.list_entries()]
    return {"entries": len(back),
            "same_text": [_entry_text(e) for e in back] == original,
            "bytes": len(text)}


def _perturbed(f: VectorField, amp: float) -> VectorField:
    eta = E.simplify(f.eta + E.Const(amp) * E.X ** E.Const(2.0))
    return VectorField(f.xi, eta, label="perturbed")


def _invariance_facts(system, basis, inp) -> dict:
    n, seed = inp["n"], inp["seed"]
    reports = [dods.check_invariance(system, f, n=n, seed=seed + i)
               for i, f in enumerate(basis)]
    bad = dods.check_invariance(system, _perturbed(basis[0], inp["perturbation"]),
                                n=n, seed=seed + len(basis))
    return {
        "basis": _all(_verdict(r.passed) for r in reports),
        "perturbed": _verdict(bad.passed),
        "residuals": [(r.max_residual_dode, r.max_residual_delay)
                      for r in reports + [bad]],
    }


def _traffic_invariance(inp, ctx):
    ex = inp["example"]
    p = traffic.example_params(ex, **inp["params"])
    system = traffic.example_system(ex, p)
    return _invariance_facts(system, traffic.example_algebra(ex, p), inp)


def _canonical(inp) -> linear.CanonicalLinear:
    return linear.CanonicalLinear(inp["alpha"], inp["beta"], inp["gamma"],
                                  inp["C"])


def _linear_invariance(inp, ctx):
    lin = _canonical(inp).to_linear()
    # the scaling is the known basis; translation is what the detector finds
    basis = [VectorField(E.Const(0.0), E.Y, label="y d/dy")]
    facts = _invariance_facts(lin.to_dods(), basis, inp)
    extra = linear.detect_extra_symmetry(lin)
    facts["extra_symmetry"] = "found" if extra is not None else "none"
    facts["xi"] = ("constant" if extra is not None and extra.xi_is_constant
                   else "varying")
    if extra is not None and extra.field is not None:
        facts["extra_field"] = extra.field.describe()
    return facts


def _solve_system_text(inp) -> tuple[str, str, tuple[float, float]]:
    """System file text, history phi and history interval."""
    kind = inp["kind"]
    if kind == "constant":
        f = f"-{inp['a']!r}*ym - {inp['b']!r}*dy"
        g = f"x - {inp['tau']!r}"
        hist = (-inp["tau"], 0.0)
    elif kind == "independent":
        f = f"-{inp['a']!r}*ym + {inp['b']!r}*dym"
        g = f"{inp['q']!r}*x"
        hist = (inp["q"], 1.0)
    else:
        f = f"-{inp['a']!r}*ym"
        g = f"x - 1 - {inp['e']!r}*sin(y)"
        hist = (-1.0 - 2.0 * inp["e"] - 0.1, 0.0)
    text = f"f = {f}\ng = {g}\ndelay = {kind}\n"
    phi = f"{inp['c0']!r} + {inp['c1']!r}*sin(x)"
    return text, phi, hist


def _solve(inp, ctx):
    text, phi, hist = _solve_system_text(inp)
    system = dods.load_dods(text)
    traj = integrate.solve(system, integrate.HistoryFunction.from_text(phi, hist),
                           "from-phi", inp["x_end"], inp["h"])
    res = integrate.residual_on_trajectory(system, traj, n=200, seed=inp["seed"])
    return {"residual_dode": res.max_residual_dode,
            "residual_delay": res.max_residual_delay,
            "steps": len(traj.xs) - 1, "y_end": traj.ys[-1],
            "fallbacks": traj.n_fixed_point_fallbacks}


def _platoon_histories(inp) -> list[str]:
    v = inp["v"]
    return [f"{v * (1.0 + j)!r}*x - {(i + 1) * inp['spacing']!r}"
            for i, j in enumerate(inp["jitter"])]


def _ex1_params(inp) -> traffic.TrafficParams:
    return traffic.example_params(1, alpha=inp["alpha"], tau=inp["tau"],
                                  v=inp["v"])


def _platoon(inp, ctx):
    p = _ex1_params(inp)
    hist = [integrate.HistoryFunction.from_text(h, (-inp["tau"], 0.0))
            for h in _platoon_histories(inp)]
    state = traffic.simulate_platoon(p, inp["cars"], hist, inp["t_end"],
                                     inp["h"])
    return {"collisions": len(state.collisions),
            "cars_run": len(state.trajectories),
            "y_end": [t.ys[-1] for t in state.trajectories]}


def _exact_vs_numeric(inp, ctx):
    dev = traffic.compare_exact_vs_numeric(1, _ex1_params(inp), t_end=inp["t_end"],
                                           h=inp["h"], A=inp["A"])
    return {"deviation": dev}


def _reduce(inp, ctx):
    p = traffic.example_params(3, alpha=inp["alpha"], n=2.0,
                               epsilon=inp["epsilon"], tau=inp["tau"],
                               k=inp["k"])
    system = traffic.example_system(3, p)
    fld = traffic.example_symmetry(3, p)
    pair = reduce.invariants_of(fld)
    closed = p.k / (1.0 + p.alpha * p.epsilon * math.exp(p.epsilon * p.tau))
    interval = tuple(inp["interval"])
    # A = 0 (the follower at rest) also solves the reduced equations, and
    # A = k is singular; start between them, near the admissible root.
    sol = reduce.reduce_and_solve(system, fld, pair,
                                  guesses=[(closed * 0.9, p.tau * 0.8)],
                                  interval=interval, seed=inp["seed"])
    check = reduce.verify_invariant_solution(system, sol, interval,
                                             h_step=inp["h"])
    return {"A": sol.A, "B": sol.B, "A_error": abs(sol.A - closed),
            "B_error": abs(sol.B - p.tau),
            "grid_residual": check.grid_residual,
            "integrate_deviation": check.integrate_deviation}


def _roots(inp, ctx):
    cl = _canonical(inp)
    found = linear.characteristic_roots(cl, tuple(inp["range"]))
    residuals = [linear.verify_exponential_solution(cl, lam) for lam in found]
    return {"roots": found, "positive_root": any(lam > 0 for lam in found),
            "exp_residual": max(residuals, default=math.inf)}


def _num(name: str, value) -> str:
    """A numeric option in --name=value form: argparse would take a
    separate value such as -3e-05 for an option name."""
    return f"--{name}={value!r}"


def _run_cli(args: list[str], ctx) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # usage errors end the command line run
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().replace(ctx.tmpdir, "<tmp>")


def _cli_integrate(inp, ctx):
    text, phi, hist = _solve_system_text(inp)
    kind = inp["kind"]
    sys_path = ctx.write(f"integrate_{kind}.txt", text)
    csv_path = ctx.path(f"integrate_{kind}.csv")
    code, out = _run_cli(
        ["--seed", str(inp["cli_seed"]), "integrate", "--system", sys_path,
         "--phi", phi, f"--history={hist[0]!r},{hist[1]!r}",
         _num("to", inp["x_end"]), _num("h", inp["h"]), "--out", csv_path],
        ctx)
    m = re.search(r"wrote (\d+) breakpoints", out)
    with open(csv_path, encoding="utf-8") as fh:
        rows = len(fh.read().splitlines()) - 1
    return {"exit": code, "stdout": out,
            "rows_match": m is not None and int(m.group(1)) == rows}


def _cli_verify(inp, ctx):
    text = (f"f = -{inp['a']!r}*ym - {inp['b']!r}*dy\n"
            f"g = x - {inp['tau']!r}\ndelay = constant\n")
    path = ctx.write("verify.txt", text)
    code, out = _run_cli(["--seed", str(inp["cli_seed"]), "verify", "--system",
                          path, "--field", inp["field"]], ctx)
    return {"exit": code, "stdout": out, "verdict": out.split(" ", 1)[0]}


def _verdict_lines(out: str) -> str:
    found = re.findall(r"^(PASS|FAIL)\b", out, flags=re.M)
    found += re.findall(r"\((PASS|FAIL), threshold", out)
    return _all(found) if found else "none"


def _cli_traffic(inp, ctx):
    code, out = _run_cli(
        ["--seed", str(inp["cli_seed"]), "traffic", "--example", "1",
         _num("alpha", inp["alpha"]), _num("tau", inp["tau"]),
         _num("v", inp["v"]), _num("tend", inp["t_end"]),
         _num("h", inp["h"])], ctx)
    return {"exit": code, "stdout": out, "verdicts": _verdict_lines(out)}


def _cli_platoon(inp, ctx):
    lines = [f"leader = {inp['v']!r}*t", f"alpha = {inp['alpha']!r}",
             "n1 = 1", "n2 = 1", f"tau = {inp['tau']!r}",
             f"cars = {inp['cars']}", f"t_end = {inp['t_end']!r}",
             f"h = {inp['h']!r}"]
    lines += [f"history.{i + 1} = {h.replace('x', 't')}"
              for i, h in enumerate(_platoon_histories(inp))]
    path = ctx.write("platoon.txt", "\n".join(lines) + "\n")
    code, out = _run_cli(["--seed", str(inp["cli_seed"]), "traffic",
                          "--scenario", path], ctx)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    return {"exit": code, "stdout": out, "collisions": last}


def _cli_reduce(inp, ctx):
    # The follower law of example 1 without the headway division (n2 = 0):
    # a system file carries no sampling box, and on the default box the
    # headway v*xm - ym crosses zero, where the n=80 symmetry pre-check can
    # exceed its 1e-8 tolerance through rounding alone.
    a, v, tau = inp["alpha"], inp["v"], inp["tau"]
    text = (f"f = {a!r}*dy*({v!r} - dym)\n"
            f"g = x - {tau!r}\ndelay = constant\n")
    path = ctx.write("reduce.txt", text)
    lo, hi = inp["interval"]
    code, out = _run_cli(["--seed", str(inp["cli_seed"]), "reduce", "--system",
                          path, "--field", f"1;{v!r}",
                          f"--interval={lo!r},{hi!r}"], ctx)
    m = re.search(r"B = (\S+),.*free: (\S+)", out)
    return {"exit": code, "stdout": out,
            "free": m.group(2) if m else "none",
            "B_error": abs(float(m.group(1)) - tau) if m else math.inf}


def _cli_roots(inp, ctx):
    lo, hi = inp["range"]
    code, out = _run_cli(
        ["--seed", str(inp["cli_seed"]), "roots", _num("alpha", inp["alpha"]),
         _num("beta", inp["beta"]), _num("gamma", inp["gamma"]),
         _num("C", inp["C"]), f"--range={lo!r},{hi!r}"], ctx)
    residuals = [float(s) for s in re.findall(r"residual (\S+)", out)]
    return {"exit": code, "stdout": out,
            "exp_residual": max(residuals, default=math.inf)}


ANSWERS = {
    "catalog_entry": _catalog_entry,
    "catalog_roundtrip": _catalog_roundtrip,
    "traffic_invariance": _traffic_invariance,
    "linear_invariance": _linear_invariance,
    "solve": _solve,
    "platoon": _platoon,
    "exact_vs_numeric": _exact_vs_numeric,
    "reduce": _reduce,
    "roots": _roots,
    "cli_integrate": _cli_integrate,
    "cli_verify": _cli_verify,
    "cli_traffic": _cli_traffic,
    "cli_platoon": _cli_platoon,
    "cli_reduce": _cli_reduce,
    "cli_roots": _cli_roots,
}


# ---------------------------------------------------------------------------
# the known-answer gate


def gate(facts: dict, expect: dict) -> list[str]:
    """Mismatches between observed facts and the known answer."""
    bad = []
    for key, want in expect.items():
        got = facts.get(key)
        if isinstance(want, tuple):
            op, bound = want
            ok = (op == "<" and isinstance(got, (int, float))
                  and not math.isnan(got) and got < bound)
            if not ok:
                bad.append(f"{key}={got!r} not {op} {bound!r}")
        elif got != want:
            bad.append(f"{key}={got!r}, expected {want!r}")
    return bad


@dataclass
class Outcome:
    ok: bool
    facts: dict
    problems: list[str]


def attempt(req: Request, ctx: Context) -> Outcome:
    """Run one request to its verdict; a raised error is a failed answer."""
    try:
        facts = ANSWERS[req.kind](req.inputs, ctx)
    except (Exception, SystemExit) as exc:  # any error is a wrong answer
        facts = {"error": f"{type(exc).__name__}: {exc}"}
        return Outcome(False, facts, [facts["error"]])
    problems = gate(facts, req.expect)
    return Outcome(not problems, facts, problems)


def digest_line(req: Request, out: Outcome) -> str:
    """Verdicts, residual maxima as repr and CLI stdout, for the answer digest."""
    return repr((req.kind, sorted(out.facts.items()), out.ok))

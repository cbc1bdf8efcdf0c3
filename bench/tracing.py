"""Tracing shim for the benchmark's traced runs; the library is not modified.

`Tracer.install` replaces dodesym's public functions with wrappers in every
dodesym module namespace that bound them (`from .expr import diff` makes a
second name for the same function, and each such name is replaced).  A
wrapper records a span -- name, parent span, start, end -- and keeps it in
memory until the run ends.  A function that re-enters itself, such as the
recursive `simplify`, records only its outermost span.

Hot callables are counted, not spanned: closures returned by `compile_fn`,
`Trajectory.interpolate`, state-dependent delay resolutions and their g
evaluations, and the samples `check_invariance` draws.

`PairLog` records the (system, field) pairs handed to `check_invariance`,
so a run can report which share of them it had already seen.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from dodesym import dods, expr, integrate

#: Public functions that get a span, by module.
SPANNED = {
    "expr": ("parse", "diff", "simplify", "compile_fn"),
    "symmetry": ("prolong", "lie_bracket", "check_closure", "invariant_count"),
    "dods": ("check_invariance",),
    "catalog": ("instantiate", "check_entry", "verify_entry_closure",
                "export_text", "parse_catalog_text"),
    "integrate": ("solve", "residual_on_trajectory"),
    "linear": ("characteristic_roots", "detect_extra_symmetry",
               "verify_exponential_solution"),
    "reduce": ("invariants_of", "reduce_and_solve", "verify_invariant_solution"),
    "traffic": ("simulate_platoon", "compare_exact_vs_numeric"),
    "cli": ("main",),
}

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    [(f"expr.{fn}.{what}", unit, "lower")
     for fn in ("parse", "diff", "simplify", "compile_fn")
     for what, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("symmetry.prolong.calls", "count", "lower"),
        ("symmetry.prolong.self_ms", "ms", "lower"),
        ("catalog.check_invariance_per_entry", "count", "lower"),
        ("catalog.instantiate.self_ms", "ms", "lower"),
        ("catalog.roundtrip_ms", "ms", "lower"),
        ("symmetry.check_closure.self_ms", "ms", "lower"),
        ("symmetry.invariant_count.self_ms", "ms", "lower"),
        ("symmetry.lie_bracket.calls", "count", "lower"),
        ("dods.check_invariance.calls", "count", "lower"),
        ("dods.check_invariance.self_ms", "ms", "lower"),
        ("dods.samples_drawn", "count", "lower"),
        ("dods.samples_accepted", "count", "higher"),
        ("dods.useful_sample_ratio", "ratio", "higher"),
        ("dods.per_sample_us", "us", "lower"),
        ("expr.compiled_evals", "count", "lower"),
        ("integrate.steps_per_s.constant", "1/s", "higher"),
        ("integrate.steps_per_s.independent", "1/s", "higher"),
        ("integrate.steps_per_s.state", "1/s", "higher"),
        ("integrate.g_evals_per_resolution", "count", "lower"),
        ("integrate.fallbacks", "count", "lower"),
        ("integrate.interpolate.calls", "count", "lower"),
        ("traffic.car_steps_per_s", "1/s", "higher"),
        ("traffic.simulate_platoon.self_ms", "ms", "lower"),
        ("reduce.reduce_and_solve.self_ms", "ms", "lower"),
        ("reduce.newton_evals", "count", "lower"),
        ("linear.characteristic_roots.self_ms", "ms", "lower"),
        ("linear.detect_extra_symmetry.self_ms", "ms", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_ms", "ms", "lower"),
        ("trace.symbolic_share", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("workload.repeated_input_share", "ratio", "higher"),
    ]
)


def _dodesym_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dodesym" or name.startswith("dodesym."))]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def everywhere(self, original, replacement) -> None:
        """Replace every dodesym module attribute bound to `original`."""
        for module in _dodesym_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.on(module, attr, replacement)

    def on(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class PairLog:
    """Share of check_invariance calls whose (system, field) pair was seen before."""

    def __init__(self):
        self.seen: set = set()
        self.calls = 0
        self.repeats = 0
        self._patches = _Patches()

    def install(self) -> None:
        original = dods.check_invariance
        text = expr.to_text

        def check_invariance(system, x_field, *args, **kwargs):
            key = (text(system.f), text(system.g),
                   tuple(sorted(system.params.items())),
                   tuple(sorted(system.box.items())), system.delay_kind.value,
                   text(x_field.xi), text(x_field.eta))
            self.calls += 1
            self.repeats += key in self.seen
            self.seen.add(key)
            return original(system, x_field, *args, **kwargs)

        self._patches.everywhere(original, check_invariance)

    def uninstall(self) -> None:
        self._patches.undo()

    def share(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self._open: dict[str, list[bool]] = {}
        self.counts: Counter = Counter()
        self.evals_by_creator: dict[str, list[int]] = {}
        self.solve_steps: Counter = Counter()
        self.solve_s: Counter = Counter()
        self._patches = _Patches()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        is_open = self._open.setdefault(name, [False])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if is_open[0]:
                return fn(*args, **kwargs)
            is_open[0] = True
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                is_open[0] = False
            return after(args, result, rec) if after else result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_closure(self, args, raw, rec):
        creator = self.spans[rec[1]][0] if rec[1] >= 0 else "(none)"
        cell = self.evals_by_creator.setdefault(creator, [0])

        def counted(*a):
            cell[0] += 1
            return raw(*a)

        return counted

    def _after_check_invariance(self, args, report, rec):
        self.counts["dods.samples_accepted"] += report.n_samples
        if self._open.get("catalog.check_entry", [False])[0]:
            self.counts["check_invariance_in_check_entry"] += 1
        return report

    def _after_solve(self, args, traj, rec):
        kind = args[0].delay_kind.value
        self.solve_steps[kind] += len(traj.xs) - 1
        self.solve_s[kind] += rec[3] - rec[2]
        return traj

    def _after_platoon(self, args, state, rec):
        self.counts["car_steps"] += sum(len(t.xs) - 1 for t in state.trajectories)
        return state

    def install(self) -> None:
        after = {
            "expr.compile_fn": self._counted_closure,
            "dods.check_invariance": self._after_check_invariance,
            "integrate.solve": self._after_solve,
            "traffic.simulate_platoon": self._after_platoon,
        }
        for mod_name, names in SPANNED.items():
            module = sys.modules[f"dodesym.{mod_name}"]
            for fn_name in names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                self._patches.everywhere(
                    original, self._span(name, original, after.get(name)))
        self._install_counters()

    def _install_counters(self) -> None:
        counts = self.counts
        in_check = self._open.setdefault("dods.check_invariance", [False])

        sample_point = dods.sample_point

        def counted_sample_point(*args):
            if in_check[0]:
                counts["dods.samples_drawn"] += 1
            return sample_point(*args)

        self._patches.everywhere(sample_point, counted_sample_point)

        solve_numeric = integrate.solve_numeric

        def counted_solve_numeric(*args, **kwargs):
            traj = solve_numeric(*args, **kwargs)
            counts["integrate.fallbacks"] += traj.n_fixed_point_fallbacks
            return traj

        self._patches.everywhere(solve_numeric, counted_solve_numeric)

        interpolate = integrate.Trajectory.interpolate

        def counted_interpolate(traj, x):
            counts["integrate.interpolate.calls"] += 1
            return interpolate(traj, x)

        self._patches.on(integrate.Trajectory, "interpolate", counted_interpolate)

        # state-dependent delay internals: resolutions and g evaluations
        state = integrate._StateDelay
        resolve, init = state.resolve, state.__init__

        def counted_resolve(spec, *args):
            counts["resolutions"] += 1
            return resolve(spec, *args)

        def counting_init(spec, g_full, warn):
            def g(*a):
                counts["g_evals"] += 1
                return g_full(*a)

            init(spec, g, warn)

        self._patches.on(state, "resolve", counted_resolve)
        self._patches.on(state, "__init__", counting_init)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> tuple[Counter, Counter, Counter]:
        """Calls, self seconds and inclusive seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, incl = Counter(), Counter(), Counter()
        for i, (name, _parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
        return calls, self_s, incl

    def metrics(self, wall_traced: float, wall_untraced: float,
                repeated_share: float) -> dict[str, float]:
        calls, self_s, incl = self.aggregate()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for fn in ("parse", "diff", "simplify", "compile_fn"):
            m[f"expr.{fn}.calls"] = calls[f"expr.{fn}"]
            m[f"expr.{fn}.self_ms"] = 1e3 * self_s[f"expr.{fn}"]
        m["symmetry.prolong.calls"] = calls["symmetry.prolong"]
        m["symmetry.prolong.self_ms"] = 1e3 * self_s["symmetry.prolong"]
        m["catalog.check_invariance_per_entry"] = ratio(
            c["check_invariance_in_check_entry"], calls["catalog.check_entry"])
        m["catalog.instantiate.self_ms"] = 1e3 * self_s["catalog.instantiate"]
        m["catalog.roundtrip_ms"] = 1e3 * ratio(
            incl["catalog.export_text"] + incl["catalog.parse_catalog_text"],
            calls["catalog.export_text"])
        m["symmetry.check_closure.self_ms"] = 1e3 * self_s["symmetry.check_closure"]
        m["symmetry.invariant_count.self_ms"] = \
            1e3 * self_s["symmetry.invariant_count"]
        m["symmetry.lie_bracket.calls"] = calls["symmetry.lie_bracket"]
        m["dods.check_invariance.calls"] = calls["dods.check_invariance"]
        m["dods.check_invariance.self_ms"] = 1e3 * self_s["dods.check_invariance"]
        m["dods.samples_drawn"] = c["dods.samples_drawn"]
        m["dods.samples_accepted"] = c["dods.samples_accepted"]
        m["dods.useful_sample_ratio"] = ratio(c["dods.samples_accepted"],
                                              c["dods.samples_drawn"])
        m["dods.per_sample_us"] = 1e6 * ratio(self_s["dods.check_invariance"],
                                              c["dods.samples_drawn"])
        m["expr.compiled_evals"] = sum(v[0] for v in self.evals_by_creator.values())
        for kind in ("constant", "independent", "state"):
            m[f"integrate.steps_per_s.{kind}"] = ratio(self.solve_steps[kind],
                                                       self.solve_s[kind])
        m["integrate.g_evals_per_resolution"] = ratio(c["g_evals"], c["resolutions"])
        m["integrate.fallbacks"] = c["integrate.fallbacks"]
        m["integrate.interpolate.calls"] = c["integrate.interpolate.calls"]
        m["traffic.car_steps_per_s"] = ratio(c["car_steps"],
                                             incl["traffic.simulate_platoon"])
        m["traffic.simulate_platoon.self_ms"] = 1e3 * self_s["traffic.simulate_platoon"]
        m["reduce.reduce_and_solve.self_ms"] = 1e3 * self_s["reduce.reduce_and_solve"]
        m["reduce.newton_evals"] = self.evals_by_creator.get(
            "reduce.reduce_and_solve", [0])[0]
        m["linear.characteristic_roots.self_ms"] = \
            1e3 * self_s["linear.characteristic_roots"]
        m["linear.detect_extra_symmetry.self_ms"] = \
            1e3 * self_s["linear.detect_extra_symmetry"]
        m["cli.main.calls"] = calls["cli.main"]
        m["cli.main.self_ms"] = 1e3 * self_s["cli.main"]
        symbolic = sum(v for k, v in self_s.items() if k.startswith("expr.")) \
            + self_s["symmetry.prolong"]
        m["trace.symbolic_share"] = ratio(symbolic, wall_traced)
        m["trace.overhead_ratio"] = ratio(wall_traced, wall_untraced)
        m["workload.repeated_input_share"] = repeated_share
        return m

    def write(self, path) -> None:
        """Spans as [name index, parent index, start us, duration us]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[index[n], p, round(1e6 * (t0 - origin), 1),
                 round(1e6 * (t1 - t0), 1)] for n, p, t0, t1 in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows,
                       "counts": dict(self.counts),
                       "evals_by_creator": {k: v[0] for k, v in
                                            self.evals_by_creator.items()}}, fh)

"""Second-order one-delay systems and on-manifold invariance checking.

A DodsSystem is the pair (f, g): the differential half ddy = f and the
delay relation xm = g, with the values of its params and a sampling box.
g alone decides the delay kind (`DodsSystem.delay_kind`).  Verification
samples the free coordinates (x, y, ym, dy, dym), computes xm from g
first and ddy from f last (x, y, ym, dy, dym are treated as independent;
xm and ddy are tied to them), and evaluates the prolonged field on both
constraint functions.  This one mechanism covers invariance in the strong
and the on-solution-manifold sense alike.

Sampling is column-wise: a block of rows is drawn at once and every
expression is evaluated over it by column functions, whose rows hold
exactly what `compile_fn` returns point by point, so a seeded check gives
the same verdict, maxima and worst point as a loop over single points.
A block is drawn in one pass, lo + (hi - lo) u as numpy's uniform draws
it, and put on the manifold without a copy of its rows unless some are
rejected; a block after the first is sized by the acceptance rate seen so
far, and the rows it draws after the n-th accepted one count nowhere.
Each row's value depends on that row alone, so `check_algebra` puts the
first blocks of as many fields as fit in one kernel call on the manifold
in that call and then checks them field by field; `check_invariance` is
its one-field case.
Per system, `expr.compile_columns` compiles g and one 15-output kernel
of f and the 14 jet partials of f and g with the system's params, so each
block evaluates f and its partials in one pass that computes every
subtree they share once, and per field it compiles the one
`symmetry.field_kernel` of its prolongation.  Both go through the memo
of `expr` (`expr.memo_info()`), keyed by the interned nodes of f, g or the
field's xi and eta and by the names of the params they read.  Each param
is a closure cell, and the memo hands the kernels back with the values of
each call in their cells.  So every system or field of equal
content, a new object included, shares one kernel and gets bit-identical
answers, and so does every parameter set of a system written with
parameters: another value differentiates and compiles nothing.  The memo
keeps the 256 most recently used entries.  A system that differs only in
a constant misses the memo but has a known shape: its kernels reuse code
from the shape table of `expr`, keyed by the generated text, in which
every constant is a closure cell, so building them compiles nothing.

f may refer to xm (classified families often carry the delayed abscissa
inside finite slopes); g never may, so the delay is explicit at sampling
time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from .expr import (
    DomainError,
    Expr,
    ParseError,
    _memoized,
    bind_params,
    compile_columns,
    compile_fn,
    diff,
    free_symbols,
    parse,
    to_text,
)
from .symmetry import _BLOCK_ROWS, JET, VectorField, field_kernel

if TYPE_CHECKING:
    import numpy as np


class DelayKind(enum.Enum):
    CONSTANT = "constant"
    SOLUTION_INDEPENDENT = "independent"
    STATE_DEPENDENT = "state"


FREE_COORDS = ("x", "y", "ym", "dy", "dym")

#: free-coordinate sampling ranges; entries with singular denominators
#: override with their own admissible boxes
DEFAULT_BOX: dict[str, tuple[float, float]] = {
    v: (0.5, 2.5) for v in FREE_COORDS
}


class DodsError(Exception):
    pass


class SamplingError(DodsError):
    pass


@dataclass
class DodsSystem:
    f: Expr
    g: Expr
    params: dict[str, float] = field(default_factory=dict)
    box: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(DEFAULT_BOX))

    def __post_init__(self):
        for name, e, allowed in (
            ("f", self.f, set(FREE_COORDS) | {"xm"}),
            ("g", self.g, set(FREE_COORDS)),
        ):
            bad = {s for s in free_symbols(e) if s in JET and s not in allowed}
            if bad:
                raise DodsError(f"{name} may not depend on {sorted(bad)}")

    def bound(self, e: Expr) -> Expr:
        return bind_params(e, self.params)

    def kernels(self) -> "_SystemKernels":
        """The compiled g and f with the jet partials, with the values of
        params, built once per content of f and g and names of params and
        shared through the kernel memo of `expr`."""
        return _memoized("system", (self.f, self.g), self.params,
                         self._compile_kernels)

    def _compile_kernels(self) -> "_SystemKernels":
        partials = [diff(e, v) for e in (self.f, self.g) for v in JET]
        return _SystemKernels(
            g=compile_columns(self.g, FREE_COORDS, self.params),
            f_partials=compile_columns([self.f, *partials], JET, self.params))

    def constant_delay(self) -> float | None:
        """tau where g is x - tau, else None.

        x - g is taken at x = 0, 0.7 and 1.3 and must spread by at most
        1e-12; tau = 0 - g(0).  A g that reads a jet coordinate other than
        x, or is undefined at one of these points, is not a constant delay.
        An unbound parameter raises UnboundSymbolError.
        """
        if free_symbols(self.g) & set(JET) - {"x"} - set(self.params):
            return None
        g_fn = compile_fn(self.g, ("x",), self.params)
        try:
            taus = [x - g_fn(x) for x in (0.0, 0.7, 1.3)]
        except DomainError:
            return None
        return taus[0] if max(taus) - min(taus) <= 1e-12 else None

    @property
    def delay_kind(self) -> DelayKind:
        """The kind of delay g gives, as _delay decides it."""
        return self._delay()[0]

    def _delay(self) -> tuple[DelayKind, float | None]:
        """(kind, tau) of the delay g gives, the one place the kind is
        decided: constant where constant_delay finds a tau,
        solution-independent where g reads no jet coordinate but x,
        state-dependent otherwise; tau is None unless constant."""
        tau = self.constant_delay()
        if tau is not None:
            return DelayKind.CONSTANT, tau
        if free_symbols(self.g) & set(JET) - {"x"}:
            return DelayKind.STATE_DEPENDENT, None
        return DelayKind.SOLUTION_INDEPENDENT, None

    def validate(self, n: int = 20, seed: int = 7) -> None:
        """Numeric sanity of the defining pair on the sampling box.

        Checks that f genuinely involves delayed quantities and that g
        stays below x.
        """
        import numpy as np

        if n < 1:
            raise ValueError("n must be at least 1")
        rng = np.random.default_rng(seed)
        kernels = self.kernels()
        delayed_dep = 0.0
        checked = 0
        drawn = 0
        while checked < n and drawn < 8 * n:
            # never more rows than still needed or left of the 8n budget
            m = min(n - checked, 8 * n - drawn)
            _, _, d = _sample_manifold(rng, self.box, m, kernels)
            dep = np.maximum(np.abs(d[_I_YM]), np.abs(d[_I_DYM]))
            ok = np.isfinite(dep)
            if ok.any():
                delayed_dep = max(delayed_dep, float(dep[ok].max()))
            checked += int(ok.sum())
            drawn += m
        if checked < n:
            raise SamplingError(
                "could not sample enough admissible points to validate system"
            )
        if delayed_dep < 1e-12:
            raise DodsError(
                "f does not involve the delayed point (df/dym and df/ddym vanish)"
            )


def sample_point(
    rng: np.random.Generator, box: dict[str, tuple[float, float]]
) -> dict[str, float]:
    """One point of the free coordinates; the blocks the checks draw
    consume the generator exactly as repeated calls of this do."""
    return {
        v: float(rng.uniform(*box.get(v, DEFAULT_BOX[v]))) for v in FREE_COORDS
    }


_I_XM, _I_YM, _I_DYM, _I_DDY = (
    JET.index(v) for v in ("xm", "ym", "dym", "ddy"))

# _BLOCK_ROWS (from symmetry) bounds every kernel call here too.  Each
# call pays a fixed cost of a few dozen numpy calls, so a check of up to
# 4096 rows draws one block per field, plus tail blocks for rejected
# rows, sized by the acceptance rate so far, and check_algebra puts the
# first blocks of _BLOCK_ROWS // min(n, _BLOCK_ROWS) fields on the
# manifold in one call.  Work arrays hold one 32 kB column per kernel
# node, and a block's rows are copied only where some are rejected, so a
# check of 4096 rows peaks at 1.3-1.9 MB on the traffic systems, 2.6-2.7
# MB on A6_3 and A3_11 and 5.3 MB on H3_DET (tracemalloc).  A group's
# first blocks, at most _BLOCK_ROWS rows, stay alive until its last field
# has been checked, so a larger n, which works on a tail block meanwhile,
# peaks at most 1.8 MB higher on these, however large n is.


def _draw(rng, box, m) -> np.ndarray:
    """m points of the free coordinates as columns, shape (5, m) in
    FREE_COORDS order, drawn exactly as m calls of sample_point draw:
    lo + (hi - lo) u over one standard uniform u per value, numpy's own
    uniform formula.  A box whose width is not finite raises
    OverflowError, and one whose width is negative ValueError, as uniform
    does."""
    import numpy as np

    lo, hi = np.array([box.get(v, DEFAULT_BOX[v]) for v in FREE_COORDS]).T
    width = hi - lo
    if not np.isfinite(width).all():
        raise OverflowError("Range exceeds valid bounds")
    if (width < 0.0).any():
        raise ValueError("high - low < 0")
    u = rng.random((m, 5))
    u *= width
    u += lo
    return u.T


def _on_manifold(free: np.ndarray, kernels) -> tuple[np.ndarray, np.ndarray,
                                                     list[np.ndarray]]:
    """Put drawn points of the free coordinates on the manifold.

    xm := g and ddy := f (f evaluated at ddy = 0, which neither f nor its
    partials read).  A row is kept where both are defined and xm < x.
    Returns the kept rows as jet columns, shape (7, k) in JET order, their
    positions among the columns of free, and the 14 partials of f and g at
    them, columns of k rows in JET order, f then g.  Rows are selected
    only where some are dropped, so a block that keeps every row copies
    nothing but the free coordinates into its jet.  Each row's values
    depend on that row alone (the contract of `compile_columns`), so the
    columns of several blocks give what each block gives by itself.
    """
    import numpy as np

    x = free[0]
    xm = kernels.g(*free)
    below = xm < x
    rows = np.arange(len(x))
    if not below.all():
        rows = np.flatnonzero(below)
        free, xm = free.take(rows, axis=1), xm.take(rows)
    jet = np.empty((7, len(rows)))
    jet[:2], jet[_I_XM], jet[_I_YM:_I_DDY] = free[:2], xm, free[2:]
    jet[_I_DDY] = 0.0
    f, *partials = kernels.f_partials(*jet)
    jet[_I_DDY] = f
    keep = np.isfinite(f)
    if not keep.all():
        keep = np.flatnonzero(keep)
        jet, rows = jet.take(keep, axis=1), rows.take(keep)
        partials = [p.take(keep) for p in partials]
    return jet, rows, partials


def _sample_manifold(rng, box, m, kernels):
    """Draw m points of the free coordinates and put them on the manifold:
    `_on_manifold` of `_draw`."""
    return _on_manifold(_draw(rng, box, m), kernels)


def _first_blocks(rngs, box, m, kernels) -> list[tuple]:
    """`_sample_manifold(rng, box, m, kernels)` of each generator, in
    order, from one kernel call over the drawn blocks laid end to end."""
    import numpy as np

    if len(rngs) == 1:
        return [_sample_manifold(rngs[0], box, m, kernels)]
    jet, rows, d = _on_manifold(
        np.concatenate([_draw(rng, box, m) for rng in rngs], axis=1), kernels)
    blocks = []
    a = 0
    for i in range(len(rngs)):
        # kept rows are in draw order; generator i drew [i m, (i + 1) m)
        b = (len(rows) if i == len(rngs) - 1
             else int(np.searchsorted(rows, (i + 1) * m)))
        blocks.append((jet[:, a:b], rows[a:b] - i * m, [p[a:b] for p in d]))
        a = b
    return blocks


@dataclass
class InvarianceReport:
    max_residual_dode: float
    max_residual_delay: float
    n_samples: int
    worst_point: dict[str, float]
    tol: float = 1e-8
    field_label: str = ""
    #: rows drawn and rejected (undefined or xm >= x) before n_samples
    #: were accepted
    n_rejected: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.max_residual_dode < self.tol
            and self.max_residual_delay < self.tol
        )

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.field_label}: |pr X (ddy - f)| <= "
            f"{self.max_residual_dode:.3e}, |pr X (xm - g)| <= "
            f"{self.max_residual_delay:.3e} over {self.n_samples} samples"
        )


class _SystemKernels(NamedTuple):
    """Column kernels of a system: g of the free coordinates, and one
    kernel of the jet returning f, then the 7 jet partials of f and the 7
    of g, in JET order, which computes each subtree f shares with its
    partials once."""

    g: Callable[..., np.ndarray]
    f_partials: Callable[..., tuple[np.ndarray, ...]]


def _residuals(coeffs, jet: np.ndarray, d):
    """pr X (ddy - f) and pr X (xm - g) at the columns of jet, where d
    holds the partials of f and g there (JET order, f then g), and the
    mask of rows where every coefficient and partial is defined."""
    import numpy as np

    c = coeffs(*jet)
    with np.errstate(all="ignore"):
        r_dode = c[_I_DDY] - sum(c[i] * d[i] for i in range(7))
        r_delay = c[_I_XM] - sum(c[i] * d[7 + i] for i in range(7))
        # a value that is not finite makes a residual, and so the sum of
        # every residual, not finite; only then is each value checked
        if math.isfinite(r_dode.sum() + r_delay.sum()):
            return r_dode, r_delay, np.ones(len(r_dode), dtype=bool)
    ok = np.isfinite(c).all(axis=0) & np.isfinite(d).all(axis=0)
    return r_dode, r_delay, ok


def check_invariance(
    system: DodsSystem,
    x_field: VectorField,
    n: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
) -> InvarianceReport:
    """Sample the solution manifold and apply the prolonged field.

    Samples (x, y, ym, dy, dym) from the system box, sets xm := g and
    ddy := f, and evaluates pr X on both constraint functions.  The field
    is accepted when both maxima stay below tol.  More than half the
    samples hitting domain errors aborts with a sampling diagnosis.

    Rows are drawn in blocks and taken in draw order, and the rules of a
    loop over single points hold row by row: before each draw, more than
    n rejected rows and more rejected than accepted aborts; a row becomes
    the worst point when it is the first or raises either running
    maximum.  A NaN residual on an accepted row makes its maximum NaN, so
    the report fails, and the first such row stays the worst point.  The
    other maximum is still taken over all n rows, so each reported bound
    holds on every sample.  This is check_algebra of the one field.
    """
    return check_algebra(system, [x_field], n=n, seed=seed, tol=tol)[0]


def check_algebra(
    system: DodsSystem,
    fields: list[VectorField],
    n: int = 200,
    seed: int = 42,
    tol: float = 1e-8,
) -> list[InvarianceReport]:
    """check_invariance of each basis field, field i with seed + i; all
    must pass to admit the algebra.

    The first blocks of the fields, each drawn from its own generator,
    are put on the manifold (`_first_blocks`) in groups of as many as fit
    in one kernel call (20 at n = 200), so g and the kernel of f and its
    partials run once per group rather than once per field.  Then each
    field of the group in turn is checked as check_invariance checks it,
    tail blocks included, so the reports, and an error and the field it
    surfaces at, are those of check_invariance field by field.
    """
    import numpy as np

    if not fields:
        return []
    if n < 1:
        raise ValueError("n must be at least 1")
    kernels = system.kernels()
    rngs = [np.random.default_rng(seed + i) for i in range(len(fields))]
    m = min(n, _BLOCK_ROWS)
    # k fields at a time share one kernel call of at most _BLOCK_ROWS rows
    # for their first blocks, drawn just before the first of them is
    # checked; the shared call's arrays are freed once the last of them
    # has been checked, before the next group's call
    k = _BLOCK_ROWS // m
    reports = []
    for a in range(0, len(fields), k):
        firsts = _first_blocks(rngs[a:a + k], system.box, m, kernels)
        reports += [_check_field(system, kernels, x_field, rng, first, n, tol)
                    for x_field, rng, first in zip(fields[a:a + k],
                                                   rngs[a:a + k], firsts)]
        del firsts
    return reports


def _check_field(system, kernels, x_field, rng, first, n, tol):
    """The report of check_invariance on x_field, drawing from rng, where
    first is the first block rng has drawn, min(n, _BLOCK_ROWS) rows, on
    the manifold; the sampling loop of every check."""
    import numpy as np

    coeffs = field_kernel(x_field, system.params)
    worst: np.ndarray | None = None
    good = 0
    bad = 0
    max_dode = 0.0
    max_delay = 0.0
    m = min(n, _BLOCK_ROWS)
    jet, rows, d = first
    while True:
        r_dode, r_delay, ok = _residuals(coeffs, jet, d)
        # the rows taken are the accepted ones up to the n-th accepted row
        # of the check; the rows drawn after it count nowhere.  cols holds
        # their columns of jet, or is None where they are the first ones
        if ok.all():
            cols = None
            taken = rows[:n - good]
            r_dode, r_delay = r_dode[:n - good], r_delay[:n - good]
        else:
            cols = np.flatnonzero(ok)[:n - good]
            taken = rows[cols]
            r_dode, r_delay = r_dode[cols], r_delay[cols]
        drawn = int(taken[-1]) + 1 if good + len(taken) == n else m
        if bad + drawn - len(taken) > n:
            # accepted and rejected counts before each row is drawn
            i = np.arange(drawn)
            good_before = good + np.searchsorted(taken, i)
            bad_before = bad + i - (good_before - good)
            if np.any((bad_before > n) & (bad_before > good_before)):
                raise SamplingError(
                    "incompatible sampling domain: more than half the samples"
                    " hit domain errors"
                )
        good += len(taken)
        bad += drawn - len(taken)
        if len(taken):
            # each maximum is taken over every accepted row, a NaN residual
            # being the maximum from its row on, so one maximum still rises
            # after the other turns NaN.  The worst point is the last row
            # that raises either maximum up to the first NaN residual, that
            # NaN row included, after which no row moves it; in a block,
            # the first row with the block's largest residual stands for it
            a_dode, a_delay = np.abs(r_dode), np.abs(r_delay)
            i_dode, i_delay = int(a_dode.argmax()), int(a_delay.argmax())
            top_dode, top_delay = float(a_dode[i_dode]), float(a_delay[i_delay])
            last = -1
            if not (math.isnan(max_dode) or math.isnan(max_delay)):
                nans = [i for i, top in ((i_dode, top_dode), (i_delay, top_delay))
                        if math.isnan(top)]
                last = min(nans) if nans else max(
                    i_dode if top_dode > max_dode else -1,
                    i_delay if top_delay > max_delay else -1)
            if worst is None and last < 0:
                last = 0
            if last >= 0:
                worst = jet[:, last if cols is None else cols[last]]
            if top_dode > max_dode or math.isnan(top_dode):
                max_dode = top_dode
            if top_delay > max_delay or math.isnan(top_delay):
                max_delay = top_delay
        if good >= n:
            break
        # enough rows to hold the rest at the acceptance rate so far, with
        # a margin of four standard deviations of the count that does,
        # and never more than can be drawn before the abort rule fires
        need = n - good
        m = min(_BLOCK_ROWS, 2 * n + 1 - good - bad)
        if good:
            rate = good / (good + bad)
            m = min(m, int((need + 4 * math.sqrt(need * (1 - rate))) / rate)
                    + 16)
        jet, rows, d = _sample_manifold(rng, system.box, m, kernels)
    return InvarianceReport(
        max_residual_dode=max_dode,
        max_residual_delay=max_delay,
        n_samples=n,
        worst_point=dict(zip(JET, worst.tolist())),
        tol=tol,
        field_label=x_field.label or x_field.describe(),
        n_rejected=bad,
    )


# ---------------------------------------------------------------------------
# plain-text definition files


def load_dods(text: str) -> DodsSystem:
    """Parse the key=value system format.

    Lines: `f = <expr>`, `g = <expr>` and `param <name> = <value>`, a
    finite number.  Blank lines and `#` comments are ignored; unknown keys
    are errors.  A line `delay = constant|independent|state` is accepted, a
    word outside those three being an error that names its line, and
    otherwise unused: g alone decides the kind (`DodsSystem.delay_kind`).
    """
    f_expr = None
    g_expr = None
    params: dict[str, float] = {}
    for lineno, key, value in _key_values(text):
        if key == "f":
            f_expr = _expression(value, lineno)
        elif key == "g":
            g_expr = _expression(value, lineno)
        elif key.startswith("param "):
            name, number = _param_line(key, value, lineno)
            params[name] = number
        elif key == "delay":
            _delay_kind(value, lineno)
        else:
            raise DodsError(f"line {lineno}: unknown key '{key}'")
    if f_expr is None or g_expr is None:
        raise DodsError("system file must define both f and g")
    return DodsSystem(f=f_expr, g=g_expr, params=params)


def _key_values(text: str, error=DodsError):
    """(line number, key, value) of each line of a `key = value` file,
    blank lines and `#` comments skipped; a key given twice (spaces
    inside it aside) is an error naming both lines."""
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise error(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            _once(seen, key, lineno, error)
            yield lineno, key, value.strip()


def _once(seen: dict[str, int], key: str, lineno: int, error) -> None:
    """Note in seen that key (spaces inside it aside) is on line lineno; a
    key seen before is an error naming both lines."""
    first = seen.setdefault(" ".join(key.split()), lineno)
    if first != lineno:
        raise error(f"line {lineno}: '{key}' is given again, first"
                    f" on line {first}")


def _numbers(text: str, lineno: int, error=DodsError, count: int = 1):
    """The count comma-separated numbers of a file line's value."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        what = "a number" if count == 1 else f"{count} comma-separated numbers"
        raise error(f"line {lineno}: expected {what}, got '{text}'")
    return values


def _param_line(key: str, value: str, lineno: int,
                error=DodsError) -> tuple[str, float]:
    """The name and value of a `param <name> = <value>` line, the value
    one finite number: a parameter of nan or inf would fail every check
    later for another reason."""
    name = key[len("param "):].strip()
    number, = _numbers(value, lineno, error)
    if not math.isfinite(number):
        raise error(f"line {lineno}: parameter '{name}' must be finite,"
                    f" got '{value}'")
    return name, number


def _expression(text: str, lineno: int, error=DodsError) -> Expr:
    """The expression of a file line's value."""
    try:
        return parse(text)
    except ParseError as exc:
        raise error(f"line {lineno}: {exc}") from exc


def _delay_kind(text: str, lineno: int, error=DodsError) -> DelayKind:
    """The delay kind a file line's value names."""
    try:
        return DelayKind(text)
    except ValueError:
        raise error(f"line {lineno}: delay must be constant, independent"
                    " or state") from None


def dump_dods(system: DodsSystem) -> str:
    lines = [f"f = {to_text(system.f)}", f"g = {to_text(system.g)}"]
    for k in sorted(system.params):
        lines.append(f"param {k} = {system.params[k]!r}")
    return "\n".join(lines) + "\n"

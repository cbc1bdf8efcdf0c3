"""Point vector fields on the (x, y) plane and their delayed prolongation.

A field xi(x,y) d/dx + eta(x,y) d/dy acts on the seven jet coordinates
(x, y, xm, ym, dy, dym, ddy).  The prolonged coefficients for the delayed
point are the base coefficients with (x, y) renamed to (xm, ym); the
derivative coefficients follow the usual total-derivative recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .expr import (
    TOO_DEEP,
    Bindings,
    Expr,
    ExprError,
    _derivative,
    _memoized,
    compile_columns,
    free_symbols,
    parse,
    simplify,
    subs,
    to_text,
    DY,
    DYM,
    DDY,
    XM,
    YM,
)

if TYPE_CHECKING:
    import numpy as np

JET = ("x", "y", "xm", "ym", "dy", "dym", "ddy")

#: most rows one kernel call evaluates, in check_closure and in the
#: invariance checks of dods
_BLOCK_ROWS = 4096

#: the interval of x and of y from which points of the (x, y) plane are
#: drawn, in check_closure and catalog.negative_control.  check_closure
#: draws a block of n + 3 points for each fit, the blocks of all its pairs
#: in one draw; negative_control draws one set of n + 4 points for all
#: its candidates
_PLANE_BOX = (0.5, 2.5)

_BASE_ALLOWED = {"x", "y"}


class SymmetryError(Exception):
    pass


class ClosureError(SymmetryError):
    """A pair of fields whose bracket leaves the span of the basis."""

    def __init__(self, message: str, pair: tuple[str, str]):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class VectorField:
    """xi d/dx + eta d/dy with coefficients over x, y and parameters only."""

    xi: Expr
    eta: Expr
    label: str = ""

    def __post_init__(self):
        for name, coeff in (("xi", self.xi), ("eta", self.eta)):
            bad = {
                s for s in free_symbols(coeff)
                if s in JET and s not in _BASE_ALLOWED
            }
            if bad:
                raise ValueError(
                    f"{name} may depend on x, y and parameters only;"
                    f" found {sorted(bad)}"
                )

    @staticmethod
    def from_text(xi: str, eta: str, label: str = "") -> "VectorField":
        return VectorField(parse(xi), parse(eta), label or f"{xi};{eta}")

    def describe(self) -> str:
        return f"{to_text(self.xi)} d/dx + {to_text(self.eta)} d/dy"


@dataclass(frozen=True)
class ProlongedField:
    xi: Expr
    eta: Expr
    xi_m: Expr
    eta_m: Expr
    zeta1: Expr
    zeta1_m: Expr
    zeta2: Expr

    def coefficients(self) -> tuple[Expr, ...]:
        """In jet order (x, y, xm, ym, dy, dym, ddy)."""
        return (self.xi, self.eta, self.xi_m, self.eta_m,
                self.zeta1, self.zeta1_m, self.zeta2)


@dataclass
class ZReport:
    dim_m: int
    rank_z: int
    k: int
    sample_points: list[tuple[float, ...]] = field(default_factory=list)


def _total_d(h: Expr, with_ddy: bool) -> Expr:
    """Total derivative d/dx acting on a function of (x, y[, dy]), not
    simplified; the partials come from the derivative cache of h."""
    out = _derivative(h, "x") + DY * _derivative(h, "y")
    if with_ddy:
        out = out + DDY * _derivative(h, "dy")
    return out


def prolong(x_field: VectorField) -> ProlongedField:
    """The seven prolonged coefficients, each simplified once.  The delayed
    ones rename simplified trees, which simplify would give back
    unchanged.  Partials and simplified trees come from the per-node
    caches of `expr`, so a field seen before is not differentiated or
    simplified again.  A field too deep for Python's recursion limit is an
    ExprError."""
    try:
        return _prolong(x_field)
    except RecursionError:
        raise ExprError(TOO_DEEP) from None


def _prolong(x_field: VectorField) -> ProlongedField:
    d_xi = _total_d(x_field.xi, False)
    zeta1 = simplify(_total_d(x_field.eta, False) - DY * d_xi)
    xi, eta = simplify(x_field.xi), simplify(x_field.eta)
    shift = {"x": XM, "y": YM}
    return ProlongedField(
        xi=xi,
        eta=eta,
        xi_m=subs(xi, shift),
        eta_m=subs(eta, shift),
        zeta1=zeta1,
        zeta1_m=subs(zeta1, {**shift, "dy": DYM}),
        zeta2=simplify(_total_d(zeta1, True) - DDY * d_xi),
    )


def field_kernel(x_field: VectorField, params: Bindings | None = None):
    """One column kernel of the prolonged coefficients of x_field, params
    bound: a function of the JET columns returning the seven coefficient
    columns in JET order.  Memoized by xi, eta and the names of params;
    the label is not part of the key."""
    return _memoized(
        "field", (x_field.xi, x_field.eta), params,
        lambda: compile_columns(prolong(x_field).coefficients(), JET, params))


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b] = (a(xi_b) - b(xi_a)) d/dx + (a(eta_b) - b(eta_a)) d/dy.

    Each coefficient is one simplify over the cached partials before
    simplification, so no partial is simplified twice."""

    def apply(f: VectorField, h: Expr) -> Expr:
        return f.xi * _derivative(h, "x") + f.eta * _derivative(h, "y")

    xi = simplify(apply(a, b.xi) - apply(b, a.xi))
    eta = simplify(apply(a, b.eta) - apply(b, a.eta))
    label = f"[{a.label or 'X'},{b.label or 'Y'}]"
    return VectorField(xi, eta, label)


@dataclass
class ClosureResult:
    """Structure constants c[i][j] with [X_i, X_j] = sum_k c[i][j][k] X_k."""

    constants: dict[tuple[int, int], np.ndarray]
    residual: float

    def constant(self, i: int, j: int, k: int) -> float:
        return float(self.constants[(i, j)][k])


def check_closure(
    fields: list[VectorField],
    params: Bindings | None = None,
    seed: int = 42,
) -> ClosureResult:
    """Express every pairwise bracket in the span of the basis numerically.

    Coefficient functions are sampled at n+3 generic plane points and the
    least-squares system solved; residual above 1e-9 names the failing
    pair.  A pair gets two draws of points: a draw where a coefficient is
    undefined is dropped, and so is a first draw whose system is rank
    deficient.

    The points come in blocks of n+3 from one seeded stream: pair p, in
    (i, j) order, takes the next unused block and a retry the block after
    that.  The blocks of every pair are drawn together, in one draw of at
    most _BLOCK_ROWS rows, and the basis kernel is evaluated once over
    them; only when retries have used the blocks up are the blocks of the
    pairs left drawn again.  One draw of many blocks is the same stream as
    a draw per block, so every fit sees the points it would see alone.
    """
    import numpy as np

    n = len(fields)
    if n < 2:
        raise ValueError("need at least two fields")
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    basis = _plane_kernel(fields, params)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = n + 3
    per_draw = max(1, _BLOCK_ROWS // m)
    used = drawn = 0  # blocks of the current draw
    constants: dict[tuple[int, int], np.ndarray] = {}
    worst = 0.0
    for p, (i, j) in enumerate(pairs):
        bracket = _bracket_kernel(fields[i], fields[j], params)
        solved = None
        for attempt in range(2):
            if used == drawn:
                # a block for this pair and for each pair after it
                drawn, used = min(len(pairs) - p, per_draw), 0
                points = rng.uniform(*_PLANE_BOX, size=(drawn * m, 2))
                values = _plane_values(basis, *points.T)
            rows = slice(used * m, (used + 1) * m)
            used += 1
            solved = _span_fit(values[rows], _plane_values(
                bracket, *points[rows].T)[..., 0])
            if solved is not None and (solved[2] == n or attempt == 1):
                break
            solved = None  # undefined or degenerate: retry with new points
        if solved is None:
            raise ClosureError(
                "could not sample a well-posed span system for "
                f"[{fields[i].label or i}, {fields[j].label or j}]",
                (fields[i].label or str(i), fields[j].label or str(j)),
            )
        c, resid, _ = solved
        if resid > 1e-9:
            raise ClosureError(
                f"bracket [{fields[i].label or i}, {fields[j].label or j}]"
                f" leaves the span (residual {resid:.3e})",
                (fields[i].label or str(i), fields[j].label or str(j)),
            )
        constants[(i, j)] = c
        worst = max(worst, resid)
    return ClosureResult(constants, worst)


def _plane_kernel(fields: list[VectorField], params: Bindings):
    """One column kernel over (x, y) of the (xi, eta) coefficients of
    fields, params bound, field by field; memoized by the coefficients and
    the names of params."""
    coefficients = [c for f in fields for c in (f.xi, f.eta)]
    return _memoized(
        "plane", coefficients, params,
        lambda: compile_columns(coefficients, ("x", "y"), params))


def _bracket_kernel(a: VectorField, b: VectorField, params: Bindings):
    """The plane kernel of [a, b], memoized by the coefficients of a and b
    and the names of params, so a bracket seen before is not formed
    again."""

    def build():
        bracket = lie_bracket(a, b)
        return compile_columns([bracket.xi, bracket.eta], ("x", "y"), params)

    return _memoized("bracket", (a.xi, a.eta, b.xi, b.eta), params, build)


def _plane_values(kernel, x, y) -> np.ndarray:
    """The values of a plane kernel at the points (x, y), shaped
    (points, 2, fields): xi and eta of each field at each point."""
    import numpy as np

    return np.array(kernel(x, y)).reshape(-1, 2, len(x)).T


def _span_fit(basis: np.ndarray, target: np.ndarray):
    """Least-squares fit of target, the (points, 2) values of one field, by
    the fields of basis, their (points, 2, fields) values at the same
    points (see _plane_values).

    Returns (coefficients, largest residual, rank), or None where a
    coefficient is undefined at some point.
    """
    import numpy as np

    # rows interleave xi and eta point by point, one column per field
    a, b = basis.reshape(-1, basis.shape[-1]), target.reshape(-1)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    c, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return c, float(np.max(np.abs(a @ c - b))), rank


#: the jet box of invariant_count, in JET order; xm < x on all of it
_JET_BOX = ((1.6, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
            (2.5, 2.5, 1.5, 2.5, 2.5, 2.5, 2.5))


def invariant_count(
    fields: list[VectorField],
    params: Bindings | None = None,
    n_points: int = 5,
    seed: int = 42,
) -> ZReport:
    """k = 7 - max rank of the prolonged coefficient matrix over sample points.

    Singular values below 1e-8 * largest are treated as zero; the
    coefficients are O(1) on the sampling box so the threshold is absolute
    in effect.  Points are drawn from the jet box x in (1.6, 2.5),
    xm in (0.5, 1.5) and the other coordinates in (0.5, 2.5).  A point
    where a coefficient of some field is undefined or not finite is
    dropped and another drawn, up to 20 * n_points draws in all; fewer
    than n_points usable points is a SymmetryError.
    """
    import numpy as np

    if not fields:
        raise ValueError("need at least one field")
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    kernels = [field_kernel(f, params) for f in fields]
    best_rank = 0
    points: list[tuple[float, ...]] = []
    trials = 0
    while len(points) < n_points and trials < 20 * n_points:
        # never more rows than still needed or left of the draw budget
        m = min(n_points - len(points), 20 * n_points - trials)
        trials += m
        jet = rng.uniform(*_JET_BOX, size=(m, 7))
        # z[r] is the (fields, 7) coefficient matrix at row r
        z = np.array([k(*jet.T) for k in kernels]).transpose(2, 0, 1)
        ok = np.isfinite(z).all(axis=(1, 2))
        if ok.any():
            sv = np.linalg.svd(z[ok], compute_uv=False)
            rank = np.sum(sv > 1e-8 * np.maximum(sv[:, :1], 1e-300), axis=1)
            best_rank = max(best_rank, int(rank.max()))
        points.extend(map(tuple, jet[ok].tolist()))
    if len(points) < n_points:
        raise SymmetryError("could not sample enough generic jet points")
    return ZReport(dim_m=7, rank_z=best_rank, k=7 - best_rank,
                   sample_points=points)

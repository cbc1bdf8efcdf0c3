"""Point vector fields on the (x, y) plane and their delayed prolongation.

A field xi(x,y) d/dx + eta(x,y) d/dy acts on the seven jet coordinates
(x, y, xm, ym, dy, dym, ddy).  The prolonged coefficients for the delayed
point are the base coefficients with (x, y) renamed to (xm, ym); the
derivative coefficients follow the usual total-derivative recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Bindings,
    DomainError,
    Expr,
    bind_params,
    compile_fn,
    diff,
    free_symbols,
    parse,
    simplify,
    subs,
    to_text,
    DY,
    DDY,
)

JET = ("x", "y", "xm", "ym", "dy", "dym", "ddy")

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
    """Total derivative d/dx acting on a function of (x, y[, dy])."""
    out = diff(h, "x") + DY * diff(h, "y")
    if with_ddy:
        out = out + DDY * diff(h, "dy")
    return simplify(out)


def prolong(x_field: VectorField) -> ProlongedField:
    xi, eta = x_field.xi, x_field.eta
    zeta1 = simplify(_total_d(eta, False) - DY * _total_d(xi, False))
    shift = {"x": parse("xm"), "y": parse("ym")}
    zeta1_m = simplify(subs(zeta1, {**shift, "dy": parse("dym")}))
    zeta2 = simplify(_total_d(zeta1, True) - DDY * _total_d(xi, False))
    return ProlongedField(
        xi=simplify(xi),
        eta=simplify(eta),
        xi_m=simplify(subs(xi, shift)),
        eta_m=simplify(subs(eta, shift)),
        zeta1=zeta1,
        zeta1_m=zeta1_m,
        zeta2=zeta2,
    )


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b] = (a(xi_b) - b(xi_a)) d/dx + (a(eta_b) - b(eta_a)) d/dy."""

    def apply(f: VectorField, h: Expr) -> Expr:
        return f.xi * diff(h, "x") + f.eta * diff(h, "y")

    xi = simplify(apply(a, b.xi) - apply(b, a.xi))
    eta = simplify(apply(a, b.eta) - apply(b, a.eta))
    label = f"[{a.label or 'X'},{b.label or 'Y'}]"
    return VectorField(xi, eta, label)


def _sample_plane(rng: np.random.Generator, lo=0.5, hi=2.5) -> dict[str, float]:
    return {"x": float(rng.uniform(lo, hi)), "y": float(rng.uniform(lo, hi))}


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
    tol: float = 1e-9,
) -> ClosureResult:
    """Express every pairwise bracket in the span of the basis numerically.

    Coefficient functions are sampled at n+3 generic plane points and the
    least-squares system solved; residual above tol names the failing pair.
    """
    n = len(fields)
    if n < 2:
        raise ValueError("need at least two fields")
    params = dict(params or {})
    rng = np.random.default_rng(seed)

    def field_fns(f: VectorField):
        xi = bind_params(f.xi, params)
        eta = bind_params(f.eta, params)
        return compile_fn(xi, ["x", "y"]), compile_fn(eta, ["x", "y"])

    basis_fns = [field_fns(f) for f in fields]
    constants: dict[tuple[int, int], np.ndarray] = {}
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            br = lie_bracket(fields[i], fields[j])
            br_fns = field_fns(br)
            solved = None
            for attempt in range(2):
                pts = [_sample_plane(rng) for _ in range(n + 3)]
                rows = []
                rhs = []
                try:
                    for p in pts:
                        args = (p["x"], p["y"])
                        rows.append([fn[0](*args) for fn in basis_fns])
                        rows.append([fn[1](*args) for fn in basis_fns])
                        rhs.append(br_fns[0](*args))
                        rhs.append(br_fns[1](*args))
                except DomainError:
                    continue
                a = np.asarray(rows)
                b = np.asarray(rhs)
                c, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
                if rank < n and attempt == 0:
                    continue  # degenerate sample, retry with new points
                resid = float(np.max(np.abs(a @ c - b)))
                solved = (c, resid)
                break
            if solved is None:
                raise ClosureError(
                    "could not sample a well-posed span system for "
                    f"[{fields[i].label or i}, {fields[j].label or j}]",
                    (fields[i].label or str(i), fields[j].label or str(j)),
                )
            c, resid = solved
            if resid > tol:
                raise ClosureError(
                    f"bracket [{fields[i].label or i}, {fields[j].label or j}]"
                    f" leaves the span (residual {resid:.3e})",
                    (fields[i].label or str(i), fields[j].label or str(j)),
                )
            constants[(i, j)] = c
            worst = max(worst, resid)
    return ClosureResult(constants, worst)


def jacobi_residual(
    fields: tuple[VectorField, VectorField, VectorField],
    params: Bindings | None = None,
    n_points: int = 50,
    seed: int = 42,
) -> float:
    """Max coefficient of the cyclic double-bracket sum at random points."""
    a, b, c = fields
    params = dict(params or {})
    terms = [
        lie_bracket(lie_bracket(a, b), c),
        lie_bracket(lie_bracket(b, c), a),
        lie_bracket(lie_bracket(c, a), b),
    ]
    xi = bind_params(simplify(terms[0].xi + terms[1].xi + terms[2].xi), params)
    eta = bind_params(simplify(terms[0].eta + terms[1].eta + terms[2].eta), params)
    xi_fn = compile_fn(xi, ("x", "y"))
    eta_fn = compile_fn(eta, ("x", "y"))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        p = _sample_plane(rng)
        worst = max(worst, abs(xi_fn(p["x"], p["y"])),
                    abs(eta_fn(p["x"], p["y"])))
    return worst


def sample_jet_point(rng: np.random.Generator) -> dict[str, float]:
    """Generic jet point in the standard box with xm < x enforced."""
    return {
        "x": float(rng.uniform(1.6, 2.5)),
        "y": float(rng.uniform(0.5, 2.5)),
        "xm": float(rng.uniform(0.5, 1.5)),
        "ym": float(rng.uniform(0.5, 2.5)),
        "dy": float(rng.uniform(0.5, 2.5)),
        "dym": float(rng.uniform(0.5, 2.5)),
        "ddy": float(rng.uniform(0.5, 2.5)),
    }


def invariant_count(
    fields: list[VectorField],
    params: Bindings | None = None,
    n_points: int = 5,
    seed: int = 42,
    sv_tol: float = 1e-8,
) -> ZReport:
    """k = 7 - max rank of the prolonged coefficient matrix over sample points.

    Singular values below sv_tol * largest are treated as zero; the
    coefficients are O(1) on the sampling box so the threshold is absolute
    in effect.
    """
    if not fields:
        raise ValueError("need at least one field")
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    compiled = []
    for f in fields:
        pro = prolong(f)
        compiled.append(
            [compile_fn(bind_params(c, params), JET) for c in pro.coefficients()]
        )
    best_rank = 0
    points: list[tuple[float, ...]] = []
    trials = 0
    while len(points) < n_points and trials < 20 * n_points:
        trials += 1
        p = sample_jet_point(rng)
        args = tuple(p[v] for v in JET)
        try:
            z = np.array([[fn(*args) for fn in row] for row in compiled])
        except DomainError:
            continue
        sv = np.linalg.svd(z, compute_uv=False)
        rank = int(np.sum(sv > sv_tol * max(sv[0], 1e-300)))
        best_rank = max(best_rank, rank)
        points.append(args)
    if len(points) < n_points:
        raise SymmetryError("could not sample enough generic jet points")
    return ZReport(dim_m=7, rank_z=best_rank, k=7 - best_rank,
                   sample_points=points)

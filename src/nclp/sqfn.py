"""Square functions of sectorial operators under the dt/t measure.

For a sectorial operator A, a decaying sector function F and a matrix x,
the column square function is the L^p norm of the matrix square root of

    S = int_0^infty (F(tA)x)* (F(tA)x) dt/t,

discretized on a log-uniform grid (trapezoid in log t); the row version
uses u u* and the Rademacher version dispatches on p (max of the two for
p >= 2, an infimum over decompositions of the node family for p < 2).
The bracket norm instead minimizes col(x1) + row(x2) over matrix
splittings x = x1 + x2 upstream of the square function.  Norm-equivalence
constants and the explicit row/column gap family on the dyadic diagonal
2, 4, ..., 2^n are provided as experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import funcalc as fc
from .core import NumericsError, as_matrix, check_exponent, psd_sqrt, schatten_norm
from .hvnorms import _hstack_maps, _vstack_maps
from .optim import ConvexCfg, minimize_split_schatten

# Radial coverage of the default grid relative to the extreme spectral
# magnitudes.  The inner cutoff controls the truncation error of the
# dt/t integral (~ t_min * lambda_max for decay s = 1/2), which must sit
# well below the 1e-8 golden-value tolerances.
T_LO_REL = 1e-12
T_HI_REL = 1e6


@dataclass(frozen=True)
class LogGrid:
    """Log-uniform quadrature nodes for integrals against dt/t."""

    t: np.ndarray
    w: np.ndarray
    t_min: float
    t_max: float
    n: int

    @classmethod
    def make(cls, t_min: float, t_max: float, n: int = 512) -> "LogGrid":
        if not (0 < t_min < t_max) or n < 2:
            raise ValueError("need 0 < t_min < t_max and n >= 2")
        u = np.linspace(math.log(t_min), math.log(t_max), n)
        w = np.full(n, u[1] - u[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(t=np.exp(u), w=w, t_min=float(t_min), t_max=float(t_max), n=n)

    @classmethod
    def for_operator(cls, op: fc.LpOperator, n: int = 512) -> "LogGrid":
        lam = np.abs(op.spectrum())
        hi = float(np.max(lam)) if lam.size and np.max(lam) > 0 else 1.0
        nz = lam[lam > fc.ZERO_RTOL * hi]
        lo = float(np.min(nz)) if nz.size else hi
        return cls.make(T_LO_REL / hi, T_HI_REL / lo, n)

    def refine(self, n_factor: int = 2, widen: float = 1.0) -> "LogGrid":
        return LogGrid.make(self.t_min / widen, self.t_max * widen, self.n * n_factor)

    def mass(self) -> float:
        return float(np.sum(self.w))


def grid_cf(f: fc.HolFn, grid: LogGrid, scale: float = 1.0) -> float:
    """c_F on the grid: (sum_j w_j |F(scale * t_j)|^2)^{1/2}."""
    vals = np.abs(f(scale * grid.t)) ** 2
    return float(math.sqrt(np.sum(grid.w * vals)))


# ---------------------------------------------------------------------------
# Batched evaluation of t |-> F(tA)x on the grid
# ---------------------------------------------------------------------------


class _NodeFamily:
    """Precomputed action of {F(t_j A)}_j and of its Frobenius adjoints,
    diagonal in the operator's frame: F(t_j A) x = out(F(t_j lam) * into(x))."""

    def __init__(self, op: fc.LpOperator, f: fc.HolFn, grid: LogGrid):
        self.grid = grid
        self.dim = op.dim
        lam, self._into, self._out, self._into_adj, self._out_adj = op.frame()
        self.vals = _node_scalar(f, grid.t, lam)

    def fwd(self, x: np.ndarray) -> np.ndarray:
        """(n, d, d) array of F(t_j A) x."""
        x = np.asarray(x, dtype=np.complex128)
        return self._out(self.vals * self._into(x)[None])

    def adj(self, ys: np.ndarray) -> np.ndarray:
        """Adjoint of fwd: sum_j F(t_j A)^dagger y_j."""
        ys = np.asarray(ys, dtype=np.complex128)
        return self._into_adj(np.sum(np.conj(self.vals) * self._out_adj(ys), axis=0))


def _node_scalar(f: fc.HolFn, t: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """F(t_j * sym) with the F(0) = 0 kernel convention; shape (n,) + sym.shape."""
    sym = np.asarray(sym, dtype=np.complex128)
    scale = float(np.max(np.abs(sym))) if sym.size else 0.0
    mask = np.abs(sym) <= fc.ZERO_RTOL * max(scale, 1e-300)
    arg = t.reshape((-1,) + (1,) * sym.ndim) * sym[None, ...]
    safe = np.where(mask[None, ...], 1.0, arg)
    out = np.asarray(f(safe))
    return np.where(mask[None, ...], 0.0, out)


def node_apply(op, x, f: fc.HolFn, grid: LogGrid) -> np.ndarray:
    """Stacked evaluations F(t_j A) x on the grid, shape (n, d, d)."""
    return _NodeFamily(op, f, grid).fwd(as_matrix(x))


def _scaled_nodes(op, x, f, grid) -> np.ndarray:
    return np.sqrt(grid.w)[:, None, None] * node_apply(op, x, f, grid)


def sq_col(op, x, f: fc.HolFn, grid: LogGrid | None = None, p: float = 2.0) -> float:
    """Column square function || (int (F(tA)x)*(F(tA)x) dt/t)^{1/2} ||_p."""
    check_exponent(p)
    if grid is None:
        grid = LogGrid.for_operator(op)
    u = _scaled_nodes(op, x, f, grid)
    s = np.einsum("jab,jac->bc", u.conj(), u)
    return schatten_norm(psd_sqrt(s), p)


def sq_row(op, x, f: fc.HolFn, grid: LogGrid | None = None, p: float = 2.0) -> float:
    """Row square function, with (F(tA)x)(F(tA)x)* under the integral."""
    check_exponent(p)
    if grid is None:
        grid = LogGrid.for_operator(op)
    u = _scaled_nodes(op, x, f, grid)
    s = np.einsum("jab,jcb->ac", u, u.conj())
    return schatten_norm(psd_sqrt(s), p)


def sq_rad(
    op,
    x,
    f: fc.HolFn,
    grid: LogGrid | None = None,
    p: float = 2.0,
    cfg: ConvexCfg | None = None,
) -> float:
    """Symmetric square function: max(col, row) for p >= 2; for p < 2 the
    infimum of col(u1) + row(u - u1) over splittings of the node family."""
    p = check_exponent(p)
    if grid is None:
        grid = LogGrid.for_operator(op)
    if p >= 2.0:
        return max(sq_col(op, x, f, grid, p), sq_row(op, x, f, grid, p))
    u0 = _scaled_nodes(op, x, f, grid)
    n, d1, d2 = u0.shape
    f1, a1 = _vstack_maps(n, d1, d2)
    f2, a2 = _hstack_maps(n, d1, d2)
    return minimize_split_schatten(f1, a1, f2, a2, u0, p, cfg).value


@dataclass
class BracketResult:
    value: float
    witness: np.ndarray  # the optimal x1 in x = x1 + x2
    status: str


def bracket_norm(
    op,
    x,
    f: fc.HolFn,
    grid: LogGrid | None = None,
    p: float = 2.0,
    cfg: ConvexCfg | None = None,
) -> BracketResult:
    """inf { col-sq(x1) + row-sq(x - x1) } over matrix splittings.

    The infimum runs over decompositions of x itself, upstream of the
    square function, so the value always dominates the symmetric square
    function of x.
    """
    p = check_exponent(p)
    if grid is None:
        grid = LogGrid.for_operator(op)
    x = as_matrix(x)
    fam = _NodeFamily(op, f, grid)
    sw = np.sqrt(grid.w)[:, None, None]
    col, col_adj = _vstack_maps(grid.n, op.dim, op.dim)
    row, row_adj = _hstack_maps(grid.n, op.dim, op.dim)
    res = minimize_split_schatten(
        lambda x1: col(sw * fam.fwd(x1)),
        lambda m: fam.adj(sw * col_adj(m)),
        lambda x2: row(sw * fam.fwd(x2)),
        lambda m: fam.adj(sw * row_adj(m)),
        x,
        p,
        cfg,
    )
    return BracketResult(value=res.value, witness=res.minimizer, status=res.status)


@dataclass
class SquareReport:
    col: float
    row: float
    rad: float
    bracket: float | None
    grid: LogGrid
    truncated: bool


def square_report(
    op,
    x,
    f: fc.HolFn,
    grid: LogGrid | None = None,
    p: float = 2.0,
    cfg: ConvexCfg | None = None,
    with_bracket: bool | None = None,
) -> SquareReport:
    """All square functions of one matrix, plus a truncation diagnostic
    (endpoint node mass relative to the peak node mass)."""
    p = check_exponent(p)
    if grid is None:
        grid = LogGrid.for_operator(op)
    u = _scaled_nodes(op, x, f, grid)
    mags = np.linalg.norm(u.reshape(grid.n, -1), axis=1)
    peak = float(np.max(mags)) if mags.size else 0.0
    # endpoint mass enters the accumulated square S quadratically
    truncated = bool(peak > 0 and max(mags[0], mags[-1]) ** 2 > 1e-9 * peak**2)
    col = sq_col(op, x, f, grid, p)
    row = sq_row(op, x, f, grid, p)
    rad = max(col, row) if p >= 2.0 else sq_rad(op, x, f, grid, p, cfg)
    if with_bracket is None:
        with_bracket = p < 2.0
    bracket = bracket_norm(op, x, f, grid, p, cfg).value if with_bracket else None
    return SquareReport(
        col=col, row=row, rad=rad, bracket=bracket, grid=grid, truncated=truncated
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class EquivReport:
    """Measured two-sided constants of the norm equivalence

        (1/k1) * (||x||_F + ||P x||) >= ||x|| and ||x||_F <= k2 * ||x||

    over a seeded sample, with P the spectral projection onto the kernel."""

    k1_hat: float
    k2_hat: float
    p: float
    variant: str
    samples: int


def equivalence_experiment(
    op,
    f: fc.HolFn,
    p: float,
    sample_count: int,
    seed: int,
    grid: LogGrid | None = None,
    variant: str = "rad",
    cfg: ConvexCfg | None = None,
) -> EquivReport:
    if variant not in ("col", "row", "rad"):
        raise ValueError(f"unknown variant {variant!r}")
    p = check_exponent(p)
    if grid is None:
        grid = LogGrid.for_operator(op)
    proj = op.kernel_projection()
    rng = np.random.default_rng(seed)
    d = op.dim
    k1, k2 = math.inf, 0.0
    for _ in range(sample_count):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        nx = schatten_norm(x, p)
        if variant == "col":
            sq = sq_col(op, x, f, grid, p)
        elif variant == "row":
            sq = sq_row(op, x, f, grid, p)
        else:
            sq = sq_rad(op, x, f, grid, p, cfg)
        pnorm = schatten_norm(proj.apply(x), p)
        k1 = min(k1, (sq + pnorm) / nx)
        k2 = max(k2, sq / nx)
    return EquivReport(k1_hat=k1, k2_hat=k2, p=p, variant=variant, samples=sample_count)


def dyadic_gap_coefficients(n: int) -> np.ndarray:
    """Toeplitz coefficients d_k = 2^{k/2} / (1 + 2^k), k = 0..n-1."""
    k = np.arange(n, dtype=float)
    return 2.0 ** (k / 2.0) / (1.0 + 2.0**k)


@dataclass
class GapReport:
    n: int
    p: float
    fc_val: float
    fr_val: float
    fr_closed_form: float
    ratio: float


def row_col_gap(n: int, p: float, grid: LogGrid | None = None) -> GapReport:
    """The rank-one witness of the row/column square-function gap.

    A is left multiplication by diag(2, 4, ..., 2^n), x = (e (x) e)/sqrt(n)
    with e the all-ones vector, and F = sqrt(z) e^{-z}.  The column value
    is sqrt(n/2); the row value has the closed form
    || [d_{|i-j|}] ||_{S^{p/2}}^{1/2}, verified here against the
    quadrature to relative 1e-6.  The ratio column/row grows with n.
    """
    p = check_exponent(p)
    if not p > 2.0:
        raise ValueError("the gap points in this direction only for p > 2")
    f = fc.library("sqrtzexp")
    op = fc.LeftMult(np.diag(2.0 ** np.arange(1, n + 1)))
    if grid is None:
        grid = LogGrid.for_operator(op)
    e = np.ones((n, 1))
    x = (e @ e.T) / math.sqrt(n)
    fc_val = sq_col(op, x, f, grid, p)
    fr_val = sq_row(op, x, f, grid, p)
    d = dyadic_gap_coefficients(n)
    idx = np.arange(n)
    delta = d[np.abs(idx[:, None] - idx[None, :])]
    fr_closed = math.sqrt(schatten_norm(delta, p / 2.0))
    if abs(fr_val - fr_closed) > 1e-6 * fr_closed:
        raise NumericsError(
            f"row square function {fr_val!r} disagrees with closed form "
            f"{fr_closed!r} beyond 1e-6 relative"
        )
    return GapReport(
        n=n,
        p=p,
        fc_val=fc_val,
        fr_val=fr_val,
        fr_closed_form=fr_closed,
        ratio=fc_val / fr_val,
    )

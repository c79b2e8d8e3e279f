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

The n weighted nodes u_j = sqrt(w_j) F(t_j A) x are linear in at most
m = d^2 spectral coefficients, so they span at most m dimensions of the
index space.  A reduced QR of the n x m weight matrix, sqrt(w) F(t lam) =
Q R, writes u = (Q (x) 1) v with v_i = out(R_i * into(x)) and Q an
isometry.  The column, row and sum norms are invariant under an isometry
of the index space (the sum norm because tensor extension by Q* is
contractive), so every square function, and the bracket solver, runs on
the min(n, m) members v instead of the n nodes, with the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import funcalc as fc
from .core import NumericsError, as_matrix, check_exponent, schatten_norm
from .hvnorms import _hstack_maps, _vstack_maps, col_norm, rad_norm, row_norm
from .optim import ConvexCfg, SolveResult, minimize_split_schatten

# Radial coverage of the default grid relative to the extreme spectral
# magnitudes.  The inner cutoff controls the truncation error of the
# dt/t integral (~ t_min * lambda_max for decay s = 1/2), which must sit
# well below the 1e-8 golden-value tolerances.
T_LO_REL = 1e-12
T_HI_REL = 1e6


@dataclass(frozen=True)
class LogGrid:
    """Log-uniform quadrature nodes for integrals against dt/t: the n = t.size
    nodes of :func:`funcalc.log_trapezoid` on [t_min, t_max].  The ends are
    stored as given, since exp(log(t_min)) need not round back to t_min."""

    t: np.ndarray
    w: np.ndarray
    t_min: float
    t_max: float

    n = property(lambda self: self.t.size)

    @classmethod
    def make(cls, t_min: float, t_max: float, n: int = 512) -> "LogGrid":
        if not (0 < t_min < t_max) or n < 2:
            raise ValueError("need 0 < t_min < t_max and n >= 2")
        t, w = fc.log_trapezoid(t_min, t_max, n)
        return cls(t=t, w=w, t_min=float(t_min), t_max=float(t_max))

    @classmethod
    def for_operator(cls, op: fc.LpOperator, n: int = 512) -> "LogGrid":
        lo, hi = fc.spectral_window(op.spectrum())
        return cls.make(T_LO_REL / hi, T_HI_REL / lo, n)

    def refine(self, n_factor: int = 2, widen: float = 1.0) -> "LogGrid":
        return LogGrid.make(self.t_min / widen, self.t_max * widen, self.n * n_factor)


# ---------------------------------------------------------------------------
# The node family t |-> F(tA) on the grid, and the square functions of a
# weighted node stack u_j = sqrt(w_j) F(t_j A) x
# ---------------------------------------------------------------------------


class _NodeFamily:
    """Precomputed action of {F(t_j A)}_j, diagonal in the operator's
    frame: F(t_j A) x = out(F(t_j lam) * into(x)).  Without a grid the
    operator's default grid is used.  Every square function of one
    (A, F, grid) derives from one family.  An operator whose type angle is
    not below F's sector is refused before F is evaluated.

    The weighted nodes are compressed exactly: with sqrt(w) F(t lam) = Q R
    (reduced QR over the n nodes, R of shape (min(n, lam.size), *lam.shape)),
    the weighted node stack is (Q (x) 1) applied to the members
    out(R_i * into(x)), and Q preserves column, row and sum norms."""

    def __init__(self, op: fc.LpOperator, f: fc.HolFn, grid: LogGrid | None = None):
        fc.check_sector(op, f)
        self.grid = LogGrid.for_operator(op) if grid is None else grid
        self.dim = op.dim
        lam, self._into, self._out, self._into_adj, self._out_adj = op.frame()
        lam = np.asarray(lam, dtype=np.complex128)
        ker = fc.kernel_mask(lam)  # F(0) = 0 on the kernel
        arg = self.grid.t.reshape((-1,) + (1,) * lam.ndim) * lam
        self.vals = np.where(ker, 0.0, np.asarray(f(np.where(ker, 1.0, arg))))

    @cached_property
    def coef(self) -> np.ndarray:
        """R of the reduced QR sqrt(w) F(t lam) = Q R, one member per row."""
        weighted = np.sqrt(self.grid.w)[:, None] * self.vals.reshape(self.grid.n, -1)
        return np.linalg.qr(weighted, mode="r").reshape((-1,) + self.vals.shape[1:])

    def nodes(self, x: np.ndarray) -> np.ndarray:
        """(n, d, d) array of F(t_j A) x on the full grid."""
        return self._out(self.vals * self._into(x)[None])

    def fwd(self, x: np.ndarray) -> np.ndarray:
        """The compressed members out(R_i * into(x)), shape (len(R), d, d)."""
        return self._out(self.coef * self._into(x)[None])

    def adj(self, ys: np.ndarray) -> np.ndarray:
        """Adjoint of fwd: sum_i out(R_i * into(.))^dagger y_i."""
        ys = np.asarray(ys, dtype=np.complex128)
        return self._into_adj(np.sum(np.conj(self.coef) * self._out_adj(ys), axis=0))

    def weighted(self, x) -> np.ndarray:
        """A family with the column, row and sum norms of the weighted node
        stack sqrt(w_j) F(t_j A) x: its compressed members."""
        return self.fwd(as_matrix(x))


def node_apply(op, x, f: fc.HolFn, grid: LogGrid) -> np.ndarray:
    """Stacked evaluations F(t_j A) x on the grid, shape (n, d, d)."""
    return _NodeFamily(op, f, grid).nodes(as_matrix(x))


def sq_col(op, x, f: fc.HolFn, grid: LogGrid | None = None, p: float = 2.0) -> float:
    """Column square function || (int (F(tA)x)*(F(tA)x) dt/t)^{1/2} ||_p."""
    p = check_exponent(p)
    return col_norm(_NodeFamily(op, f, grid).weighted(x), p)


def sq_row(op, x, f: fc.HolFn, grid: LogGrid | None = None, p: float = 2.0) -> float:
    """Row square function, with (F(tA)x)(F(tA)x)* under the integral."""
    p = check_exponent(p)
    return row_norm(_NodeFamily(op, f, grid).weighted(x), p)


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
    return rad_norm(_NodeFamily(op, f, grid).weighted(x), p, cfg)[0]


def _bracket(fam: _NodeFamily, x, p: float, cfg: ConvexCfg | None) -> SolveResult:
    members = len(fam.coef)
    col, col_adj = _vstack_maps(members, fam.dim, fam.dim)
    row, row_adj = _hstack_maps(members, fam.dim, fam.dim)
    return minimize_split_schatten(
        lambda x1: col(fam.fwd(x1)),
        lambda m: fam.adj(col_adj(m)),
        lambda x2: row(fam.fwd(x2)),
        lambda m: fam.adj(row_adj(m)),
        as_matrix(x),
        p,
        cfg,
    )


def bracket_norm(
    op,
    x,
    f: fc.HolFn,
    grid: LogGrid | None = None,
    p: float = 2.0,
    cfg: ConvexCfg | None = None,
) -> SolveResult:
    """inf { col-sq(x1) + row-sq(x - x1) } over matrix splittings.

    The infimum runs over decompositions of x itself, upstream of the
    square function, so the value always dominates the symmetric square
    function of x.  The minimizer is the optimal x1 in x = x1 + x2.
    """
    p = check_exponent(p)
    return _bracket(_NodeFamily(op, f, grid), x, p, cfg)


@dataclass
class SquareReport:
    col: float
    row: float
    rad: float
    bracket: float | None
    truncated: bool
    solves: tuple[SolveResult, ...]  # one per split-norm solve (rad, bracket)


def square_report(
    op,
    x,
    f: fc.HolFn,
    grid: LogGrid | None = None,
    p: float = 2.0,
    cfg: ConvexCfg | None = None,
) -> SquareReport:
    """All square functions of one matrix from one node family (the bracket
    norm exactly when p < 2), plus a truncation diagnostic (endpoint node
    mass relative to the peak)."""
    p = check_exponent(p)
    fam = _NodeFamily(op, f, grid)
    u = fam.weighted(x)
    nodes = fam.nodes(as_matrix(x)).reshape(fam.grid.n, -1)
    mags = np.sqrt(fam.grid.w) * np.linalg.norm(nodes, axis=1)
    peak = float(np.max(mags)) if mags.size else 0.0
    # endpoint mass enters the accumulated square S quadratically
    truncated = bool(peak > 0 and max(mags[0], mags[-1]) ** 2 > 1e-9 * peak**2)
    rad, solves = rad_norm(u, p, cfg)
    bracket = None
    if p < 2.0:
        res = _bracket(fam, x, p, cfg)
        bracket, solves = res.value, solves + (res,)
    return SquareReport(
        col=col_norm(u, p),
        row=row_norm(u, p),
        rad=rad,
        bracket=bracket,
        truncated=truncated,
        solves=solves,
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
    solves: tuple[SolveResult, ...]  # one per split-norm solve


def equivalence_experiment(
    op,
    f: fc.HolFn,
    p: float,
    sample_count: int,
    seed: int,
    grid: LogGrid | None = None,
    variant: str = "rad",
) -> EquivReport:
    if variant not in ("col", "row", "rad"):
        raise ValueError(f"unknown variant {variant!r}")
    p = check_exponent(p)
    fam = _NodeFamily(op, f, grid)
    square = {
        "col": lambda u: (col_norm(u, p), ()),
        "row": lambda u: (row_norm(u, p), ()),
        "rad": lambda u: rad_norm(u, p),
    }[variant]
    proj = op.kernel_projection()
    rng = np.random.default_rng(seed)
    d = op.dim
    k1, k2 = math.inf, 0.0
    solves = ()
    for _ in range(sample_count):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        nx = schatten_norm(x, p)
        sq, solved = square(fam.weighted(x))
        solves += solved
        pnorm = schatten_norm(proj.apply(x), p)
        k1 = min(k1, (sq + pnorm) / nx)
        k2 = max(k2, sq / nx)
    return EquivReport(k1_hat=k1, k2_hat=k2, solves=solves)


def dyadic_gap_coefficients(n: int) -> np.ndarray:
    """Toeplitz coefficients d_k = 2^{k/2} / (1 + 2^k), k = 0..n-1."""
    k = np.arange(n, dtype=float)
    return 2.0 ** (k / 2.0) / (1.0 + 2.0**k)


@dataclass
class GapReport:
    fc_val: float
    fr_val: float
    fr_closed_form: float
    ratio: float
    grid: LogGrid  # the node family's grid: the operator's default unless one was given


def check_gap_exponent(p: float) -> float:
    """A Schatten exponent above 2, the range of :func:`row_col_gap`."""
    p = check_exponent(p)
    if not p > 2.0:
        raise ValueError("the gap points in this direction only for p > 2")
    return p


def row_col_gap(n: int, p: float, grid: LogGrid | None = None) -> GapReport:
    """The rank-one witness of the row/column square-function gap.

    A is left multiplication by diag(2, 4, ..., 2^n), x = (e (x) e)/sqrt(n)
    with e the all-ones vector, and F = sqrt(z) e^{-z}.  The column value
    is sqrt(n/2); the row value has the closed form
    || [d_{|i-j|}] ||_{S^{p/2}}^{1/2}, verified here against the
    quadrature to relative 1e-6.  The ratio column/row grows with n.
    """
    p = check_gap_exponent(p)
    f = fc.library("sqrtzexp")
    op = fc.LeftMult(np.diag(2.0 ** np.arange(1, n + 1)))
    e = np.ones((n, 1))
    nodes = _NodeFamily(op, f, grid)
    u = nodes.weighted((e @ e.T) / math.sqrt(n))
    fc_val, fr_val = col_norm(u, p), row_norm(u, p)
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
        fc_val=fc_val,
        fr_val=fr_val,
        fr_closed_form=fr_closed,
        ratio=fc_val / fr_val,
        grid=nodes.grid,
    )

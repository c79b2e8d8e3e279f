"""Shared convex solver for sums of Schatten norms of linear images.

Several norms in this package are defined as infima over decompositions,
always of the shape

    minimize_v  || L1(v) ||_p  +  || L2(v0 - v) ||_p

with L1, L2 linear maps from an array of matrices into a single (stacked)
matrix.  The objective is convex but nonsmooth.  The solver starts at
the better of the trivial splits v = v0 and v = 0, whose objective
min(||L1 v0||_p, ||L2 v0||_p) is the scale, and certifies it (below).
Unless that already closes the interval, it runs one deterministic
smoothing continuation: singular values s become sqrt(s^2 + mu^2), and
for mu = scale * 10^-k, k = 1, 2, ..., a limited-memory BFGS run
(two-loop recursion, Armijo backtracking) in the real inner product
Re tr(x* y) minimizes the smoothed objective.  The first stage starts at
the trivial split, each later one where the last one ended.  Smoothed
values and gradients come from one eigendecomposition of the small Gram
matrix of each image (y*y or y y*), never a tall SVD.

The start and every stage end with an interval [lower, upper] for the
infimum.  The upper end is the exact (SVD) objective of the best point
seen, trivial splits included, so it never exceeds
min(||L1 v0||_p, ||L2 v0||_p).  The lower end is weak duality: whenever
L1* xi1 = L2* xi2 = w,

    ||L1 v||_p + ||L2 (v0 - v)||_p  >=  Re<w, v0> / max(||xi1||_p', ||xi2||_p')

for every v, by Hoelder on each term.  One certificate holds xi on one
side and corrects the other side by conjugate gradients.  A stage holds
xi1 = g1, the smoothed gradient of side 1, and takes xi2 = g2 + L2 z, the
side-2 gradient corrected through L2* L2 z = w - L2* g2.  The start holds
the side the trivial split keeps, with xi its exact norming element (an
S^p'-unit), and takes L z on the side whose image is 0, with
L* L z = w.  For the sum norm the denominator is the intersection norm in
p', the dual of the sum norm (Lust-Piquard--Pisier).  So the start closes
the interval when the trivial split is optimal and its norming element,
so corrected, attains that dual norm, as on a family u_j = c_j y.  The
result is a :class:`core.Bound` on the infimum: a run is "converged"
exactly when that interval is :meth:`core.Bound.within` ``tol``
(upper - lower <= tol * upper), checked before every stage; a run that
converges at its start reports ``iters`` 0 and its trivial split.
Otherwise it ends "budget-exhausted" after MU_DECADES stages and still
reports its interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Bound, conjugate_exponent, polar_factor, schatten_norm

MU_DECADES = 8  # smoothing stages mu = scale * 10^-k, k = 1..MU_DECADES
MEMORY = 8  # L-BFGS correction pairs
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking search
BACKTRACKS = 30  # halvings before a step counts as lost in roundoff
ROUNDOFF = 1e-12  # relative change of the smoothed objective below its roundoff


@dataclass
class ConvexCfg:
    """Budget and tolerance of the split-norm solver.

    ``iters`` caps the L-BFGS iterations of each smoothing stage, and
    ``tol`` is the relative duality gap at which a solve is converged.
    ``restarts`` and ``seed`` are ignored: the solver is deterministic and
    runs from one start.  They are kept only so that existing callers that
    still set them keep working.
    """

    iters: int = 2000
    tol: float = 1e-6
    restarts: int = 0
    seed: int = 0


@dataclass(frozen=True, kw_only=True)
class SolveResult(Bound):
    """The certified interval of one solve: ``upper`` (also ``value``) is
    the exact objective of ``minimizer``, ``lower`` the weak-duality bound,
    and ``status`` is "converged" exactly when the interval is within
    ``tol``, else "budget-exhausted"."""

    minimizer: np.ndarray
    iters: int  # L-BFGS iterations over all stages
    tol: float

    value = property(lambda self: self.upper)
    status = property(lambda self: "converged" if self.within(self.tol) else "budget-exhausted")


def _smooth_value_grad(y: np.ndarray, p: float, mu: float):
    """Smoothed Schatten p-norm and its gradient, both from one
    eigendecomposition of the small Gram matrix.

    With G = y*y for a tall y (y y* for a wide one) and
    h(t) = total^(1/p-1) (t + mu^2)^(p/2-1), the gradient with respect to
    the real inner product Re tr(x* y) is y h(G) (h(G) y for a wide y).
    """
    tall = y.shape[0] >= y.shape[1]
    gram = y.conj().T @ y if tall else y @ y.conj().T
    lam, v = np.linalg.eigh(gram)
    shifted = np.clip(lam, 0.0, None) + mu * mu
    total = float(np.sum(shifted ** (0.5 * p)))
    if total <= 0.0:
        return 0.0, np.zeros_like(y)
    val = total ** (1.0 / p)
    h = total ** (1.0 / p - 1.0) * shifted ** (0.5 * p - 1.0)
    hg = (v * h) @ v.conj().T
    return val, (y @ hg if tall else hg @ y)


def _rdot(a: np.ndarray, b: np.ndarray) -> float:
    """The real inner product Re tr(a* b) of two equally shaped arrays."""
    return float(np.vdot(a, b).real)


def _conjugate_gradients(op, rhs: np.ndarray, steps: int) -> np.ndarray:
    """Solve op(z) = rhs for op self-adjoint and positive semidefinite in the
    real inner product, with rhs in its range (the normal equations of a
    linear map are).  Stops at roundoff level or after ``steps`` steps."""
    z = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rr = _rdot(r, r)
    floor = (1e-14 * np.sqrt(rr)) ** 2
    for _ in range(steps):
        if rr <= floor:
            break
        q = op(d)
        dq = _rdot(d, q)
        if dq <= 0.0:
            break
        step = rr / dq
        z += step * d
        r -= step * q
        rr, rr_prev = _rdot(r, r), rr
        d = r + (rr / rr_prev) * d
    return z


def _lbfgs(fun, x: np.ndarray, iters: int, gtol: float, gamma: float):
    """Minimize a smooth function from x by limited-memory BFGS.

    ``fun(x)`` returns (value, gradient).  The first direction is
    -gamma * gradient.  Stops when the gradient norm is at most ``gtol``,
    after ``iters`` iterations, or when backtracking finds no decrease
    above roundoff.  Returns the last point and the iteration count.
    """
    f, g = fun(x)
    pairs = deque(maxlen=MEMORY)  # (s, y, 1 / <s, y>)
    done = 0
    while done < iters and np.sqrt(_rdot(g, g)) > gtol:
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * _rdot(s, q)
            q -= a * y
            alphas.append(a)
        d = gamma * q
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * _rdot(y, d)) * s
        d = -d
        slope = _rdot(g, d)
        if slope >= 0.0:  # curvature pairs gone stale: restart from -gamma g
            pairs.clear()
            d = -gamma * g
            slope = _rdot(g, d)
        t = 1.0
        for _ in range(BACKTRACKS):
            x_new = x + t * d
            f_new, g_new = fun(x_new)
            if f_new - f <= ARMIJO * t * slope:
                break
            # once the decrease is lost in the roundoff of f, the slope at
            # the trial point decides (approximate Wolfe, Hager-Zhang)
            if f_new - f <= ROUNDOFF * abs(f) and _rdot(g_new, d) <= -0.8 * slope:
                break
            t *= 0.5
        else:
            break
        s, y = x_new - x, g_new - g
        if not np.any(s):
            break
        sy = _rdot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / _rdot(y, y)
        x, f, g = x_new, f_new, g_new
        done += 1
    return x, done


def minimize_split_schatten(
    fwd1,
    adj1,
    fwd2,
    adj2,
    v0: np.ndarray,
    p: float,
    cfg: ConvexCfg | None = None,
) -> SolveResult:
    """Minimize ``||L1(v)||_p + ||L2(v0 - v)||_p`` over v, with a certified
    interval for the infimum.

    ``fwd1``/``adj1`` and ``fwd2``/``adj2`` are the forward maps and their
    adjoints with respect to the real trace inner product.  The better
    trivial split is certified before any smoothing stage; when its
    interval is already within ``cfg.tol``, no stage runs and the result
    has ``iters`` 0 (the trivial split is optimal to that tolerance).
    """
    if cfg is None:
        cfg = ConvexCfg()
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"solver requires a finite exponent p >= 1, got {p}")
    v0 = np.asarray(v0, dtype=np.complex128)
    dual_p = conjugate_exponent(p)

    def exact_objective(v):
        return schatten_norm(fwd1(v), p) + schatten_norm(fwd2(v0 - v), p)

    def side_grads(v, mu):
        f1, g1 = _smooth_value_grad(fwd1(v), p, mu)
        f2, g2 = _smooth_value_grad(fwd2(v0 - v), p, mu)
        return f1 + f2, g1, g2

    def smoothed(v, mu):
        f, g1, g2 = side_grads(v, mu)
        return f, adj1(g1) - adj2(g2)

    def certificate(held, other, xi, held_norm, g_other):
        """Weak duality with xi on the held side and the other side's
        gradient g_other corrected by conjugate gradients.  The sides are
        (fwd, adj) pairs, so one rule serves both trivial starts and,
        holding side 1, every stage."""
        (_, held_adj), (fwd, adj) = held, other
        w = held_adj(xi)
        z = _conjugate_gradients(lambda u: adj(fwd(u)), w - adj(g_other), 2 * v0.size)
        dual = max(held_norm, schatten_norm(g_other + fwd(z), dual_p))
        return _rdot(w, v0) / dual if dual > 0.0 else 0.0

    # the trivial splits v = v0 and v = 0 hold all of v0 on one side; the
    # other side's image is 0, where 0 is a subgradient, and the norming
    # element of the held image is an S^{p'}-unit (held norm 1)
    side1, side2 = (fwd1, adj1), (fwd2, adj2)
    y1, y2 = fwd1(v0), fwd2(v0)
    starts = [(schatten_norm(y1, p), v0, side1, side2, y1, y2),
              (schatten_norm(y2, p), np.zeros_like(v0), side2, side1, y2, y1)]
    upper, best, held, other, y, y_other = min(starts, key=lambda s: s[0])
    # a valid lower bound exceeds the upper one only by roundoff
    lower = min(certificate(held, other, polar_factor(y, p), 1.0, np.zeros_like(y_other)), upper)
    scale, iters, x = upper, 0, best
    for k in range(1, MU_DECADES + 1):
        if Bound(lower, upper).within(cfg.tol):
            break
        mu = scale * 10.0**-k
        # the gradient w - L2* g2 is the residual the certificate corrects;
        # below the smoothing bias ~ mu / scale it buys no tighter interval
        gtol = 0.3 * max(10.0**-k, cfg.tol)
        x, done = _lbfgs(partial(smoothed, mu=mu), x, cfg.iters, gtol, mu)
        iters += done
        val = exact_objective(x)
        if val < upper:
            upper, best = val, x
        _, g1, g2 = side_grads(x, mu)
        lower = min(max(lower, certificate(side1, side2, g1, schatten_norm(g1, dual_p), g2)), upper)
    return SolveResult(lower, upper, minimizer=best.copy(), iters=iters, tol=cfg.tol)

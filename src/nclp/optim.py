"""Shared convex solver for sums of Schatten norms of linear images.

Several norms in this package are defined as infima over decompositions,
always of the shape

    minimize_v  || L1(v) ||_p  +  || L2(v0 - v) ||_p

with L1, L2 linear maps from an array of matrices into a single (stacked)
matrix.  The objective is convex but nonsmooth; we run Nesterov-accelerated
gradient descent on a smoothed surrogate (singular values s replaced by
sqrt(s^2 + mu^2)) over a decreasing smoothing schedule, with multiple
starts.  Each step takes its spectra from one eigendecomposition of the
small Gram matrix of each image (y*y or y y*), never a tall SVD.  Gram
spectra square the condition number, so they only rank iterates: the
reported value is the exact (SVD) objective of the reported minimizer.
Because the problem is a minimization, every iterate is feasible, so the
reported value is always a valid upper bound on the true infimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import schatten_from_sv

STAGES, MU_START = 4, 1e-1  # smoothing schedule mu = MU_START * scale * 10^-stage


@dataclass
class ConvexCfg:
    """Budget and determinism knobs for the split-norm solver."""

    restarts: int = 16
    iters: int = 500
    seed: int = 0
    tol: float = 1e-6


@dataclass
class SolveResult:
    value: float
    minimizer: np.ndarray
    status: str  # "converged" | "budget-exhausted"


def _smooth_value_grad(y: np.ndarray, p: float, mu: float):
    """Smoothed Schatten p-norm, its gradient, and the norm on the Gram
    spectrum, all from one eigendecomposition of the small Gram matrix.

    With G = y*y for a tall y (y y* for a wide one) and
    h(t) = total^(1/p-1) (t + mu^2)^(p/2-1), the gradient with respect to
    the real inner product Re tr(x* y) is y h(G) (h(G) y for a wide y).
    The third value squares the condition number, so it only ranks
    iterates; reported values come from ``exact_objective``.
    """
    tall = y.shape[0] >= y.shape[1]
    gram = y.conj().T @ y if tall else y @ y.conj().T
    lam, v = np.linalg.eigh(gram)
    lam = np.clip(lam, 0.0, None)
    gram_norm = float(schatten_from_sv(np.sqrt(lam[::-1]), p))
    shifted = lam + mu * mu
    total = float(np.sum(shifted ** (0.5 * p)))
    if total <= 0.0:
        return 0.0, np.zeros_like(y), gram_norm
    val = total ** (1.0 / p)
    h = total ** (1.0 / p - 1.0) * shifted ** (0.5 * p - 1.0)
    hg = (v * h) @ v.conj().T
    return val, (y @ hg if tall else hg @ y), gram_norm


def _op_norm_sq(fwd, adj, shape, rng, iters: int = 30) -> float:
    """Power-iteration estimate of ||L||^2 for a linear map L given as
    (forward, adjoint) callables on arrays of the given shape."""
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lam = 1.0
    for _ in range(iters):
        w = adj(fwd(v))
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 1.0
        lam = nrm / max(float(np.linalg.norm(v)), 1e-300)
        v = w / nrm
    return max(lam, 1e-12)


def minimize_split_schatten(
    fwd1,
    adj1,
    fwd2,
    adj2,
    v0: np.ndarray,
    p: float,
    cfg: ConvexCfg | None = None,
) -> SolveResult:
    """Minimize ``||L1(v)||_p + ||L2(v0 - v)||_p`` over v.

    ``fwd1``/``adj1`` and ``fwd2``/``adj2`` are the forward maps and their
    adjoints with respect to the real trace inner product.
    """
    if cfg is None:
        cfg = ConvexCfg()
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"solver requires a finite exponent p >= 1, got {p}")
    rng = np.random.default_rng(cfg.seed)
    v0 = np.asarray(v0, dtype=np.complex128)

    def exact_objective(v):
        n1 = np.linalg.svd(fwd1(v), compute_uv=False)
        n2 = np.linalg.svd(fwd2(v0 - v), compute_uv=False)
        return float(schatten_from_sv(n1, p)) + float(schatten_from_sv(n2, p))

    # Lipschitz scale of the smoothed gradient is (||L1||^2 + ||L2||^2)/mu.
    lip_base = _op_norm_sq(fwd1, adj1, v0.shape, rng) + _op_norm_sq(
        fwd2, adj2, v0.shape, rng
    )

    scale = max(exact_objective(v0), exact_objective(np.zeros_like(v0)), 1e-12)

    starts = [v0.copy(), np.zeros_like(v0), 0.5 * v0]
    amp = float(np.linalg.norm(v0)) / max(np.sqrt(v0.size), 1.0)
    while len(starts) < max(cfg.restarts, 3):
        starts.append(
            amp * (rng.standard_normal(v0.shape) + 1j * rng.standard_normal(v0.shape))
        )

    best_val = np.inf
    best_v = v0.copy()
    improved_late = False

    iters_per_stage = max(cfg.iters // STAGES, 10)
    for start in starts:
        x = start.copy()
        for stage in range(STAGES):
            mu = MU_START * scale * 10.0 ** (-stage)
            step = mu / lip_base
            x_prev = x.copy()
            y = x.copy()
            for k in range(iters_per_stage):
                _, g1, r1 = _smooth_value_grad(fwd1(y), p, mu)
                _, g2, r2 = _smooth_value_grad(fwd2(v0 - y), p, mu)
                ranked = r1 + r2
                if ranked < best_val - cfg.tol * scale:
                    improved_late = stage == STAGES - 1 and k > iters_per_stage // 2
                if ranked < best_val:
                    best_val = ranked
                    best_v = y.copy()
                grad = adj1(g1) - adj2(g2)
                x_new = y - step * grad
                y = x_new + (k / (k + 3.0)) * (x_new - x_prev)
                x_prev = x
                x = x_new
        final = exact_objective(x)
        if final < best_val:
            best_val = final
            best_v = x.copy()

    status = "budget-exhausted" if improved_late else "converged"
    return SolveResult(value=exact_objective(best_v), minimizer=best_v, status=status)

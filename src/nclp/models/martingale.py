"""Matrix martingale towers and their Cesaro square functions.

The ambient algebra is the N-fold tensor power of the 2 x 2 matrices; the
canonical conditional expectation E_k keeps k tensor factors and replaces
the rest by their normalized partial trace (tensored back with the
identity), giving a nested chain with E_j E_k = E_min(j,k).  On top of
the tower: a lower-bound estimate of the column constant of {E_0..E_N}
(with matrix amplification), and the Rademacher norm of the Cesaro
increments (sqrt(m) (S_m - S_{m-1}))_m of any semigroup element's ergodic
averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import funcalc as fc
from .. import rbound
from ..core import check_exponent, schatten_norm
from ..hvnorms import rad_norm
from ..optim import SolveResult


@dataclass(frozen=True)
class MartingaleTower:
    """N tensor factors of M_2; ``direction`` picks which factors the
    k-th expectation retains (leading for increasing, trailing for
    decreasing filtrations)."""

    n_factors: int
    direction: str = "increasing"

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValueError("need at least one tensor factor")
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError("direction is 'increasing' or 'decreasing'")

    @property
    def dim(self) -> int:
        return 2**self.n_factors


def cond_exp(tower: MartingaleTower, k: int, x) -> np.ndarray:
    """E_k(x): normalized partial trace over the discarded factors,
    tensored with the identity; trace preserving, unital, idempotent and
    self-adjoint for the trace inner product.  Maps every matrix of a
    stack (..., d, d)."""
    n = tower.n_factors
    if not 0 <= k <= n:
        raise ValueError(f"level must lie in 0..{n}")
    x = np.asarray(x, dtype=complex)
    d = tower.dim
    if x.shape[-2:] != (d, d):
        raise ValueError(f"expected {d}x{d} matrices")
    if k == n:
        return x.copy()
    dk = 2**k
    dr = 2 ** (n - k)
    lead = x.shape[:-2]
    if tower.direction == "increasing":
        kept = np.trace(x.reshape(lead + (dk, dr, dk, dr)), axis1=-3, axis2=-1) / dr
        return np.kron(kept, np.eye(dr))
    kept = np.trace(x.reshape(lead + (dr, dk, dr, dk)), axis1=-4, axis2=-2) / dr
    return np.kron(np.eye(dr), kept)


class CondExpOp(fc.PauliMult):
    """The k-th conditional expectation: the Pauli multiplier with symbol 1
    on the strings that are the identity on every discarded factor (factor
    1 the top bit), whose ``apply`` is :func:`cond_exp`."""

    def __init__(self, tower: MartingaleTower, k: int):
        cond_exp(tower, k, np.zeros((tower.dim, tower.dim)))  # validate level
        dropped = (tower.dim - 1) >> k << (k if tower.direction == "decreasing" else 0)
        s = np.arange(tower.dim)
        super().__init__(((s[:, None] | s) & dropped) == 0)
        self.tower, self.k = tower, k

    def apply(self, x):
        return cond_exp(self.tower, self.k, x)

    def __repr__(self):
        return f"CondExpOp(N={self.tower.n_factors}, k={self.k}, {self.tower.direction})"


def tower_family(tower: MartingaleTower):
    return [CondExpOp(tower, k) for k in range(tower.n_factors + 1)]


def stein_colbound(
    tower: MartingaleTower,
    p: float,
    budget: rbound.SearchCfg | None = None,
    seed: int = 0,
) -> rbound.BoundEstimate:
    """Lower bound on the column constant of the expectation family,
    amplified by tensoring with a 2 x 2 identity matrix factor."""
    fam = [fc.AmplifiedOp(op, 2) for op in tower_family(tower)]
    return rbound.col_bound_estimate(fam, p, budget, seed)


@dataclass
class CesaroReport:
    value: float
    ratio: float
    solves: tuple[SolveResult, ...]  # the split-norm solve below p = 2, none above


def cesaro_square_function(
    t_op: fc.LpOperator,
    x,
    m_count: int,
    p: float,
) -> CesaroReport:
    """Rademacher norm of the Cesaro increments (sqrt(m) (S_m - S_{m-1}))
    for S_m = (1/(m+1)) sum_{k<=m} T^k x, reported with its ratio to
    ||x||_p."""
    p = check_exponent(p)
    x = np.asarray(x, dtype=complex)
    if m_count < 1:
        raise ValueError("need at least one increment")
    fam = []
    power = x.copy()  # T^0 x
    total = x.copy()
    s_prev = x.copy()
    for m in range(1, m_count + 1):
        power = t_op.apply(power)
        total = total + power
        s_m = total / (m + 1)
        fam.append(math.sqrt(m) * (s_m - s_prev))
        s_prev = s_m
    value, solves = rad_norm(fam, p)
    nx = schatten_norm(x, p)
    return CesaroReport(value=value, ratio=value / nx if nx > 0 else 0.0, solves=solves)

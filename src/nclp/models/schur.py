"""Schur-multiplier semigroups from Euclidean point configurations.

A symbol a_ij = ||alpha_i - beta_j|| built from two point families in R^d
generates the entrywise-multiplication semigroup T_t = Schur([e^{-t a_ij}]),
which is completely contractive, and a bounded-analytic functional calculus
acting entrywise through f(a_ij) (with f(0) = 0 on vanishing distances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import funcalc as fc


@dataclass(frozen=True)
class SchurSymbol:
    """Distance symbol of two point families of equal size in R^d."""

    alpha: np.ndarray  # (n, dim)
    beta: np.ndarray  # (n, dim)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        b = np.atleast_2d(np.asarray(self.beta, dtype=float))
        if a.shape != b.shape:
            raise ValueError(f"point families differ in shape: {a.shape} vs {b.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one point")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    def distances(self) -> np.ndarray:
        diff = self.alpha[:, None, :] - self.beta[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=-1))


def collinear_symbol(n: int, spacing: float = 1.0) -> SchurSymbol:
    """Both families at 1, 2, ..., n times ``spacing`` on a line, so the
    symbol is the Toeplitz matrix [ spacing * |i - j| ]."""
    pts = spacing * np.arange(1, n + 1, dtype=float)[:, None]
    return SchurSymbol(pts, pts.copy())


def schur_generator(sym: SchurSymbol) -> fc.SchurMult:
    """The Schur multiplier by the distance matrix itself (the generator)."""
    return fc.SchurMult(sym.distances())


def schur_semigroup(sym: SchurSymbol, t: float) -> fc.SchurMult:
    """The entrywise semigroup element Schur([e^{-t ||alpha_i - beta_j||}])."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return fc.SchurMult(np.exp(-t * sym.distances()))


def schur_hinf_apply(sym: SchurSymbol, f: fc.HolFn, x) -> np.ndarray:
    """Entrywise application of a bounded sector function to the symbol:
    x_ij -> f(a_ij) x_ij with f(0) = 0 where points coincide."""
    return fc.eigen_calculus(fc.SchurMult(sym.distances()), f).apply(x)


def amplified_s2_norm(op: fc.LpOperator, level: int) -> float:
    """Operator norm of I_m (x) T on the Hilbert-Schmidt space."""
    return fc.AmplifiedOp(op, level).s2_norm()


def choi_min_eigenvalue(op: fc.LpOperator, level: int = 1) -> float:
    """Smallest eigenvalue of the Choi matrix of the (amplified) map."""
    target = op if level == 1 else fc.AmplifiedOp(op, level)
    c = fc.choi_matrix(target)
    return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])

"""Truncated q-deformed Fock spaces (-1 < q < 1).

The level-n inner product is twisted by the positive operator

    Q_q (h_1 (x) ... (x) h_n) = sum_sigma q^{inv(sigma)} h_sigma(1) (x) ... (x) h_sigma(n),

creation prepends a vector, annihilation is the adjoint *in the twisted
inner product* (computed as G^{-1} C^dagger G, with the explicit
deletion-sum formula kept as a cross-check oracle), and w(h) = a(h) + c(h)
is the q-Gaussian whose vacuum moments interpolate free, bosonic and
fermionic statistics.  Second quantization acts level-wise by tensor
powers of a contraction; a = e^{-t} I gives the Ornstein-Uhlenbeck
semigroup with eigenvalue e^{-tn} on level n.

Everything is truncated at a top level N, and every operator is a plain
matrix on the truncated basis.  Moment routines demand N at least the
number of factors, which makes them exact.
"""

from __future__ import annotations

import itertools
import math
import numpy as np

GRAM_LEVEL_MAX = 6  # n! permutation sum


def inversions(perm) -> int:
    perm = tuple(perm)
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def check_q(q: float) -> float:
    """A deformation parameter lies strictly in (-1, 1)."""
    q = float(q)
    if not -1.0 < q < 1.0:
        raise ValueError(f"q must lie strictly in (-1, 1), got {q}")
    return q


def check_level(level: int) -> int:
    """A Fock level lies in 0..GRAM_LEVEL_MAX (the n! permutation-sum cap)."""
    if not 0 <= level <= GRAM_LEVEL_MAX:
        raise ValueError(f"level must lie in 0..{GRAM_LEVEL_MAX}, got {level}")
    return level


def q_gram(level: int, d: int, q: float) -> np.ndarray:
    """The twisted Gram matrix Q_q on the d^level-dimensional level."""
    check_level(level)
    check_q(q)
    if level == 0:
        return np.ones((1, 1))
    dn = d**level
    digits = np.empty((dn, level), dtype=np.int64)
    idx = np.arange(dn)
    for k in range(level):
        digits[:, level - 1 - k] = (idx // d**k) % d
    powers = d ** np.arange(level - 1, -1, -1)
    gram = np.zeros((dn, dn))
    for sigma in itertools.permutations(range(level)):
        target = digits[:, sigma] @ powers
        gram[target, idx] += q ** inversions(sigma)
    return gram


class FockBasis:
    """All tensor words of length <= n_max over an orthonormal basis of C^d,
    ordered by level then lexicographically, with the block-diagonal
    twisted Gram matrix."""

    def __init__(self, d: int, n_max: int, q: float):
        if d < 1 or n_max < 0:
            raise ValueError("need d >= 1 and n_max >= 0")
        check_q(q)
        self.d = d
        self.n_max = n_max
        self.q = q
        self.words = []
        self.level_start = []
        for level in range(n_max + 1):
            self.level_start.append(len(self.words))
            self.words.extend(np.ndindex(*(d,) * level))  # d^level words, lexicographic
        self.level_start.append(len(self.words))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words)
        blocks = [q_gram(level, d, q) for level in range(n_max + 1)]
        for level, blk in enumerate(blocks):
            lam = np.linalg.eigvalsh(blk)
            if lam[0] < -1e-10 * max(1.0, lam[-1]):
                raise ValueError(
                    f"level-{level} Gram fails positivity (min eigenvalue {lam[0]:.3e})"
                )
        self.gram_blocks = blocks
        g = np.zeros((self.dim, self.dim))
        for level, blk in enumerate(blocks):
            s = self.level_start[level]
            e = self.level_start[level + 1]
            g[s:e, s:e] = blk
        self.gram = g
        self.gram_inv = np.linalg.inv(g)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def q_inner(self, u, v) -> complex:
        """<u, v>_q = <G u, v>_0 (conjugate-linear in the second slot)."""
        return complex(np.conj(v) @ (self.gram @ u))


def fock_creation(basis: FockBasis, h) -> np.ndarray:
    """c(h): prepend h; words at the top level are annihilated (truncation)."""
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.shape[0] != basis.d:
        raise ValueError(f"vector dimension {h.shape[0]} does not match d = {basis.d}")
    if np.linalg.norm(h) == 0:
        raise ValueError("need a nonzero vector")
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j, w in enumerate(basis.words):
        if len(w) >= basis.n_max:
            continue
        for i in range(basis.d):
            mat[basis.index[(i,) + w], j] += h[i]
    return mat


def q_adjoint(basis: FockBasis, x: np.ndarray) -> np.ndarray:
    """Adjoint with respect to the twisted inner product: G^{-1} x^dagger G."""
    return basis.gram_inv @ x.conj().T @ basis.gram


def fock_annihilation(basis: FockBasis, h) -> np.ndarray:
    """a(h) = c(h)*, taken in the twisted inner product."""
    return q_adjoint(basis, fock_creation(basis, h))


def annihilation_formula(basis: FockBasis, h) -> np.ndarray:
    """The explicit deletion sum

        a(h)(h_1 (x) ... (x) h_n) = sum_k q^{k-1} <h_k, h> h_1 (x) ... k^ ... (x) h_n,

    used only as a cross-check oracle against the Gram-adjoint definition.
    """
    h = np.asarray(h, dtype=complex).reshape(-1)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j, w in enumerate(basis.words):
        for k in range(len(w)):
            target = w[:k] + w[k + 1 :]
            coeff = basis.q**k * np.conj(h[w[k]])
            mat[basis.index[target], j] += coeff
    return mat


def fock_trace(x: np.ndarray) -> complex:
    """Vacuum expectation <x Omega, Omega>_q (the level-0 Gram block is 1)."""
    return complex(x[0, 0])


def gaussian_op(basis: FockBasis, h) -> np.ndarray:
    """The q-Gaussian w(h) = a(h) + c(h)."""
    return fock_creation(basis, h) + fock_annihilation(basis, h)


def gaussian_moment(hs, q: float, n_max: int | None = None) -> complex:
    """Exact vacuum moment tau(w(h_1) ... w(h_m)) at truncation N >= m."""
    hs = [np.asarray(h, dtype=complex).reshape(-1) for h in hs]
    if not hs:
        return 1.0
    d = hs[0].shape[0]
    if any(h.shape[0] != d for h in hs):
        raise ValueError("all vectors must share one dimension")
    m = len(hs)
    n = m if n_max is None else n_max
    if n < m:
        raise ValueError(f"truncation {n} is insufficient for {m} factors")
    basis = FockBasis(d, n, q)
    v = basis.vacuum()
    for h in reversed(hs):
        v = gaussian_op(basis, h) @ v
    return complex(v[0])


def second_quantization(basis: FockBasis, a) -> np.ndarray:
    """Level-wise tensor powers of a contraction a on C^d (vacuum fixed)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (basis.d, basis.d):
        raise ValueError(f"contraction must be {basis.d}x{basis.d}")
    if np.linalg.norm(a, 2) > 1.0 + 1e-9:
        raise ValueError("second quantization needs a contraction")
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    blk = np.ones((1, 1), dtype=complex)
    for level in range(basis.n_max + 1):
        s, e = basis.level_start[level], basis.level_start[level + 1]
        mat[s:e, s:e] = blk
        blk = np.kron(a, blk)
    return mat


def ou_semigroup(basis: FockBasis, t: float) -> np.ndarray:
    """Second quantization of e^{-t} I: eigenvalue e^{-t n} on level n."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return second_quantization(basis, math.exp(-t) * np.eye(basis.d))

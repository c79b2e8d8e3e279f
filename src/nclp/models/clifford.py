"""Clifford spin systems in the sequential Z-string representation.

The generators W_i = Z^{(x)(i-1)} (x) X (x) I^(x)(n-i) on C^(2^n) are
hermitian unitaries with W_i W_j = -W_j W_i; the ordered products
V_F = W_{i_1} ... W_{i_m} over increasing index sets F form an orthonormal
family in the normalized trace that spans the 2^n-dimensional spin
subalgebra.  The number semigroup scales V_F by e^{-t |F|}; a bounded
length multiplier scales it by f(|F|).  Both are realized on the full
matrix algebra as (diagonal action on the V_F frame) composed with the
trace-preserving conditional expectation onto the spin subalgebra, which
keeps them unital, trace preserving and completely positive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import funcalc as fc

SPIN_MAX = 10  # generator matrices are 2^n x 2^n
DIAG_OP_MAX = 6  # the V_F frame holds 4^n complex entries

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass
class SpinRep:
    n: int
    w: list  # the n generator matrices

    @property
    def dim(self) -> int:
        return 2**self.n


def spin_generators(n: int) -> SpinRep:
    if not 1 <= n <= SPIN_MAX:
        raise ValueError(f"need 1 <= n <= {SPIN_MAX}")
    gens = []
    for i in range(n):
        mats = [_Z] * i + [_X] + [np.eye(2)] * (n - i - 1)
        acc = mats[0]
        for m in mats[1:]:
            acc = np.kron(acc, m)
        gens.append(acc.astype(complex))
    return SpinRep(n=n, w=gens)


def v_f(rep: SpinRep, subset) -> np.ndarray:
    """Ordered product W_{i_1} ... W_{i_m} over an increasing index set
    (1-based); the empty set gives the identity."""
    subset = tuple(subset)
    if any(not 1 <= i <= rep.n for i in subset):
        raise ValueError(f"indices must lie in 1..{rep.n}")
    if list(subset) != sorted(set(subset)):
        raise ValueError("index set must be strictly increasing")
    acc = np.eye(rep.dim, dtype=complex)
    for i in subset:
        acc = acc @ rep.w[i - 1]
    return acc


def all_subsets(n: int):
    for m in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), m)


def normalized_trace(x) -> complex:
    x = np.asarray(x)
    return complex(np.trace(x) / x.shape[0])


def check_frame_n(n: int) -> int:
    """Frame-diagonal maps exist for 1 <= n <= DIAG_OP_MAX generators."""
    if not 1 <= n <= DIAG_OP_MAX:
        raise ValueError(f"frame-diagonal maps need 1 <= n <= {DIAG_OP_MAX}, got {n}")
    return n


class CliffordDiagonalOp(fc.LpOperator):
    """A map diagonal on the V_F frame: x -> sum_F c(F) tau(V_F* x) V_F.

    Since the V_F are trace-orthonormal, the sum with c = 1 is the
    conditional expectation onto the spin subalgebra; general coefficient
    functions compose that expectation with the frame-diagonal action.
    """

    def __init__(self, rep: SpinRep, coeff_fn):
        check_frame_n(rep.n)
        self.rep = rep
        self.dim = rep.dim
        self.subsets = list(all_subsets(rep.n))
        self.vfs = np.stack([v_f(rep, s) for s in self.subsets])
        self.coeffs = np.array([complex(coeff_fn(s)) for s in self.subsets])

    def apply(self, x):
        x = np.asarray(x, dtype=complex)
        # tau(V_F* x) against the trace-orthonormal frame
        comps = np.einsum("fab,...ab->...f", self.vfs.conj(), x) / self.dim
        return np.einsum("...f,fab->...ab", self.coeffs * comps, self.vfs)

    def spectrum(self):
        # eigenvalues on the frame plus 0 on its orthocomplement
        extra = self.dim * self.dim - len(self.subsets)
        return np.concatenate([self.coeffs, np.zeros(extra, dtype=complex)])

    def dagger(self):
        out = CliffordDiagonalOp.__new__(CliffordDiagonalOp)
        out.rep = self.rep
        out.dim = self.dim
        out.subsets = self.subsets
        out.vfs = self.vfs
        out.coeffs = np.conj(self.coeffs)
        return out

    def __repr__(self):
        return f"CliffordDiagonalOp(n={self.rep.n})"


def clifford_semigroup(rep: SpinRep, t: float) -> CliffordDiagonalOp:
    """The number semigroup V_F -> e^{-t |F|} V_F."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return CliffordDiagonalOp(rep, lambda s: math.exp(-t * len(s)))


def clifford_multiplier(rep: SpinRep, f):
    """The length multiplier V_F -> f(|F|) V_F on nonempty F; the identity
    component is kept."""
    return CliffordDiagonalOp(rep, lambda s: f(len(s)) if s else 1.0)


def number_operator(rep: SpinRep) -> CliffordDiagonalOp:
    """V_F -> |F| V_F, the generator of the number semigroup."""
    return CliffordDiagonalOp(rep, lambda s: float(len(s)))

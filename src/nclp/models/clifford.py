"""Clifford spin systems in the sequential Z-string representation.

The generators W_i = Z^{(x)(i-1)} (x) X (x) I^(x)(n-i) on C^(2^n) are
hermitian unitaries with W_i W_j = -W_j W_i; the ordered products
V_F = W_{i_1} ... W_{i_m} over increasing index sets F form an orthonormal
family in the normalized trace that spans the 2^n-dimensional spin
subalgebra.  Up to a phase each V_F is a Pauli string, so a map that
scales V_F by c(F) and sends the other strings to 0 is a Pauli multiplier
(:class:`nclp.funcalc.PauliMult`): the number semigroup e^{-t |F|}, a
length multiplier f(|F|) and their generator |F|, each unital on the spin
subalgebra and, for the semigroup, completely positive.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import funcalc as fc

SPIN_MAX = 10  # generator matrices are 2^n x 2^n
DIAG_OP_MAX = 6  # a map's dense form and Choi matrix hold 16^n complex entries

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
        gens.append(functools.reduce(np.kron, mats).astype(complex))
    return SpinRep(n=n, w=gens)


def v_f(rep: SpinRep, subset) -> np.ndarray:
    """Ordered product W_{i_1} ... W_{i_m} over an increasing index set
    (1-based); the empty set gives the identity."""
    subset = tuple(subset)
    if any(not 1 <= i <= rep.n for i in subset):
        raise ValueError(f"indices must lie in 1..{rep.n}")
    if list(subset) != sorted(set(subset)):
        raise ValueError("index set must be strictly increasing")
    return functools.reduce(np.matmul, (rep.w[i - 1] for i in subset), np.eye(rep.dim) + 0j)


def all_subsets(n: int):
    for m in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), m)


def normalized_trace(x) -> complex:
    x = np.asarray(x)
    return complex(np.trace(x) / x.shape[0])


def check_frame_n(n: int) -> int:
    """The V_F multipliers exist for 1 <= n <= DIAG_OP_MAX generators."""
    if not 1 <= n <= DIAG_OP_MAX:
        raise ValueError(f"V_F multipliers need 1 <= n <= {DIAG_OP_MAX}, got {n}")
    return n


def _pauli_multiplier(rep: SpinRep, coeff_fn) -> fc.PauliMult:
    """x -> sum_F c(F) tau(V_F* x) V_F: c(F) on the string of V_F, which is X
    on the sites in F and Z on site j when an odd number of F's indices lie
    above j (site 1 the top bit), and 0 on every other string."""
    n = check_frame_n(rep.n)
    c = np.zeros((rep.dim, rep.dim), dtype=complex)
    for s in all_subsets(n):
        a = sum(1 << (n - i) for i in s)
        b = sum(1 << (n - j) for j in range(1, n + 1) if sum(i > j for i in s) % 2)
        c[a, b] = coeff_fn(s)
    return fc.PauliMult(c)


def clifford_semigroup(rep: SpinRep, t: float) -> fc.PauliMult:
    """The number semigroup V_F -> e^{-t |F|} V_F."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _pauli_multiplier(rep, lambda s: math.exp(-t * len(s)))


def clifford_multiplier(rep: SpinRep, f) -> fc.PauliMult:
    """The length multiplier V_F -> f(|F|) V_F on nonempty F; the identity
    component is kept."""
    return _pauli_multiplier(rep, lambda s: f(len(s)) if s else 1.0)


def number_operator(rep: SpinRep) -> fc.PauliMult:
    """V_F -> |F| V_F, the generator of the number semigroup."""
    return _pauli_multiplier(rep, lambda s: float(len(s)))

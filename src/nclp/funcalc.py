"""Sectorial functional calculus for structured operators on matrix space.

A *superoperator* here is a linear map on the d x d complex matrices.
Every operator kind exposes its spectral structure through three hooks
on :class:`LpOperator`: a ``symbol`` (an entrywise eigenvalue array for
Schur and Pauli multipliers, unitary-sandwiched Schur forms and ``ax - xb``
derivations, the d x d factor for left/right multiplication, the d^2 x d^2
matrix otherwise), ``with_symbol`` to rebuild the kind from a
new symbol, and ``frame()`` to act diagonally on stacks of matrices.
Scaling, adjoints, resolvents and both calculi act on the symbol only, so
no algorithm names a kind.  On top of the operator kinds this module
provides

* resolvents with spectral-collision detection,
* the contour calculus f(A) = (1/2 pi i) int f(z) R(z,A) dz on one
  double-exponential rule per ray of a sector boundary, for decaying f,
  swept in nested levels of halving step until two levels agree, on the
  radii left after the outer tails whose terms a certified resolvent bound
  puts below roundoff are cut off; a large matrix symbol sums the nodes far
  from its spectrum by a truncated resolvent series and inverts the rest,
* the extended calculus f(A) = g(A)^{-1} (fg)(A) with g(z) = z/(1+z)^2
  for merely bounded analytic f (kernel components are sent to 0),
* the one family power ascent, :func:`family_ascent`, on column or row
  stacks (``rbound``'s column/row search and the resolvent constants),
* imaginary powers, sectoriality profiling (type angle and resolvent
  constants), and two classical integral identities: the Gaussian
  average over a unitary group, and square-root subordination of a
  semigroup.

Pure functions throughout; operators are immutable after construction.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    HERM_RTOL,
    Bound,
    NumericsError,
    SpectralCollisionError,
    _check_hermitian,
    adjoint,
    as_matrix,
    power_ascent,
)
from .hvnorms import _hstack_maps, _vstack_maps

EIG_COND_MAX = 1e8
ZERO_RTOL = 1e-9  # |lambda| below this times the spectral scale counts as kernel
COLLISION_RTOL = 1e-9  # resolvent points this close to the spectrum are refused
TRUNCATION_TOL = 1e-6  # endpoint estimate above which the contour rule warns
_BATCH_ENTRIES = 1 << 16  # complex entries per batch in the chunked quadrature loops
SECTOR_RAY_POINTS = 26  # scaled resolvents per test angle in sector_type
MASS_DEFECT_MAX = 1e-8  # allowed |mass - 1| of the subordination quadrature
# The contour rule (ContourSpec) reaches CONTOUR_SPAN e-folds in r beyond its window
# (an s = 1/2 decay on a kernel point leaves e^-30), keeps its nodes log-uniform for
# CONTOUR_MARGIN e-folds more (e^{-z} turns there, above |z| = 1), and lays them on a grid
# of step h <= CONTOUR_STEP in v.  Its error falls like exp(-2 pi d / h), d the angle from
# the rays to the spectrum or f's sector, so the sweep runs the grid in nested levels of
# step LEVEL_STRIDES * h, coarsest first, and stops at the first level whose result is
# within LEVEL_TOL of the level before (relative to its largest entry): the error is then
# about the square of that difference.  The last stride is the cap.
CONTOUR_SPAN = 60.0
CONTOUR_MARGIN = 4.0
CONTOUR_STEP = 0.1
LEVEL_STRIDES = (8, 4, 2, 1, 1 / 2, 1 / 4, 1 / 8, 1 / 16)
LEVEL_TOL = 1e-7
# A matrix symbol's sweep sums the nodes within SERIES_Q of the spectrum's radius below it
# (or beyond it by 1 / SERIES_Q above) by a truncated resolvent series of SERIES_TERMS
# powers, the fewest with SERIES_Q^m / (1 - SERIES_Q) <= u / (2 * LEVEL_STRIDES[0]), u the
# unit roundoff (see _ResolventSeries), on symbols of order SERIES_MIN_ORDER and up.  That
# order is the measured crossover: with the series, the six benchmark functions on a
# diagonal LeftMult of order 12, 13, 14 and 16 take 1.06, 0.97, 0.92 and 0.88 times as
# long as inverting every node (one OpenBLAS thread, Xeon x86-64).  SERIES_Q = 1/4 was
# the fastest of 1/8, 1/6, 1/4, 1/3 and 1/2 on the benchmark's dense operators.
SERIES_Q = 0.25
SERIES_TERMS = math.ceil(
    math.log(np.finfo(float).eps / 2 / (2 * LEVEL_STRIDES[0]) * (1 - SERIES_Q)) / math.log(SERIES_Q)
)
SERIES_MIN_ORDER = 14


# ---------------------------------------------------------------------------
# The quadrature layer shared by both calculi and the square functions
# ---------------------------------------------------------------------------


def kernel_mask(lam) -> np.ndarray:
    """The kernel rule: True where |lambda| <= ZERO_RTOL * max |lambda|.

    Spectral points under the mask get the f(0) convention everywhere."""
    mag = np.abs(np.asarray(lam))
    scale = float(np.max(mag)) if mag.size else 0.0
    return mag <= ZERO_RTOL * max(scale, 1e-300)


def spectral_window(lam) -> tuple:
    """(lo, hi): the extreme magnitudes of the nonzero spectrum, (1, 1) if
    every point is kernel."""
    mag = np.abs(np.asarray(lam))
    nz = mag[~kernel_mask(mag)]
    if nz.size == 0:
        return 1.0, 1.0
    return float(np.min(nz)), float(np.max(nz))


def log_trapezoid(lo: float, hi: float, n: int):
    """n log-uniform nodes on [lo, hi] and their trapezoid weights in log r,
    so that sum_j w_j g(r_j) ~= int g(r) dr/r."""
    u = np.linspace(math.log(lo), math.log(hi), n)
    w = np.full(n, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.exp(u), w


class ContourTruncationWarning(UserWarning):
    """The contour rule's endpoint integrand is above TRUNCATION_TOL, or its
    last level still differs from the level before by more than LEVEL_TOL."""


# ---------------------------------------------------------------------------
# Holomorphic functions on sectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolFn:
    """An analytic function on the open sector of half-angle ``theta``.

    ``s`` is the decay exponent where the function obeys the two-sided
    bound |f(z)| <= c |z|^s / (1+|z|)^(2s) on the sector (making the
    boundary integral absolutely convergent; ``klass`` "hinf0"), and None
    where it is merely bounded (``klass`` "hinf").  :func:`make_hinf0`
    measures or spot-checks c on a probe grid at construction time.  The
    default contour covers ``scales``, the magnitudes |z| where f turns
    (poles, exponentials).
    """

    theta: float
    fn: object
    name: str = "f"
    s: float | None = None
    scales: tuple = (1.0,)

    klass = property(lambda self: "hinf" if self.s is None else "hinf0")

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=np.complex128))


def _probe_points(theta: float) -> np.ndarray:
    radii = np.logspace(-8, 8, 33)
    angles = np.array([-0.999 * theta, -0.5 * theta, 0.0, 0.5 * theta, 0.999 * theta])
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def make_hinf0(theta, fn, s, c=None, name="f", scales=(1.0,)) -> HolFn:
    """Build a decaying sector function.  The ratio of |f| to the envelope
    |z|^s / (1+|z|)^(2s) is measured on a probe grid: it must be finite, and
    at most c where c is given; c is not stored."""
    z = _probe_points(theta)
    vals = np.abs(np.asarray(fn(z)))
    envelope = np.abs(z) ** s / (1.0 + np.abs(z)) ** (2 * s)
    ratio = float(np.max(vals / envelope))
    if not np.isfinite(ratio):
        raise ValueError(f"{name}: decay probe produced non-finite values")
    if c is not None and ratio > c * (1 + 1e-9):
        raise ValueError(
            f"{name}: decay bound c={c} violated on probe grid (needs {ratio:.4g})"
        )
    return HolFn(float(theta), fn, name, float(s), tuple(scales))


def make_hinf(theta, fn, name="f", scales=(1.0,)) -> HolFn:
    return HolFn(float(theta), fn, name, None, tuple(scales))


def _fn_g(z):
    return z / (1.0 + z) ** 2


_THETA_WIDE = 3.0  # functions analytic off the negative real axis
_THETA_EXP = 1.4  # functions involving exp(-z): sector must stay right of i R


def library(spec: str) -> HolFn:
    """Resolve a string id to a library function.

    Supported ids: ``g`` (z/(1+z)^2), ``gn:<n>`` (n^2 z/((n+z)(1+nz))),
    ``zexp`` (z e^-z), ``sqrtzexp`` (sqrt(z) e^-z), ``zis:<s>`` (z^{is},
    bounded class), ``heat:<t>`` (e^{-tz} - (1+z)^{-1}).
    """
    if spec == "g":
        return make_hinf0(_THETA_WIDE, _fn_g, s=1.0, name="g")
    if spec.startswith("gn:"):
        n = int(spec.split(":", 1)[1])
        if n < 1:
            raise ValueError("gn:<n> needs n >= 1")
        return make_hinf0(
            _THETA_WIDE,
            lambda z, n=n: (n * n) * z / ((n + z) * (1.0 + n * z)),
            s=1.0, name=spec, scales=(1.0 / n, float(n)),
        )
    if spec == "zexp":
        return make_hinf0(_THETA_EXP, lambda z: z * np.exp(-z), s=1.0, name="zexp")
    if spec == "sqrtzexp":
        return make_hinf0(
            _THETA_EXP, lambda z: np.sqrt(z) * np.exp(-z), s=0.5, name="sqrtzexp"
        )
    if spec.startswith("zis:"):
        s = float(spec.split(":", 1)[1])
        return make_hinf(
            _THETA_WIDE, lambda z, s=s: np.exp(1j * s * np.log(z)), name=spec
        )
    if spec.startswith("heat:"):
        t = float(spec.split(":", 1)[1])
        if t <= 0:
            raise ValueError("heat:<t> needs t > 0")
        return make_hinf0(
            _THETA_EXP,
            lambda z, t=t: np.exp(-t * z) - 1.0 / (1.0 + z),
            s=1.0, name=spec, scales=(1.0, 1.0 / t),
        )
    raise ValueError(f"unknown function id {spec!r}")


def product_fn(f: HolFn, g: HolFn) -> HolFn:
    fn = lambda z: f.fn(z) * g.fn(z)  # noqa: E731
    theta, name, scales = min(f.theta, g.theta), f"{f.name}*{g.name}", f.scales + g.scales
    if f.s is None and g.s is None:
        return make_hinf(theta, fn, name, scales)
    s = sum(h.s for h in (f, g) if h.s is not None)
    return make_hinf0(theta, fn, s, name=name, scales=scales)


# ---------------------------------------------------------------------------
# Operator kinds
# ---------------------------------------------------------------------------


def _mat_eig(a: np.ndarray):
    """Eigendecomposition with hermitian fast path and condition guard."""
    a = as_matrix(a)
    herm = np.max(np.abs(a - adjoint(a))) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))
    if herm:
        lam, v = np.linalg.eigh(0.5 * (a + adjoint(a)))
        return lam.astype(complex), v, adjoint(v)
    lam, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > EIG_COND_MAX:
        raise NumericsError(
            f"eigenvector matrix condition {cond:.3e} exceeds {EIG_COND_MAX:.0e}; "
            "operator is defective or near-defective"
        )
    return lam, v, np.linalg.inv(v)


def _apply_scalar(fn, lam, zero_value=0.0) -> np.ndarray:
    """Evaluate fn on a spectrum array with the f(0) = zero_value convention."""
    lam = np.asarray(lam, dtype=np.complex128)
    out = np.empty(lam.shape, dtype=np.complex128)
    zero = kernel_mask(lam)
    out[zero] = zero_value
    if np.any(~zero):
        out[~zero] = np.asarray(fn(lam[~zero]))
    return out


class LpOperator:
    """Base class: a linear map on d x d complex matrices.

    Subclasses provide ``apply`` and ``dim``.  ``apply`` takes any stack
    of shape (..., d, d) and maps every matrix of it, so a batch passes
    through one call; :func:`apply_each` runs a stack through a family,
    one map per matrix.  A kind whose members all act by one product with
    their symbols names it ``apply_symbols(s, x)``: the stack of s[i]'s map
    on x[i], so a :class:`Family` of that kind maps a stack in one call.
    The spectral structure is one small interface that every algorithm
    goes through:

    * ``symbol``: the array the kind is a function of.  For ``entrywise``
      kinds it holds the eigenvalues themselves, one per frame vector;
      otherwise it is a square matrix whose eigendecomposition gives the
      spectrum (the d^2 x d^2 superoperator unless a kind overrides it).
    * ``with_symbol(s)``: the same kind in the same frame with symbol s.
    * ``frame()``: ``(lam, into, out, into_adj, out_adj)`` with
      A x = out(lam * into(x)), vectorized over leading stack axes.

    Scaling, adjoints, resolvents and the spectral calculus follow
    from these by acting on the symbol, entrywise or as a matrix.  An
    ``entrywise`` kind's frame is orthonormal for the trace inner product:
    ``into_adj`` is ``out`` and ``out_adj`` is ``into``, so on S^2 the kind
    is multiplication by its symbol on the coefficients, and its S^2 norm
    and witness are read off the symbol (:meth:`norm_bounds`).
    """

    dim: int
    entrywise = False
    apply_symbols = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def symbol(self) -> np.ndarray:
        return self.to_dense()

    def with_symbol(self, s) -> "LpOperator":
        return DenseOp(s)

    def frame(self):
        """Eigenframe of a matrix symbol: its eigenvectors and their dual
        basis act as maps of the same kind (``with_symbol``), and lam is
        reshaped to (d, -1): d x d for a d^2 x d^2 symbol, d x 1 for a left
        multiplication, whose i-th eigenvalue scales row i of the frame
        coefficients."""
        lam, v, vinv = _mat_eig(self.symbol)
        into, out = self.with_symbol(vinv), self.with_symbol(v)
        return (lam.reshape(self.dim, -1), into.apply, out.apply,
                into.dagger().apply, out.dagger().apply)

    def spectrum(self) -> np.ndarray:
        s = self.symbol
        return s.ravel() if self.entrywise else np.linalg.eigvals(s)

    def scaled(self, z: complex) -> "LpOperator":
        """The operator z A."""
        return self.with_symbol(z * self.symbol)

    def dagger(self) -> "LpOperator":
        """Adjoint for the Frobenius inner product <x, y> = tr(y* x)."""
        s = self.symbol
        return self.with_symbol(np.conj(s) if self.entrywise else adjoint(s))

    def _resolvent_impl(self, z: complex) -> "LpOperator":
        s = self.symbol
        if self.entrywise:
            return self.with_symbol(1.0 / (z - s))
        eye = np.eye(s.shape[0])
        return self.with_symbol(np.linalg.solve(z * eye - s, eye))

    def eigen_fn(self, fn, zero_value=0.0) -> "LpOperator":
        """Spectral application of a scalar function (the eigen oracle)."""
        s = self.symbol
        if self.entrywise:
            return self.with_symbol(_apply_scalar(fn, s, zero_value))
        lam, v, vinv = _mat_eig(s)
        return self.with_symbol((v * _apply_scalar(fn, lam, zero_value)) @ vinv)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"

    def to_dense(self) -> np.ndarray:
        """Materialize the d^2 x d^2 superoperator (row-major vec): column
        i d + j is the image of the matrix unit E_ij, from one ``apply``."""
        cached = getattr(self, "_dense", None)
        if cached is not None:
            return cached
        n = self.dim * self.dim
        units = np.eye(n, dtype=np.complex128).reshape(n, self.dim, self.dim)
        self._dense = self.apply(units).reshape(n, n).T
        return self._dense

    def norm_bounds(self, p: float) -> Bound:
        """The :class:`core.Bound` on the S^p -> S^p operator norm: closed
        at the exact value where the kind knows it, its ``witness`` a unit
        input that attains it, else the open ``Bound(0.0)``.  Here: at p = 2
        max |symbol| for an ``entrywise`` kind, whose frame is orthonormal,
        attained by the frame vector ``out(e)``, e the unit array at the
        first argmax of |symbol|, and for any other kind the largest
        singular value of the dense form, attained by its top right singular
        vector as a d x d matrix (one SVD); no value at any other p.

        Contract: every value returned is also the completely bounded norm,
        the norm of each amplification I_m (x) T on S^p (at p = 2 an
        amplification acts on the m^2 blocks of a Frobenius sum apart), so
        :class:`AmplifiedOp` returns its base's value, and
        :meth:`family_bounds` names the family constants it bounds.
        """
        if p != 2.0:
            return Bound(0.0)
        if not self.entrywise:
            _, sv, vh = np.linalg.svd(self.to_dense())
            top = float(sv[0])
            return Bound(top, top, witness=vh[0].conj().reshape(self.dim, self.dim))
        mod = np.abs(self.symbol)
        k = np.argmax(mod)
        unit = np.zeros(mod.size, dtype=np.complex128)
        unit[k] = 1.0
        top = float(mod.flat[k])
        return Bound(top, top, witness=self.frame()[2](unit.reshape(mod.shape)))

    def family_bounds(self, p: float) -> frozenset:
        """The family constants ("col", "row") on S^p that a family of maps,
        each of whose kinds names the constant here, keeps below its largest
        exact norm (:meth:`norm_bounds`).  Here: both at p = 2, where the
        column and row norms are Frobenius sums, so every image is bounded
        on its own."""
        return frozenset({"col", "row"}) if p == 2.0 else frozenset()

    def sector_angle(self) -> float:
        """max |Arg(lambda)| over the nonzero spectrum (0 for kernel-only)."""
        lam = self.spectrum()
        nz = lam[~kernel_mask(lam)]
        return float(np.max(np.abs(np.angle(nz)))) if nz.size else 0.0

    def kernel_projection(self) -> "LpOperator":
        """Spectral projection onto N(A) along R(A)."""
        return self.eigen_fn(np.zeros_like, zero_value=1.0)


def _square_symbol(s, what: str) -> np.ndarray:
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"{what} needs a square symbol")
    return s


class LeftMult(LpOperator):
    """x -> a x.  Functions act through the symbol: f(L_a) = L_{f(a)}."""

    def __init__(self, a):
        self.a = _square_symbol(a, "left multiplication")
        self.dim = self.a.shape[0]

    def apply(self, x):
        return self.a @ x

    apply_symbols = staticmethod(np.matmul)
    symbol = property(lambda self: self.a)

    def with_symbol(self, s):
        return LeftMult(s)

    def norm_bounds(self, p):
        # Hoelder gives ||a x||_p <= ||a||_inf ||x||_p at every p, and x = v e_1*,
        # v a top right singular vector of a, attains it: every Schatten norm
        # of x is |v| = 1, and of a x is |a v|
        _, sv, vh = np.linalg.svd(self.a)
        x = np.zeros((self.dim, self.dim), dtype=np.complex128)
        x[:, 0] = vh[0].conj()
        return Bound(float(sv[0]), float(sv[0]), witness=x)

    def family_bounds(self, p):
        # sum_k x_k* a_k* a_k x_k <= max_k ||a_k||^2 sum_k x_k* x_k, and the
        # S^p norm of the root is monotone on PSD matrices
        return super().family_bounds(p) | {"col"}


class RightMult(LpOperator):
    """x -> x b.  Functions act through the symbol: f(R_b) = R_{f(b)}."""

    def __init__(self, b):
        self.b = _square_symbol(b, "right multiplication")
        self.dim = self.b.shape[0]

    def apply(self, x):
        return x @ self.b

    @staticmethod
    def apply_symbols(s, x):
        return x @ s

    symbol = property(lambda self: self.b)

    def with_symbol(self, s):
        return RightMult(s)

    def norm_bounds(self, p):
        # the mirror of LeftMult.norm_bounds: x = e_1 u*, u a top left singular
        # vector of b, and x b = e_1 (b* u)*
        u, sv, _ = np.linalg.svd(self.b)
        x = np.zeros((self.dim, self.dim), dtype=np.complex128)
        x[0] = u[:, 0].conj()
        return Bound(float(sv[0]), float(sv[0]), witness=x)

    def family_bounds(self, p):
        # the mirror of LeftMult.family_bounds on the row square sums
        return super().family_bounds(p) | {"row"}

    def frame(self):
        # not the base rule: x -> x b composes in reverse order, and the
        # eigenvalues of b index the columns of the frame coefficients
        lam, v, vinv = _mat_eig(self.b)
        vh, vinvh = adjoint(v), adjoint(vinv)
        return (
            lam[None, :],
            lambda x: x @ v,
            lambda y: y @ vinv,
            lambda z: z @ vh,
            lambda y: y @ vinvh,
        )


def _identity(x):
    return x


class SchurMult(LpOperator):
    """x -> m * x (entrywise); the matrix units are its eigenframe."""

    entrywise = True

    def __init__(self, m):
        self.m = _square_symbol(m, "Schur multiplier")
        self.dim = self.m.shape[0]

    def apply(self, x):
        return self.m * x

    apply_symbols = staticmethod(np.multiply)
    symbol = property(lambda self: self.m)

    def with_symbol(self, s):
        return SchurMult(s)

    def frame(self):
        return self.m, _identity, _identity, _identity, _identity


@functools.lru_cache(maxsize=None)
def _pauli_transform(d: int):
    """The indices (j ^ a, j) at (a, j), an involution, and Walsh-Hadamard / sqrt(d)."""
    j, h = np.arange(d), [[1.0, 1.0], [1.0, -1.0]]
    walsh = functools.reduce(np.kron, [h] * (d.bit_length() - 1), np.ones((1, 1)))
    return j[:, None] ^ j, j, walsh / math.sqrt(d)


class PauliMult(LpOperator):
    """X^a Z^b -> c[a, b] X^a Z^b on 2^n x 2^n matrices, where the Pauli
    string X^a Z^b has entry (-1)^{popcount(b & j)} at (j ^ a, j).  The
    strings over sqrt(d) are trace-orthonormal, so the frame is unitary:
    into(x)[a, b] = sum_j (-1)^{popcount(b & j)} x[j ^ a, j] / sqrt(d) is one
    gather and one Walsh-Hadamard product, and out is the inverse scatter."""

    entrywise = True

    def __init__(self, c):
        self.c = _square_symbol(c, "Pauli multiplier")
        self.dim = self.c.shape[0]
        if self.dim & (self.dim - 1):
            raise ValueError(f"a Pauli multiplier acts on 2^n x 2^n matrices, got {self.dim}")
        self._rows, self._cols, self._walsh = _pauli_transform(self.dim)

    def _into(self, x):
        return np.asarray(x, dtype=np.complex128)[..., self._rows, self._cols] @ self._walsh

    def _out(self, y):
        return (np.asarray(y) @ self._walsh)[..., self._rows, self._cols]

    def apply(self, x):
        return self._out(self.c * self._into(x))

    symbol = property(lambda self: self.c)

    def with_symbol(self, s):
        return PauliMult(s)

    def frame(self):
        return self.c, self._into, self._out, self._out, self._into


class SandwichSchur(LpOperator):
    """x -> u (w * (u* x v)) v* with u, v unitary.

    The rank-one frame u_i v_j* diagonalizes the map with eigenvalues
    w_ij, so resolvents and functional calculus act entrywise on w.  The
    frame is orthonormal only for unitary u and v, so factors with an entry
    of u* u - I or v* v - I above ``HERM_RTOL`` in modulus are refused.
    """

    entrywise = True

    def __init__(self, u, v, w):
        self.u = as_matrix(u)
        self.v = as_matrix(v)
        self.w = as_matrix(w)
        self.dim = self.u.shape[0]
        if not self.u.shape == self.v.shape == self.w.shape == (self.dim, self.dim):
            raise ValueError("u, v, w must share one square shape")
        dev = max(float(np.max(np.abs(adjoint(f) @ f - np.eye(self.dim)))) for f in (self.u, self.v))
        if dev > HERM_RTOL:
            raise ValueError(f"SandwichSchur needs unitary u, v: |f* f - I| reaches {dev:.3e}")

    def apply(self, x):
        return self.u @ (self.w * (adjoint(self.u) @ x @ self.v)) @ adjoint(self.v)

    symbol = property(lambda self: self.w)

    def with_symbol(self, s):
        # u and v were checked when self was built; only the symbol is new
        new = object.__new__(SandwichSchur)
        new.__dict__.update(u=self.u, v=self.v, dim=self.dim, w=_square_symbol(s, "SandwichSchur"))
        return new

    def frame(self):
        u, v = self.u, self.v
        uh, vh = adjoint(u), adjoint(v)
        return (
            self.w,
            lambda x: uh @ x @ v,
            lambda y: u @ (y @ vh),
            lambda z: u @ z @ vh,
            lambda y: uh @ (y @ v),
        )


class AdPair(SandwichSchur):
    """The inner derivation x -> a x - x b for hermitian a, b.

    Diagonalizing a = U alpha U* and b = V beta V* turns the map into the
    sandwiched Schur multiplier with symbol alpha_i - beta_j.
    """

    def __init__(self, a, b):
        a = as_matrix(a)
        b = as_matrix(b)
        alpha, u = np.linalg.eigh(_check_hermitian(a, "AdPair a"))
        beta, v = np.linalg.eigh(_check_hermitian(b, "AdPair b"))
        super().__init__(u, v, (alpha[:, None] - beta[None, :]).astype(complex))
        self.a = a
        self.b = b

    def apply(self, x):
        return self.a @ x - x @ self.b


class DenseOp(LpOperator):
    """Arbitrary superoperator given by its d^2 x d^2 matrix (row-major vec)."""

    def __init__(self, s):
        self.s = _square_symbol(s, "superoperator matrix")
        n = self.s.shape[0]
        d = math.isqrt(n)
        if d * d != n:
            raise ValueError(f"superoperator size {n} is not a perfect square")
        self.dim = d
        self._dense = self.s

    def apply(self, x):
        # one row vector per matrix: a stacked row rounds as it does alone
        x = np.asarray(x, dtype=np.complex128)
        return (x.reshape(x.shape[:-2] + (1, self.s.shape[0])) @ self.s.T).reshape(x.shape)


class AmplifiedOp(LpOperator):
    """I_m (x) T acting blockwise on (m d) x (m d) matrices.

    The symbol, the calculus and the frame are those of the base map,
    applied to every d x d block.
    """

    def __init__(self, base: LpOperator, m: int):
        if m < 1:
            raise ValueError("amplification level must be >= 1")
        self.base = base
        self.m = m
        self.dim = base.dim * m
        self.entrywise = base.entrywise

    def split(self, x):
        """(..., m d, m d) -> (..., m, m, d, d): the stack of d x d blocks."""
        d, m = self.base.dim, self.m
        return np.swapaxes(x.reshape(x.shape[:-2] + (m, d, m, d)), -3, -2)

    def merge(self, b):
        """The inverse of :meth:`split`."""
        return np.swapaxes(b, -3, -2).reshape(b.shape[:-4] + (self.dim, self.dim))

    def apply(self, x):
        return self.merge(self.base.apply(self.split(np.asarray(x, dtype=np.complex128))))

    symbol = property(lambda self: self.base.symbol)

    def with_symbol(self, s):
        return AmplifiedOp(self.base.with_symbol(s), self.m)

    def frame(self):
        lam, into, out, into_adj, out_adj = self.base.frame()
        split, merge = self.split, self.merge
        return (
            lam[None, None],
            lambda x: into(split(x)),
            lambda y: merge(out(y)),
            lambda z: merge(into_adj(z)),
            lambda y: out_adj(split(y)),
        )

    def norm_bounds(self, p):
        # every value a kind knows is its cb norm (LpOperator.norm_bounds),
        # attained by the base's witness in the first diagonal block
        b = self.base.norm_bounds(p)
        if b.witness is None:
            return b
        x = np.zeros((self.dim, self.dim), dtype=np.complex128)
        x[: self.base.dim, : self.base.dim] = b.witness
        return Bound(b.lower, b.upper, witness=x)

    def family_bounds(self, p):
        # I_m (x) L_a = L_{I_m (x) a}, and so for right multiplications
        return self.base.family_bounds(p)

    def __repr__(self):
        return f"Amplified({self.base!r}, m={self.m})"


def resolvent(op: LpOperator, z: complex, lam=None) -> LpOperator:
    """R(z, A) = (z - A)^{-1}, refusing z within COLLISION_RTOL of the
    spectrum lam of A (taken here unless the caller has it)."""
    if lam is None:
        lam = op.spectrum()
    scale = max(spectral_window(lam)[1], abs(z), 1.0)
    dist = float(np.min(np.abs(lam - z))) if lam.size else math.inf
    if dist <= COLLISION_RTOL * scale:
        raise SpectralCollisionError(
            f"z = {z:.6g} is within {dist:.3e} of the spectrum (scale {scale:.3g})"
        )
    return op._resolvent_impl(z)


def check_ray_points(n_points: int) -> int:
    """A ray-family size has both rays at each radius: even and >= 2."""
    if n_points < 2 or n_points % 2:
        raise ValueError(f"ray family size must be even and >= 2, got {n_points}")
    return n_points


def ray_resolvent_family(op: LpOperator, theta: float, n_points: int = 24):
    """The family { z R(z, A) } for z log-spaced on both rays of angle theta:
    n_points / 2 radii, each on both rays (n_points even, >= 2).  The
    spectrum is taken once, for the scale and every collision check."""
    lam = op.spectrum()
    per_ray = check_ray_points(n_points) // 2
    radii = np.logspace(-3, 3, per_ray) * spectral_window(lam)[1]
    fam = []
    for r in radii:
        for sgn in (1.0, -1.0):
            z = r * cmath.exp(1j * sgn * theta)
            fam.append(resolvent(op, z, lam).scaled(z))
    return fam


class Family(tuple):
    """A family of maps for :func:`apply_each`.  Where every member is one
    kind with an ``apply_symbols`` product, ``symbols`` stacks their
    symbols, built once here; else it is None."""

    def __new__(cls, ops):
        fam = super().__new__(cls, ops)
        kind = type(fam[0])
        stacked = kind.apply_symbols is not None and all(type(op) is kind for op in fam)
        fam.symbols = np.stack([op.symbol for op in fam]) if stacked else None
        return fam


def apply_each(ops, which, xs) -> np.ndarray:
    """The stack of ops[which[i]] applied to xs[i]: one product of its
    kind's ``apply_symbols`` for a :class:`Family` with ``symbols``, else
    one stacked ``apply`` per distinct member, on all of its rows.  Either
    way each matrix gets the bits it gets alone."""
    which = np.asarray(which)
    if getattr(ops, "symbols", None) is not None:
        return type(ops[0]).apply_symbols(ops.symbols[which], xs)
    out = np.empty(np.shape(xs), dtype=np.complex128)
    for k in dict.fromkeys(which.tolist()):  # np.unique's first call costs 1.6 MB of RSS
        rows = which == k
        out[rows] = ops[k].apply(xs[rows])
    return out


def family_ascent(ops, daggers, sels, xs, p: float, kind: str, iters: int):
    """Nonlinear power iteration for the column (``kind="col"``) or row
    ratio kind_norm(T_k x_k) / kind_norm(x_k) over the family x, for all
    starts xs (S, L, d, d) at once, start i under the selection sels[i]
    (T_k = ops[sels[i, k]]): one :func:`core.power_ascent` on the column
    or row stacks.  ``daggers`` are the adjoints of ``ops``.  Returns each
    start's best ratio and the witness family attaining it."""
    _, length, d, _ = xs.shape
    # power_ascent passes only the rows of the starts still running
    stack, unstack = (_vstack_maps if kind == "col" else _hstack_maps)(length, d, d, (-1,))

    def each(maps):
        def fwd(s, idx):
            fams = unstack(s)
            ys = apply_each(maps, sels[idx].ravel(), fams.reshape(-1, d, d))
            return stack(ys.reshape(fams.shape))
        return fwd

    best, best_x = power_ascent(each(ops), each(daggers), stack(xs), p, iters)
    return best, unstack(best_x)


def choi_matrix(op: LpOperator) -> np.ndarray:
    """Choi matrix sum_{ij} E_ij (x) op(E_ij); PSD iff op is completely
    positive.  Entry (i d + a, j d + b) is op(E_ij)[a, b], entry
    (a d + b, i d + j) of the dense form."""
    d = op.dim
    return op.to_dense().reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


# ---------------------------------------------------------------------------
# Contour calculus
# ---------------------------------------------------------------------------


@dataclass
class ContourSpec:
    """Quadrature data for the sector-boundary contour, as
    :func:`default_contour` chooses it.

    Both rays r e^{+- i gamma} carry one double-exponential rule
    (Takahasi-Mori) in u = log r, on a uniform grid in |v| <= V,

        u = c + v + b (sinh v - v),   b = 1 / cosh(half_width + CONTOUR_MARGIN),

    b sinh V = CONTOUR_SPAN, weights h du/dv (ends halved).  The nodes are
    nearly log-uniform over |u - c| <= half_width + CONTOUR_MARGIN and thin
    out double-exponentially beyond.  The grid has 2M + 1 nodes of step
    h = V / M <= CONTOUR_STEP.

    :meth:`levels` splits the grid into nested levels: every 8th, 4th and
    2nd node counted from v = -V, then the whole grid, then midpoints that
    halve the step down to h / 16.  The contour sweep runs them on the grid
    positions that :func:`_tail_cut` keeps, and stops at the first level
    within LEVEL_TOL of the one before.
    """

    gamma: float
    c: float
    half_width: float = 0.0

    def _grid(self):
        """b, the number M of grid steps on each side of v = 0, and the step h."""
        b = 1.0 / math.cosh(self.half_width + CONTOUR_MARGIN)
        v_max = math.asinh(CONTOUR_SPAN / b)
        m = math.ceil(v_max / CONTOUR_STEP)
        return b, m, v_max / m

    def _map(self, b, v):
        """u = log r and du/dv at the points v."""
        return self.c + v + b * (np.sinh(v) - v), 1.0 + b * (np.cosh(v) - 1.0)

    def rule(self):
        """u = log r and du/dv at the grid nodes, and the step h in v."""
        b, m, h = self._grid()
        return (*self._map(b, np.arange(-m, m + 1) * h), h)

    def nodes(self, t):
        """The radii r and grid weights h du/dv (ends halved) at the
        positions t, counted in grid steps from v = -V."""
        b, m, h = self._grid()
        u, dudv = self._map(b, (t - m) * h)
        w = h * dudv
        w[(t == 0) | (t == 2 * m)] *= 0.5
        return np.exp(u), w

    def grid(self):
        """:meth:`nodes` at every grid position 0, 1, ..., 2M."""
        return self.nodes(np.arange(2 * self._grid()[1] + 1))

    def levels(self):
        """The nested levels, coarsest first: (stride, t) with the positions
        t of the nodes a level adds to the ones before, so that stride *
        sum_j w_j g(r_j) over every level so far, (r, w) = nodes(t), is that
        level's rule of step stride * h.  Down to stride 1 the positions are
        integers, the indices of :meth:`grid`."""
        m = self._grid()[1]
        for i, stride in enumerate(LEVEL_STRIDES):
            # the level's nodes sit t = stride * k grid steps from v = -V; the
            # first level takes every k, each later one the odd k it adds
            yield stride, np.arange(1 if i else 0, math.floor(2 * m / stride) + 1, 2 if i else 1) * stride


def check_sector(op: LpOperator, f: HolFn) -> float:
    """The type angle of op, refused unless it lies below f's sector."""
    omega = op.sector_angle()
    if omega >= f.theta:
        raise ValueError(
            f"operator type angle {omega:.3f} is not below the function sector {f.theta:.3f}"
        )
    return omega


def default_contour(op: LpOperator, f: HolFn) -> ContourSpec:
    """The one contour rule of f(A): rays halfway between the type angle of
    op and f's sector, and a core over the spectral window and f's scales.
    A spectrum that touches the rays is a SpectralCollisionError."""
    omega = check_sector(op, f)
    gamma = 0.5 * (omega + f.theta)
    if gamma - omega <= 1e-12:
        raise SpectralCollisionError(
            f"spectrum touches the contour (angle margin {gamma - omega:.3e})"
        )
    lo, hi = spectral_window(op.spectrum())
    lo, hi = math.log(min(lo, *f.scales)), math.log(max(hi, *f.scales))
    return ContourSpec(gamma, 0.5 * (lo + hi), 0.5 * (hi - lo))


def _contour_coefficients(fs, spec: ContourSpec, nodes):
    """Nodes z_j and weights c[k, j] with f_k(A) ~= sum_j c[k, j] R(z_j, A)
    for the k-th function of fs, on the radii and weights ``nodes`` (one
    level of ``spec``).

    The boundary of the sector is traversed counterclockwise around the
    spectrum: down the upper ray, out the lower ray.  The nodes are the
    lower ray followed by its exact conjugate, the upper ray.
    """
    r, w = nodes
    g = spec.gamma
    z_lo = r * cmath.exp(-1j * g)
    z_hi = z_lo.conj()
    c_lo = [w * r * cmath.exp(-1j * g) * f(z_lo) / (2j * math.pi) for f in fs]
    c_hi = [-w * r * cmath.exp(1j * g) * f(z_hi) / (2j * math.pi) for f in fs]
    return np.concatenate([z_lo, z_hi]), np.concatenate([c_lo, c_hi], axis=1)


def _cauchy_sums(z, c, lam) -> np.ndarray:
    """sum_j c[k, j] / (z_j - lam) for every row k of c, entrywise over the
    array lam: the scalar quadrature of the entrywise kinds, in chunks of
    spectral points of at most _BATCH_ENTRIES terms."""
    lam = np.asarray(lam, dtype=np.complex128)
    flat = lam.ravel()
    out = np.empty((len(c), flat.size), dtype=np.complex128)
    step = max(1, _BATCH_ENTRIES // max(c.size, 1))
    for k in range(0, flat.size, step):
        part = flat[k : k + step]
        out[:, k : k + step] = np.sum(c[:, :, None] / (z[:, None] - part), axis=1)
    return out.reshape((len(c),) + lam.shape)


def _inverse_shifts(z, s) -> np.ndarray:
    """The stack of (z_j - s)^{-1}: z_j added to the diagonal of a copy of -s.
    A node that is an eigenvalue of s to working precision (a kernel
    eigenvalue at roundoff level against the smallest nodes of a dense
    symbol) is a :class:`SpectralCollisionError` naming its radius."""
    n = s.shape[0]
    a = np.empty((z.size, n, n), dtype=np.complex128)
    a[:] = -s
    a.reshape(z.size, n * n)[:, :: n + 1] += z[:, None]
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        for zj, aj in zip(z, a):  # the batch's LU runs per matrix: find the node
            try:
                np.linalg.inv(aj)
            except np.linalg.LinAlgError:
                break
        raise SpectralCollisionError(
            f"contour node of radius {abs(zj):.3e} is an eigenvalue of the symbol "
            f"to working precision"
        ) from exc


def _resolvent_sums(z, c, s) -> np.ndarray:
    """sum_j c[k, j] (z_j - s)^{-1} for every row k of c and a square matrix
    s, on the nodes of :func:`_contour_coefficients` (the lower ray, then
    its conjugate).  The lower ray is inverted in batched chunks of at most
    _BATCH_ENTRIES entries.  For a real s the upper ray costs no inverse:
    (conj(z) - s)^{-1} = conj((z - s)^{-1}), so its part is the conjugate of
    sum_j conj(c_j) (z_j - s)^{-1}, summed with the lower ray's rows in one
    tensordot per chunk; a symbol with any nonzero imaginary part inverts
    the upper ray's chunk too."""
    n, half, k = s.shape[0], z.size // 2, len(c)
    real = not np.any(np.imag(s))
    c_lo, c_hi, z_lo, z_hi = c[:, :half], c[:, half:], z[:half], z[half:]
    rows = np.concatenate([c_lo, c_hi.conj()]) if real else c_lo
    out = np.zeros((len(rows), n, n), dtype=np.complex128)
    step = max(1, _BATCH_ENTRIES // (n * n))
    for j in range(0, half, step):
        part = slice(j, j + step)
        out += np.tensordot(rows[:, part], _inverse_shifts(z_lo[part], s), axes=1)
        if not real:
            out += np.tensordot(c_hi[:, part], _inverse_shifts(z_hi[part], s), axes=1)
    return out[:k] + out[k:].conj() if real else out


def _far_radii(r, rho: float, below: bool) -> np.ndarray:
    """True at the radii r far below (|z| <= SERIES_Q rho) or far above
    (|z| >= rho / SERIES_Q) the spectral radius rho of one side."""
    return r <= SERIES_Q * rho if below else r >= rho / SERIES_Q


class _ResolventSeries:
    """The resolvent sums of a matrix symbol S over the nodes on one side of
    its spectrum far from it, as a truncated power series.  With rho the
    radius of :func:`_resolvent_radii` on that side, a node is far when

        below (rho = sigma_min - slack > 0):  |z| <= SERIES_Q rho,
            (z - S)^{-1} = -rho^{-1} sum_{k<m} (z / rho)^k W^{k+1},  W = rho S^{-1},
        above (rho = sigma_max + slack > 0):  |z| >= rho / SERIES_Q,
            (z - S)^{-1} = z^{-1} sum_{k<m} (rho / z)^k V^k,  V = S / rho,

    with m = SERIES_TERMS.  ||W||, ||V|| <= 1 and the ratio is at most
    SERIES_Q, so each dropped tail is at most SERIES_Q^m / (1 - SERIES_Q)
    <= u / (2 * LEVEL_STRIDES[0]) times 1 / |z|: the series moves a level's
    result by at most u / (2 * LEVEL_STRIDES[0]) times its mass, less than
    the tails :func:`_tail_cut` drops.  The powers of W or V are built once,
    by doubling (one inverse below, about log2(m) batched products), in the
    symbol's complex128 (``as_matrix`` stores every symbol complex, a real
    one too); a set of far nodes then costs its moment vector
    sum_j c_j (ratio_j)^k times the stack, for both rays at once."""

    def __init__(self, s, rho: float, below: bool):
        n = s.shape[0]
        self.rho, self.below = rho, below
        self.powers = np.empty((SERIES_TERMS, n, n), dtype=np.result_type(s, float))
        p = self.powers  # p[k] = B^{k+1}, B = W below; behind the identity above
        if below:
            p[0] = rho * np.linalg.inv(s)
        else:
            p[0] = np.eye(n)
            p = p[1:]
            p[0] = s / rho
        k = 1
        while k < len(p):  # p[k : k + j] = p[:j] B^k
            j = min(k, len(p) - k)
            np.matmul(p[:j], p[k - 1], out=p[k : k + j])
            k += j

    def far(self, r) -> np.ndarray:
        """True at the radii r whose nodes the series sums."""
        return _far_radii(r, self.rho, self.below)

    def sums(self, z, c) -> np.ndarray:
        """sum_j c[k, j] (z_j - S)^{-1} for every row k of c, on far nodes z."""
        x, a = (z / self.rho, -c / self.rho) if self.below else (self.rho / z, c / z)
        moments = a @ np.vander(x, SERIES_TERMS, increasing=True)
        out = moments @ self.powers.reshape(SERIES_TERMS, -1)
        return out.reshape((len(c),) + self.powers.shape[1:])


def _series_sides(s, lo: float, hi: float, r) -> list:
    """The :class:`_ResolventSeries` a sweep over the grid radii r (inside
    the tail cut) takes on the matrix symbol s: each side of the spectrum
    with more far radii than SERIES_TERMS, on a symbol of order at least
    SERIES_MIN_ORDER, where the series costs less than inverting them.  A
    kernel (lo <= 0) takes no lower series and the zero symbol (hi = 0) no
    upper one."""
    if s.shape[0] < SERIES_MIN_ORDER:
        return []
    return [
        _ResolventSeries(s, rho, below)
        for rho, below in ((lo, True), (hi, False))
        if rho > 0 and np.count_nonzero(_far_radii(r, rho, below)) > SERIES_TERMS
    ]


def _truncation_estimate(f: HolFn, spec: ContourSpec) -> float:
    """The integrand |f(z)| du/dv at the two end nodes of each ray."""
    u, dudv, _ = spec.rule()
    z = np.exp(u[[0, -1]]) * cmath.exp(-1j * spec.gamma)
    return float(np.sum((np.abs(f(z)) + np.abs(f(z.conj()))) * dudv[[0, -1]]))


def _resolvent_radii(op: LpOperator) -> tuple:
    """(lo, hi) = (sigma_min - slack, sigma_max + slack): the extreme
    singular values of the symbol S (max and min |lambda| for an entrywise
    kind), widened by the roundoff margin slack = 4 n eps sigma_max, so that

        ||(z - S)^{-1}|| <= 1 / (|z| - hi)   for |z| > hi,
        ||(z - S)^{-1}|| <= 1 / (lo - |z|)   for |z| < lo,

    and a kernel (lo <= 0) bounds nothing below.  One SVD of a matrix
    symbol serves the tail cut and the resolvent series of a sweep."""
    s = op.symbol
    sv = np.abs(s) if op.entrywise else np.linalg.svd(s, compute_uv=False)
    smax = sv.max()
    slack = 4 * s.shape[0] * np.finfo(float).eps * smax
    return sv.min() - slack, smax + slack


def _tail_cut(lo: float, hi: float, r, c) -> tuple:
    """(t_lo, t_hi): the sweep keeps the grid positions strictly between
    them and drops the outer tails of each ray, where a certified resolvent
    bound puts every term below roundoff.  r holds the grid's radii and
    c[k, j] the coefficients of the k-th function at its nodes (the lower
    ray, then the upper); (lo, hi) are the symbol's :func:`_resolvent_radii`,
    whose bounds 1 / (|z| - hi) above and 1 / (lo - |z|) below the spectrum
    hold on the tails.  On each side the outermost grid nodes are dropped
    while, for every function, the sum of |c_j| times that bound over them
    stays within
    u * mass / (2 * LEVEL_STRIDES[0]), u = eps / 2 the unit roundoff and
    mass = sum_j |c_j| / |z_j| over the grid.  A level of stride up to
    LEVEL_STRIDES[0] is a subset of the grid, so the two tails cut it by
    at most u * mass, nine orders below the LEVEL_TOL * mass that
    :func:`_level_gap` takes as roundoff.  The cut falls on the innermost
    dropped grid nodes: a finer level keeps the midpoints inside them, and
    drops only midpoints between dropped nodes, whose terms a decaying tail
    keeps below those of the grid.  The far nodes a matrix symbol sums by
    :class:`_ResolventSeries` move a level by at most u / (2 *
    LEVEL_STRIDES[0]) times its own mass (stride * sum_j |c_j| / |z_j| over
    its nodes), at most u / 2 * mass more for these levels, so the cut
    level stays within 3/2 u * mass of the exact sum over the whole grid."""
    n = r.size
    c = np.abs(c[:, :n]) + np.abs(c[:, n:])  # both rays share a radius
    budget = np.finfo(float).eps / 2 * (c @ (1.0 / r)) / (2 * LEVEL_STRIDES[0])
    # the bounds are finite on the tails only: no 0 * inf where c underflows
    below = np.searchsorted(r, lo)
    above = n - np.searchsorted(r, hi, side="right")
    cut_lo = np.cumsum(c[:, :below] / (lo - r[:below]), axis=1)
    cut_hi = np.cumsum(c[:, ::-1][:, :above] / (r[::-1][:above] - hi), axis=1)
    n_lo = (cut_lo <= budget[:, None]).sum(axis=1).min()
    n_hi = (cut_hi <= budget[:, None]).sum(axis=1).min()
    return int(n_lo) - 1, n - int(n_hi)


def _level_gap(new, old, mass) -> float:
    """max over the stacked symbols of max |new - old| relative to max |new|,
    or to LEVEL_TOL * mass where that is larger.  mass is the size of the
    level's sum on the kernel, stride * sum_j |c_j| / |z_j|: an f(A) far
    below it (f nearly 0 on the spectrum) is all roundoff."""
    k = len(new)
    gap = np.max(np.abs(new - old).reshape(k, -1), axis=1)
    scale = np.maximum(np.max(np.abs(new).reshape(k, -1), axis=1), LEVEL_TOL * mass)
    return float(np.max(gap / np.maximum(scale, 1e-300)))


def _contour_symbols(op: LpOperator, fs, spec: ContourSpec) -> np.ndarray:
    """The symbols of f(A) for every f in fs, stacked, from one sweep over
    the levels of ``spec``.  Each f gets the truncation check.

    The coefficients of every f on the grid are computed once: they fix
    the tail cut (:func:`_tail_cut`), one interval of grid positions shared
    by every level and every f, and they are the coefficients of the levels
    down to stride 1; the finer levels evaluate their midpoints.
    A level takes only the nodes it adds inside the cut and adds their
    resolvent sums to a running total; its result is stride * total.  A
    matrix symbol's sweep builds the :class:`_ResolventSeries` of
    :func:`_series_sides` once, from the same singular values as the cut
    (:func:`_resolvent_radii`): each level sums its nodes far below or far
    above the spectrum by those series and inverts the others.  The
    sweep returns the first level within LEVEL_TOL of the level before, for
    every f at once.  A rule that truncates some f stops at the grid (finer
    steps cannot mend a cut-off integrand), and one still apart at the last
    level warns."""
    truncated = False
    for f in fs:
        est = _truncation_estimate(f, spec)
        if est > TRUNCATION_TOL:
            truncated = True
            msg = f"contour rule may truncate {f.name} (endpoint estimate {est:.2e})"
            warnings.warn(msg, ContourTruncationWarning, stacklevel=3)
    s = op.symbol
    sums = _cauchy_sums if op.entrywise else _resolvent_sums
    r, w = spec.grid()
    z_grid, c_grid = _contour_coefficients(fs, spec, (r, w))
    lo, hi = _resolvent_radii(op)
    t_lo, t_hi = _tail_cut(lo, hi, r, c_grid)
    sides = [] if op.entrywise else _series_sides(s, lo, hi, r[t_lo + 1 : t_hi])
    total, mass, out, gap = 0.0, 0.0, None, None
    for stride, t in spec.levels():
        t = t[(t > t_lo) & (t < t_hi)]
        if stride >= 1:  # grid positions: their nodes on the lower ray, then the upper
            j = np.concatenate([t, t + r.size])
            z, c = z_grid[j], c_grid[:, j]
        else:
            z, c = _contour_coefficients(fs, spec, spec.nodes(t))
        mass = mass + np.abs(c) @ (1.0 / np.abs(z))
        for side in sides:  # the far nodes of both rays, then the rest
            far = np.tile(side.far(np.abs(z[: z.size // 2])), 2)
            total = total + side.sums(z[far], c[:, far])
            z, c = z[~far], c[:, ~far]
        total = total + sums(z, c, s)
        prev, out = out, stride * total
        if prev is not None:
            gap = _level_gap(out, prev, stride * mass)
            if gap <= LEVEL_TOL or (truncated and stride == 1):
                return out
    if gap is not None:
        h = spec.rule()[2] * LEVEL_STRIDES[-1]
        msg = (f"contour levels of {', '.join(f.name for f in fs)} differ by {gap:.2e} "
               f"at the finest step {h:.2e} (tolerance {LEVEL_TOL:.0e})")
        warnings.warn(msg, ContourTruncationWarning, stacklevel=3)
    return out


def contour_calculus(op: LpOperator, f: HolFn) -> LpOperator:
    """f(A) by the double-exponential quadrature of the sector-boundary
    Cauchy integral, on the rule of :func:`default_contour`.

    The rule is swept in the nested levels of :meth:`ContourSpec.levels`,
    steps 8h, 4h, 2h and h of the grid, then h/2 down to h/16; each level
    sums only its new nodes, and the sweep returns the first level whose
    result differs from the level before by at most LEVEL_TOL relative to
    its largest entry (its error is then about the square of that
    difference).  Every level skips the outer tails of the rays where the
    resolvent bounds 1 / (|z| - sigma_max) above the symbol's largest
    singular value and 1 / (sigma_min - |z|) below its smallest (max and
    min |lambda| for an entrywise symbol) certify that the skipped terms
    move the level by at most eps / 2 times sum_j |c_j| / |z_j| over the
    grid (:func:`_tail_cut`); a symbol with a kernel keeps its whole lower
    tail.  For z e^-z on the benchmark's ``dense8`` that leaves 106 of the
    grid's 199 nodes.

    Of the nodes left, a matrix symbol of order SERIES_MIN_ORDER or more
    sums those far from its spectrum, |z| <= SERIES_Q (sigma_min - slack)
    below it or |z| >= (sigma_max + slack) / SERIES_Q above it, by the
    truncated Neumann and Laurent series of the resolvent
    (:class:`_ResolventSeries`), whose SERIES_TERMS powers truncate below
    u / (2 LEVEL_STRIDES[0]) times the level's mass; a side is taken only
    when it has more far grid radii than series terms.  So ``dense8``
    inverts 54 of its 106 nodes for z e^-z, 32 of 88 for g and 63 of 176
    for ``heat:0.7``.

    The quadrature acts on the symbol and the kind is kept: entrywise
    symbols go through the scalar Cauchy sums, matrix symbols sum their
    own resolvents (d x d for multiplications, d^2 x d^2 otherwise),
    inverted in batches of nodes, so the result never passes through an
    eigendecomposition (the spectrum is read for the rule only).  The
    upper-ray nodes are the conjugates of the lower-ray ones, and for a
    real symbol S

        (conj(z) - S)^{-1} = conj((z - S)^{-1}),

    so only the lower ray's near nodes are inverted.  The weights c_j still
    carry f at every node: f need not be conjugate-symmetric.  Emits
    :class:`ContourTruncationWarning` when the endpoint integrand suggests
    the rule truncates f, or when the last level has not converged.
    """
    if f.klass != "hinf0":
        raise ValueError(f"{f.name} has no decay at 0/infinity; use extended_calculus")
    return op.with_symbol(_contour_symbols(op, (f,), default_contour(op, f))[0])


def eigen_calculus(op: LpOperator, fn) -> LpOperator:
    """Oracle path: apply a scalar function spectrally (V f(Lambda) V^{-1}
    on the superoperator, or entrywise on structured symbols), with the
    f(0) = 0 convention on the kernel."""
    fn_arr = fn.fn if isinstance(fn, HolFn) else fn
    return op.eigen_fn(lambda lam: np.asarray(fn_arr(lam)))


def extended_calculus(op: LpOperator, f: HolFn) -> LpOperator:
    """f(A) = g(A)^{-1} (fg)(A) with g(z) = z/(1+z)^2, for bounded f.

    In finite dimension the space splits as N(A) + R(A); the calculus is
    the boundary integral of fg corrected by g(A)^{-1} on the range
    component, and it annihilates the kernel component (f(0) = 0).  fg(A)
    and g(A) come from one sweep over the levels of fg's default rule, which
    stops once both have converged, with the truncation check of each.  g
    has the wider sector and one scale, 1, so that rule suits g too.
    """
    g = library("g")
    fg = product_fn(f, g)
    fg_s, g_s = _contour_symbols(op, (fg, g), default_contour(op, fg))
    # g(A) + P0 is invertible; (I - P0) drops the kernel component again
    p0 = op.kernel_projection().symbol
    if op.entrywise:
        return op.with_symbol((1.0 - p0) * (fg_s / (g_s + p0)))
    eye = np.eye(p0.shape[0])
    return op.with_symbol((eye - p0) @ np.linalg.solve(g_s + p0, fg_s))


def imaginary_power(op: LpOperator, s: float):
    """A^{is} via the extended calculus with f(z) = z^{is} (principal branch;
    the contour never crosses the cut on the negative reals)."""
    return extended_calculus(op, library(f"zis:{s}"))


# ---------------------------------------------------------------------------
# Sectoriality profiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorProfile:
    """One :class:`core.Bound` on K_theta per test angle theta; the
    ``constants`` are their lower ends, and ``exact`` holds when every
    bound is closed (``within(0)``: an exact norm, LpOperator.norm_bounds)."""

    omega_hat: float
    bounds: dict  # {theta: Bound on K_theta}

    constants = property(lambda self: [(theta, b.lower) for theta, b in self.bounds.items()])
    exact = property(lambda self: all(b.within(0.0) for b in self.bounds.values()))


def _family_opnorm_lower(ops, p: float, starts: int, iters: int, seed: int) -> Bound:
    """The :class:`core.Bound` on the largest ||T||_{S^p -> S^p} of the
    family.  A member's norm is exact where its kind knows it (a closed
    :meth:`LpOperator.norm_bounds`: every kind at p = 2, left and right
    multiplication at every p); the bound is closed at the largest when
    every one is, else open.  The members whose bound is open run one
    :func:`family_ascent` (nonlinear power iteration) over their seeded
    starts, each a family of length 1 (start i belongs to the
    (i // starts)-th of them; each gets the same ones), whose every value
    is a ratio attained by a concrete x, hence a certified lower end."""
    bounds = [op.norm_bounds(p) for op in ops]
    best = max(b.lower for b in bounds)
    rest = [op for op, b in zip(ops, bounds) if not b.within(0.0)]
    if not rest:
        return Bound(best, best)
    rest = Family(rest)
    d = rest[0].dim
    rng = np.random.default_rng(seed)
    x0 = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(starts)]
    sels = (np.arange(len(rest) * starts) // starts)[:, None]
    ratios, _ = family_ascent(
        rest, Family(op.dagger() for op in rest), sels, np.tile(x0, (len(rest), 1, 1))[:, None], p,
        "col", iters + 1,  # iters steps visit iters + 1 iterates
    )
    return Bound(max(best, float(np.max(ratios, initial=0.0))))


def sector_type(op: LpOperator, p: float = 2.0, seed: int = 0) -> SectorProfile:
    """Sector type: omega_hat from the spectrum and resolvent constants
    K_theta = sup ||z R(z, A)|| over the ray family of each test angle
    theta = omega_hat + (0.05, 0.15, 0.4, 0.8, 1.4) below pi; a type angle
    that leaves none is a ValueError.  Each member's norm is its closed
    ``norm_bounds`` where the kind has one (every kind at p = 2; left and
    right multiplication, whose ray members are again multiplications, at
    every p), and the angle's bound is closed when all of them are.  Otherwise
    it is a power-iteration lower bound with an open upper end: one ascent
    per test angle runs the same 8 seeded starts for every ray member
    together (:func:`_family_opnorm_lower`)."""
    omega = op.sector_angle()
    gaps = (0.05, 0.15, 0.4, 0.8, 1.4)
    thetas = [omega + g for g in gaps if omega + g < math.pi - 1e-6]
    if not thetas:
        raise ValueError(f"operator type angle {omega:.3f} leaves no test angle below pi")
    bounds = {}
    for theta in thetas:
        fam = ray_resolvent_family(op, theta, SECTOR_RAY_POINTS)
        bounds[float(theta)] = _family_opnorm_lower(fam, p, starts=8, iters=25, seed=seed)
    return SectorProfile(omega_hat=omega, bounds=bounds)


# ---------------------------------------------------------------------------
# Integral identities
# ---------------------------------------------------------------------------


def group_average_identity(a, b=None, n_nodes: int = 64) -> float:
    """Residual of the Gaussian group-average identity

        e^{-A^2/2} = (2 pi)^{-1/2} int e^{-s^2/2} U_s ds

    for U_s = e^{isa} (matrix version, ``b`` omitted; A = a) or
    U_s(x) = e^{isa} x e^{-isb} (derivation version; A = Ad_{(a,b)}).
    Gauss-Hermite quadrature with ``n_nodes``; returns the operator norm
    of the defect (for the derivation version, the norm on the
    Hilbert-Schmidt space, which is the largest symbol deviation).
    """
    a = _check_hermitian(as_matrix(a), "generator")
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    s_vals = math.sqrt(2.0) * nodes
    coeff = weights / math.sqrt(math.pi)
    alpha, u = np.linalg.eigh(a)
    if b is None:
        lhs = (u * np.exp(-(alpha**2) / 2.0)) @ adjoint(u)
        diag = coeff @ np.exp(1j * s_vals[:, None] * alpha[None, :])
        rhs = (u * diag) @ adjoint(u)
        return float(np.linalg.norm(lhs - rhs, 2))
    beta = np.linalg.eigvalsh(_check_hermitian(as_matrix(b), "generator"))
    w0 = alpha[:, None] - beta[None, :]
    lhs = np.exp(-(w0**2) / 2.0)
    rhs = np.einsum("k,kij->ij", coeff, np.exp(1j * s_vals[:, None, None] * w0[None, :, :]))
    return float(np.max(np.abs(lhs - rhs)))


def subordination_weight(s):
    """Density h(s) = (1/(2 sqrt pi)) e^{-1/(4s)} s^{-3/2}; unit mass on (0, inf)."""
    s = np.asarray(s, dtype=float)
    return np.exp(-1.0 / (4.0 * s)) / (2.0 * math.sqrt(math.pi) * s**1.5)


def _psd_spectrum(lam: np.ndarray) -> np.ndarray:
    """A real generator spectrum clipped at 0; a negative part beyond
    roundoff is a ValueError."""
    low = float(np.min(lam, initial=0.0))
    if low < -1e-10 * max(1.0, float(np.max(np.abs(lam), initial=0.0))):
        raise ValueError(f"generator must be PSD (min eigenvalue {low:.3e})")
    return np.clip(lam, 0.0, None)


def subordination_identity(c, t: float):
    """Residual of e^{-t C^{1/2}} = int h(s) T_{s t^2} ds, T the heat
    semigroup of a PSD generator C (hermitian matrix or operator kind).

    Returns ``(residual, h_mass)``; raises when the quadrature mass of h
    misses 1 by more than ``MASS_DEFECT_MAX`` (the grid is then too narrow).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    # the density has a fat s^{-3/2} right tail: the window must reach
    # 1e26 for the quadrature mass to match 1 at the 1e-13 level
    s_nodes, w = log_trapezoid(1e-6, 1e26, 2400)
    # the weights are for ds/s, so the integrand h(s) picks up a Jacobian s
    coeff = w * s_nodes * subordination_weight(s_nodes)
    mass = float(np.sum(coeff))
    if abs(mass - 1.0) > MASS_DEFECT_MAX:
        raise ValueError(
            f"subordination grid mass {mass!r} misses 1 by more than {MASS_DEFECT_MAX}"
        )

    if isinstance(c, LpOperator):
        lam = c.spectrum()
        if np.max(np.abs(lam.imag)) > 1e-9 * max(1.0, float(np.max(np.abs(lam)))):
            raise ValueError("generator spectrum must be real nonnegative")
        lam = _psd_spectrum(lam.real)
        lhs = np.exp(-t * np.sqrt(lam))
        rhs = coeff @ np.exp(-np.outer(s_nodes * t * t, lam))
        return float(np.max(np.abs(lhs - rhs))), mass
    lam, u = np.linalg.eigh(_check_hermitian(as_matrix(c), "generator"))
    lam = _psd_spectrum(lam)
    diag = np.exp(-t * np.sqrt(lam)) - coeff @ np.exp(-np.outer(s_nodes * t * t, lam))
    return float(np.linalg.norm((u * diag) @ adjoint(u), 2)), mass

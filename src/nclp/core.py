"""Dense complex matrix algebra: the substrate of the whole package.

Matrices are plain ``numpy`` arrays of ``complex128``, interpreted as
elements of a finite noncommutative L^p space over the full matrix
algebra with its *unnormalized* trace.  The functions here provide the
Schatten norms and their norming elements and the shared PSD square-root
kernel, plus an exact-round-trip text format for matrices and matrix
families, and :class:`Bound`, the certified interval every estimator
returns.

One batched kernel, :func:`schatten_norms`, computes every Schatten norm.
At the even exponents p = 2k in MOMENT_EXPONENTS it uses the trace
moments ||y||_p^p = tr((y*y)^k) (Pisier-Xu 2003, "Non-commutative
L^p-spaces"): matmuls on the Gram matrix of the smaller side and no SVD,
with the norming element y (y*y)^(k-1) / ||y||_p^(p-1) from one more
matmul.  Every other p takes the singular values.

Everything is a pure function of its inputs; nothing mutates its
arguments and there is no global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerances, relative to the sup norm of the matrix at hand.  Chosen for
# SVD/eigendecomposition roundoff at dimensions up to a few hundred.
HERM_RTOL = 1e-10
PSD_CLAMP_RTOL = 1e-10
ASCENT_RTOL = 1e-13  # fixed-point rule of power_ascent, relative to ||x||
# schatten_from_sv sums s**p unscaled while p |log top| stays below this:
# e^690 leaves e^19 of the double range (e^+-708) for the sum of the powers
_POW_SAFE_LOG = 690.0
# even exponents p = 2k whose norms come from ||y||_p^p = tr((y*y)^k); a
# row whose moment leaves _MOMENT_RANGE is recomputed on y / max|y_ij|
MOMENT_EXPONENTS = (2.0, 4.0, 6.0, 8.0)
_MOMENT_RANGE = (math.exp(-_POW_SAFE_LOG), math.exp(_POW_SAFE_LOG))

_TEXT_FMT = "%.17g"  # 17 significant digits: exact binary64 round trip


class NumericsError(RuntimeError):
    """A numerical kernel (SVD, eigendecomposition, solve) failed."""


class SpectralCollisionError(NumericsError):
    """A requested point is too close to the spectrum of an operator."""


@dataclass(frozen=True)
class Bound:
    """A certified interval [lower, upper] for a constant: ``lower`` is
    attained by a concrete witness or dual point, ``upper`` is proved
    (``inf`` where no upper end is known).  :meth:`within` is the one rule
    for a closed interval: a solve is converged, a search stops at its
    certified upper bound, and a value is exact (``within(0)``).
    ``witness``, where one is stored, is the input that attains ``lower``.
    Every bound, a subclass's too, is ordered: ``lower <= upper``, so a
    NaN end is refused with the crossed ones."""

    lower: float
    upper: float = math.inf
    witness: np.ndarray | None = field(default=None, kw_only=True, compare=False)

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"a bound needs lower <= upper, got [{self.lower!r}, {self.upper!r}]")

    @property
    def gap(self) -> float:
        """The relative width (upper - lower) / upper: 0 at upper 0, inf
        with an open upper end."""
        if self.upper == math.inf:
            return math.inf
        return (self.upper - self.lower) / self.upper if self.upper > 0.0 else 0.0

    def within(self, tol: float) -> bool:
        """upper - lower <= tol * upper; never with an open upper end."""
        return self.upper < math.inf and self.upper - self.lower <= tol * self.upper


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-d complex128 array and validate finiteness."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise ValueError("matrix has non-finite entries")
    return a


def adjoint(x) -> np.ndarray:
    """Conjugate transpose x*."""
    return np.conj(np.asarray(x)).T


def conjugate_exponent(p: float) -> float:
    """The conjugate p' with 1/p + 1/p' = 1; conj(1) = inf, conj(inf) = 1."""
    check_exponent(p)
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def check_exponent(p: float) -> float:
    """Validate 1 <= p <= inf and return p as a float."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"Schatten exponent must satisfy 1 <= p <= inf, got {p}")
    return p


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm (sum of p-th powers of singular values)^(1/p).

    ``p = inf`` is handled as a distinct branch returning the largest
    singular value (the operator norm); it is never approximated by a
    large finite exponent.
    """
    p = check_exponent(p)
    return float(schatten_norms(as_matrix(x), p))


def schatten_norms(y, p: float):
    """Schatten p-norms of the matrices on the last two axes of y, batched
    over the leading axes (the one matrix-level norm kernel).  For p in
    MOMENT_EXPONENTS the norm is the trace moment tr(G^(p/2))^(1/p), G the
    Gram matrix on the smaller side of y, from matmuls alone; every other
    p takes the singular values through :func:`schatten_from_sv`."""
    if p in MOMENT_EXPONENTS:
        return _moment_norms(y, p, polar=False)[0]
    return schatten_from_sv(np.linalg.svd(y, compute_uv=False), p)


def schatten_from_sv(s, p: float):
    """Schatten p-norms from singular values sorted decreasingly along the
    last axis, batched over the leading axes (the SVD side of
    :func:`schatten_norms`).  A row whose power sum would overflow or
    underflow (a huge p, or extreme singular values) is rescaled by its top
    singular value."""
    s = np.asarray(s)
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1])
    if p == math.inf:
        return s[..., 0]
    top = s[..., 0]
    lo, hi = (float(top), float(top)) if s.ndim == 1 else (float(top.min()), float(top.max()))
    if lo > 0.0 and p * max(math.log(hi), -math.log(lo)) < _POW_SAFE_LOG:
        # the root is taken on an array, never on a numpy scalar, whose
        # libm power can differ in the last bit: the same bits alone as in
        # a batch
        return (np.sum(s**p, axis=-1, keepdims=True) ** (1.0 / p)).reshape(s.shape[:-1])[()]
    return _schatten_guarded(s, p)


def _schatten_guarded(s, p: float):
    """:func:`schatten_from_sv` where s**p may overflow or underflow: the
    rows whose power sum is not a positive finite number, although their
    top singular value is positive, are recomputed as
    top * sum((s / top)**p)**(1/p); every other row keeps the plain sum."""
    with np.errstate(over="ignore"):
        total = np.sum(s**p, axis=-1, keepdims=True)
    norms, total = (total ** (1.0 / p)).reshape(s.shape[:-1]), total[..., 0]
    top = s[..., 0]
    bad = ~((total > 0.0) & (total < math.inf)) & (top > 0.0)
    if np.any(bad):
        flat, bad = s.reshape(-1, s.shape[-1]), np.reshape(bad, -1)
        rows, tops = flat[bad], flat[bad, :1]
        norms.reshape(-1)[bad] = tops[:, 0] * np.sum((rows / tops) ** p, axis=-1) ** (1.0 / p)
    return norms[()]


def _sv_and_polar(y, p: float):
    """Singular values of y and the norming element of ||y||_p, from one
    SVD, batched over leading axes."""
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    if s.shape[-1] == 0:
        return s, np.zeros_like(y)
    top = s[..., :1]
    if p == math.inf:
        d = np.zeros_like(s)
        d[..., 0] = top[..., 0] > 0
    elif p == 1.0:
        d = (s > 1e-14 * top).astype(float)
    else:
        pp = conjugate_exponent(p)
        # t is 1 in the top slot, so the sum is >= 1 except on zero slices,
        # where t = 0 and the maximum keeps d = 0
        t = (s / (top + (top == 0))) ** (p - 1.0)
        d = t / np.maximum((t**pp).sum(-1, keepdims=True), 1.0) ** (1.0 / pp)
    return s, (u * d[..., None, :]) @ vh


def _moment_norms(y, p: float, polar: bool):
    """||y||_p for p = 2k in MOMENT_EXPONENTS from tr(G^k), G = y*y for a
    tall or square y and y y* for a wide one, batched over leading axes;
    with ``polar`` also the norming element y G^(k-1) / ||y||_p^(p-1)
    (G^(k-1) y for a wide y), zero where y = 0, otherwise None.  A nonzero
    row whose moment leaves _MOMENT_RANGE is recomputed on y / max|y_ij|
    and rescaled, like :func:`_schatten_guarded`.  The powers are taken on
    arrays, never on numpy scalars, whose libm power can differ in the
    last bit, so a matrix gets the same bits alone as in a batch."""
    y = np.asarray(y, dtype=np.complex128)
    if not y.size:
        return np.zeros(y.shape[:-2])[()], np.zeros_like(y) if polar else None
    flat = y.reshape(-1, *y.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are redone
        total, lever = _trace_moment(flat, int(p) // 2, polar)
        norms, xi = total ** (1.0 / p), None
        if polar:
            scale = (norms ** (p - 1.0))[:, None, None]
            xi = np.divide(lever, scale, out=np.zeros(lever.shape, complex), where=scale > 0)
    lo, hi = _MOMENT_RANGE
    bad = np.flatnonzero(~((total >= lo) & (total <= hi)))
    if bad.size:
        top = np.max(np.abs(flat[bad]), axis=(-2, -1))
        bad, top = bad[top > 0], top[top > 0]
        if bad.size:
            fixed, fixed_xi = _moment_norms(flat[bad] / top[:, None, None], p, polar)
            norms[bad] = top * fixed
            if polar:
                xi[bad] = fixed_xi
    return norms.reshape(y.shape[:-2])[()], xi.reshape(y.shape) if polar else None


def _trace_moment(y, k: int, polar: bool):
    """tr((y*y)^k) of every matrix of y, and with ``polar`` the lever
    y (y*y)^(k-1), mirrored to (y y*)^(k-1) y for a wide y."""
    if k == 1:
        f = np.ascontiguousarray(y).view(np.float64)
        return np.sum(f * f, axis=(-2, -1)), y
    tall = y.shape[-2] >= y.shape[-1]
    yh = np.conj(np.swapaxes(y, -1, -2))
    g = yh @ y if tall else y @ yh
    h = g if k == 2 else g @ g  # G^(k // 2)
    other = g if k == 3 else h  # G^(k - k // 2)
    # tr(h other) = sum_ij h_ij conj(other_ij), other being hermitian
    total = np.sum(h.view(np.float64) * other.view(np.float64), axis=(-2, -1))
    if not polar:
        return total, None
    power = h @ g if k == 4 else h  # G^(k - 1)
    return total, (y @ power if tall else power @ y)


def polar_factor(y, p: float) -> np.ndarray:
    """Norming element of ||y||_p: the S^{p'}-unit xi with Re tr(xi* y) =
    ||y||_p, and zero where y = 0.  Batched over leading axes."""
    if p in MOMENT_EXPONENTS:
        return _moment_norms(y, p, polar=True)[1]
    return _sv_and_polar(y, p)[1]


def norm_and_polar(y, p: float):
    """||y||_p and its norming element, batched over leading axes: from the
    trace moments for p in MOMENT_EXPONENTS, otherwise from one SVD.  The
    norm comes from the moment or the singular values, never from the
    pairing Re tr(xi* y), which at p = 1 drops the slots below 1e-14 * top."""
    if p in MOMENT_EXPONENTS:
        return _moment_norms(y, p, polar=True)
    s, xi = _sv_and_polar(y, p)
    return schatten_from_sv(s, p), xi


def power_ascent(fwd, adj, x, p: float, iters: int):
    """Nonlinear power iteration for sup ||fwd(x)||_p / ||x||_p (Boyd 1974),
    batched over the leading (start) axis of x.  ``fwd(xs, idx)`` and its
    adjoint ``adj(xs, idx)`` map a stack of matrices to a stack, where
    ``idx`` holds the start index of each row, so one batch can carry
    starts of different maps.

    A step moves x to the S^p polar of adj(xi), xi the norming element of
    fwd(x).  Up to ``iters`` iterates of each start are evaluated, each
    ratio from :func:`norm_and_polar` of fwd(x) and :func:`schatten_norms`
    of x.  A start stops when x or fwd(x) vanishes or at a fixed point,
    ||x_new - x|| <= ASCENT_RTOL ||x||, and is frozen from then on.  Returns each start's best ratio and
    the iterate attaining it, so every value is a certified lower bound.
    """
    pp = conjugate_exponent(p)
    x = np.array(x, dtype=np.complex128)
    best, best_x = np.zeros(len(x)), x.copy()
    live = np.arange(len(x))
    for step in range(iters):
        xs = x[live]
        den = schatten_norms(xs, p)
        num, xi = norm_and_polar(fwd(xs, live), p)
        ok = (den > 1e-300) & (num > 1e-300)
        ratio = np.divide(num, den, out=np.zeros_like(num), where=ok)
        up = ratio > best[live]
        best[live[up]], best_x[live[up]] = ratio[up], xs[up]
        live, xs = live[ok], xs[ok]
        if step == iters - 1 or not live.size:
            break
        x[live] = polar_factor(adj(xi[ok], live), pp)
        step_size = np.linalg.norm(x[live] - xs, axis=(1, 2))
        live = live[step_size > ASCENT_RTOL * np.linalg.norm(xs, axis=(1, 2))]
        if not live.size:
            break
    return best, best_x


def _check_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    dev = float(np.max(np.abs(a - adjoint(a))))
    if dev > HERM_RTOL * scale:
        raise ValueError(
            f"{what} is not hermitian within tolerance "
            f"(deviation {dev:.3e}, scale {scale:.3e})"
        )
    return 0.5 * (a + adjoint(a))


def psd_sqrt(x) -> np.ndarray:
    """PSD square root of a hermitian PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to 0; an eigenvalue below
    ``-PSD_CLAMP_RTOL * ||x||_inf`` is an error, since the input then
    fails to be PSD beyond roundoff.
    """
    a = as_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"psd_sqrt needs a square matrix, got {a.shape}")
    h = _check_hermitian(a, "psd_sqrt input")
    try:
        lam, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericsError(f"eigendecomposition failed: {exc}") from exc
    scale = max(1.0, float(lam[-1]) if lam.size else 0.0)
    if lam.size and lam[0] < -PSD_CLAMP_RTOL * scale:
        raise ValueError(
            f"matrix is not PSD within tolerance (min eigenvalue {lam[0]:.3e})"
        )
    root = np.sqrt(np.clip(lam, 0.0, None))
    return (u * root) @ adjoint(u)


# ---------------------------------------------------------------------------
# Text format.  First line "rows cols", then one line per row of
# whitespace-separated "re,im" pairs, each printed with 17 significant
# digits so that the round trip is exact.
# ---------------------------------------------------------------------------


def dumps_matrix(x) -> str:
    a = as_matrix(x)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(
            " ".join(f"{_TEXT_FMT % v.real},{_TEXT_FMT % v.imag}" for v in row)
        )
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> np.ndarray:
    """The inverse of :func:`dumps_matrix`; lines that start with ``#`` are
    comments (the ``# selection`` header of an rbound witness file)."""
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        rows, cols = (int(tok) for tok in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != rows + 1:
        raise ValueError(f"expected {rows} data lines, got {len(lines) - 1}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, line in enumerate(lines[1:]):
        toks = line.split()
        if len(toks) != cols:
            raise ValueError(f"row {i}: expected {cols} entries, got {len(toks)}")
        for j, tok in enumerate(toks):
            re_s, im_s = tok.split(",")
            out[i, j] = complex(float(re_s), float(im_s))
    return out


def dumps_family(xs) -> str:
    """Concatenated matrix blocks separated by blank lines."""
    return "\n".join(dumps_matrix(x) for x in xs)


def loads_family(text: str) -> list[np.ndarray]:
    """The inverse of :func:`dumps_family`, skipping ``#`` comment lines."""
    text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [loads_matrix(b) for b in blocks]


def load_family(path) -> list[np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        return loads_family(fh.read())

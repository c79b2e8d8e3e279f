"""Dense complex matrix algebra: the substrate of the whole package.

Matrices are plain ``numpy`` arrays of ``complex128``, interpreted as
elements of a finite noncommutative L^p space over the full matrix
algebra with its *unnormalized* trace.  The functions here provide the
Schatten norms and their norming elements, the modulus ``|x| = (x*x)^{1/2}``, the trace duality
pairing ``<x, y> = tr(xy)``, and the shared PSD square-root kernel, plus
an exact-round-trip text format for matrices and matrix families.

Everything is a pure function of its inputs; nothing mutates its
arguments and there is no global state.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, relative to the sup norm of the matrix at hand.  Chosen for
# SVD/eigendecomposition roundoff at dimensions up to a few hundred.
HERM_RTOL = 1e-10
PSD_CLAMP_RTOL = 1e-10
ASCENT_RTOL = 1e-13  # fixed-point rule of power_ascent, relative to ||x||

_TEXT_FMT = "%.17g"  # 17 significant digits: exact binary64 round trip


class NumericsError(RuntimeError):
    """A numerical kernel (SVD, eigendecomposition, solve) failed."""


class SpectralCollisionError(NumericsError):
    """A requested point is too close to the spectrum of an operator."""


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-d complex128 array and validate finiteness."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
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


def singular_values(x) -> np.ndarray:
    """Singular values in decreasing order, with a condition report on failure."""
    a = as_matrix(x)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        raise NumericsError(
            f"SVD failed for {a.shape[0]}x{a.shape[1]} matrix "
            f"(max |entry| = {scale:.3e}): {exc}"
        ) from exc


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm (sum of p-th powers of singular values)^(1/p).

    ``p = inf`` is handled as a distinct branch returning the largest
    singular value (the operator norm); it is never approximated by a
    large finite exponent.
    """
    p = check_exponent(p)
    return float(schatten_from_sv(singular_values(x), p))


def schatten_from_sv(s, p: float):
    """Schatten p-norms from singular values sorted decreasingly along the
    last axis, batched over the leading axes (the one shared kernel)."""
    s = np.asarray(s)
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1])
    if p == math.inf:
        return s[..., 0]
    if p == 2.0:
        # cheaper and exactly the Frobenius norm
        return np.sqrt(np.sum(s * s, axis=-1))
    return np.sum(s**p, axis=-1) ** (1.0 / p)


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


def polar_factor(y, p: float) -> np.ndarray:
    """Norming element of ||y||_p: the S^{p'}-unit xi with Re tr(xi* y) =
    ||y||_p, and zero where y = 0.  Batched over leading axes."""
    return _sv_and_polar(y, p)[1]


def norm_and_polar(y, p: float):
    """||y||_p and its norming element from one SVD, batched over leading
    axes.  The norm comes from the singular values, never from the
    pairing Re tr(xi* y), which at p = 1 drops the slots below 1e-14 * top."""
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
    ratio from the singular values of fwd(x) and of x.  A start stops when
    x or fwd(x) vanishes or at a fixed point, ||x_new - x|| <= ASCENT_RTOL
    ||x||, and is frozen from then on.  Returns each start's best ratio and
    the iterate attaining it, so every value is a certified lower bound.
    """
    pp = conjugate_exponent(p)
    x = np.array(x, dtype=np.complex128)
    best, best_x = np.zeros(len(x)), x.copy()
    live = np.arange(len(x))
    for step in range(iters):
        xs = x[live]
        den = schatten_from_sv(np.linalg.svd(xs, compute_uv=False), p)
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


def trace_pair(x, y) -> complex:
    """Trace duality pairing tr(xy); symmetric in its arguments."""
    a, b = as_matrix(x), as_matrix(y)
    if a.shape[1] != b.shape[0] or b.shape[1] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape} for tr(xy)")
    # tr(ab) as a double sum, avoiding the full product
    return complex(np.sum(a * b.T))


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


def modulus(x) -> np.ndarray:
    """The modulus |x| = (x*x)^{1/2}, a PSD matrix of shape (cols, cols)."""
    a = as_matrix(x)
    return psd_sqrt(adjoint(a) @ a)


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
    lines = [ln for ln in text.strip().splitlines()]
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


def save_matrix(path, x) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_matrix(x))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return loads_matrix(fh.read())


def dumps_family(xs) -> str:
    """Concatenated matrix blocks separated by blank lines."""
    return "\n".join(dumps_matrix(x) for x in xs)


def loads_family(text: str) -> list[np.ndarray]:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [loads_matrix(b) for b in blocks]


def save_family(path, xs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_family(xs))


def load_family(path) -> list[np.ndarray]:
    with open(path, "r", encoding="ascii") as fh:
        return loads_family(fh.read())

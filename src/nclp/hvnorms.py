"""Hilbert-space-valued L^p norms of finite matrix families.

A *family* is a nonempty list of equally shaped matrices (x_1, ..., x_n),
thought of as an element sum_k x_k (x) e_k with (e_k) an orthonormal basis
of the index Hilbert space.  The five norms implemented here are

* column:        || (sum_k x_k* x_k)^{1/2} ||_p
* row:           || (sum_k x_k x_k*)^{1/2} ||_p
* intersection:  max(column, row)
* sum:           inf { col(u) + row(x - u) } over decompositions
* Rademacher:    sum norm if p <= 2, intersection norm if p >= 2

together with the first-moment Rademacher average E || sum_k eps_k x_k ||_p
over independent uniform signs, contractive tensor extension along the
index space, and a Khintchine-ratio report.
The column, row and exact Rademacher norms come from one batched kernel,
:func:`family_norms`, which takes every family on the leading axes of a
stack at once and gives a family alone the same bits as in a batch;
``rbound`` evaluates its objectives with it.  The sign layer,
``_sign_block`` (the patterns) and ``_signed_sums`` (all signed sums as
one matmul), also serves ``rbound`` and the free group; the full blocks
of the lengths up to ``_SIGN_CACHE_MAX`` are built once per process (a
longer block takes under a tenth of the time of the norm batch it serves).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import adjoint, as_matrix, check_exponent, schatten_norms
from .optim import ConvexCfg, SolveResult, minimize_split_schatten

RAD_EXACT_MAX = 20  # 2^20 ~ 1e6 sign patterns; exact enumeration refuses more
_SIGN_CACHE_MAX = 8  # full sign blocks kept per length up to this (2^7 patterns, 8 KB)
_SIGN_CHUNK = 1 << 13  # sign patterns per batched SVD
EXTEND_TOL = 1e-9  # slack of tensor_extend's contraction and bound checks


def as_family(xs) -> np.ndarray:
    """Stack a family into an (n, d1, d2) array, validating uniform shape.
    A 3-d complex array is returned as it is, without a copy."""
    if isinstance(xs, np.ndarray) and xs.ndim == 3:
        if xs.shape[0] == 0:
            raise ValueError("family must be nonempty")
        return np.asarray(xs, dtype=np.complex128)
    mats = [as_matrix(x) for x in xs]
    if not mats:
        raise ValueError("family must be nonempty")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("family members must share one shape")
    return np.stack([np.asarray(m, dtype=np.complex128) for m in mats])


def _col_gram(xs: np.ndarray) -> np.ndarray:
    return np.einsum("kji,kjl->il", xs.conj(), xs)


def family_norms(kind: str, fams, p: float):
    """The ``kind`` norm ("col", "row" or "rad") of every family on the
    leading axes of ``fams`` (..., n, d1, d2), batched, with the same bits
    for a family alone as in any batch.

    Column and row norms are one :func:`core.schatten_norms` batch of the
    column or row stacks: trace moments at p = 2, 4, 6, 8, singular values
    otherwise, and never the root of the Gram matrix, which loses digits
    when the family is rank-deficient.  The Rademacher average enumerates
    all 2^(n-1) sign patterns with eps_1 = +1 (the eps -> -eps symmetry),
    _SIGN_CHUNK patterns per norm batch; it refuses n > RAD_EXACT_MAX and
    non-finite entries."""
    if not np.isfinite(fams).all():
        raise ValueError("matrix has non-finite entries")
    if kind == "rad":
        n = fams.shape[-3]
        if n > RAD_EXACT_MAX:
            raise ValueError(
                f"exact enumeration refuses n = {n} > {RAD_EXACT_MAX} "
                f"(2^{n} norm evaluations)"
            )
        half, total = 1 << (n - 1), 0.0
        for off in range(0, half, _SIGN_CHUNK):
            signs = _sign_block(off, min(_SIGN_CHUNK, half - off), n)
            total = total + np.sum(schatten_norms(_signed_sums(signs, fams), p), axis=-1)
        return total / half
    if kind in ("col", "row"):
        maps = _vstack_maps if kind == "col" else _hstack_maps
        return schatten_norms(maps(*fams.shape[-3:], fams.shape[:-3])[0](fams), p)
    raise ValueError(f"unknown family norm {kind!r}")


def col_norm(xs, p: float) -> float:
    """|| (sum_k x_k* x_k)^{1/2} ||_p, the Schatten norm of the column stack."""
    return float(family_norms("col", as_family(xs), check_exponent(p)))


def row_norm(xs, p: float) -> float:
    """|| (sum_k x_k x_k*)^{1/2} ||_p, the Schatten norm of the row stack."""
    return float(family_norms("row", as_family(xs), check_exponent(p)))


@dataclass
class TensorExtendReport:
    t_norm: float
    col_in: float
    col_out: float
    row_in: float
    row_out: float
    col_contractive: bool
    row_contractive: bool


def tensor_extend(t, xs, p: float) -> TensorExtendReport:
    """Apply a contraction T on the index space: y_j = sum_k T_{jk} x_k.

    Returns the column/row norms before and after, checking the tensor
    extension bound col(y) <= ||T|| col(x) + EXTEND_TOL (likewise for
    rows).
    """
    fam = as_family(xs)
    tm = as_matrix(t)
    if tm.shape[1] != fam.shape[0]:
        raise ValueError(f"T has {tm.shape[1]} columns for a family of {fam.shape[0]}")
    t_norm = float(np.linalg.norm(tm, 2))
    if t_norm > 1.0 + EXTEND_TOL:
        raise ValueError(f"T must be a contraction on the index space (||T|| = {t_norm:.6g})")
    ys = np.einsum("jk,kab->jab", tm, fam)
    ci, co = col_norm(fam, p), col_norm(ys, p)
    ri, ro = row_norm(fam, p), row_norm(ys, p)
    return TensorExtendReport(
        t_norm=t_norm,
        col_in=ci,
        col_out=co,
        row_in=ri,
        row_out=ro,
        col_contractive=co <= t_norm * ci + EXTEND_TOL,
        row_contractive=ro <= t_norm * ri + EXTEND_TOL,
    )


def _sign_block(offset: int, count: int, n: int) -> np.ndarray:
    """Sign patterns (+-1) for indices offset..offset+count with eps_1 = +1;
    the full block of a length n <= _SIGN_CACHE_MAX is built once and shared,
    read-only."""
    if offset == 0 and count == 1 << (n - 1) and n <= _SIGN_CACHE_MAX:
        return _full_sign_block(n)
    return _build_sign_block(offset, count, n)


@functools.lru_cache(maxsize=_SIGN_CACHE_MAX)
def _full_sign_block(n: int) -> np.ndarray:
    signs = _build_sign_block(0, 1 << (n - 1), n)
    signs.flags.writeable = False
    return signs


def _build_sign_block(offset: int, count: int, n: int) -> np.ndarray:
    idx = np.arange(offset, offset + count, dtype=np.uint64)[:, None]
    bits = (idx >> np.arange(n - 1, dtype=np.uint64)[None, :]) & 1
    signs = np.empty((count, n), dtype=np.float64)
    signs[:, 0] = 1.0
    signs[:, 1:] = 2.0 * bits - 1.0
    return signs


def _signed_sums(signs, fam) -> np.ndarray:
    """The sums sum_k eps_sk x_k for every row s of signs, as one matmul,
    batched over the leading axes of fam (..., n, d1, d2)."""
    *lead, n, d1, d2 = fam.shape
    return (signs @ fam.reshape(*lead, n, d1 * d2)).reshape(*lead, len(signs), d1, d2)


def rad_average(xs, p: float) -> float:
    """First-moment Rademacher average E || sum_k eps_k x_k ||_p, exactly:
    :func:`family_norms` (using the eps -> -eps symmetry to halve the
    work); it refuses families longer than ``RAD_EXACT_MAX``.
    """
    return float(family_norms("rad", as_family(xs), check_exponent(p)))


def intersection_norm(xs, p: float) -> float:
    """max(column, row) norm."""
    fam = as_family(xs)
    return max(col_norm(fam, p), row_norm(fam, p))


def _vstack_maps(n, d1, d2, lead=()):
    """The column stack (n d1) x d2 of an (n, d1, d2) family and its
    inverse, batched over the leading axes ``lead`` (one of them may be
    -1); the shapes are fixed here, so each call is one reshape."""
    flat, fam = (*lead, n * d1, d2), (*lead, n, d1, d2)

    def fwd(v):
        return v.reshape(flat)

    def adj(m):
        return m.reshape(fam)

    return fwd, adj


def _hstack_maps(n, d1, d2, lead=()):
    """The row stack d1 x (n d2) and its inverse, batched likewise."""
    k = len(lead)
    swap = (*range(k), k + 1, k, k + 2)
    flat, mid = (*lead, d1, n * d2), (*lead, d1, n, d2)

    def fwd(v):
        return v.transpose(swap).reshape(flat)

    def adj(m):
        return m.reshape(mid).transpose(swap)

    return fwd, adj


def sum_norm_solve(xs, p: float, cfg: ConvexCfg | None = None) -> SolveResult:
    """inf { col(u, p) + row(x - u, p) } over family decompositions, as the
    shared split-norm solver's certified interval: its ``value`` (upper
    end) is the best feasible objective, never above
    min(col_norm, row_norm)."""
    fam = as_family(xs)
    n, d1, d2 = fam.shape
    f1, a1 = _vstack_maps(n, d1, d2)
    f2, a2 = _hstack_maps(n, d1, d2)
    return minimize_split_schatten(f1, a1, f2, a2, fam, p, cfg)


def rad_norm(xs, p: float, cfg: ConvexCfg | None = None) -> tuple[float, tuple[SolveResult, ...]]:
    """Rademacher-space norm and its split-norm solves: the intersection
    norm for p >= 2 (no solve), the sum norm's solve below (the two
    branches agree at p = 2)."""
    p = check_exponent(p)
    if p >= 2.0:
        return intersection_norm(xs, p), ()
    res = sum_norm_solve(xs, p, cfg)
    return res.value, (res,)


@dataclass
class KhintchineReport:
    """Measured Khintchine ratios for one family.

    For p >= 2 the comparison side is the intersection norm and
    ``lower_ok`` asserts (1/sqrt 2) * intersection <= rad_average (slack
    1e-9).  For p < 2 the side is the sum norm, ``lower_ok`` asserts
    rad_average <= sum (the unit-constant inequality, slack 1e-6), and
    ``radnorm`` is the upper end of ``solve``, the sum norm's certified
    interval (None for p >= 2).
    """

    radavg: float
    radnorm: float
    lower_ok: bool
    upper_ratio: float
    side: str
    solve: SolveResult | None = None


def khintchine_report(xs, p: float, cfg: ConvexCfg | None = None) -> KhintchineReport:
    """Khintchine ratios of one family with the exact sign average."""
    fam = as_family(xs)
    p = check_exponent(p)
    ra = rad_average(fam, p)
    norm, solves = rad_norm(fam, p, cfg)
    if p >= 2.0:
        side, ok = "intersection", ra >= norm / math.sqrt(2.0) - 1e-9 * max(norm, 1.0)
    else:
        side, ok = "sum", ra <= norm + 1e-6 * max(norm, 1.0)
    ratio = ra / norm if norm > 0 else 1.0
    return KhintchineReport(ra, norm, ok, ratio, side, solve=solves[0] if solves else None)


def col_dual_witness(xs, p: float):
    """Analytic dual family attaining the column-norm duality.

    With S = sum_k x_k* x_k and c = (tr S^{p/2})^{-1/p'}, the family
    y_k = c * S^{p/2 - 1} x_k*  has row norm 1 in the conjugate exponent
    and pairs with (x_k) to exactly col_norm(xs, p).  Zero eigenvalues of
    S are handled by the pseudo-power.  Returns (ys, pairing).
    """
    fam = as_family(xs)
    p = check_exponent(p)
    if p == math.inf:
        raise ValueError("dual witness needs finite p")
    s = _col_gram(fam)
    lam, u = np.linalg.eigh(0.5 * (s + adjoint(s)))
    lam = np.clip(lam, 0.0, None)
    scale = lam[-1] if lam.size else 0.0
    if scale <= 0.0:
        raise ValueError("zero family has no dual witness")
    nz = lam > 1e-14 * scale
    powed = np.zeros_like(lam)
    powed[nz] = lam[nz] ** (0.5 * p - 1.0)
    spow = (u * powed) @ adjoint(u)
    trp = float(np.sum(lam[nz] ** (0.5 * p)))
    c = trp ** (-(p - 1.0) / p)
    ys = np.einsum("ab,kcb->kac", c * spow, fam.conj())
    pairing = complex(np.einsum("kab,kba->", ys, fam))
    return ys, pairing

"""Lower-bound estimation of column / row / Rademacher boundedness constants.

For a finite set F of superoperators, the three constants are the
suprema over selections (T_1, ..., T_L) from F (repetition allowed) and
matrix families (x_1, ..., x_L) of

    col:  col_norm(T_k x_k) / col_norm(x_k)
    row:  row_norm(T_k x_k) / row_norm(x_k)
    rad:  rad_average(T_k x_k) / rad_average(x_k)

Those suprema run over unboundedly many selections and families, so only
*lower bounds* are computable; every estimate returned here is certified
by a stored witness whose objective value reproduces it.  The search is
seeded random restarts followed by alternating local ascent (nonlinear
power iteration in x for the column/row objectives, which is the shared
kernel :func:`core.power_ascent` on the stacked families;
accept-if-improve subgradient steps for the Rademacher one) and greedy
reselection of the operators.  The starts of one selection length run
in lock-step: each round's power iteration is one
:func:`core.power_ascent` call that carries every start under its own
selection.  Reselection puts the candidates of a slot on a leading
axis: at a fixed witness the denominator is computed once, and the n_ops
families that differ only in that slot's member go through one batched
numerator (one SVD batch of the stacked candidates for col/row, one
``_signed_sums`` and one SVD batch for rad); :func:`objective` takes its
norms from the same kernel, one family at a time.  Profiling a
sectorial operator discretizes the scaled resolvents z R(z, A) along
the rays of a test angle into such a family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_exponent, polar_factor, power_ascent, schatten_from_sv
from .funcalc import LpOperator, apply_each, ray_resolvent_family
from .hvnorms import (
    _hstack_maps,
    _sign_block,
    _signed_norms,
    _signed_sums,
    _vstack_maps,
    as_family,
    rad_average,
)

RAD_SELECTION_MAX = 12  # exact sign enumeration in the rad objective


@dataclass
class SearchCfg:
    restarts: int = 64
    iters: int = 40
    lengths: tuple = (1, 2, 4, 8)
    reselect_rounds: int = 2
    rad_steps: int = 25


@dataclass
class BoundEstimate:
    notion: str
    p: float
    value: float
    selection: tuple
    witness: np.ndarray
    restarts: int  # starts actually run
    seed: int
    theta: float | None = None


def check_test_angle(theta: float) -> float:
    """A test angle names the rays exp(+-i theta): it lies in (0, pi)."""
    theta = float(theta)
    if not 0.0 < theta < math.pi:
        raise ValueError(f"test angle must lie in (0, pi), got {theta}")
    return theta


def _check_family(ops) -> list:
    ops = list(ops)
    if not ops:
        raise ValueError("operator family must be nonempty")
    d = ops[0].dim
    if any(op.dim != d for op in ops):
        raise ValueError("operator family must share one dimension")
    return ops


def objective(notion: str, ops, sel, xs, p: float) -> float:
    """The ratio defining the constant, evaluated at a concrete witness."""
    p = check_exponent(p)
    xs = as_family(xs)
    if not np.isfinite(xs).all():
        raise ValueError("witness has non-finite entries")
    den = _family_norms(notion, xs, p)
    if den > 0:
        return float(_family_norms(notion, apply_each(ops, sel, xs), p) / den)
    return 0.0


def re_evaluate(est: BoundEstimate, ops) -> float:
    """Recompute the stored witness's objective (certification hook)."""
    return objective(est.notion, _check_family(ops), est.selection, est.witness, est.p)


# -- the objective at many families at once --------------------------------


def _family_norms(notion, fams, p):
    """The col / row / rad norm of every family on the leading axes of
    ``fams`` (..., L, d, d), from one SVD batch of the column or row stacks
    or of the 2^(L-1) signed sums.  On one family it is exactly
    ``col_norm`` / ``row_norm`` / ``rad_average``; a rad family longer than
    RAD_SELECTION_MAX (only :func:`objective` passes one) goes to
    ``rad_average``, which enumerates its signs in chunks."""
    if notion == "rad":
        n = fams.shape[-3]
        if n > RAD_SELECTION_MAX:
            return rad_average(fams, p)
        half = 1 << (n - 1)
        (norms,) = _signed_norms([_sign_block(0, half, n)], fams, p)
        return np.sum(norms, axis=-1) / half
    if notion in ("col", "row"):
        maps = _vstack_maps if notion == "col" else _hstack_maps
        stack = maps(*fams.shape[-3:], fams.shape[:-3])[0]
        return schatten_from_sv(np.linalg.svd(stack(fams), compute_uv=False), p)
    raise ValueError(f"unknown notion {notion!r}")


def _reselect(notion, ops, sel, x, p):
    """Greedy operator reselection at the fixed witness x: slot by slot,
    the member (first maximum) of largest objective with the other slots
    held.  The denominator is one norm of x; ``images[j, k] = ops[j](x_k)``
    takes one ``apply`` per member, and the n_ops candidate families of a
    slot, which differ only in that slot's image, sit on a leading axis of
    one batched numerator.  Returns the selection and its value."""
    n_ops, length = len(ops), len(sel)
    den = _family_norms(notion, x, p)
    images = np.stack([op.apply(x) for op in ops])
    sel = np.array(sel)
    ys = images[sel, np.arange(length)]
    for slot in range(length):
        fams = np.repeat(ys[None], n_ops, axis=0)
        fams[:, slot] = images[:, slot]
        vals = _family_norms(notion, fams, p) / den if den > 0 else np.zeros(n_ops)
        sel[slot] = best = int(np.argmax(vals))
        ys[slot] = images[best, slot]
    return sel, float(vals[best])


# -- column / row inner ascent: nonlinear power iteration ------------------


def _ascend_colrow(ops, daggers, sels, xs, p, mode, iters):
    """The witnesses maximizing the stacked-Schatten ratio over x at fixed
    selections, for all starts xs (S, L, d, d) at once, start i under
    selection sels[i]: one :func:`core.power_ascent` on the column (or
    row) stacks.  ``daggers`` are the adjoints of ``ops``."""
    _, length, d, _ = xs.shape
    # power_ascent passes only the rows of the starts still running
    stack, unstack = (_vstack_maps if mode == "col" else _hstack_maps)(length, d, d, (-1,))

    def each(maps):
        def fwd(s, idx):
            fams = unstack(s)
            ys = apply_each(maps, sels[idx].ravel(), fams.reshape(-1, d, d))
            return stack(ys.reshape(fams.shape))
        return fwd

    return unstack(power_ascent(each(ops), each(daggers), stack(xs), p, iters)[1])


# -- rademacher inner ascent: accept-if-improve subgradient steps -----------


def _rad_subgradient(ops, daggers, sel, xs, p):
    """Subgradient of x -> rad_average(T x) pulled back through T^dagger.

    With xi_s the norming element of sum_k eps_sk T_k x_k for each of the
    2^(n-1) patterns s, linearity gives
    grad_k = T_k^dagger(sum_s eps_sk xi_s) / 2^(n-1): every T_k and every
    T_k^dagger is applied once.
    """
    n = xs.shape[0]
    half = 1 << (n - 1)
    signs = _sign_block(0, half, n)
    xis = polar_factor(_signed_sums(signs, apply_each(ops, sel, xs)), p)
    return apply_each(daggers, sel, _signed_sums(signs.T, xis) / half)


def _ascend_rad(ops, daggers, sel, xs, p, steps, best=None):
    """Subgradient ascent of the rad objective from xs; ``best`` is its
    value at xs when already known."""
    if best is None:
        best = objective("rad", ops, sel, xs, p)
    x = xs
    for _ in range(steps):
        g = _rad_subgradient(ops, daggers, sel, x, p)
        gn = np.linalg.norm(g)
        if gn <= 1e-300:
            break
        g = g * (np.linalg.norm(x) / gn)
        improved = False
        for eta in (1.0, 0.5, 0.25, 0.1):
            cand = (1 - eta) * x + eta * g
            val = objective("rad", ops, sel, cand, p)
            if val > best + 1e-14:
                best, x = val, cand
                improved = True
                break
        if not improved:
            break
    return best, x


# -- the public estimators ---------------------------------------------------


def _estimate(notion, ops, p, budget, seed, extra_starts, theta=None):
    ops = _check_family(ops)
    p = check_exponent(p)
    if budget is None:
        budget = SearchCfg()
    rng = np.random.default_rng(seed)
    d = ops[0].dim
    n_ops = len(ops)
    lengths = [
        L
        for L in budget.lengths
        if notion != "rad" or L <= RAD_SELECTION_MAX
    ]
    extra = [np.asarray(s, dtype=np.complex128) for s in (extra_starts or [])]
    daggers = [op.dagger() for op in ops]

    best_val, best_sel, best_x = -math.inf, (0,), None
    per_length = max(budget.restarts // max(len(lengths), 1), 1)
    runs = 0
    for L in lengths:
        starts = [s for s in extra if s.shape == (L, d, d)]
        while len(starts) < per_length:
            starts.append(
                rng.standard_normal((L, d, d)) + 1j * rng.standard_normal((L, d, d))
            )
        runs += len(starts)
        # the starts of one length run in lock-step, each under its own
        # selection, drawn after the starts in start order
        sels = np.array([rng.integers(0, n_ops, size=L) for _ in starts])
        x = np.stack(starts)
        vals = None
        for _round in range(budget.reselect_rounds):
            if notion == "rad":
                # the power-iteration witness of the column objective is
                # a strong extra start (for singletons the objectives
                # coincide); polish both candidates by subgradient steps
                x_pi = _ascend_colrow(ops, daggers, sels, x, p, "col", budget.iters)
                for i, sel in enumerate(sels):
                    known = None if vals is None else vals[i]
                    val, xi = _ascend_rad(ops, daggers, sel, x[i], p, budget.rad_steps, known)
                    val_pi, xi_pi = _ascend_rad(ops, daggers, sel, x_pi[i], p, budget.rad_steps)
                    x[i] = xi_pi if val_pi > val else xi
            else:
                x = _ascend_colrow(ops, daggers, sels, x, p, notion, budget.iters)
            # greedy operator reselection at the current witnesses
            vals = np.zeros(len(starts))
            for i in range(len(starts)):
                sels[i], vals[i] = _reselect(notion, ops, sels[i], x[i], p)
        if vals is None:
            vals = [objective(notion, ops, sel, xi, p) for sel, xi in zip(sels, x)]
        for sel, val, xi in zip(sels, vals, x):
            if val > best_val:
                best_val, best_sel, best_x = val, tuple(sel.tolist()), xi.copy()
    if best_x is not None:
        # the value certified is the stored witness's objective, exactly
        # what re_evaluate recomputes (the search's batched values can
        # differ from it in the last bit)
        best_val = objective(notion, ops, best_sel, best_x, p)

    return BoundEstimate(
        notion=notion,
        p=p,
        value=float(best_val),
        selection=best_sel,
        witness=best_x,
        restarts=runs,
        seed=seed,
        theta=theta,
    )


def col_bound_estimate(ops, p, budget: SearchCfg | None = None, seed: int = 0,
                       extra_starts=None) -> BoundEstimate:
    """Certified lower bound on the column-boundedness constant of a family."""
    return _estimate("col", ops, p, budget, seed, extra_starts)


def row_bound_estimate(ops, p, budget: SearchCfg | None = None, seed: int = 0,
                       extra_starts=None) -> BoundEstimate:
    """Certified lower bound on the row-boundedness constant of a family."""
    return _estimate("row", ops, p, budget, seed, extra_starts)


def rad_bound_estimate(ops, p, budget: SearchCfg | None = None, seed: int = 0,
                       extra_starts=None) -> BoundEstimate:
    """Certified lower bound on the Rademacher-boundedness constant.

    The objective enumerates signs exactly, so selection lengths are
    capped at RAD_SELECTION_MAX.
    """
    return _estimate("rad", ops, p, budget, seed, extra_starts)


# -- sectoriality profiling ---------------------------------------------------


@dataclass
class ProfileRow:
    theta: float
    col: BoundEstimate
    row: BoundEstimate
    rad: BoundEstimate


def sector_rbound_profile(
    op: LpOperator,
    p: float,
    theta_grid,
    budget: SearchCfg | None = None,
    seed: int = 0,
    n_points: int = 24,
) -> list:
    """Estimate Col/Row/Rad constants of the scaled-resolvent families at
    each test angle between the operator's type angle and pi."""
    omega = op.sector_angle()
    rows = []
    for theta in theta_grid:
        theta = check_test_angle(theta)
        if theta <= omega:
            raise ValueError(f"theta {theta} is not above the type angle {omega:.4f}")
        fam = ray_resolvent_family(op, theta, n_points)
        rows.append(
            ProfileRow(
                theta=theta,
                col=_estimate("col", fam, p, budget, seed, None, theta=theta),
                row=_estimate("row", fam, p, budget, seed, None, theta=theta),
                rad=_estimate("rad", fam, p, budget, seed, None, theta=theta),
            )
        )
    return rows

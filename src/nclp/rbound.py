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
kernel :func:`core.power_ascent` on the stacked family; accept-if-improve
subgradient steps for the Rademacher one) and greedy reselection of the
operators.  Profiling a sectorial operator discretizes the scaled
resolvents z R(z, A) along the rays of a test angle into such a family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_exponent, polar_factor, power_ascent
from .funcalc import LpOperator, apply_each, ray_resolvent_family
from .hvnorms import (
    _hstack_maps,
    _sign_block,
    _signed_sums,
    _vstack_maps,
    as_family,
    col_norm,
    rad_average,
    row_norm,
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
    xs = as_family(xs)
    ys = apply_each(ops, sel, xs)
    if notion == "col":
        den = col_norm(xs, p)
        return col_norm(ys, p) / den if den > 0 else 0.0
    if notion == "row":
        den = row_norm(xs, p)
        return row_norm(ys, p) / den if den > 0 else 0.0
    if notion == "rad":
        den = rad_average(xs, p)
        return rad_average(ys, p) / den if den > 0 else 0.0
    raise ValueError(f"unknown notion {notion!r}")


def re_evaluate(est: BoundEstimate, ops) -> float:
    """Recompute the stored witness's objective (certification hook)."""
    return objective(est.notion, _check_family(ops), est.selection, est.witness, est.p)


# -- column / row inner ascent: nonlinear power iteration ------------------


def _ascend_colrow(ops, daggers, sel, xs, p, mode, iters):
    """The witness maximizing the stacked-Schatten ratio over x at fixed
    selection: the one-start :func:`core.power_ascent` on the column (or
    row) stack.  ``daggers`` are the adjoints of ``ops``."""
    stack, unstack = (_vstack_maps if mode == "col" else _hstack_maps)(*xs.shape)

    def each(maps):
        return lambda s, _idx: stack(apply_each(maps, sel, unstack(s[0])))[None]

    return unstack(power_ascent(each(ops), each(daggers), stack(xs)[None], p, iters)[1][0])


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


def _ascend_rad(ops, daggers, sel, xs, p, steps):
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
        for x0 in starts:
            sel = tuple(rng.integers(0, n_ops, size=L).tolist())
            x = x0
            for _round in range(budget.reselect_rounds):
                if notion == "rad":
                    # the power-iteration witness of the column objective is
                    # a strong extra start (for singletons the objectives
                    # coincide); polish both candidates by subgradient steps
                    x_pi = _ascend_colrow(ops, daggers, sel, x, p, "col", budget.iters)
                    val, x = _ascend_rad(ops, daggers, sel, x, p, budget.rad_steps)
                    val_pi, x_pi = _ascend_rad(ops, daggers, sel, x_pi, p, budget.rad_steps)
                    if val_pi > val:
                        val, x = val_pi, x_pi
                else:
                    x = _ascend_colrow(ops, daggers, sel, x, p, notion, budget.iters)
                # greedy operator reselection at the current witness
                sel = list(sel)
                for slot in range(L):
                    cand_vals = []
                    for j in range(n_ops):
                        sel[slot] = j
                        cand_vals.append(objective(notion, ops, tuple(sel), x, p))
                    sel[slot] = int(np.argmax(cand_vals))
                sel = tuple(sel)
            val = objective(notion, ops, sel, x, p)
            if val > best_val:
                best_val, best_sel, best_x = val, sel, x.copy()

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

"""Lower-bound estimation of column / row / Rademacher boundedness constants.

For a finite set F of superoperators, the three constants are the
suprema over selections (T_1, ..., T_L) from F (repetition allowed) and
matrix families (x_1, ..., x_L) of

    col:  col_norm(T_k x_k) / col_norm(x_k)
    row:  row_norm(T_k x_k) / row_norm(x_k)
    rad:  rad_average(T_k x_k) / rad_average(x_k)

Those suprema run over unboundedly many selections and families, so in
general only *lower bounds* are computable; every estimate returned here
is certified by a stored witness whose objective value reproduces it.

Where every member knows its exact S^p norm (:meth:`LpOperator.opnorm`:
left and right multiplications at every p, every kind at p = 2), the
selection length 1 runs no search: its ratio is ||T x||_p / ||x||_p, so
its constant is the largest member norm, and the estimate starts from
that member's :meth:`LpOperator.opnorm_witness`.  That maximum is also a
certified *upper* bound where every member's kind names the notion in
:meth:`LpOperator.family_bounds` (col for left multiplications, row for
right ones, both at p = 2).  An estimate is a :class:`core.Bound`: its
``lower`` end is the witness's value, its ``upper`` end that maximum
(raised to the lower end where roundoff puts the witness a few ulps
above it) or ``inf``.  The search stops before its first start once the
length-1 interval is :meth:`core.Bound.within` UPPER_RTOL, and the
estimate is then the constant itself.  Rad has no such bound and always searches the
longer lengths.

Every norm of a family comes from one batched kernel,
:func:`hvnorms.family_norms`, which :func:`objective`, the reselection
and the Rademacher trials share.  The search is seeded random restarts
followed by alternating local ascent (nonlinear power iteration in x for
the column/row objectives, which is :func:`funcalc.family_ascent` on the
stacked families; accept-if-improve subgradient steps for the Rademacher
one) and greedy reselection of the operators.  The starts of one
selection length run in lock-step: each round's power iteration is one
:func:`funcalc.family_ascent` call that carries every start under its
own selection, and the Rademacher ascent runs the 2S rows of a round
(each start from its witness and from its column pre-ascent witness)
together, each row freezing on its own.  One trial of that ascent is one
:func:`_rad_trial` call: the objective of every row still trying, with
the norming elements of its numerator's signed sums, whose pull-back is
the next subgradient once the trial is accepted.  Reselection puts the
candidates of a slot on a leading axis: at a fixed witness the
denominator is computed once, and the n_ops families that differ only
in that slot's member go through one batched numerator.  At p = 2, 4,
6, 8 every norm is a trace moment and every norming element at p a
product of matmuls; only the power iteration's step to an S^{p'} polar
(p' = 4/3 at p = 4) still takes an SVD.  Profiling a sectorial operator
discretizes the scaled resolvents z R(z, A) along the rays of a test
angle into such a family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Bound, check_exponent, norm_and_polar
from .funcalc import LpOperator, apply_each, family_ascent, ray_resolvent_family
from .hvnorms import _sign_block, _signed_sums, as_family, family_norms

RAD_SELECTION_MAX = 12  # longest rad selection searched (2^11 signs per family)
UPPER_RTOL = 1e-14  # a length-1 interval within this stops the search


@dataclass
class SearchCfg:
    """The search budget: ``restarts`` starts spread evenly over the
    selection ``lengths`` (at least one each; a length-1 phase that is
    exact runs none of its share), ``iters`` power-iteration steps and
    ``rad_steps`` subgradient steps per round, ``reselect_rounds`` rounds
    of ascent then greedy reselection."""

    restarts: int = 64
    iters: int = 40
    lengths: tuple = (1, 2, 4, 8)
    reselect_rounds: int = 2
    rad_steps: int = 25


@dataclass(frozen=True, kw_only=True)
class BoundEstimate(Bound):
    """A certified interval on a family constant: ``lower`` (also
    ``value``) is attained by ``witness`` under ``selection``, and
    ``upper`` is the certified upper bound max_k opnorm_k(p), or the
    witness's value where roundoff puts it above that, where the members'
    kinds give one for the notion (:meth:`LpOperator.family_bounds`), else
    inf; ``restarts`` is 0 for a search that stopped there before its
    first start."""

    notion: str
    p: float
    selection: tuple
    witness: np.ndarray
    restarts: int  # starts actually run
    seed: int
    theta: float | None = None

    value = property(lambda self: self.lower)


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
    den = family_norms(notion, xs, p)
    if den > 0:
        return float(family_norms(notion, apply_each(ops, sel, xs), p) / den)
    return 0.0


def re_evaluate(est: BoundEstimate, ops) -> float:
    """Recompute the stored witness's objective (certification hook)."""
    return objective(est.notion, _check_family(ops), est.selection, est.witness, est.p)


# -- greedy operator reselection at a fixed witness -------------------------


def _reselect(notion, ops, sel, x, p):
    """Greedy operator reselection at the fixed witness x: slot by slot,
    the member (first maximum) of largest objective with the other slots
    held.  The denominator is one norm of x; ``images[j, k] = ops[j](x_k)``
    takes one ``apply`` per member, and the n_ops candidate families of a
    slot, which differ only in that slot's image, sit on a leading axis of
    one batched numerator.  Returns the selection and its value."""
    n_ops, length = len(ops), len(sel)
    den = family_norms(notion, x, p)
    images = np.stack([op.apply(x) for op in ops])
    sel = np.array(sel)
    ys = images[sel, np.arange(length)]
    for slot in range(length):
        fams = np.repeat(ys[None], n_ops, axis=0)
        fams[:, slot] = images[:, slot]
        vals = family_norms(notion, fams, p) / den if den > 0 else np.zeros(n_ops)
        sel[slot] = best = int(np.argmax(vals))
        ys[slot] = images[best, slot]
    return sel, float(vals[best])


# -- rademacher inner ascent: accept-if-improve subgradient steps -----------

_RAD_ETAS = (1.0, 0.5, 0.25, 0.1)  # step fractions tried in order


def _row_norms(v):
    """The Frobenius norm of each v[r], with the same bits for a row alone
    as in any batch."""
    f = np.ascontiguousarray(v).reshape(len(v), -1).view(np.float64)
    return np.sqrt(np.sum(f * f, axis=-1))


def _rad_trial(ops, sels, xs, signs, p):
    """The rad objective of every family xs[r] (R, L, d, d) under its own
    selection sels[r], and the norming elements xi_rs of its numerator's
    signed sums sum_k eps_sk T_k x_rk, which give the subgradient at xs[r]:
    one :func:`hvnorms.family_norms` batch for the denominators, one
    ``apply_each`` and one :func:`core.norm_and_polar` batch of the signed
    sums of the images."""
    half, d = len(signs), xs.shape[-1]
    den = family_norms("rad", xs, p)
    ys = apply_each(ops, sels.ravel(), xs.reshape(-1, d, d)).reshape(xs.shape)
    norms, xis = norm_and_polar(_signed_sums(signs, ys), p)
    num = np.sum(norms, axis=-1) / half
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0), xis


def _rad_subgradient(daggers, sels, xis, signs):
    """Subgradient of x -> rad_average(T x) at every row, pulled back
    through T^dagger: with xi_s the norming elements of a row's signed
    sums, grad_k = T_k^dagger(sum_s eps_sk xi_s) / 2^(L-1)."""
    half, d = xis.shape[1], xis.shape[-1]
    pulled = _signed_sums(signs.T, xis) / half
    return apply_each(daggers, sels.ravel(), pulled.reshape(-1, d, d)).reshape(pulled.shape)


def _ascend_rad(ops, daggers, sels, xs, p, steps, known):
    """Accept-if-improve subgradient ascent of the rad objective for every
    row r of xs (R, L, d, d) under selection sels[r], all rows in
    lock-step.  Row r starts from the best value known[r], or from its
    value at xs[r] where known[r] is NaN.  A step scales the subgradient to
    ||x|| and accepts the first eta of _RAD_ETAS whose trial beats the best
    by 1e-14; a row freezes once no eta does or its subgradient vanishes.
    Each trial is one :func:`_rad_trial` over the rows still trying, and
    the accepted trial's norming elements give the next subgradient, so no
    signed sum is decomposed twice.  Returns each row's best value and
    the witness attaining it."""
    length = sels.shape[1]
    signs = _sign_block(0, 1 << (length - 1), length)
    best, x = np.array(known, dtype=float), xs.copy()
    live = np.arange(len(x)) if steps else np.flatnonzero(np.isnan(best))
    if not live.size:
        return best, x
    vals, opening = _rad_trial(ops, sels[live], x[live], signs, p)
    best[live] = np.where(np.isnan(best[live]), vals, best[live])
    xis = np.zeros((len(x), *opening.shape[1:]), dtype=complex)
    xis[live] = opening
    for _ in range(steps):
        g = _rad_subgradient(daggers, sels[live], xis[live], signs)
        gn = _row_norms(g)
        moving = gn > 1e-300
        live, g, gn = live[moving], g[moving], gn[moving]
        trying, g = live, g * (_row_norms(x[live]) / gn)[:, None, None, None]
        for eta in _RAD_ETAS:
            if not trying.size:
                break
            cand = (1 - eta) * x[trying] + eta * g
            vals, cand_xis = _rad_trial(ops, sels[trying], cand, signs, p)
            up = vals > best[trying] + 1e-14
            hit = trying[up]
            best[hit], x[hit], xis[hit] = vals[up], cand[up], cand_xis[up]
            trying, g = trying[~up], g[~up]
        live = live[~np.isin(live, trying)]
        if not live.size:
            break
    return best, x


# -- the public estimators ---------------------------------------------------


def _estimate(notion, ops, p, budget, seed, theta=None):
    ops = _check_family(ops)
    p = check_exponent(p)
    if budget is None:
        budget = SearchCfg()
    lengths = [
        L
        for L in budget.lengths
        if notion != "rad" or L <= RAD_SELECTION_MAX
    ]
    norms = [op.opnorm(p) for op in ops]
    exact = None not in norms
    upper = math.inf
    if exact and all(notion in op.family_bounds(p) for op in ops):
        upper = max(norms)

    best = (-math.inf, (0,), None)
    if exact and 1 in lengths:
        # at length 1 every ratio is ||T x||_p / ||x||_p: the constant is
        # the largest member norm, attained by that member's witness
        k = int(np.argmax(norms))
        x = ops[k].opnorm_witness(p)[None]
        best = (objective(notion, ops, (k,), x, p), (k,), x)
    runs = 0
    if not Bound(best[0], upper).within(UPPER_RTOL):  # else certified: stop
        best, runs = _search(notion, ops, p, budget, seed, lengths, best, skip_singletons=exact)
    best_val, best_sel, best_x = best
    if best_x is not None:
        # the value certified is the stored witness's objective, exactly
        # what re_evaluate recomputes (the search's batched values can
        # differ from it in the last bit)
        best_val = objective(notion, ops, best_sel, best_x, p)
    # the witness's objective can exceed the closed-form norm by roundoff;
    # the upper end is raised to it so the interval stays ordered
    upper = max(upper, best_val)

    return BoundEstimate(float(best_val), upper, notion=notion, p=p, selection=best_sel,
                         witness=best_x, restarts=runs, seed=seed, theta=theta)


def _search(notion, ops, p, budget, seed, lengths, best, skip_singletons):
    """The seeded search over the selection lengths, from the best
    (value, selection, witness) known; returns the best found and the
    number of starts run.  With ``skip_singletons`` the length-1 starts and
    selections are drawn but not run, so every longer length sees the
    random stream it would see if they had run."""
    rng = np.random.default_rng(seed)
    d = ops[0].dim
    n_ops = len(ops)
    daggers = [op.dagger() for op in ops]

    best_val, best_sel, best_x = best
    per_length = max(budget.restarts // max(len(lengths), 1), 1)
    runs = 0
    for L in lengths:
        starts = [
            rng.standard_normal((L, d, d)) + 1j * rng.standard_normal((L, d, d))
            for _ in range(per_length)
        ]
        # the starts of one length run in lock-step, each under its own
        # selection, drawn after the starts in start order
        sels = np.array([rng.integers(0, n_ops, size=L) for _ in starts])
        if L == 1 and skip_singletons:
            continue
        runs += len(starts)
        x = np.stack(starts)
        vals = None
        for _round in range(budget.reselect_rounds):
            if notion == "rad":
                # the power-iteration witness of the column objective is
                # a strong extra start (for singletons the objectives
                # coincide); polish both candidates by subgradient steps,
                # all 2S rows in one lock-step ascent
                _, x_pi = family_ascent(ops, daggers, sels, x, p, "col", budget.iters)
                known = np.full(2 * len(starts), np.nan)
                if vals is not None:  # the reselection values at x
                    known[: len(starts)] = vals
                reached, ascended = _ascend_rad(ops, daggers, np.concatenate([sels, sels]),
                                                np.concatenate([x, x_pi]), p, budget.rad_steps,
                                                known)
                val, val_pi = np.split(reached, 2)
                xi, xi_pi = np.split(ascended, 2)
                x = np.where((val_pi > val)[:, None, None, None], xi_pi, xi)
            else:
                _, x = family_ascent(ops, daggers, sels, x, p, notion, budget.iters)
            # greedy operator reselection at the current witnesses
            vals = np.zeros(len(starts))
            for i in range(len(starts)):
                sels[i], vals[i] = _reselect(notion, ops, sels[i], x[i], p)
        if vals is None:
            vals = [objective(notion, ops, sel, xi, p) for sel, xi in zip(sels, x)]
        for sel, val, xi in zip(sels, vals, x):
            if val > best_val:
                best_val, best_sel, best_x = val, tuple(sel.tolist()), xi.copy()
    return (best_val, best_sel, best_x), runs


def col_bound_estimate(ops, p, budget: SearchCfg | None = None, seed: int = 0) -> BoundEstimate:
    """Certified lower bound on the column-boundedness constant of a family."""
    return _estimate("col", ops, p, budget, seed)


def row_bound_estimate(ops, p, budget: SearchCfg | None = None, seed: int = 0) -> BoundEstimate:
    """Certified lower bound on the row-boundedness constant of a family."""
    return _estimate("row", ops, p, budget, seed)


def rad_bound_estimate(ops, p, budget: SearchCfg | None = None, seed: int = 0) -> BoundEstimate:
    """Certified lower bound on the Rademacher-boundedness constant.

    The objective enumerates signs exactly, so selection lengths are
    capped at RAD_SELECTION_MAX.
    """
    return _estimate("rad", ops, p, budget, seed)


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
                col=_estimate("col", fam, p, budget, seed, theta=theta),
                row=_estimate("row", fam, p, budget, seed, theta=theta),
                rad=_estimate("rad", fam, p, budget, seed, theta=theta),
            )
        )
    return rows

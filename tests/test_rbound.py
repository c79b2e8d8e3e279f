import math

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp import rbound
from nclp.core import polar_factor
from nclp.hvnorms import intersection_norm, rad_average

from conftest import random_matrix

CFG = rbound.SearchCfg(restarts=8, iters=25, lengths=(1, 2, 4), rad_steps=8)


def left_diag(*vals):
    return fc.LeftMult(np.diag(np.asarray(vals, dtype=complex)))


class TestObjectiveAndCertification:
    def test_identity_family_is_one(self):
        fam = [fc.LeftMult(np.eye(3))]
        for notion, est in (
            ("col", rbound.col_bound_estimate(fam, 2, CFG, seed=1)),
            ("row", rbound.row_bound_estimate(fam, 2, CFG, seed=1)),
            ("rad", rbound.rad_bound_estimate(fam, 2, CFG, seed=1)),
        ):
            assert est.value == pytest.approx(1.0, abs=1e-12), notion

    def test_homogeneity(self):
        lam = 0.7
        fam = [fc.LeftMult(lam * np.eye(3))]
        est = rbound.col_bound_estimate(fam, 4, CFG, seed=0)
        assert est.value == pytest.approx(lam, abs=1e-9)

    def test_witness_reevaluates(self, rng):
        fam = [fc.SchurMult(random_matrix(rng, 3)) for _ in range(2)]
        est = rbound.col_bound_estimate(fam, 4, CFG, seed=5)
        assert rbound.re_evaluate(est, fam) == pytest.approx(est.value, abs=1e-9)

    def test_diagonal_scalar_reduction(self):
        fam = [left_diag(0.5, 2.0, 1.0)]
        est = rbound.row_bound_estimate(fam, 4, CFG, seed=0)
        assert est.value == pytest.approx(2.0, rel=1e-8)

    def test_rad_contractive_multipliers(self):
        d = 3
        fam = [
            fc.SchurMult(0.8 * np.ones((d, d))),
            fc.SchurMult(0.5 * np.eye(d) + 0.3 * np.ones((d, d))),
        ]
        est = rbound.rad_bound_estimate(fam, 4, CFG, seed=2)
        assert est.value <= 1.0 + 1e-9


class TestTranspositionExample:
    """Row-unboundedness of the transpose-composed first-row projection."""

    @staticmethod
    def transposition_op(d):
        # T(E_1j) = E_j1 and T(E_ij) = 0 for i >= 2, i.e. T(x) = x^T E_11
        s = np.zeros((d * d, d * d), dtype=complex)
        e = np.zeros((d, d), dtype=complex)
        e11 = np.zeros((d, d))
        e11[0, 0] = 1.0
        for i in range(d):
            for j in range(d):
                e[i, j] = 1.0
                s[:, i * d + j] = (e.T @ e11).reshape(-1)
                e[i, j] = 0.0
        return fc.DenseOp(s)

    def test_explicit_witness_ratio(self):
        d = 8
        t = self.transposition_op(d)
        for L in (2, 8):
            xs = np.stack(
                [np.outer(np.eye(d)[0], np.eye(d)[k]).astype(complex) for k in range(L)]
            )
            val = rbound.objective("row", [t], tuple([0] * L), xs, 1.0)
            assert val == pytest.approx(math.sqrt(L), rel=1e-12)

    def test_estimate_grows_with_length(self):
        d = 8
        t = self.transposition_op(d)
        cfg = rbound.SearchCfg(restarts=4, iters=20, lengths=(2,), reselect_rounds=1)
        starts2 = [
            np.stack(
                [np.outer(np.eye(d)[0], np.eye(d)[k]).astype(complex) for k in range(2)]
            )
        ]
        est2 = rbound.row_bound_estimate([t], 1.0, cfg, seed=0, extra_starts=starts2)
        cfg8 = rbound.SearchCfg(restarts=4, iters=20, lengths=(8,), reselect_rounds=1)
        starts8 = [
            np.stack(
                [np.outer(np.eye(d)[0], np.eye(d)[k]).astype(complex) for k in range(8)]
            )
        ]
        est8 = rbound.row_bound_estimate([t], 1.0, cfg8, seed=0, extra_starts=starts8)
        assert est2.value >= math.sqrt(2) - 1e-9
        assert est8.value >= math.sqrt(8) - 1e-9
        assert est8.value > est2.value + 0.5


class TestDualitySymmetry:
    def test_row_objective_equals_col_of_flipped_family(self, rng):
        # T -> T^o with T^o(x) = T(x*)* swaps the row and column objectives
        a = random_matrix(rng, 3)
        t = fc.LeftMult(a)
        t_flip = fc.RightMult(a.conj().T)
        xs = np.stack([random_matrix(rng, 3) for _ in range(3)])
        xs_adj = np.conj(np.transpose(xs, (0, 2, 1)))
        for p in (1.0, 2.0, 4.0):
            lhs = rbound.objective("row", [t], (0, 0, 0), xs, p)
            rhs = rbound.objective("col", [t_flip], (0, 0, 0), xs_adj, p)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestConvexityAbsorption:
    def test_average_does_not_increase_estimate(self):
        t1 = left_diag(1.0, 0.3, 0.7)
        t2 = left_diag(0.2, 0.9, 0.5)
        avg = left_diag(0.6, 0.6, 0.6)
        cfg = rbound.SearchCfg(restarts=8, iters=30, lengths=(1, 2))
        base = rbound.col_bound_estimate([t1, t2], 2, cfg, seed=3)
        widened = rbound.col_bound_estimate([t1, t2, avg], 2, cfg, seed=3)
        assert widened.value <= base.value + 1e-9


class TestKhintchineConsistency:
    def test_rad_below_khintchine_combination(self):
        fam = [left_diag(1.0, 0.4), left_diag(0.3, 0.9)]
        p = 4.0
        cfg = rbound.SearchCfg(restarts=8, iters=30, lengths=(1, 2, 4), rad_steps=10)
        col = rbound.col_bound_estimate(fam, p, cfg, seed=1).value
        row = rbound.row_bound_estimate(fam, p, cfg, seed=1).value
        rad = rbound.rad_bound_estimate(fam, p, cfg, seed=1)
        ys = np.stack(
            [fam[k].apply(x) for k, x in zip(rad.selection, rad.witness)]
        )
        c_meas = rad_average(ys, p) / intersection_norm(ys, p)
        assert rad.value <= math.sqrt(2) * c_meas * (col + row) + 1e-9


class TestSectorProfile:
    def test_positive_diagonal_p2_col_row_equal_rad_banded(self):
        # On S^2 the column and row constants of the commuting resolvent
        # family coincide (both reduce to the largest scaled-resolvent
        # norm).  The first-moment Rademacher constant is NOT forced to
        # equal them: complex phases along the rays let multi-element
        # selections beat the singleton ratio (e.g. {diag(1, i),
        # diag(1, -i)} has sign-average ratio sqrt(2) with unit members).
        # The Khintchine sandwich still pins it inside [col, sqrt(2) col].
        op = left_diag(0.5, 1.0, 2.0)
        cfg = rbound.SearchCfg(restarts=6, iters=25, lengths=(1, 2), rad_steps=8)
        rows = rbound.sector_rbound_profile(op, 2.0, [0.5, 1.2], cfg, seed=4, n_points=12)
        for row in rows:
            assert row.col.value == pytest.approx(row.row.value, rel=1e-6)
            assert row.rad.value >= row.col.value - 1e-6
            assert row.rad.value <= math.sqrt(2) * row.col.value + 1e-9

    def test_estimates_decrease_in_theta(self):
        op = left_diag(0.5, 1.0, 2.0)
        cfg = rbound.SearchCfg(restarts=6, iters=25, lengths=(1, 2), rad_steps=8)
        rows = rbound.sector_rbound_profile(op, 2.0, [0.4, 1.0], cfg, seed=4, n_points=12)
        assert rows[0].col.value >= rows[1].col.value - 1e-6

    def test_rejects_theta_below_type(self):
        op = fc.LeftMult(np.diag([np.exp(1j * 0.8), 1.0]))
        with pytest.raises(ValueError):
            rbound.sector_rbound_profile(op, 2.0, [0.5], CFG, seed=0)


    @pytest.mark.parametrize("theta", [math.pi, 3.5, 0.0, -0.5])
    def test_rejects_theta_outside_zero_pi(self, theta):
        with pytest.raises(ValueError):
            rbound.sector_rbound_profile(left_diag(1.0, 2.0), 2.0, [theta], CFG, seed=0)


class TestStartCount:
    @pytest.mark.parametrize("restarts,started", [(0, 3), (3, 3), (7, 6)])
    def test_restarts_counts_starts_run(self, restarts, started):
        cfg = rbound.SearchCfg(restarts=restarts, iters=3, lengths=(1, 2, 4),
                               reselect_rounds=1)
        est = rbound.col_bound_estimate([left_diag(1.0, 2.0)], 2.0, cfg, seed=0)
        assert est.restarts == started

    def test_extra_starts_count(self):
        cfg = rbound.SearchCfg(restarts=2, iters=3, lengths=(1, 2), reselect_rounds=1)
        extra = [np.eye(2)[None], np.ones((1, 2, 2)), 2 * np.eye(2)[None]]
        est = rbound.col_bound_estimate([left_diag(1.0, 2.0)], 2.0, cfg, seed=0,
                                        extra_starts=extra)
        assert est.restarts == 3 + 1  # three given at length 1, one drawn at 2


class TestDeterminism:
    def test_same_seed_same_estimate(self, rng):
        fam = [fc.SchurMult(random_matrix(rng, 3)) for _ in range(2)]
        a = rbound.col_bound_estimate(fam, 4, CFG, seed=12)
        b = rbound.col_bound_estimate(fam, 4, CFG, seed=12)
        assert a.value == b.value
        assert a.selection == b.selection
        assert np.array_equal(a.witness, b.witness)


def _reference_subgradient(ops, daggers, sel, xs, p):
    """The per-pattern loop: one polar factor and n adjoints per pattern."""
    n = xs.shape[0]
    grads = np.zeros_like(xs)
    half = 1 << (n - 1)
    for idx in range(half):
        signs = np.empty(n)
        signs[0] = 1.0
        for k in range(1, n):
            signs[k] = 1.0 if (idx >> (k - 1)) & 1 else -1.0
        ys = np.stack([ops[k].apply(x) for k, x in zip(sel, xs)])
        total = np.einsum("k,kab->ab", signs, ys)
        xi = polar_factor(total, p)
        for k in range(n):
            grads[k] += signs[k] * daggers[sel[k]].apply(xi)
    return grads / half


class _Counted(fc.LpOperator):
    """Wraps an operator and logs every application under its name."""

    def __init__(self, base, name, log):
        self.base, self.name, self.log = base, name, log
        self.dim = base.dim

    def apply(self, x):
        self.log.append(self.name)
        return self.base.apply(x)

    def dagger(self):
        return _Counted(self.base.dagger(), self.name + "^dag", self.log)


class TestRadSubgradient:
    @pytest.mark.parametrize("kind", ["dense", "left"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
    def test_matches_per_pattern_loop(self, rng, kind, p):
        d = 3
        if kind == "dense":  # non-commuting superoperators
            ops = [fc.DenseOp(random_matrix(rng, d * d)) for _ in range(3)]
        else:
            ops = [fc.LeftMult(random_matrix(rng, d)) for _ in range(3)]
        daggers = [op.dagger() for op in ops]
        for n in range(1, 7):
            sel = tuple(rng.integers(0, len(ops), size=n).tolist())
            xs = np.stack([random_matrix(rng, d) for _ in range(n)])
            got = rbound._rad_subgradient(ops, daggers, sel, xs, p)
            ref = _reference_subgradient(ops, daggers, sel, xs, p)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_applies_each_operator_and_adjoint_once(self, rng):
        n, log = 6, []
        ops = [_Counted(fc.LeftMult(random_matrix(rng, 3)), f"T{k}", log) for k in range(n)]
        daggers = [op.dagger() for op in ops]
        xs = np.stack([random_matrix(rng, 3) for _ in range(n)])
        rbound._rad_subgradient(ops, daggers, tuple(range(n)), xs, 4.0)
        assert sorted(log) == sorted([f"T{k}" for k in range(n)] + [f"T{k}^dag" for k in range(n)])

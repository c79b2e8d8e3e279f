import math

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp import rbound
from nclp.core import schatten_norm
from nclp.models import clifford, martingale

from conftest import random_matrix


@pytest.fixture(scope="module")
def tower():
    return martingale.MartingaleTower(3)


class TestCondExp:
    def test_top_is_identity(self, rng, tower):
        x = random_matrix(rng, 8)
        assert np.array_equal(martingale.cond_exp(tower, 3, x), x)

    def test_bottom_is_trace(self, rng, tower):
        x = random_matrix(rng, 8)
        e0 = martingale.cond_exp(tower, 0, x)
        assert np.allclose(e0, (np.trace(x) / 8.0) * np.eye(8))

    def test_nested_composition(self, rng, tower):
        x = random_matrix(rng, 8)
        for j in range(4):
            for k in range(4):
                lhs = martingale.cond_exp(tower, j, martingale.cond_exp(tower, k, x))
                rhs = martingale.cond_exp(tower, min(j, k), x)
                assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_unital_trace_preserving_selfadjoint(self, rng, tower):
        for k in range(4):
            assert np.allclose(martingale.cond_exp(tower, k, np.eye(8)), np.eye(8))
            x, y = random_matrix(rng, 8), random_matrix(rng, 8)
            ex = martingale.cond_exp(tower, k, x)
            assert np.trace(ex) == pytest.approx(np.trace(x), rel=1e-12)
            # self-adjointness for tr(E(x) y) = tr(x E(y))
            lhs = np.trace(ex @ y)
            rhs = np.trace(x @ martingale.cond_exp(tower, k, y))
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_contractive_on_schatten(self, rng, tower):
        for _ in range(5):
            x = random_matrix(rng, 8)
            for k in range(4):
                ex = martingale.cond_exp(tower, k, x)
                for p in (1, 2, 4, math.inf):
                    assert schatten_norm(ex, p) <= schatten_norm(x, p) + 1e-10

    def test_decreasing_direction(self, rng):
        tw = martingale.MartingaleTower(3, direction="decreasing")
        x = random_matrix(rng, 8)
        for j in range(4):
            for k in range(4):
                lhs = martingale.cond_exp(tw, j, martingale.cond_exp(tw, k, x))
                rhs = martingale.cond_exp(tw, min(j, k), x)
                assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_differences_orthogonal(self, rng, tower):
        x = random_matrix(rng, 8)
        diffs = []
        prev = martingale.cond_exp(tower, 0, x)
        for k in range(1, 4):
            cur = martingale.cond_exp(tower, k, x)
            diffs.append(cur - prev)
            prev = cur
        for i in range(len(diffs)):
            for j in range(i + 1, len(diffs)):
                inner = np.trace(diffs[i].conj().T @ diffs[j])
                assert abs(inner) <= 1e-12

    def test_projections_commute(self, rng, tower):
        ops = martingale.tower_family(tower)
        x = random_matrix(rng, 8)
        for a in ops:
            for b in ops:
                assert np.max(np.abs(a.apply(b.apply(x)) - b.apply(a.apply(x)))) <= 1e-13

    def test_level_out_of_range(self, tower):
        with pytest.raises(ValueError):
            martingale.cond_exp(tower, 4, np.eye(8))


class TestCondExpOp:
    def test_spectrum_is_projection(self, tower):
        op = martingale.CondExpOp(tower, 1)
        lam = np.sort(np.abs(op.spectrum()))
        assert set(np.round(lam, 12)) <= {0.0, 1.0}
        dense_lam = np.sort(np.abs(np.linalg.eigvals(op.to_dense())))
        assert np.allclose(np.sort(lam), dense_lam, atol=1e-10)

    def test_dagger_is_self(self, tower):
        # a trace-orthogonal projection: its adjoint is the same map
        op = martingale.CondExpOp(tower, 2)
        assert np.max(np.abs(op.dagger().to_dense() - op.to_dense())) <= 1e-15


class TestSteinBound:
    def test_p2_estimate_is_one(self, tower):
        cfg = rbound.SearchCfg(restarts=6, iters=20, lengths=(1, 2))
        est = martingale.stein_colbound(tower, 2.0, cfg, seed=1)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_singleton_bottom_expectation(self, tower):
        cfg = rbound.SearchCfg(restarts=4, iters=15, lengths=(1,))
        fam = [fc.AmplifiedOp(martingale.CondExpOp(tower, 0), 2)]
        est = rbound.col_bound_estimate(fam, 2.0, cfg, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_p4_finite_seed_stable(self, tower):
        cfg = rbound.SearchCfg(restarts=6, iters=20, lengths=(1, 2))
        vals = [
            martingale.stein_colbound(tower, 4.0, cfg, seed=s).value for s in (0, 1)
        ]
        assert all(math.isfinite(v) and v >= 1.0 - 1e-9 for v in vals)
        assert max(vals) / min(vals) <= 1.10


class TestCesaro:
    def test_identity_semigroup_gives_zero(self, rng, tower):
        x = random_matrix(rng, 4)
        ident = fc.LeftMult(np.eye(4))
        rep = martingale.cesaro_square_function(ident, x, 16, 4.0)
        assert rep.value <= 1e-12

    def test_single_expectation_closed_form(self, rng, tower):
        # With T a single conditional expectation the increments are scalar
        # multiples of Tx - x, so the family norm collapses to
        # ||Tx - x||_p * (sum_m 1/(m (m+1)^2))^{1/2} for p >= 2.
        op = martingale.CondExpOp(tower, 1)
        x = random_matrix(rng, 8)
        m_count = 24
        p = 4.0
        rep = martingale.cesaro_square_function(op, x, m_count, p)
        y = op.apply(x) - x
        coeff = math.sqrt(
            sum(1.0 / (m * (m + 1) ** 2) for m in range(1, m_count + 1))
        )
        assert rep.value == pytest.approx(coeff * schatten_norm(y, p), rel=1e-8)

    def test_clifford_semigroup_ratio_bounded(self):
        rep3 = clifford.spin_generators(2)
        top = clifford.clifford_semigroup(rep3, 0.3)
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(10):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rep = martingale.cesaro_square_function(top, x, 32, 4.0)
            ratios.append(rep.ratio)
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) <= 10.0  # fixed CI baseline for this configuration

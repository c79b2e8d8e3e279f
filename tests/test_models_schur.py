import math

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp.models import schur

from conftest import random_matrix


class TestSchurSymbol:
    def test_distance_matrix(self):
        sym = schur.SchurSymbol(np.array([[0.0], [1.0]]), np.array([[0.0], [3.0]]))
        assert np.allclose(sym.distances(), [[0.0, 3.0], [1.0, 2.0]])

    def test_zero_iff_equal_points(self, rng):
        pts = rng.standard_normal((4, 3))
        sym = schur.SchurSymbol(pts, pts.copy())
        a = sym.distances()
        assert np.all(np.diag(a) == 0.0)
        assert np.all(a[~np.eye(4, dtype=bool)] > 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            schur.SchurSymbol(np.zeros((2, 1)), np.zeros((3, 1)))


class TestSemigroup:
    def test_t_zero_is_identity(self, rng):
        sym = schur.collinear_symbol(4)
        op = schur.schur_semigroup(sym, 0.0)
        x = random_matrix(rng, 4)
        assert np.allclose(op.apply(x), x)
        assert np.allclose(op.m, np.ones((4, 4)))

    def test_semigroup_law_exact(self):
        sym = schur.collinear_symbol(5)
        s, t = 0.3, 1.1
        ts = schur.schur_semigroup(sym, s).m
        tt = schur.schur_semigroup(sym, t).m
        tst = schur.schur_semigroup(sym, s + t).m
        assert np.allclose(ts * tt, tst, rtol=1e-15, atol=0)

    def test_collinear_symbol_psd(self):
        # [e^{-t |i-j|}] on 8 collinear points is positive semidefinite
        sym = schur.collinear_symbol(8)
        m = schur.schur_semigroup(sym, 0.7).m
        lam = np.linalg.eigvalsh(m)
        assert lam[0] >= -1e-10

    def test_complete_contraction_at_p2(self):
        # the top singular value of the amplified map's own dense form, not
        # the base's norm that AmplifiedOp.norm_bounds returns by construction
        sym = schur.collinear_symbol(4)
        op = schur.schur_semigroup(sym, 0.5)
        dense = fc.AmplifiedOp(op, 4).to_dense()
        assert dense.shape == (256, 256)
        assert np.linalg.svd(dense, compute_uv=False)[0] <= 1.0 + 1e-9

    def test_unit_diagonal_psd_symbol_is_cp(self):
        sym = schur.collinear_symbol(4)
        op = schur.schur_semigroup(sym, 0.7)
        assert schur.choi_min_eigenvalue(op, level=1) >= -1e-10
        # complete positivity survives matrix amplification
        assert schur.choi_min_eigenvalue(op, level=4) >= -1e-10
        # unitality: all-ones direction preserved
        d = op.dim
        assert np.allclose(op.apply(np.eye(d)), np.eye(d))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            schur.schur_semigroup(schur.collinear_symbol(2), -1.0)


class TestHinfApply:
    def test_g_on_offdiagonal_symbol(self):
        # collinear points 0, 3 vs 1, 2 give the distance symbol [[1,2],[2,1]]
        sym = schur.SchurSymbol(np.array([[0.0], [3.0]]), np.array([[1.0], [2.0]]))
        x = np.ones((2, 2))
        out = fc.eigen_calculus(fc.SchurMult(sym.distances()), fc.library("g")).apply(x)
        assert np.allclose(out, [[0.25, 2.0 / 9.0], [2.0 / 9.0, 0.25]])

    def test_constant_function_keeps_support(self, rng):
        sym = schur.collinear_symbol(3)
        f = fc.make_hinf(3.0, lambda z: np.ones_like(z), name="one")
        x = random_matrix(rng, 3)
        out = fc.eigen_calculus(fc.SchurMult(sym.distances()), f).apply(x)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(out[off], x[off])
        assert np.allclose(out[~off], 0.0)  # zero distances killed

    def test_matches_extended_calculus_on_positive_symbol(self, rng):
        pts_a = rng.standard_normal((3, 2))
        pts_b = rng.standard_normal((3, 2)) + 5.0  # keep distances positive
        sym = schur.SchurSymbol(pts_a, pts_b)
        f = fc.library("zis:0.7")
        x = random_matrix(rng, 3)
        direct = fc.eigen_calculus(fc.SchurMult(sym.distances()), f).apply(x)
        gen = schur.schur_generator(sym)
        via_calc = fc.extended_calculus(gen, f).apply(x)
        assert np.max(np.abs(direct - via_calc)) <= 1e-8 * max(1.0, np.max(np.abs(direct)))


class TestDiffusionProfile:
    def test_generator_profile_finite_and_seed_stable(self):
        from nclp import rbound

        sym = schur.collinear_symbol(3)
        gen = schur.schur_generator(sym)
        cfg = rbound.SearchCfg(restarts=4, iters=20, lengths=(1, 2), rad_steps=6)
        vals = []
        for seed in (0, 1):
            rows = rbound.sector_rbound_profile(gen, 2.0, [0.9], cfg, seed=seed, n_points=8)
            vals.append(rows[0].col.value)
            assert math.isfinite(rows[0].col.value)
            assert math.isfinite(rows[0].row.value)
            assert math.isfinite(rows[0].rad.value)
        assert vals[0] == pytest.approx(vals[1], rel=0.1)


class TestDiscretePowers:
    def test_rad_bound_of_power_family_finite(self):
        # powers {T^k, k <= K} of a unital trace-preserving completely
        # positive self-adjoint semigroup element form a sign-average
        # bounded set; the estimator reports a finite lower bound >= 1
        from nclp import rbound

        sym = schur.collinear_symbol(3)
        t1 = schur.schur_semigroup(sym, 0.6)
        fam = [fc.SchurMult(t1.m**k) for k in range(4)]  # entrywise powers
        cfg = rbound.SearchCfg(restarts=6, iters=20, lengths=(1, 2, 4), rad_steps=8)
        est = rbound.rad_bound_estimate(fam, 4.0, cfg, seed=3)
        assert math.isfinite(est.value)
        assert est.value >= 1.0 - 1e-9  # identity power is in the family

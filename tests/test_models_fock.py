import math

import numpy as np
import pytest

from nclp.models import fock


class TestQGram:
    def test_q_zero_is_identity(self):
        for n, d in ((2, 2), (3, 2), (2, 3)):
            assert np.allclose(fock.q_gram(n, d, 0.0), np.eye(d**n))

    def test_level2_d1(self):
        assert fock.q_gram(2, 1, 0.3)[0, 0] == pytest.approx(1.3)

    def test_level2_d2_eigenvalues(self):
        q = 0.4
        lam = np.sort(np.linalg.eigvalsh(fock.q_gram(2, 2, q)))
        # I + q * swap: antisymmetric eigenvalue 1 - q, symmetric 1 + q (x3)
        assert lam[0] == pytest.approx(1 - q)
        assert np.allclose(lam[1:], 1 + q)

    @pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_positivity(self, q):
        for n, d in ((3, 2), (4, 2), (3, 3), (5, 2)):
            lam = np.linalg.eigvalsh(fock.q_gram(n, d, q))
            assert lam[0] >= -1e-10

    def test_level_cap(self):
        with pytest.raises(ValueError):
            fock.q_gram(7, 2, 0.5)

    def test_q_range(self):
        with pytest.raises(ValueError):
            fock.q_gram(2, 2, 1.0)


class TestBasisAndOperators:
    def test_basis_counts(self):
        b = fock.FockBasis(2, 3, 0.5)
        assert b.dim == 1 + 2 + 4 + 8

    def test_q_minus_one_rejected(self):
        # the fermionic endpoint lives in the spin-system model instead
        with pytest.raises(ValueError):
            fock.FockBasis(1, 2, -1.0)

    def test_creation_on_vacuum(self):
        b = fock.FockBasis(2, 2, 0.3)
        h = np.array([1.0, 2.0j])
        c = fock.fock_creation(b, h)
        v = c @ b.vacuum()
        assert v[b.index[(0,)]] == pytest.approx(1.0)
        assert v[b.index[(1,)]] == pytest.approx(2.0j)

    def test_annihilation_on_level_one(self):
        b = fock.FockBasis(2, 2, 0.3)
        h = np.array([1.0, 2.0])
        a = fock.fock_annihilation(b, h)
        e1 = np.zeros(b.dim, dtype=complex)
        e1[b.index[(1,)]] = 1.0
        out = a @ e1
        # a(h) h' = <h', h> Omega on level one
        assert out[0] == pytest.approx(2.0)
        assert np.max(np.abs(out[1:])) <= 1e-14

    @pytest.mark.parametrize("q", [-0.7, 0.0, 0.6])
    def test_annihilation_matches_deletion_formula(self, q):
        b = fock.FockBasis(3, 3, q)
        rng = np.random.default_rng(5)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        via_adjoint = fock.fock_annihilation(b, h)
        via_formula = fock.annihilation_formula(b, h)
        assert np.max(np.abs(via_adjoint - via_formula)) <= 1e-12

    def test_creation_adjoint_pairing(self):
        b = fock.FockBasis(2, 3, 0.5)
        rng = np.random.default_rng(9)
        h = rng.standard_normal(2)
        c = fock.fock_creation(b, h)
        a = fock.fock_annihilation(b, h)
        u = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        v = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        # only test below the top level, where truncation cannot interfere
        top = b.level_start[b.n_max]
        u[top:] = 0.0
        # <u, v>_q = <G u, v>_0, conjugate-linear in the second slot
        lhs = np.conj(v) @ (b.gram @ (c @ u))
        rhs = np.conj(a @ v) @ (b.gram @ u)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestTraceAndMoments:
    def test_identity_and_creation_traces(self):
        # the vacuum expectation <x Omega, Omega>_q
        b = fock.FockBasis(2, 2, 0.4)
        vac = b.vacuum()
        assert vac.conj() @ b.gram @ vac == 1.0
        h = np.array([1.0, 0.5])
        assert vac.conj() @ b.gram @ (fock.fock_creation(b, h) @ vac) == 0.0

    def test_second_moment_is_norm_squared(self):
        h = np.array([1.0, 2.0, 0.5])
        for q in (-0.8, -0.3, 0.0, 0.3, 0.8):
            m = fock.gaussian_moment([h, h], q)
            assert m == pytest.approx(float(h @ h), abs=1e-12)

    @pytest.mark.parametrize("q", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_fourth_moment_interpolation(self, q):
        h = np.array([1.0])
        m = fock.gaussian_moment([h] * 4, q)
        assert m == pytest.approx(2.0 + q, abs=1e-12)

    def test_odd_moments_vanish(self):
        h = np.array([1.0, -1.0])
        for count in (1, 3, 5):
            assert abs(fock.gaussian_moment([h] * count, 0.5, n_max=count)) <= 1e-14

    def test_truncation_stability(self):
        h = np.array([0.7, 1.3])
        g = np.array([-0.2, 0.4])
        for q in (-0.5, 0.5):
            base = fock.gaussian_moment([h, g, h, g], q, n_max=4)
            more = fock.gaussian_moment([h, g, h, g], q, n_max=5)
            assert base == pytest.approx(more, abs=1e-13)

    def test_insufficient_truncation_rejected(self):
        with pytest.raises(ValueError):
            fock.gaussian_moment([np.array([1.0])] * 4, 0.3, n_max=3)

    def test_wick_two_pair_crossing(self):
        # tau(w(h1) w(h2) w(h1) w(h2)) = q for orthonormal h1, h2: the only
        # pairing is the crossing one
        h1 = np.array([1.0, 0.0])
        h2 = np.array([0.0, 1.0])
        for q in (-0.6, 0.0, 0.8):
            m = fock.gaussian_moment([h1, h2, h1, h2], q)
            assert m == pytest.approx(q, abs=1e-12)


class TestSecondQuantization:
    def test_identity_and_zero(self):
        b = fock.FockBasis(2, 3, 0.2)
        ident = fock.second_quantization(b, np.eye(2))
        assert np.allclose(ident, np.eye(b.dim))
        vac = fock.second_quantization(b, np.zeros((2, 2)))
        proj = np.zeros((b.dim, b.dim))
        proj[0, 0] = 1.0
        assert np.allclose(vac, proj)

    def test_multiplicativity(self):
        b = fock.FockBasis(2, 3, 0.5)
        rng = np.random.default_rng(3)
        a1 = rng.standard_normal((2, 2))
        a1 = 0.9 * a1 / np.linalg.norm(a1, 2)
        a2 = rng.standard_normal((2, 2))
        a2 = 0.8 * a2 / np.linalg.norm(a2, 2)
        lhs = fock.second_quantization(b, a1 @ a2)
        rhs = fock.second_quantization(b, a1) @ fock.second_quantization(b, a2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_q_adjoint_is_quantized_adjoint(self):
        b = fock.FockBasis(2, 3, 0.4)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = 0.9 * a / np.linalg.norm(a, 2)
        lhs = fock.q_adjoint(b, fock.second_quantization(b, a))
        rhs = fock.second_quantization(b, a.conj().T)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_ou_spectrum(self):
        b = fock.FockBasis(2, 3, 0.3)
        t = 0.9
        ou = fock.ou_semigroup(b, t)
        for level in range(4):
            s, e = b.level_start[level], b.level_start[level + 1]
            blk = ou[s:e, s:e]
            assert np.allclose(blk, math.exp(-t * level) * np.eye(e - s))

    def test_rejects_expansion(self):
        b = fock.FockBasis(2, 2, 0.1)
        with pytest.raises(ValueError):
            fock.second_quantization(b, 2.0 * np.eye(2))

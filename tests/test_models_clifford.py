import itertools
import math

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp.models import clifford


@pytest.fixture(scope="module")
def rep3():
    return clifford.spin_generators(3)


class TestSpinSystem:
    def test_hermitian_unitary_exact(self, rep3):
        for w in rep3.w:
            assert np.array_equal(w, w.conj().T)
            assert np.array_equal(w @ w, np.eye(rep3.dim, dtype=complex))

    def test_anticommutation_exact(self, rep3):
        for i, j in itertools.combinations(range(3), 2):
            wi, wj = rep3.w[i], rep3.w[j]
            assert np.array_equal(wi @ wj, -(wj @ wi))

    def test_vf_traces(self, rep3):
        assert np.trace(clifford.v_f(rep3, ())) / rep3.dim == pytest.approx(1.0)
        for subset in clifford.all_subsets(3):
            if subset:
                tau = np.trace(clifford.v_f(rep3, subset)) / rep3.dim
                assert tau == 0.0

    def test_vf_orthonormal(self, rep3):
        subsets = list(clifford.all_subsets(3))
        for s1 in subsets:
            for s2 in subsets:
                v1, v2 = clifford.v_f(rep3, s1), clifford.v_f(rep3, s2)
                inner = np.trace(v1.conj().T @ v2) / rep3.dim
                assert inner == pytest.approx(1.0 if s1 == s2 else 0.0, abs=1e-14)

    def test_bad_subset(self, rep3):
        with pytest.raises(ValueError):
            clifford.v_f(rep3, (2, 1))
        with pytest.raises(ValueError):
            clifford.v_f(rep3, (0,))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            clifford.spin_generators(11)


class TestNumberSemigroup:
    def test_eigenvalue_on_vf(self, rep3):
        t = 0.37
        top = clifford.clifford_semigroup(rep3, t)
        for subset in clifford.all_subsets(3):
            v = clifford.v_f(rep3, subset)
            out = top.apply(v)
            assert np.max(np.abs(out - math.exp(-t * len(subset)) * v)) <= 1e-12

    def test_unital_trace_preserving_hermiticity(self, rep3):
        top = clifford.clifford_semigroup(rep3, 0.5)
        d = rep3.dim
        assert np.allclose(top.apply(np.eye(d)), np.eye(d))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        # trace preserved and hermiticity preserved
        assert np.trace(top.apply(x)) == pytest.approx(np.trace(x), rel=1e-12)
        xh = 0.5 * (x + x.conj().T)
        y = top.apply(xh)
        assert np.max(np.abs(y - y.conj().T)) <= 1e-12

    def test_semigroup_law(self, rep3):
        s, t = 0.3, 0.8
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = clifford.clifford_semigroup(rep3, s).apply(
            clifford.clifford_semigroup(rep3, t).apply(x)
        )
        rhs = clifford.clifford_semigroup(rep3, s + t).apply(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_choi_psd(self, n):
        rep = clifford.spin_generators(n)
        top = clifford.clifford_semigroup(rep, 0.4)
        lam = np.linalg.eigvalsh(fc.choi_matrix(top))
        assert lam[0] >= -1e-10

    def test_second_quantization_consistency(self, rep3):
        # tau(T_t(V_F) V_F*) = e^{-t|F|}
        t = 0.6
        top = clifford.clifford_semigroup(rep3, t)
        for subset in clifford.all_subsets(3):
            v = clifford.v_f(rep3, subset)
            val = np.trace(top.apply(v) @ v.conj().T) / rep3.dim
            assert val == pytest.approx(math.exp(-t * len(subset)), abs=1e-12)


class TestMultiplier:
    def test_number_operator(self, rep3):
        num = clifford.number_operator(rep3)
        for subset in ((1,), (1, 3), (1, 2, 3)):
            v = clifford.v_f(rep3, subset)
            assert np.max(np.abs(num.apply(v) - len(subset) * v)) <= 1e-12

    def test_multiplier_keeps_identity_by_default(self, rep3):
        mult = clifford.clifford_multiplier(rep3, lambda m: 0.0)
        d = rep3.dim
        assert np.allclose(mult.apply(np.eye(d)), np.eye(d))

    def test_exponential_multiplier_matches_semigroup(self, rep3):
        t = 0.45
        mult = clifford.clifford_multiplier(rep3, lambda m: math.exp(-t * m))
        semi = clifford.clifford_semigroup(rep3, t)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.max(np.abs(mult.apply(x) - semi.apply(x))) <= 1e-12

    def test_hinf_multiplier_bounded_sample(self, rep3):
        # a bounded sector function gives a bounded multiplier; sample its
        # norm on the spin span against the sup of |f| on 1..n
        f = fc.library("zis:0.8")
        mult = clifford.clifford_multiplier(rep3, lambda m: complex(f(np.array([m]))[0]))
        rng = np.random.default_rng(4)
        for _ in range(20):
            coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            subs = list(clifford.all_subsets(3))
            x = sum(c * clifford.v_f(rep3, s) for c, s in zip(coeffs, subs))
            lhs = np.linalg.norm(mult.apply(x), 2)
            assert lhs <= 1.0 * np.linalg.norm(x, 2) * math.sqrt(8) + 1e-9


def _maps(rep):
    """Every Clifford map with its coefficient function c(F)."""
    zis = fc.library("zis:0.8")
    return {
        "semigroup": (clifford.clifford_semigroup(rep, 0.37), lambda s: math.exp(-0.37 * len(s))),
        "multiplier": (
            clifford.clifford_multiplier(rep, lambda m: complex(zis(np.array([float(m)]))[0])),
            lambda s: complex(zis(np.array([float(len(s))]))[0]) if s else 1.0,
        ),
        "number": (clifford.number_operator(rep), len),
    }


class TestPauliForm:
    """The Clifford maps are Pauli multipliers with c(F) on the string of V_F."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["semigroup", "multiplier", "number"])
    def test_equals_the_vf_sum(self, n, name):
        # oracle: x -> sum_F c(F) tau(V_F* x) V_F over the stacked frame
        rep = clifford.spin_generators(n)
        op, coeff = _maps(rep)[name]
        subsets = list(clifford.all_subsets(n))
        vfs = np.stack([clifford.v_f(rep, s) for s in subsets])
        c = np.array([complex(coeff(s)) for s in subsets])
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, rep.dim, rep.dim)) + 1j * rng.standard_normal((3, rep.dim, rep.dim))
        comps = np.einsum("fab,...ab->...f", vfs.conj(), x) / rep.dim
        ref = np.einsum("...f,fab->...ab", c * comps, vfs)
        assert isinstance(op, fc.PauliMult)
        assert np.max(np.abs(op.apply(x) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "name,n",
        [(name, n) for n in (1, 2, 3) for name in ("semigroup", "real-multiplier", "number")]
        + [("number", 4)],
    )
    @pytest.mark.parametrize("calc,fid", [(fc.contour_calculus, "zexp"),
                                          (fc.extended_calculus, "zis:0.8")])
    def test_calculus_matches_the_dense_path(self, name, n, calc, fid):
        rep = clifford.spin_generators(n)
        op = {
            "semigroup": lambda: clifford.clifford_semigroup(rep, 0.3),
            "real-multiplier": lambda: clifford.clifford_multiplier(rep, lambda m: 1.0 / (1.0 + m)),
            "number": lambda: clifford.number_operator(rep),
        }[name]()
        f = fc.library(fid)
        got = calc(op, f)
        want = calc(fc.DenseOp(op.to_dense()), f).to_dense()
        assert isinstance(got, fc.PauliMult)
        assert np.max(np.abs(got.to_dense() - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("calc,fid", [(fc.contour_calculus, "zexp"),
                                          (fc.extended_calculus, "zis:0.8")])
    def test_number_operator_calculus_matches_the_eigen_oracle(self, n, calc, fid):
        op = clifford.number_operator(clifford.spin_generators(n))
        f = fc.library(fid)
        got = calc(op, f).symbol
        want = fc.eigen_calculus(op, f).symbol
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

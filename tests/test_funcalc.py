import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from nclp import funcalc as fc
from nclp.core import Bound, SpectralCollisionError, power_ascent, schatten_norm
from nclp.models import clifford, martingale, schur

from conftest import random_matrix, unit


def dense_of(op):
    return op.to_dense()


def _every_kind(rng):
    a = random_matrix(rng, 3)
    h = 0.5 * (a + a.conj().T)
    u, _ = np.linalg.qr(random_matrix(rng, 3))
    return {
        "left": fc.LeftMult(a),
        "right": fc.RightMult(random_matrix(rng, 3)),
        "schur": fc.SchurMult(random_matrix(rng, 3)),
        "sandwich": fc.SandwichSchur(u, u.conj().T, random_matrix(rng, 3)),
        "adpair": fc.AdPair(h, h.T),
        "dense": fc.DenseOp(random_matrix(rng, 9)),
        "amplified": fc.AmplifiedOp(fc.SchurMult(random_matrix(rng, 2)), 2),
        "condexp": martingale.CondExpOp(martingale.MartingaleTower(1), 0),
        "clifford": clifford.clifford_semigroup(clifford.spin_generators(2), 0.4),
    }


class TestOperatorKinds:
    def test_leftmult_dense_is_kron(self, rng):
        a = random_matrix(rng, 3)
        assert np.allclose(fc.LeftMult(a).to_dense(), np.kron(a, np.eye(3)))

    def test_rightmult_dense_is_kron(self, rng):
        b = random_matrix(rng, 3)
        assert np.allclose(fc.RightMult(b).to_dense(), np.kron(np.eye(3), b.T))

    @pytest.mark.parametrize("kind", ["left", "right", "schur", "sandwich", "adpair",
                                      "dense", "amplified", "condexp", "clifford"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_amplified_s2_norm_is_the_base_norm(self, rng, kind, m):
        amp = fc.AmplifiedOp(_every_kind(rng)[kind], m)
        dense = float(np.linalg.norm(amp.to_dense(), 2))
        assert amp.norm_bounds(2.0).lower == pytest.approx(dense, rel=1e-12)

    def test_schur_apply(self, rng):
        m = random_matrix(rng, 2)
        x = random_matrix(rng, 2)
        assert np.allclose(fc.SchurMult(m).apply(x), m * x)

    def test_adpair_matches_structured_form(self, rng):
        a = random_matrix(rng, 3)
        a = 0.5 * (a + a.conj().T)
        b = random_matrix(rng, 3)
        b = 0.5 * (b + b.conj().T)
        ad = fc.AdPair(a, b)
        x = random_matrix(rng, 3)
        assert np.allclose(ad.apply(x), a @ x - x @ b)
        # sandwiched symbol reproduces the same dense superoperator
        sandwich = fc.SandwichSchur(ad.u, ad.v, ad.w)
        assert np.allclose(dense_of(ad), dense_of(sandwich), atol=1e-12)

    def test_adpair_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            fc.AdPair(random_matrix(rng, 2), np.eye(2))

    def test_sandwich_refuses_non_unitary_factors(self, rng):
        # its frame u_i v_j* is orthonormal only for unitary u and v; for
        # others w is not the spectrum, nor max |w| the S^2 norm
        u, _ = np.linalg.qr(random_matrix(rng, 3))
        w, bad = random_matrix(rng, 3), rng.standard_normal((3, 3))
        for pair in ((bad, u), (u, bad), (1.001 * u, u)):
            with pytest.raises(ValueError, match="needs unitary"):
                fc.SandwichSchur(*pair, w)
        assert fc.SandwichSchur(u, u.conj().T, w).dim == 3

    def test_rebuilt_sandwich_keeps_its_checked_factors(self, rng, monkeypatch):
        # every resolvent, scaled ray member and calculus result is a rebuild:
        # it shares the factors checked once and checks only its own symbol
        op = fc.AdPair(np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 0.5, 0.25]))
        w = random_matrix(rng, 3)
        seen = []
        with monkeypatch.context() as mp:
            mp.setattr(fc, "as_matrix", lambda x: seen.append(x) or np.asarray(x, complex))
            mp.setattr(fc, "adjoint", lambda x: pytest.fail("factors checked again"))
            new = op.with_symbol(w)
        assert len(seen) == 1 and new.u is op.u and new.v is op.v
        assert type(new) is fc.SandwichSchur
        x = random_matrix(rng, 3)
        assert np.array_equal(new.apply(x), fc.SandwichSchur(op.u, op.v, w).apply(x))
        with pytest.raises(ValueError, match="non-finite"):
            op.with_symbol(np.full((3, 3), np.nan))

    def test_dense_round_trip(self, rng):
        a = random_matrix(rng, 2)
        op = fc.LeftMult(a)
        dop = fc.DenseOp(op.to_dense())
        x = random_matrix(rng, 2)
        assert np.allclose(dop.apply(x), op.apply(x))

    def test_dagger_is_frobenius_adjoint(self, rng):
        for op in (
            fc.LeftMult(random_matrix(rng, 3)),
            fc.RightMult(random_matrix(rng, 3)),
            fc.SchurMult(random_matrix(rng, 3)),
            fc.DenseOp(random_matrix(rng, 9)),
        ):
            x, y = random_matrix(rng, 3), random_matrix(rng, 3)
            lhs = np.trace(y.conj().T @ op.apply(x))
            rhs = np.trace(op.dagger().apply(y).conj().T @ x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_amplified_blockwise(self, rng):
        a = random_matrix(rng, 2)
        op = fc.AmplifiedOp(fc.LeftMult(a), 2)
        x = random_matrix(rng, 4)
        blocks = x.reshape(2, 2, 2, 2)
        expect = np.einsum("ab,ibjc->iajc", a, blocks).reshape(4, 4)
        assert np.allclose(op.apply(x), expect)


def _kind_cases():
    rng = np.random.default_rng(7)
    herm = random_matrix(rng, 3)
    herm = herm @ herm.conj().T + 0.3 * np.eye(3)
    u0, _ = np.linalg.qr(random_matrix(rng, 3))
    v0, _ = np.linalg.qr(random_matrix(rng, 3))
    return [
        ("left", lambda: fc.LeftMult(herm)),
        ("right", lambda: fc.RightMult(np.diag([0.5, 1.0, 2.0]))),
        ("schur", lambda: fc.SchurMult(rng.uniform(0.2, 2.0, size=(3, 3)))),
        ("sandwich", lambda: fc.SandwichSchur(u0, v0, rng.uniform(0.3, 2.0, size=(3, 3)))),
        ("adpair", lambda: fc.AdPair(herm, np.diag([-0.5, -0.2, 0.1]))),
        ("dense", lambda: fc.DenseOp(random_matrix(rng, 9) + 6.0 * np.eye(9))),
        ("amplified", lambda: fc.AmplifiedOp(fc.LeftMult(herm), 2)),
        ("condexp", lambda: martingale.CondExpOp(martingale.MartingaleTower(2), 1)),
        ("clifford", lambda: clifford.clifford_semigroup(clifford.spin_generators(2), 0.3)),
        ("number", lambda: clifford.number_operator(clifford.spin_generators(2))),
        ("condexp-decreasing",
         lambda: martingale.CondExpOp(martingale.MartingaleTower(2, "decreasing"), 1)),
        ("amplified-condexp",
         lambda: fc.AmplifiedOp(martingale.CondExpOp(martingale.MartingaleTower(2), 1), 2)),
    ]


class TestKindContract:
    """Every kind's spectral interface agrees with the same operation on
    its materialized d^2 x d^2 superoperator."""

    @staticmethod
    def close(op, ref):
        got = op.to_dense()
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("make", [pytest.param(m, id=n) for n, m in _kind_cases()])
    def test_interface_matches_dense(self, make):
        op = make()
        dense = op.to_dense()
        z = -1.0 + 0.5j
        eye = np.eye(dense.shape[0])
        self.close(op.scaled(z), z * dense)
        self.close(op.dagger(), dense.conj().T)
        self.close(fc.resolvent(op, z), np.linalg.inv(z * eye - dense))
        self.close(op.eigen_fn(np.exp), fc.DenseOp(dense).eigen_fn(np.exp).to_dense())
        self.close(op.with_symbol(op.symbol), dense)

    @pytest.mark.parametrize("make", [pytest.param(m, id=n) for n, m in _kind_cases()])
    def test_frame_diagonalizes(self, make, rng):
        # A x = out(lam * into(x)) and A^dagger y = into_adj(conj(lam) * out_adj(y))
        op = make()
        lam, into, out, into_adj, out_adj = op.frame()
        x = random_matrix(rng, op.dim)
        for got, want in (
            (out(lam * into(x)), op.apply(x)),
            (into_adj(np.conj(lam) * out_adj(x)), op.dagger().apply(x)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_no_kind_overrides_spectrum_or_dagger(self):
        # both follow from the symbol (LpOperator), and so do the S^2 norm and
        # witness of an entrywise kind, so a kind that writes its own has left
        # the spectral interface
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        own = [
            f"{cls.__module__}.{cls.__qualname__}.{name}"
            for cls in subclasses(fc.LpOperator)
            if cls.__module__.startswith(("nclp.funcalc", "nclp.models"))
            for name in ("spectrum", "dagger")
            + (("norm_bounds",) if cls.entrywise else ())
            if name in vars(cls)
        ]
        assert own == []


def _refuse_dense(self):
    raise AssertionError("dense form built")


def _pauli_string(d, a, b):
    """X^a Z^b on d x d matrices from its definition: entry (j ^ a, j) is
    (-1)^{popcount(b & j)}."""
    p = np.zeros((d, d))
    for j in range(d):
        p[j ^ a, j] = (-1) ** bin(b & j).count("1")
    return p


class TestPauliMult:
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_frame_is_unitary(self, rng, d):
        _, into, out, into_adj, out_adj = fc.PauliMult(np.ones((d, d))).frame()
        units = np.eye(d * d).reshape(d * d, d, d)
        u = into(units).reshape(d * d, d * d).T
        assert np.max(np.abs(u.conj().T @ u - np.eye(d * d))) <= 1e-14
        xs = random_matrix(rng, d, 3 * d).reshape(d, 3, d).swapaxes(0, 1)
        assert np.max(np.abs(out(into(xs)) - xs)) <= 1e-14 * np.max(np.abs(xs))
        assert into_adj == out and out_adj == into  # the same bound methods

    def test_eigenvalue_on_every_string(self, rng):
        d = 8
        c = random_matrix(rng, d)
        op = fc.PauliMult(c)
        for a in range(d):
            for b in range(d):
                p = _pauli_string(d, a, b)
                assert np.max(np.abs(op.apply(p) - c[a, b] * p)) <= 1e-14 * np.max(np.abs(c))

    @pytest.mark.parametrize("d", [3, 6, 12])
    def test_non_power_of_two_is_refused(self, d):
        with pytest.raises(ValueError, match="2\\^n x 2\\^n"):
            fc.PauliMult(np.ones((d, d)))


def _stack_kinds():
    rng = np.random.default_rng(11)
    h = random_matrix(rng, 3)
    h = 0.5 * (h + h.conj().T)
    u, _ = np.linalg.qr(random_matrix(rng, 3))
    v, _ = np.linalg.qr(random_matrix(rng, 3))
    tower = martingale.MartingaleTower(2)
    return [
        ("left", fc.LeftMult(random_matrix(rng, 3))),  # non-normal
        ("right", fc.RightMult(random_matrix(rng, 3))),
        ("schur", fc.SchurMult(random_matrix(rng, 3))),
        ("sandwich", fc.SandwichSchur(u, v, random_matrix(rng, 3))),
        ("adpair", fc.AdPair(h, np.diag([-0.5, 0.2, 1.0]))),
        ("dense", fc.DenseOp(random_matrix(rng, 9))),
        ("amplified-dense", fc.AmplifiedOp(fc.DenseOp(random_matrix(rng, 4)), 3)),
        ("amplified-left", fc.AmplifiedOp(fc.LeftMult(random_matrix(rng, 2)), 2)),
        ("condexp-increasing", martingale.CondExpOp(tower, 1)),
        ("condexp-decreasing",
         martingale.CondExpOp(martingale.MartingaleTower(2, "decreasing"), 1)),
        ("clifford", clifford.clifford_semigroup(clifford.spin_generators(2), 0.3)),
    ]


_STACK_KINDS = [pytest.param(op, id=name) for name, op in _stack_kinds()]


def _count_applies(monkeypatch, op):
    """Log the argument shape of every ``op.apply`` call."""
    calls, inner = [], op.apply

    def counted(x):
        calls.append(np.shape(x))
        return inner(x)

    monkeypatch.setattr(op, "apply", counted)
    return calls


def _rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


class TestStackedApply:
    """``apply`` maps every matrix of a (..., d, d) stack on every kind."""

    @pytest.mark.parametrize("op", _STACK_KINDS)
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_stack_equals_per_matrix(self, rng, op, lead):
        d = op.dim
        xs = random_matrix(rng, d, d * int(np.prod(lead))).reshape(d, -1, d)
        xs = np.swapaxes(xs, 0, 1).reshape(lead + (d, d))
        got = op.apply(xs)
        want = np.stack([op.apply(x) for x in xs.reshape(-1, d, d)]).reshape(xs.shape)
        assert got.shape == xs.shape
        assert _rel_err(got, want) <= 1e-14

    @pytest.mark.parametrize("op", _STACK_KINDS)
    def test_dense_and_choi_match_unit_loop(self, op):
        d = op.dim
        dense = np.empty((d * d, d * d), dtype=complex)
        choi = np.empty((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                img = op.apply(unit(d, i, j))
                dense[:, i * d + j] = img.reshape(-1)
                choi[i * d : (i + 1) * d, j * d : (j + 1) * d] = img
        assert _rel_err(fc.choi_matrix(op), choi) <= 1e-14
        assert _rel_err(op.to_dense(), dense) <= 1e-14

    @pytest.mark.parametrize("height", [1, 7, 64])
    @pytest.mark.parametrize("d", [3, 4])
    def test_dense_rows_round_as_alone(self, rng, d, height):
        # each matrix of a stack gets the bits it gets applied alone
        op = fc.DenseOp(random_matrix(rng, d * d))
        xs = np.stack([random_matrix(rng, d) for _ in range(height)])
        got = op.apply(xs)
        assert all(np.array_equal(y, op.apply(x)) for x, y in zip(xs, got))

    def test_dense_and_choi_apply_once(self, monkeypatch):
        op = fc.SchurMult(np.arange(1.0, 10.0).reshape(3, 3))
        calls = _count_applies(monkeypatch, op)
        fc.choi_matrix(op)
        op.to_dense()
        assert calls == [(9, 3, 3)]  # to_dense is cached after choi's call

    def test_amplified_applies_its_base_once(self, rng, monkeypatch):
        base = fc.LeftMult(random_matrix(rng, 2))
        calls = _count_applies(monkeypatch, base)
        fc.AmplifiedOp(base, 3).apply(random_matrix(rng, 6, 24).reshape(4, 6, 6))
        assert calls == [(4, 3, 3, 2, 2)]

    def test_apply_each_unsorted_with_repeats(self, rng, monkeypatch):
        # a mixed-kind family stacks no symbols and groups rows per member
        ops = fc.Family([fc.LeftMult(random_matrix(rng, 3)), fc.SchurMult(random_matrix(rng, 3)),
                         fc.DenseOp(random_matrix(rng, 9))])
        assert ops.symbols is None
        logs = [_count_applies(monkeypatch, op) for op in ops]
        which = [2, 0, 0, 1, 2, 2, 0]
        xs = np.stack([random_matrix(rng, 3) for _ in which])
        got = fc.apply_each(ops, which, xs)
        for k, x, y in zip(which, xs, got):
            assert np.array_equal(y, ops[k].apply(x))
        # one stacked call per member: 2 on rows 0, 4, 5, 0 on rows 1, 2, 6,
        # 1 on row 3, then the checks above
        stacked = [shape for log in logs for shape in log if shape != (3, 3)]
        assert stacked == [(3, 3, 3), (1, 3, 3), (3, 3, 3)]


_HOOK_KINDS = [fc.LeftMult, fc.RightMult, fc.SchurMult]


class TestFamilyApply:
    """A :class:`Family` of one kind with ``apply_symbols`` maps a stack in
    one product of its symbols, with the bits of the per-member loop."""

    def test_the_hook_kinds(self):
        # no other kind names the hook, so apply_each never asks which kind
        kinds, todo = [], [fc.LpOperator]
        while todo:
            kinds.append(todo.pop())
            todo += kinds[-1].__subclasses__()
        hooked = {k for k in kinds if k.__module__ == fc.__name__ and k.apply_symbols is not None}
        assert hooked == set(_HOOK_KINDS)

    @pytest.mark.parametrize("kind", _HOOK_KINDS)
    def test_stacked_equals_per_member_loop(self, rng, kind):
        ops = fc.Family(kind(random_matrix(rng, 3)) for _ in range(5))
        assert ops.symbols.shape == (5, 3, 3)
        which = rng.integers(0, 5, size=40)
        xs = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
        got = fc.apply_each(ops, which, xs)
        assert np.array_equal(got, fc.apply_each(list(ops), which, xs))
        assert np.array_equal(got, np.stack([ops[k].apply(x) for k, x in zip(which, xs)]))

    @pytest.mark.parametrize("kind", _HOOK_KINDS)
    def test_one_product_per_call(self, rng, monkeypatch, kind):
        ops = fc.Family(kind(random_matrix(rng, 3)) for _ in range(4))
        logs = [_count_applies(monkeypatch, op) for op in ops]
        products, real = [], kind.apply_symbols
        monkeypatch.setattr(kind, "apply_symbols",
                            staticmethod(lambda s, x: products.append(s.shape) or real(s, x)))
        xs = np.stack([random_matrix(rng, 3) for _ in range(7)])
        fc.apply_each(ops, [1, 0, 3, 3, 2, 0, 1], xs)
        assert products == [(7, 3, 3)]
        assert logs == [[], [], [], []]

    def test_search_families_are_stacked(self, monkeypatch):
        # rbound's families and their adjoints, and sector_type's ray members
        # with open bounds, each build their symbol stack once
        built, real = [], fc.Family.__new__
        monkeypatch.setattr(fc.Family, "__new__",
                            lambda cls, ops: built.append(real(cls, ops)) or built[-1])
        op = fc.SchurMult(np.array([[1.0, 2.0], [0.5, 3.0]]))
        fc.sector_type(op, 4.0)
        assert built and all(fam.symbols is not None for fam in built)


class TestQuadratureLayer:
    def test_kernel_rule_is_relative(self):
        lam = np.array([0.0, 1e-10, 2e-9, 1.0, -1.0j])
        assert fc.kernel_mask(lam).tolist() == [True, True, False, False, False]
        assert fc.kernel_mask(1e6 * lam).tolist() == [True, True, False, False, False]

    def test_spectral_window(self):
        assert fc.spectral_window(np.array([0.0, 1e-12, 0.5, -4.0])) == (0.5, 4.0)
        assert fc.spectral_window(np.zeros(3)) == (1.0, 1.0)
        op = fc.SchurMult(np.array([[0.0, 2.0], [3.0, 0.5]]))
        assert fc.spectral_window(op.spectrum())[1] == 3.0

    def test_log_trapezoid(self):
        r, w = fc.log_trapezoid(1e-3, 1e5, 65)
        assert r[0] == pytest.approx(1e-3, rel=1e-14) and r[-1] == pytest.approx(1e5, rel=1e-14)
        assert np.sum(w) == pytest.approx(math.log(1e8), rel=1e-14)
        assert w[0] == w[-1] == pytest.approx(0.5 * w[1], rel=1e-14)


class TestResolvent:
    def test_leftmult_diag(self):
        op = fc.LeftMult(np.diag([1.0, 2.0]))
        r = fc.resolvent(op, -1.0)
        assert np.allclose(r.a, np.diag([-0.5, -1.0 / 3.0]))

    def test_schur_at_zero(self):
        op = fc.SchurMult(np.array([[1.0, 2.0], [2.0, 1.0]]))
        r = fc.resolvent(op, 0.0)
        assert np.allclose(r.m, np.array([[-1.0, -0.5], [-0.5, -1.0]]))

    def test_dense_matches_eigen_oracle(self, rng):
        s = random_matrix(rng, 9)
        op = fc.DenseOp(s)
        z = 10.0 + 3.0j
        r = fc.resolvent(op, z)
        lam, v = np.linalg.eig(s)
        oracle = (v * (1.0 / (z - lam))) @ np.linalg.inv(v)
        assert np.max(np.abs(r.to_dense() - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_spectral_collision(self):
        op = fc.LeftMult(np.diag([1.0, 2.0]))
        with pytest.raises(SpectralCollisionError):
            fc.resolvent(op, 2.0 + 1e-12)

    def test_resolvent_identity(self, rng):
        a = random_matrix(rng, 3)
        op = fc.LeftMult(a)
        z1, z2 = 5.0 + 2j, -3.0 + 1j
        r1, r2 = fc.resolvent(op, z1), fc.resolvent(op, z2)
        lhs = r1.a - r2.a
        rhs = (z2 - z1) * (r1.a @ r2.a)
        assert np.allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("op", [
        fc.LeftMult(np.diag([0.5, 1.0, 2.0])),
        fc.SchurMult(np.array([[1.0, 2.0], [0.5, 3.0]])),
        fc.DenseOp(np.kron(np.diag([1.0, 2.0]), np.array([[1.0, 0.3], [0.0, 2.0]]))),
    ], ids=["left", "schur", "dense"])
    def test_ray_family_takes_the_spectrum_once(self, monkeypatch, op):
        # the members are resolvent's, bit for bit, from one spectrum
        lam = op.spectrum()
        radii = np.logspace(-3, 3, 6) * fc.spectral_window(lam)[1]
        want = [fc.resolvent(op, z).scaled(z) for r in radii
                for z in (r * cmath.exp(0.8j), r * cmath.exp(-0.8j))]
        calls, real = [], op.spectrum
        monkeypatch.setattr(op, "spectrum", lambda: calls.append(1) or real())
        got = fc.ray_resolvent_family(op, 0.8, 12)
        assert len(calls) == 1
        assert [type(m) for m in got] == [type(m) for m in want]
        assert all(np.array_equal(g.symbol, w.symbol) for g, w in zip(got, want))

    @pytest.mark.parametrize("n", [0, 1, 11])
    def test_ray_family_size_must_be_even(self, n):
        op = fc.LeftMult(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="even and >= 2"):
            fc.ray_resolvent_family(op, 0.8, n)
        assert len(fc.ray_resolvent_family(op, 0.8, 2)) == 2


class TestHolFnLibrary:
    def test_g_values(self):
        g = fc.library("g")
        assert g(np.array([1.0]))[0] == pytest.approx(0.25)
        assert g(np.array([4.0]))[0] == pytest.approx(4.0 / 25.0)

    def test_g1_is_g(self):
        g = fc.library("g")
        g1 = fc.library("gn:1")
        z = np.array([0.3 + 0.2j, 2.0, 10.0 - 1j])
        assert np.allclose(g(z), g1(z))

    def test_decay_validated(self):
        with pytest.raises(ValueError):
            # constant function cannot meet a supplied decay bound
            fc.make_hinf0(1.0, lambda z: np.ones_like(z), s=1.0, c=1.0)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            fc.library("nope")


class TestContourCalculus:
    def test_diag_g(self):
        op = fc.LeftMult(np.diag([1.0, 4.0]))
        out = fc.contour_calculus(op, fc.library("g"))
        assert np.allclose(out.a, np.diag([0.25, 0.16]), atol=1e-10)

    def test_non_normal_matches_eigen(self):
        op = fc.LeftMult(np.array([[1.0, 1.0], [0.0, 2.0]]))
        out = fc.contour_calculus(op, fc.library("g"))
        oracle = fc.eigen_calculus(op, fc.library("g"))
        err = np.max(np.abs(out.a - oracle.a)) / np.max(np.abs(oracle.a))
        assert err <= 1e-8

    def test_dense_superop_of_non_normal_matches_eigen(self):
        # same operator through the dense superoperator quadrature path
        base = fc.LeftMult(np.array([[1.0, 1.0], [0.0, 2.0]]))
        op = fc.DenseOp(base.to_dense())
        out = fc.contour_calculus(op, fc.library("g")).to_dense()
        oracle = fc.eigen_calculus(op, fc.library("g")).to_dense()
        assert np.max(np.abs(out - oracle)) / np.max(np.abs(oracle)) <= 1e-8

    def test_gn1_equals_g_output(self):
        op = fc.LeftMult(np.diag([0.5, 3.0]))
        a = fc.contour_calculus(op, fc.library("g")).a
        b = fc.contour_calculus(op, fc.library("gn:1")).a
        assert np.allclose(a, b, atol=1e-12)

    def test_homomorphism(self, rng):
        op = fc.LeftMult(np.diag([0.5, 1.0, 4.0]))
        f1, f2 = fc.library("g"), fc.library("zexp")
        prod = fc.product_fn(f1, f2)
        lhs = fc.contour_calculus(op, prod).a
        rhs = fc.contour_calculus(op, f1).a @ fc.contour_calculus(op, f2).a
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_contour_independence(self):
        op = fc.LeftMult(np.diag([0.5, 1.0, 4.0]))
        g = fc.library("g")
        sp1 = fc.default_contour(op, g)
        sp2 = dataclasses.replace(sp1, gamma=sp1.gamma + 0.1)
        a, b = (fc._contour_symbols(op, (g,), sp)[0] for sp in (sp1, sp2))
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_hermitian_preservation(self, rng):
        sym = np.array([[1.0, 2.0, 0.5], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        op = fc.SchurMult(sym)
        out = fc.contour_calculus(op, fc.library("g"))
        x = random_matrix(rng, 3)
        x = 0.5 * (x + x.conj().T)
        y = out.apply(x)
        assert np.max(np.abs(y - y.conj().T)) <= 1e-10

    def test_rejects_bounded_class(self):
        op = fc.LeftMult(np.diag([1.0]))
        with pytest.raises(ValueError, match="extended_calculus"):
            fc.contour_calculus(op, fc.library("zis:1"))

    def test_sector_violation(self):
        op = fc.LeftMult(np.diag([-1.0 + 0.0j]))  # spectrum on the cut
        with pytest.raises((SpectralCollisionError, ValueError)):
            fc.contour_calculus(op, fc.library("g"))

    @pytest.mark.parametrize("calculus", [fc.contour_calculus, fc.extended_calculus])
    def test_spectrum_on_the_rays_is_refused(self, calculus):
        # type angle 1.4 - 1e-13 below the sector 1.4 of z e^-z: the rays
        # halfway between sit 5e-14 from the spectrum
        op = fc.LeftMult(np.diag([cmath.exp(1j * (1.4 - 1e-13)), 2.0]))
        with pytest.raises(SpectralCollisionError, match="spectrum touches the contour"):
            calculus(op, fc.library("zexp"))

    @staticmethod
    def _kernel_multiplier(n):
        # the kernel eigenvalues of the dense form come out at roundoff
        # level, where the contour's smallest nodes (down to e^-60) find them
        return clifford.clifford_multiplier(clifford.spin_generators(n), lambda m: m ** 0.8j)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dense_node_on_a_roundoff_eigenvalue_is_a_collision(self, n):
        op = fc.DenseOp(self._kernel_multiplier(n).to_dense())
        with pytest.raises(SpectralCollisionError, match="contour node of radius"):
            fc.contour_calculus(op, fc.library("zexp"))

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_pauli_multiplier_keeps_its_exact_kernel(self, n):
        op = self._kernel_multiplier(n)
        out = fc.contour_calculus(op, fc.library("zexp"))
        ref = fc.eigen_calculus(op, fc.library("zexp"))
        assert np.max(np.abs(out.c - ref.c)) <= 1e-6 * np.max(np.abs(ref.c))


class TestEigenCalculus:
    def test_schur_entrywise_with_zero_convention(self):
        m = np.array([[0.0, 2.0], [3.0, 1.0]])
        out = fc.eigen_calculus(fc.SchurMult(m), fc.library("g"))
        expect = np.where(m == 0, 0.0, m / (1.0 + m) ** 2)
        assert np.allclose(out.m, expect)

    def test_identity_function(self, rng):
        a = random_matrix(rng, 3)
        out = fc.eigen_calculus(fc.LeftMult(a), lambda z: z)
        assert np.allclose(out.a, a, atol=1e-9 * np.max(np.abs(a)))

    def test_exp_vs_expm(self, rng):
        a = random_matrix(rng, 4)
        t = 0.7
        out = fc.eigen_calculus(fc.LeftMult(a), lambda z: np.exp(-t * z))
        oracle = scipy.linalg.expm(-t * a)
        assert np.max(np.abs(out.a - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))


class TestExtendedCalculus:
    def test_consistent_with_contour_for_decaying(self):
        op = fc.LeftMult(np.diag([0.5, 2.0]))
        f = fc.library("zexp")
        a = fc.extended_calculus(op, f).a
        b = fc.contour_calculus(op, f).a
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_imaginary_power_diag(self):
        op = fc.LeftMult(np.diag([2.0]))
        out = fc.imaginary_power(op, 1.0)
        assert out.a[0, 0] == pytest.approx(cmath.exp(1j * math.log(2.0)), abs=1e-7)

    def test_kernel_annihilated(self):
        op = fc.SchurMult(np.array([[0.0, 1.0], [2.0, 3.0]]))
        out = fc.extended_calculus(op, fc.library("zis:0.5"))
        assert out.m[0, 0] == 0.0
        x = np.array([[1.0, 0.0], [0.0, 0.0]])  # kernel direction E_11
        assert np.max(np.abs(out.apply(x))) == 0.0

    def test_imaginary_power_group_law(self):
        op = fc.LeftMult(np.diag([0.5, 1.0, 3.0]))
        s, t = 0.8, -0.3
        ab = fc.imaginary_power(op, s).a @ fc.imaginary_power(op, t).a
        st = fc.imaginary_power(op, s + t).a
        assert np.max(np.abs(ab - st)) <= 1e-7

    def test_s_zero_is_identity_on_range(self):
        op = fc.LeftMult(np.diag([1.0, 2.0]))
        out = fc.imaginary_power(op, 0.0)
        assert np.allclose(out.a, np.eye(2), atol=1e-8)

    def test_one_point_spectrum_all_s(self):
        op = fc.LeftMult(np.diag([1.0]))
        for s in (-2.0, 0.3, 1.0):
            out = fc.imaginary_power(op, s)
            assert out.a[0, 0] == pytest.approx(1.0, abs=1e-7)


def _grid_nodes(spec):
    """The radii and weights of the whole grid of ``spec``, built from its
    rule: the trapezoid weights h du/dv with the ends halved."""
    u, dudv, h = spec.rule()
    w = h * dudv
    w[[0, -1]] *= 0.5
    return np.exp(u), w


def _looped_contour(op, f, spec=None, nodes=None):
    """Reference for the batched contour sweep: the per-node loop it
    replaced, one solve per node, accumulated in node order, on the grid of
    ``spec`` (f's default rule if unset) or on the radii and weights
    ``nodes``."""
    spec = spec or fc.default_contour(op, f)
    z, (c,) = fc._contour_coefficients((f,), spec, _grid_nodes(spec) if nodes is None else nodes)
    s = op.symbol
    eye = np.eye(s.shape[0])
    acc = np.zeros(s.shape, dtype=complex)
    for zj, cj in zip(z, c):
        acc += cj * np.linalg.solve(zj * eye - s, eye)
    return acc


def _sylvester_dense(rng, d):
    """DenseOp of x -> A x + x B, A and B upper bidiagonal with separated
    positive diagonals (the dense operators of the calculus benchmark)."""
    a = 1.0 + 0.5 * np.arange(d) + rng.uniform(0.0, 0.1, d)
    b = (0.5 * d + 0.5) * np.arange(d) + rng.uniform(0.0, 0.1, d)
    am = np.diag(a) + np.diag(rng.uniform(0.2, 0.6, d - 1), 1)
    bm = np.diag(b) + np.diag(rng.uniform(0.2, 0.6, d - 1), 1)
    eye = np.eye(d)
    return fc.DenseOp(np.kron(am, eye) + np.kron(eye, bm.T))


def _tail_cut(op, f, spec):
    """The grid positions (t_lo, t_hi) that the sweep of f on op keeps
    strictly between."""
    r, w = _grid_nodes(spec)
    return fc._tail_cut(*fc._resolvent_radii(op), r, fc._contour_coefficients((f,), spec, (r, w))[1])


def _complex_dense(op):
    """A complex-entry DenseOp similar to ``op`` through a diagonal unitary:
    same spectrum, same non-normality, nonzero imaginary parts."""
    phase = np.exp(1j * np.arange(op.s.shape[0]))
    return fc.DenseOp(phase[:, None] * op.s * phase.conj()[None, :])


def _narrow_margin_op(omega):
    """A non-normal LeftMult of type angle omega: diag(0.5, e^{i omega},
    2 e^{-i omega}, 3) plus the superdiagonal (0.3, 0.2, 0.1)."""
    lam = [0.5, cmath.exp(1j * omega), 2 * cmath.exp(-1j * omega), 3.0]
    return fc.LeftMult(np.diag(lam) + np.diag([0.3, 0.2, 0.1], 1))


def _inverted_nodes(monkeypatch, op):
    """Patch np.linalg.inv to record, for each batched inverse of
    (z_j - S) on op's symbol S, the array of its nodes z_j."""
    real, nodes = np.linalg.inv, []
    s00 = op.symbol[0, 0]

    def recording(a, *args, **kwargs):
        if np.ndim(a) == 3:
            nodes.append(np.asarray(a)[:, 0, 0] + s00)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", recording)
    return nodes


def _series_nodes(monkeypatch):
    """Patch the resolvent series to record, for each set of far nodes it
    sums, the array of its nodes z_j (both rays)."""
    real, nodes = fc._ResolventSeries.sums, []

    def recording(self, z, c):
        nodes.append(np.asarray(z))
        return real(self, z, c)

    monkeypatch.setattr(fc._ResolventSeries, "sums", recording)
    return nodes


def _series_case_op(rng, name):
    """The symbols the resolvent series is checked on, all of order at
    least SERIES_MIN_ORDER."""
    if name == "illcond":  # spectrum 0.01..100 and superdiagonal: condition 1.5e4
        lam = np.logspace(-2, 2, 16)
        return fc.LeftMult(np.diag(lam) + np.diag(lam[:-1], 1))
    if name == "kernel":
        return fc.DenseOp(martingale.CondExpOp(martingale.MartingaleTower(2), 1).to_dense())
    if name == "zero":
        return fc.DenseOp(np.zeros((16, 16)))
    op = _sylvester_dense(rng, 8)
    return _complex_dense(op) if name == "complex8" else op


def _count_calls(monkeypatch, name):
    """Patch np.linalg.<name> to record the shape of its first argument."""
    real, shapes = getattr(np.linalg, name), []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return shapes


class TestContourSweep:
    @pytest.mark.parametrize("kind", ["left", "right", "amplified", "condexp", "dense5"])
    @pytest.mark.parametrize("fid", ["g", "sqrtzexp"])
    def test_matches_per_node_loop(self, rng, kind, fid):
        diag = np.diag([0.5, 1.0, 2.5])
        nonnormal = diag + np.diag([0.7, 0.3], 1)
        op = {
            "left": fc.LeftMult(nonnormal),
            "right": fc.RightMult(nonnormal),
            "amplified": fc.AmplifiedOp(fc.LeftMult(diag), 2),
            "condexp": fc.DenseOp(martingale.CondExpOp(martingale.MartingaleTower(2), 1).to_dense()),
            "dense5": _sylvester_dense(rng, 5),
        }[kind]
        f = fc.library(fid)
        if kind == "dense5":  # the last chunk of lower-ray nodes is a short one
            assert fc.default_contour(op, f).rule()[0].size % (fc._BATCH_ENTRIES // 25**2)
        ref = _looped_contour(op, f)
        out = fc.contour_calculus(op, f).symbol
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_extended_inverts_each_node_once(self, rng, monkeypatch, complex_entries):
        """extended_calculus(op, zis:0.8) sweeps fg and g together and each
        level inverts only the nodes it adds, so no node is inverted twice.
        A real symbol inverts the lower ray only and takes the upper ray's
        resolvents as their conjugates; a complex one inverts both rays.
        The one solve is the final g(A) solve, not one per node."""
        op = _sylvester_dense(rng, 8)
        if complex_entries:
            op = _complex_dense(op)
        nodes = _inverted_nodes(monkeypatch, op)
        solves = _count_calls(monkeypatch, "solve")
        fc.extended_calculus(op, fc.library("zis:0.8"))
        assert len(solves) == 1
        z = np.concatenate(nodes)
        assert np.unique(z).size == z.size
        lower, upper = z[z.imag < 0], z[z.imag > 0]
        if complex_entries:
            assert np.allclose(np.sort_complex(upper.conj()), np.sort_complex(lower), rtol=1e-13)
        else:
            assert upper.size == 0
        # at most the nodes of every level: the grid, and its midpoints 16 times over
        grid = fc.default_contour(op, fc.product_fn(fc.library("zis:0.8"), fc.library("g")))
        assert lower.size <= 16 * grid.rule()[0].size
        assert all(part.size <= fc._BATCH_ENTRIES // 64**2 for part in nodes)

    def test_tail_cut_counts_on_dense8(self, rng, monkeypatch):
        # of the grid's 199 nodes, the tail cut leaves z e^-z and sqrt(z) e^-z,
        # which need the grid's step 0.1, 106 and 109; g is still resolved at
        # step 0.2, on every second grid node inside its cut.  Of the kept
        # nodes, the resolvent series sums the ones far from the spectrum and
        # the rest are inverted (lower ray only, the symbol is real); the
        # benchmark's dense8 keeps the same counts and inverts one node more
        # for each function
        op = _sylvester_dense(rng, 8)
        nodes = _inverted_nodes(monkeypatch, op)
        far = _series_nodes(monkeypatch)
        inverted, summed = {}, {}
        for fid in ("zexp", "sqrtzexp", "g", "heat:0.7"):
            nodes.clear()
            far.clear()
            fc.contour_calculus(op, fc.library(fid))
            inverted[fid] = np.concatenate(nodes)
            summed[fid] = np.concatenate(far)
            summed[fid] = summed[fid][summed[fid].imag < 0]  # one ray, as inverted
        kept = {fid: inverted[fid].size + summed[fid].size for fid in inverted}
        assert kept == {"zexp": 106, "sqrtzexp": 109, "g": 88, "heat:0.7": 176}
        assert {fid: z.size for fid, z in inverted.items()} == {
            "zexp": 53, "sqrtzexp": 52, "g": 31, "heat:0.7": 62}
        g = fc.library("g")
        spec = fc.default_contour(op, g)
        assert spec.rule()[0].size == 199
        lo, hi = _tail_cut(op, g, spec)
        t = np.arange(0, 199, 2)
        r = np.exp(spec.rule()[0][t[(t > lo) & (t < hi)]])
        got = np.sort(np.abs(np.concatenate([inverted["g"], summed["g"]])))
        assert np.allclose(got, r, rtol=1e-14)

    @pytest.mark.parametrize("case", ["dense8/zexp", "dense8/sqrtzexp", "dense8/g", "narrow/zexp"])
    def test_tail_cut_moves_each_level_below_roundoff(self, rng, case):
        """Every level's sum with and without the nodes the cut drops differ
        by at most 2 eps mass, mass = sum_j |c_j| / |z_j| over the grid, and
        the dropped nodes alone sum to at most eps / 2 * mass.  The
        narrow-margin operator refines to h/16, so all eight levels count."""
        name, fid = case.split("/")
        op = _sylvester_dense(rng, 8) if name == "dense8" else _narrow_margin_op(1.3)
        f = fc.library(fid)
        spec = fc.default_contour(op, f)
        z, c = fc._contour_coefficients((f,), spec, _grid_nodes(spec))
        eps, mass = np.finfo(float).eps, np.sum(np.abs(c) / np.abs(z))
        lo, hi = _tail_cut(op, f, spec)
        sums = {"full": 0.0, "cut": 0.0, "dropped": 0.0}
        for stride, t in spec.levels():
            keep = (t > lo) & (t < hi)
            assert np.any(~keep)
            for part, sel in (("full", ...), ("cut", keep), ("dropped", ~keep)):
                z, c = fc._contour_coefficients((f,), spec, spec.nodes(t[sel]))
                sums[part] = sums[part] + fc._resolvent_sums(z, c, op.symbol)[0]
            assert stride * np.max(np.abs(sums["full"] - sums["cut"])) <= 2 * eps * mass
            assert stride * np.max(np.abs(sums["dropped"])) <= eps / 2 * mass

    @pytest.mark.parametrize(
        "case, sides",
        [("dense8/zexp", [True]), ("dense8/g", [True, False]), ("dense8/heat:0.7", [True, False]),
         ("complex8/zexp", [True]), ("illcond/g", [True, False]), ("kernel/g", [False]),
         ("zero/g", [])],
    )
    def test_series_matches_inverted_far_sums(self, rng, case, sides):
        """On every level, each side's series over its far nodes inside the
        cut agrees with their inverted resolvent sums within 2 eps mass,
        mass = sum_j |c_j| / |z_j| over the grid.  ``sides`` lists the sides
        the sweep takes (True below the spectrum): a kernel takes no lower
        series, the zero symbol none."""
        name, fid = case.split("/")
        op = _series_case_op(rng, name)
        f = fc.library(fid)
        spec = fc.default_contour(op, f)
        r, w = _grid_nodes(spec)
        z, c = fc._contour_coefficients((f,), spec, (r, w))
        eps, mass = np.finfo(float).eps, np.sum(np.abs(c) / np.abs(z))
        lo, hi = fc._resolvent_radii(op)
        t_lo, t_hi = fc._tail_cut(lo, hi, r, c)
        taken = fc._series_sides(op.symbol, lo, hi, r[t_lo + 1 : t_hi])
        assert [side.below for side in taken] == sides
        for side in taken:
            series = inverted = 0.0
            for stride, t in spec.levels():
                r_t, w_t = spec.nodes(t[(t > t_lo) & (t < t_hi)])
                far = side.far(r_t)
                z, c = fc._contour_coefficients((f,), spec, (r_t[far], w_t[far]))
                series = series + side.sums(z, c)[0]
                inverted = inverted + fc._resolvent_sums(z, c, op.symbol)[0]
                assert stride * np.max(np.abs(series - inverted)) <= 2 * eps * mass

    @pytest.mark.parametrize("name", ["kernel", "zero"])
    def test_series_guards_kernel_and_zero_symbols(self, rng, name):
        # no side divides by a zero radius: the sweep raises no warning
        op = _series_case_op(rng, name)
        f = fc.library("g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fc.contour_calculus(op, f).symbol
        oracle = fc.eigen_calculus(op, f).symbol
        assert np.max(np.abs(out - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_series_powers(self, rng, complex_entries):
        # W^{k+1} below, V^k above, in a real array for a real symbol
        s = np.diag(np.linspace(1.0, 4.0, 16)) + 0.3 * rng.standard_normal((16, 16))
        if complex_entries:
            s = s + 0.1j * rng.standard_normal((16, 16))
        lo, hi = fc._resolvent_radii(fc.DenseOp(s))
        below, above = fc._ResolventSeries(s, lo, True), fc._ResolventSeries(s, hi, False)
        w, v = lo * np.linalg.inv(s), s / hi
        assert below.powers.shape == (fc.SERIES_TERMS, 16, 16)
        assert np.isrealobj(below.powers) == np.isrealobj(above.powers) == (not complex_entries)
        for k in range(fc.SERIES_TERMS):
            assert np.allclose(below.powers[k], np.linalg.matrix_power(w, k + 1), rtol=0, atol=1e-13)
            assert np.allclose(above.powers[k], np.linalg.matrix_power(v, k), rtol=0, atol=1e-13)

    def test_series_sides_need_more_far_radii_than_terms(self):
        s = np.diag(np.linspace(1.0, 4.0, fc.SERIES_MIN_ORDER))
        lo, hi, m = 1.0, 4.0, fc.SERIES_TERMS
        # as many far radii below the spectrum as series terms, one more above
        r = np.concatenate([fc.SERIES_Q * lo * np.logspace(-3, 0, m), np.linspace(lo, hi, 50),
                            hi / fc.SERIES_Q * np.logspace(0, 3, m + 1)])
        assert [side.below for side in fc._series_sides(s, lo, hi, r)] == [False]
        assert fc._series_sides(s, lo, hi, r[1:-1]) == []
        # a symbol below the order crossover inverts every node
        assert fc._series_sides(s[1:, 1:], lo, hi, r) == []

    def test_dense_sweep_runs_no_eigendecomposition(self, rng, monkeypatch):
        """contour_calculus reads a matrix symbol's spectrum (np.linalg.eigvals,
        for the rule's angle and window) and decomposes nothing: with every
        other np.linalg.eig* routine and scipy's eig and schur refusing to
        run, dense8 still matches its eigen oracle, computed beforehand."""
        op = _sylvester_dense(rng, 8)
        fns = [fc.library(fid) for fid in ("zexp", "g", "heat:0.7")]
        oracles = [fc.eigen_calculus(op, f).symbol for f in fns]

        def refuse(*args, **kwargs):
            raise AssertionError("the contour calculus ran an eigendecomposition")

        names = [name for name in dir(np.linalg) if name.startswith("eig") and name != "eigvals"]
        assert {"eig", "eigh", "eigvalsh"} <= set(names)
        for name in names:
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(scipy.linalg, "eig", refuse)
        monkeypatch.setattr(scipy.linalg, "schur", refuse)
        for f, oracle in zip(fns, oracles):
            out = fc.contour_calculus(op, f).symbol
            assert np.max(np.abs(out - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("kind", ["condexp4", "left-kernel"])
    def test_kernel_keeps_the_whole_lower_tail(self, monkeypatch, kind):
        # a zero singular value bounds no resolvent below the spectrum, so the
        # smallest grid radius is still inverted; the upper tail is still cut
        op = {
            "condexp4": fc.DenseOp(martingale.CondExpOp(martingale.MartingaleTower(2), 1).to_dense()),
            "left-kernel": fc.LeftMult(np.diag([0.0, 1e-4, 1e4])),
        }[kind]
        f = fc.library("zexp")
        spec = fc.default_contour(op, f)
        lo, hi = _tail_cut(op, f, spec)
        assert lo == -1 and hi < spec.rule()[0].size
        nodes = _inverted_nodes(monkeypatch, op)
        fc.contour_calculus(op, f)
        assert np.isclose(np.min(np.abs(np.concatenate(nodes))), np.exp(spec.rule()[0][0]), rtol=1e-12)

    @pytest.mark.parametrize("make", [fc.LeftMult, fc.SchurMult])
    def test_underflowed_coefficients_raise_no_warning(self, make):
        # e^-z underflows to 0 on the rays well below |z| = 1e4, where no
        # resolvent bound holds; the cut never multiplies such a 0 by inf
        op = make(np.array([[1e-3, 0.5], [0.0, 1e4]]))
        f = fc.library("zexp")
        spec = fc.default_contour(op, f)
        r = _grid_nodes(spec)[0]
        _, (c,) = fc._contour_coefficients((f,), spec, _grid_nodes(spec))
        assert np.any((c[: r.size] == 0) & (r < 1e4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = fc.contour_calculus(op, f).symbol
        oracle = fc.eigen_calculus(op, f).symbol
        assert np.max(np.abs(out - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_levels_nest_into_the_grid(self):
        spec = fc.ContourSpec(gamma=1.0, c=0.3, half_width=1.7)
        levels = [(stride, *spec.nodes(t)) for stride, t in spec.levels()]
        assert [stride for stride, _, _ in levels] == list(fc.LEVEL_STRIDES)
        # the levels down to stride 1 are the grid with its weights, each node once
        r = np.concatenate([lev[1] for lev in levels[:4]])
        w = np.concatenate([lev[2] for lev in levels[:4]])
        order = np.argsort(r)
        grid_r, grid_w = _grid_nodes(spec)
        assert np.array_equal(r[order], grid_r) and np.array_equal(w[order], grid_w)
        # each later level adds one node between every two neighbours so far
        for _, r_new, _ in levels[4:]:
            assert r_new.size == r.size - 1
            r = np.sort(np.concatenate([r, r_new]))
            assert np.all(r[1:-1:2] == r_new)

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("fid", ["zexp", "sqrtzexp"])
    def test_narrow_margin_refines_past_the_grid(self, omega, fid):
        # type angle omega against the sector 1.4 of e^-z: the rays sit
        # (1.4 - omega) / 2 from both, too close for the grid's step 0.1
        op = _narrow_margin_op(omega)
        f = fc.library(fid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", fc.ContourTruncationWarning)
            out = fc.contour_calculus(op, f).a
        oracle = fc.eigen_calculus(op, f).a
        assert np.max(np.abs(out - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_margin_too_narrow_for_the_cap_warns(self):
        # both public entry points warn once, at their caller; the extended
        # one names its two functions
        op, f = _narrow_margin_op(1.38), fc.library("zexp")
        with pytest.warns(fc.ContourTruncationWarning, match="contour levels of zexp differ by") as rec:
            fc.contour_calculus(op, f)
        assert [w.filename for w in rec] == [__file__]
        with pytest.warns(fc.ContourTruncationWarning, match=r"contour levels of zexp\*g, g differ by") as rec:
            fc.extended_calculus(op, f)
        assert [w.filename for w in rec] == [__file__]

    @pytest.mark.parametrize("make", [fc.LeftMult, fc.SchurMult])
    @pytest.mark.parametrize("fid", ["g", "sqrtzexp", "zis:0.5"])
    def test_zero_result_converges_without_warning(self, make, fid):
        # f(0) = 0 on an all-kernel spectrum: the level difference is roundoff
        # far below the size of the sum, and the sweep stops without a warning
        op = make(np.zeros((2, 2)))
        f = fc.library(fid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", fc.ContourTruncationWarning)
            out = (fc.contour_calculus if f.klass == "hinf0" else fc.extended_calculus)(op, f)
        assert np.max(np.abs(out.symbol)) <= 1e-14

    def test_upper_ray_is_the_conjugate_lower_ray(self, rng):
        f = fc.library("zexp")
        spec = fc.default_contour(_sylvester_dense(rng, 8), f)
        for _, t in spec.levels():
            r, w = spec.nodes(t)
            z, _ = fc._contour_coefficients((f,), spec, (r, w))
            assert np.array_equal(z[r.size:], z[: r.size].conj())

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_extended_matches_paired_looped_sweeps(self, rng, complex_entries):
        # zis:0.8 is not conjugate-symmetric: f(conj z) != conj f(z)
        op = _sylvester_dense(rng, 5)
        if complex_entries:
            op = _complex_dense(op)
        f, g = fc.library("zis:0.8"), fc.library("g")
        fg = fc.product_fn(f, g)
        spec = fc.default_contour(op, fg)
        fg_s, g_s = _looped_contour(op, fg, spec), _looped_contour(op, g, spec)
        p0 = op.kernel_projection().symbol
        eye = np.eye(p0.shape[0])
        ref = (eye - p0) @ np.linalg.solve(g_s + p0, fg_s)
        out = fc.extended_calculus(op, f).symbol
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_short_last_lower_ray_chunk(self, rng, monkeypatch, complex_entries):
        # the first level of the dense8 rule: 25 nodes per ray in chunks of 16
        op = _sylvester_dense(rng, 8)
        if complex_entries:
            op = _complex_dense(op)
        f = fc.library("sqrtzexp")
        spec = fc.default_contour(op, f)
        r, w = spec.nodes(next(spec.levels())[1])
        per_chunk = fc._BATCH_ENTRIES // 64**2
        assert r.size % per_chunk  # 25 = 16 + 9
        ref = _looped_contour(op, f, spec, (r, w))
        z, c = fc._contour_coefficients((f,), spec, (r, w))
        invs = _count_calls(monkeypatch, "inv")
        out = fc._resolvent_sums(z, c, op.symbol)[0]
        chunks = [16, 16, 9, 9] if complex_entries else [16, 9]
        assert [sh[0] for sh in invs] == chunks
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_extended_matches_two_looped_sweeps(self):
        op = fc.LeftMult(np.array([[0.5, 0.8], [0.0, 2.0]]))
        f = fc.library("zis:0.8")
        fg = fc.product_fn(f, fc.library("g"))
        spec = fc.default_contour(op, fg)
        fg_s, g_s = _looped_contour(op, fg, spec), _looped_contour(op, fc.library("g"), spec)
        p0 = op.kernel_projection().symbol
        ref = (np.eye(2) - p0) @ np.linalg.solve(g_s + p0, fg_s)
        out = fc.extended_calculus(op, f).symbol
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("entrywise", [False, True])
    def test_slow_decay_warns_for_each_function(self, entrywise):
        op = (fc.SchurMult if entrywise else fc.LeftMult)(np.diag([1.0, 2.0]) + 1.0)
        slow = fc.make_hinf0(3.0, lambda z: z**0.05 / (1.0 + z) ** 0.1, s=0.05, name="slow")
        with pytest.warns(fc.ContourTruncationWarning, match="truncate slow ") as rec:
            fc.contour_calculus(op, slow)
        assert [w.filename for w in rec] == [__file__]
        # the functions of one sweep are checked one by one: a rule centred
        # e^60 away cuts fg and g off where g has not yet decayed
        g = fc.library("g")
        off = fc.ContourSpec(gamma=1.5, c=60.0)
        with pytest.warns(fc.ContourTruncationWarning) as rec:
            fc._contour_symbols(type(op)(np.zeros((2, 2))), (fc.product_fn(slow, g), g), off)
        names = [str(w.message).split("truncate ")[1].split()[0] for w in rec]
        assert names == ["slow*g", "g"]

    # e^{-tz} turns at |z| = 1/t and gn:<n>'s poles sit at -n and -1/n
    @pytest.mark.parametrize(
        "fid", ["g", "sqrtzexp", "zexp", "heat:1e-5", "heat:1e5", "gn:1000000"]
    )
    @pytest.mark.parametrize(
        "spectrum",
        [
            [0.0, 1e-4, 1e4],  # hi/lo = 1e8 around the unit circle, and a kernel point
            [0.0, 1e-8, 1.0],  # hi/lo = 1e8 below it: e^{-z} turns above the window
            [1e-5, 3e-5],  # far below it, where g turns at |z| = 1
            [0.5, 1.0, 2.0],  # on it: only f's own scale can lie far off
        ],
    )
    def test_matches_oracle_on_wide_windows(self, spectrum, fid):
        op = fc.LeftMult(np.diag(spectrum))
        f = fc.library(fid)
        out = fc.contour_calculus(op, f).a
        oracle = fc.eigen_calculus(op, f).a
        assert np.max(np.abs(out - oracle)) <= 1e-8 * np.max(np.abs(oracle))

    def test_default_rule_step(self):
        # a one-point window and one of width e^20 take the same step, the
        # wide one on more nodes
        g = fc.library("g")
        spec = fc.default_contour(fc.LeftMult(np.diag([1.0])), g)
        wide = fc.default_contour(fc.LeftMult(np.diag([math.exp(-10.0), math.exp(10.0)])), g)
        assert wide.half_width == pytest.approx(10.0)
        assert all(0.98 * fc.CONTOUR_STEP < s.rule()[2] <= fc.CONTOUR_STEP for s in (spec, wide))
        assert wide.rule()[0].size > spec.rule()[0].size + 150


class TestApproximationAndLaplace:
    @pytest.mark.filterwarnings("ignore::nclp.funcalc.ContourTruncationWarning")
    def test_gn_approximation_monotone(self):
        # ||g_n(A)x - x|| decreases in n on the range component; the scalar
        # defect is (1 + lam^2)/(n lam) + O(1/n^2), so 1e-2 needs n = 256.
        op = fc.LeftMult(np.diag([0.8, 1.0, 1.25]))
        x = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        errs = []
        for n in (1, 4, 16, 64, 256):
            gn = fc.contour_calculus(op, fc.library(f"gn:{n}"))
            errs.append(np.linalg.norm(gn.apply(x) - x, 2))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert errs[-1] <= 1e-2

    def test_laplace_formula(self):
        # R(z, A) = - int_0^infty e^{tz} T_t dt for Re z < 0
        op = fc.LeftMult(np.diag([0.5, 1.0, 2.0]))
        z = -1.5 + 0.7j
        t_nodes = np.exp(np.linspace(math.log(1e-9), math.log(2e3), 3000))
        w = np.full(t_nodes.size, math.log(t_nodes[1] / t_nodes[0]))
        w[0] *= 0.5
        w[-1] *= 0.5
        acc = np.zeros((3, 3), dtype=complex)
        for t, wt in zip(t_nodes, w):
            acc += wt * t * cmath.exp(t * z) * fc.eigen_calculus(
                op, lambda lam, t=t: np.exp(-t * lam)
            ).a
        r = fc.resolvent(op, z).a
        assert np.max(np.abs(r + acc)) <= 1e-6


class TestSectorType:
    def test_omega_from_spectrum(self):
        op = fc.LeftMult(np.diag([1.0, cmath.exp(1j * math.pi / 6)]))
        prof = fc.sector_type(op)
        assert prof.omega_hat == pytest.approx(math.pi / 6, abs=1e-12)

    def test_positive_selfadjoint_resolvent_bound(self, rng):
        a = random_matrix(rng, 3)
        op = fc.LeftMult(a.conj().T @ a + 0.1 * np.eye(3))
        prof = fc.sector_type(op, p=2.0)
        assert prof.omega_hat == pytest.approx(0.0, abs=1e-9)
        for theta, k in prof.constants:
            assert k <= 1.0 / math.sin(theta) + 1e-6

    def test_shift_shrinks_angle(self):
        a = np.diag([cmath.exp(1j * 0.5), cmath.exp(-1j * 0.5), 2.0])
        angles = []
        for eps in (0.0, 0.5, 2.0):
            op = fc.LeftMult(a + eps * np.eye(3))
            angles.append(op.sector_angle())
        assert angles[0] >= angles[1] >= angles[2]

    def test_no_test_angle_below_pi_is_refused(self):
        # the spectrum {-1, 1} gives the type angle pi: no test angle is left
        with pytest.raises(ValueError, match="type angle 3.142 leaves no test angle"):
            fc.sector_type(fc.LeftMult(np.diag([-1.0, 1.0])))

    def test_pnorm_lower_bound_diag(self):
        op = fc.LeftMult(np.diag([0.5, 2.0, 1.0]))
        est = fc._family_opnorm_lower([op], 4.0, starts=10, iters=30, seed=1).lower
        assert est == pytest.approx(2.0, rel=1e-6)
        assert est <= 2.0 + 1e-9


class TestOpnorm:
    """``norm_bounds(p)``: closed at the exact S^p -> S^p norm, with a
    witness, where the kind knows it; the open ``Bound(0.0)`` elsewhere."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, math.inf])
    def test_multiplication_norm_is_the_top_singular_value(self, rng, side, p):
        a = random_matrix(rng, 3)
        assert not np.allclose(a @ a.conj().T, a.conj().T @ a)  # non-normal
        top = float(np.linalg.svd(a)[1][0])
        op = fc.LeftMult(a) if side == "left" else fc.RightMult(a)
        assert op.norm_bounds(p) == Bound(top, top)
        # a rank-one x along a top singular vector attains it
        u, _, vh = np.linalg.svd(a)
        w = random_matrix(rng, 3)[:, :1]
        x = vh[0].conj()[:, None] @ w.conj().T if side == "left" else w @ u[:, 0].conj()[None, :]
        assert schatten_norm(op.apply(x), p) / schatten_norm(x, p) == pytest.approx(top, rel=1e-14)
        # and the power ascent, a lower bound, never passes it
        dag = op.dagger()
        x0s = np.stack([random_matrix(rng, 3) for _ in range(6)])
        best, _ = power_ascent(lambda xs, idx: op.apply(xs), lambda xs, idx: dag.apply(xs),
                               x0s, p, 30)
        assert np.max(best) <= top * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_amplification_returns_the_base_value(self, rng, p):
        base = fc.LeftMult(random_matrix(rng, 2))
        assert fc.AmplifiedOp(base, 3).norm_bounds(p) == base.norm_bounds(p)

    @pytest.mark.parametrize("kind", ["schur", "dense", "amplified"])
    def test_no_value_off_p2(self, rng, kind):
        # "amplified" is an amplified Schur multiplier
        b = _every_kind(rng)[kind].norm_bounds(4.0)
        assert b == Bound(0.0) and b.witness is None

    @staticmethod
    def _witness_cases(rng):
        """(op, p) for every exact kind: multiplications at p != 2, the
        Pauli multiplier and base-class kinds at p = 2, and amplifications."""
        every = _every_kind(rng)
        cases = [(every[side], p) for side in ("left", "right")
                 for p in (1.0, 1.5, 4.0, math.inf)]
        cases += [(fc.PauliMult(random_matrix(rng, 4)), 2.0), (every["condexp"], 2.0),
                  (every["clifford"], 2.0)]
        cases += [(every[k], 2.0) for k in ("schur", "sandwich", "adpair", "dense")]
        return cases + [(fc.AmplifiedOp(op, 2), p) for op, p in cases]

    def test_witness_attains_the_norm(self, rng):
        for op, p in self._witness_cases(rng):
            b = op.norm_bounds(p)
            assert b.within(0.0), (op, p)
            assert b.witness.shape == (op.dim, op.dim)
            assert schatten_norm(b.witness, p) == pytest.approx(1.0, rel=1e-14), (op, p)
            attained = schatten_norm(op.apply(b.witness), p)
            assert attained == pytest.approx(b.lower, rel=1e-14), (op, p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, math.inf])
    def test_no_witness_without_a_norm(self, rng, p):
        every = _every_kind(rng)
        ops = [every[k] for k in ("schur", "sandwich", "adpair", "dense", "amplified")]
        ops += [fc.PauliMult(random_matrix(rng, 4)), fc.AmplifiedOp(fc.PauliMult(np.eye(2)), 2)]
        for op in ops:
            b = op.norm_bounds(p)
            assert b == Bound(0.0) and b.witness is None, op

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_family_bounds_of_each_kind(self, rng, p):
        every = _every_kind(rng)
        both = {"col", "row"} if p == 2.0 else set()
        assert every["left"].family_bounds(p) == both | {"col"}
        assert every["right"].family_bounds(p) == both | {"row"}
        assert fc.AmplifiedOp(every["right"], 2).family_bounds(p) == both | {"row"}
        for kind in ("schur", "dense", "amplified"):
            assert every[kind].family_bounds(p) == both

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_multiplier_norm_is_the_top_symbol(self, rng, monkeypatch, n):
        """Every entrywise kind: the S^2 norm is max |symbol| and the witness
        a frame vector, both with no dense form built."""
        gens, d = clifford.spin_generators(n), 2**n
        (u, _), (v, _) = np.linalg.qr(random_matrix(rng, d)), np.linalg.qr(random_matrix(rng, d))
        h = random_matrix(rng, d)
        h = h + h.conj().T
        ops = [clifford.number_operator(gens), clifford.clifford_semigroup(gens, 0.4),
               clifford.clifford_multiplier(gens, lambda m: m ** 0.8j),
               martingale.CondExpOp(martingale.MartingaleTower(n), n - 1),
               fc.PauliMult(random_matrix(rng, d)), fc.SchurMult(random_matrix(rng, d)),
               fc.SandwichSchur(u, v, random_matrix(rng, d)), fc.AdPair(h, h.T),
               fc.AmplifiedOp(fc.SchurMult(random_matrix(rng, d)), 3)]
        dense = [float(np.linalg.norm(op.to_dense(), 2)) for op in ops]
        monkeypatch.setattr(fc.LpOperator, "to_dense", _refuse_dense)
        for op, ref in zip(ops, dense):
            b = op.norm_bounds(2.0)
            assert b.within(0.0) and b.lower == pytest.approx(ref, rel=1e-12), op
            assert np.linalg.norm(b.witness) == pytest.approx(1.0, rel=1e-14), op
            assert np.linalg.norm(op.apply(b.witness)) == pytest.approx(b.lower, rel=1e-12), op
            assert op.norm_bounds(4.0) == Bound(0.0)
        assert ops[0].norm_bounds(2.0).lower == n  # the dense form reads 3 - 1.3e-15 at n = 3

    def test_sector_type_of_a_pauli_multiplier_builds_no_dense_form(self, monkeypatch):
        """The dense forms are 256 x 256 (n = 4 Pauli multiplier), 144 x 144
        (``schurlin:12``) and 64 x 64 (a positive AdPair); every ray member's
        S^2 norm is max |symbol| instead, the sup over the spectrum."""
        ops = [clifford.number_operator(clifford.spin_generators(4)),
               schur.schur_generator(schur.collinear_symbol(12)),
               fc.AdPair(np.diag(np.arange(5.0, 13.0)), np.diag(np.arange(0.0, 4.0, 0.5)))]
        monkeypatch.setattr(fc.LpOperator, "to_dense", _refuse_dense)
        for op in ops:
            prof = fc.sector_type(op, p=2.0)
            assert prof.exact
            lam = op.spectrum()
            radii = np.logspace(-3, 3, fc.SECTOR_RAY_POINTS // 2) * np.max(np.abs(lam))
            for theta, k in prof.constants:
                zs = np.array([r * cmath.exp(1j * s * theta) for r in radii for s in (1, -1)])
                ref = float(np.max(np.abs(zs[:, None] / (zs[:, None] - lam))))
                assert k == pytest.approx(ref, rel=1e-14), op

    def test_sector_constants_of_a_multiplication_are_exact(self):
        a = np.diag([1.0, 2.0])
        prof = fc.sector_type(fc.LeftMult(a), p=4.0)
        assert prof.exact
        radii = np.logspace(-3, 3, fc.SECTOR_RAY_POINTS // 2) * 2.0
        for theta, k in prof.constants:
            zs = [r * cmath.exp(1j * s * theta) for r in radii for s in (1, -1)]
            ref = max(np.linalg.norm(z * np.linalg.inv(z * np.eye(2) - a), 2) for z in zs)
            assert k == pytest.approx(ref, rel=1e-14)

    def test_exact_only_where_every_member_has_a_value(self):
        schur = fc.SchurMult(np.array([[1.0, 2.0], [0.5, 1.5]]))
        assert fc.sector_type(schur, p=2.0).exact
        assert not fc.sector_type(schur, p=4.0).exact
        assert fc.sector_type(fc.RightMult(np.diag([1.0, 3.0])), p=1.5).exact

    def test_multiplication_kinds_never_ascend(self, monkeypatch):
        calls, ascent = [], fc.power_ascent

        def counting(*args):
            calls.append(args[3])
            return ascent(*args)

        monkeypatch.setattr(fc, "power_ascent", counting)
        a = np.diag([1.0, 2.0])
        for op in (fc.LeftMult(a), fc.RightMult(a), fc.AmplifiedOp(fc.LeftMult(a), 2)):
            fc.sector_type(op, p=4.0)
        assert calls == []
        fc.sector_type(fc.SchurMult(a + 1.0), p=4.0)
        assert calls == [4.0] * 5  # the patch sees every ascent that runs


class TestIntegralIdentities:
    def test_group_average_zero(self):
        assert fc.group_average_identity(np.zeros((2, 2))) <= 1e-14

    def test_group_average_diag(self):
        assert fc.group_average_identity(np.diag([1.0, 2.0]), n_nodes=64) <= 1e-8

    def test_group_average_ad(self):
        a = np.diag([0.0, 1.0])
        assert fc.group_average_identity(a, a, n_nodes=64) <= 1e-8

    def test_subordination_t_zero(self):
        resid, mass = fc.subordination_identity(np.diag([1.0, 3.0]), 0.0)
        assert resid <= 1e-10
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_subordination_scalar(self):
        resid, _ = fc.subordination_identity(np.diag([1.0]), 1.0)
        assert resid <= 1e-6

    def test_subordination_ad_square(self):
        ad = fc.AdPair(np.diag([0.0, 1.0, 3.0]), np.diag([0.0, 1.0, 3.0]))
        c = fc.SandwichSchur(ad.u, ad.v, ad.w**2)
        resid, _ = fc.subordination_identity(c, 0.7)
        assert resid <= 1e-5

    def test_subordination_rejects_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="generator is not hermitian"):
            fc.subordination_identity(np.array([[2.0, 0.5], [0.0, 2.0]]), 1.0)

    def test_subordination_rejects_negative(self):
        with pytest.raises(ValueError):
            fc.subordination_identity(np.diag([-1.0]), 1.0)

    @pytest.mark.parametrize("as_operator", [False, True])
    def test_subordination_rejects_non_psd_in_both_forms(self, as_operator):
        c = np.diag([-1.0, 2.0])
        with pytest.raises(ValueError, match="generator must be PSD"):
            fc.subordination_identity(fc.LeftMult(c) if as_operator else c, 1.0)


class TestChoi:
    def test_identity_map_cp(self):
        op = fc.SchurMult(np.ones((2, 2)))
        lam = np.linalg.eigvalsh(fc.choi_matrix(op))
        assert lam[0] >= -1e-12

    def test_non_cp_map_detected(self):
        # Schur multiplier by a non-PSD symbol is not completely positive
        op = fc.SchurMult(np.array([[1.0, 2.0], [2.0, 1.0]]))
        lam = np.linalg.eigvalsh(fc.choi_matrix(op))
        assert lam[0] < -1e-6


class TestImaginaryPowerEnvelope:
    def test_sup_norm_on_sector_matches_exponential_bound(self):
        # |z^{is}| on the sector of half-angle theta peaks at e^{theta |s|}
        s = 1.3
        f = fc.library(f"zis:{s}")
        theta = 1.1
        radii = np.logspace(-3, 3, 11)
        angles = np.linspace(-theta, theta, 41)
        z = radii[:, None] * np.exp(1j * angles)[None, :]
        sup = float(np.max(np.abs(f(z))))
        assert sup == pytest.approx(math.exp(theta * s), rel=1e-6)
        assert sup <= math.exp(f.theta * s) + 1e-9


class TestOracleFuzz:
    def test_random_structured_operators_match_eigen(self, rng):
        # randomized sweep beyond the fixed acceptance matrix: positive
        # spectra drawn at random for each structured kind
        fids = ["g", "zexp", "sqrtzexp", "zis:0.9"]
        for trial in range(6):
            d = int(rng.integers(2, 6))
            pos = rng.uniform(0.2, 5.0, size=d)
            herm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            herm = herm @ herm.conj().T / d + 0.3 * np.eye(d)
            u0, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            v0, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            ops = [
                fc.LeftMult(np.diag(pos)),
                fc.LeftMult(herm),
                fc.RightMult(herm),
                fc.SchurMult(rng.uniform(0.1, 4.0, size=(d, d))),
                fc.SandwichSchur(u0, v0, rng.uniform(0.2, 3.0, size=(d, d))),
            ]
            for op in ops:
                for fid in fids:
                    f = fc.library(fid)
                    approx = (
                        fc.contour_calculus(op, f)
                        if f.klass == "hinf0"
                        else fc.extended_calculus(op, f)
                    )
                    oracle = fc.eigen_calculus(op, f)
                    num = float(np.max(np.abs(approx.to_dense() - oracle.to_dense())))
                    den = max(float(np.max(np.abs(oracle.to_dense()))), 1e-300)
                    assert num / den <= 1e-6, (type(op).__name__, fid, num / den)

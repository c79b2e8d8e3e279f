import math

import numpy as np
import pytest

from nclp import core, hvnorms
from nclp.optim import ConvexCfg

from conftest import random_family, random_matrix, unit


class TestColRow:
    def test_singleton(self, rng):
        x = random_matrix(rng, 3)
        for p in (1, 2, 3, math.inf):
            n = core.schatten_norm(x, p)
            assert hvnorms.col_norm([x], p) == pytest.approx(n, rel=1e-10)
            assert hvnorms.row_norm([x], p) == pytest.approx(n, rel=1e-10)

    def test_matrix_unit_family_p3(self):
        xs = [unit(2, 0, 0), unit(2, 1, 0)]
        # sum x*x = 2 E11, sum xx* = I2
        assert hvnorms.col_norm(xs, 3) == pytest.approx(math.sqrt(2), rel=1e-12)
        assert hvnorms.row_norm(xs, 3) == pytest.approx(2 ** (1 / 3), rel=1e-12)
        assert hvnorms.intersection_norm(xs, 3) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_col_p2_is_l2_sum(self, rng):
        xs = random_family(rng, 4, 3)
        expected = math.sqrt(sum(core.schatten_norm(x, 2) ** 2 for x in xs))
        assert hvnorms.col_norm(xs, 2) == pytest.approx(expected, rel=1e-10)

    def test_row_is_col_of_adjoints(self, rng):
        xs = random_family(rng, 3, 4)
        adj = [core.adjoint(x) for x in xs]
        for p in (1, 2.5, 4):
            assert hvnorms.row_norm(xs, p) == pytest.approx(
                hvnorms.col_norm(adj, p), rel=1e-10
            )

    def test_stacked_matrix_oracle(self, rng):
        # col norm equals the Schatten norm of the vertically stacked block
        # column, row norm the one of the horizontal block row.
        xs = random_family(rng, 5, 3)
        v = np.vstack(xs)
        h = np.hstack(xs)
        for p in (1, 1.5, 2, 4):
            assert hvnorms.col_norm(xs, p) == pytest.approx(
                core.schatten_norm(v, p), rel=1e-9
            )
            assert hvnorms.row_norm(xs, p) == pytest.approx(
                core.schatten_norm(h, p), rel=1e-9
            )

    def test_permutation_and_phase_invariance(self, rng):
        xs = random_family(rng, 4, 3)
        perm = [xs[2], xs[0], xs[3], xs[1]]
        phases = [np.exp(2j * np.pi * rng.random()) * x for x in xs]
        for p in (1, 2, 3):
            for f in (hvnorms.col_norm, hvnorms.row_norm, hvnorms.intersection_norm):
                assert f(perm, p) == pytest.approx(f(xs, p), rel=1e-10)
                assert f(phases, p) == pytest.approx(f(xs, p), rel=1e-10)

    def test_monotone_under_member_drop(self, rng):
        xs = random_family(rng, 5, 3)
        for p in (1, 2, 4):
            assert hvnorms.col_norm(xs[:-1], p) <= hvnorms.col_norm(xs, p) + 1e-12
            assert hvnorms.row_norm(xs[:-1], p) <= hvnorms.row_norm(xs, p) + 1e-12

    def test_comparison_at_p1(self, rng):
        # (sum_k ||x_k||_1^2)^{1/2} <= col_norm(xs, 1)
        for _ in range(10):
            xs = random_family(rng, 4, 3)
            lhs = math.sqrt(sum(core.schatten_norm(x, 1) ** 2 for x in xs))
            assert lhs <= hvnorms.col_norm(xs, 1) + 1e-9


    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_rank_one_family_is_frobenius(self, p):
        # x_k = c_k a b*: both moduli are rank one, so both norms are the
        # Frobenius norm of the family; a Gram root misses it by ~1e-8 at p = 1
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fam = [c * np.outer(a, b.conj()) for c in rng.standard_normal(6)]
        fro = float(np.linalg.norm(np.stack(fam)))
        assert hvnorms.col_norm(fam, p) == pytest.approx(fro, rel=1e-14)
        assert hvnorms.row_norm(fam, p) == pytest.approx(fro, rel=1e-14)


class TestGramColNorm:
    def test_identity_gram(self, rng):
        xs = random_family(rng, 3, 3)
        g = np.eye(3)
        for p in (1, 2, 4):
            assert hvnorms.gram_col_norm(xs, g, p) == pytest.approx(
                hvnorms.col_norm(xs, p), rel=1e-10
            )

    @pytest.mark.parametrize("p", [1, 1.5, 4])
    def test_identity_gram_rank_one_family(self, p):
        # a root of the twisted Gram square misses col_norm by 1.9e-8 at p = 1
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coef = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        fam = [c * np.outer(a, b.conj()) for c in coef]
        assert hvnorms.gram_col_norm(fam, np.eye(6), p) == pytest.approx(
            hvnorms.col_norm(fam, p), rel=1e-14
        )

    def test_all_ones_gram(self, rng):
        # all a_k equal: the twisted square is |sum x_k|^2
        xs = random_family(rng, 3, 3)
        g = np.ones((3, 3))
        total = sum(xs)
        for p in (1, 2, 3):
            assert hvnorms.gram_col_norm(xs, g, p) == pytest.approx(
                core.schatten_norm(core.modulus(total), p), rel=1e-9
            )

    def test_scaled_gram(self, rng):
        xs = random_family(rng, 4, 2)
        g = 2.0 * np.eye(4)
        assert hvnorms.gram_col_norm(xs, g, 3) == pytest.approx(
            math.sqrt(2) * hvnorms.col_norm(xs, 3), rel=1e-10
        )

    def test_rejects_non_psd(self, rng):
        xs = random_family(rng, 2, 2)
        with pytest.raises(ValueError):
            hvnorms.gram_col_norm(xs, np.diag([1.0, -1.0]), 2)


class TestTensorExtend:
    def test_identity(self, rng):
        xs = random_family(rng, 3, 2)
        rep = hvnorms.tensor_extend(np.eye(3), xs, 2)
        assert rep.col_out == pytest.approx(rep.col_in, rel=1e-12)
        assert rep.col_contractive and rep.row_contractive

    def test_projection_to_first(self, rng):
        xs = random_family(rng, 3, 2)
        t = np.zeros((1, 3))
        t[0, 0] = 1.0
        rep = hvnorms.tensor_extend(t, xs, 3)
        assert rep.col_out == pytest.approx(core.schatten_norm(xs[0], 3), rel=1e-10)

    def test_random_contraction(self, rng):
        for _ in range(10):
            xs = random_family(rng, 4, 3)
            t = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            t = t / np.linalg.norm(t, 2)
            rep = hvnorms.tensor_extend(t, xs, 1.5)
            assert rep.col_contractive and rep.row_contractive

    def test_rejects_expansion(self, rng):
        xs = random_family(rng, 2, 2)
        with pytest.raises(ValueError):
            hvnorms.tensor_extend(2.0 * np.eye(2), xs, 2)


class TestRadAverage:
    def test_trace_orthogonal_p2(self):
        xs = [unit(2, 0, 0), unit(2, 1, 1)]
        assert hvnorms.rad_average(xs, 2) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_singleton(self, rng):
        x = random_matrix(rng, 3)
        assert hvnorms.rad_average([x], 2.5) == pytest.approx(
            core.schatten_norm(x, 2.5), rel=1e-12
        )

    def test_exact_vs_brute_force(self, rng):
        xs = random_family(rng, 3, 2)
        p = 4
        import itertools

        vals = [
            core.schatten_norm(sum(e * x for e, x in zip(eps, xs)), p)
            for eps in itertools.product((-1, 1), repeat=3)
        ]
        assert hvnorms.rad_average(xs, p) == pytest.approx(np.mean(vals), rel=1e-12)

    def test_montecarlo_agrees_within_stderr(self, rng):
        xs = random_family(rng, 3, 2)
        exact = hvnorms.rad_average(xs, 3)
        mean, stderr = hvnorms.rad_average_mc(xs, 3, samples=100_000, seed=11)
        assert abs(mean - exact) <= 3 * stderr

    def test_montecarlo_deterministic(self, rng):
        xs = random_family(rng, 4, 2)
        a = hvnorms.rad_average_mc(xs, 2, samples=2000, seed=5)
        b = hvnorms.rad_average_mc(xs, 2, samples=2000, seed=5)
        assert a == b

    def test_exact_refuses_large_family(self, rng):
        xs = random_family(rng, 21, 1)
        with pytest.raises(ValueError, match="use rad_average_mc with a seed"):
            hvnorms.rad_average(xs, 2)

    @pytest.mark.parametrize("kind", ["col", "row", "rad"])
    @pytest.mark.parametrize("p", [3.0, 4.0])  # singular values, trace moments
    def test_family_norms_refuse_non_finite(self, rng, kind, p):
        fams = np.stack(random_family(rng, 2, 2))
        fams[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hvnorms.family_norms(kind, fams, p)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_montecarlo_refuses_non_finite(self, rng, p):
        xs = random_family(rng, 2, 2)
        xs[1][0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hvnorms.rad_average_mc(xs, p, samples=100, seed=1)

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_montecarlo_refuses_bad_exponent(self, rng, p):
        with pytest.raises(ValueError, match="Schatten exponent"):
            hvnorms.rad_average_mc(random_family(rng, 2, 2), p, samples=100, seed=1)


class TestSumAndRadNorm:
    def test_singleton(self, rng):
        x = random_matrix(rng, 2)
        val = hvnorms.sum_norm_solve([x], 1, ConvexCfg(iters=200)).value
        assert val == pytest.approx(core.schatten_norm(x, 1), rel=1e-6)

    def test_zero_family(self):
        xs = [np.zeros((2, 2)), np.zeros((2, 2))]
        assert hvnorms.sum_norm_solve(xs, 1.5).value == pytest.approx(0.0, abs=1e-12)

    def test_never_above_endpoints(self, rng):
        for _ in range(5):
            xs = random_family(rng, 3, 2)
            for p in (1, 1.5):
                val = hvnorms.sum_norm_solve(xs, p, ConvexCfg(iters=120)).value
                cap = min(hvnorms.col_norm(xs, p), hvnorms.row_norm(xs, p))
                assert val <= cap + 1e-9

    def test_two_family_against_sdp_oracle(self, rng):
        # Independent oracle: at p = 1 both terms are nuclear norms of
        # stacked blocks, so the infimum is an SDP solved by cvxpy.
        cp = pytest.importorskip("cvxpy")
        xs = random_family(rng, 2, 2)
        fam = hvnorms.as_family(xs)
        n, d1, d2 = fam.shape
        u = cp.Variable((n * d1, d2), complex=True)
        h = np.hstack(list(fam))
        hu = cp.hstack([u[k * d1 : (k + 1) * d1, :] for k in range(n)])
        prob = cp.Problem(cp.Minimize(cp.normNuc(u) + cp.normNuc(h - hu)))
        prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200_000)
        val = hvnorms.sum_norm_solve(xs, 1, ConvexCfg(iters=400)).value
        assert val == pytest.approx(prob.value, abs=1e-3 * max(prob.value, 1.0))

    def test_p_just_above_one_certifies(self):
        # the dual exponent p' ~ 4.5e15 used to overflow the certificate's
        # Schatten norm, reporting lower = 0 and "budget-exhausted"
        xs = np.stack(random_family(np.random.default_rng(0), 2, 2))
        res = hvnorms.sum_norm_solve(xs, 1.0000000000000002)
        assert res.status == "converged"
        assert 0.0 < res.lower <= res.value
        at_one = hvnorms.sum_norm_solve(xs, 1.0)
        assert res.value == pytest.approx(at_one.value, rel=1e-6)

    def test_rad_norm_dispatch(self, rng):
        xs = random_family(rng, 3, 2)
        value, solves = hvnorms.rad_norm(xs, 4)
        assert value == pytest.approx(hvnorms.intersection_norm(xs, 4), rel=1e-12)
        assert solves == ()
        cfg = ConvexCfg(iters=120)
        value, (res,) = hvnorms.rad_norm(xs, 1.5, cfg)  # the solve is kept
        assert value == res.value
        assert value == pytest.approx(hvnorms.sum_norm_solve(xs, 1.5, cfg).value, rel=1e-9)


class TestKhintchine:
    def test_p2_trace_orthogonal(self):
        # For a trace-orthogonal family the sign averages are constant, so
        # the Rademacher average meets the intersection norm exactly.
        xs = [unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2)]
        rep = hvnorms.khintchine_report(xs, 2)
        assert rep.lower_ok
        assert rep.upper_ratio == pytest.approx(1.0, abs=1e-9)

    def test_p4_lower_bound(self, rng):
        for _ in range(10):
            xs = random_family(rng, 4, 3)
            rep = hvnorms.khintchine_report(xs, 4)
            assert (rep.radnorm, rep.solve) == (hvnorms.rad_norm(xs, 4)[0], None)
            assert rep.lower_ok
            assert rep.radavg >= rep.radnorm / math.sqrt(2) - 1e-9

    def test_p1_sum_side(self, rng):
        for _ in range(5):
            xs = random_family(rng, 3, 2)
            rep = hvnorms.khintchine_report(xs, 1, ConvexCfg(iters=200))
            value, (res,) = hvnorms.rad_norm(xs, 1, ConvexCfg(iters=200))
            assert rep.radnorm == value
            assert (rep.solve.lower, rep.solve.upper) == (res.lower, res.upper)
            assert rep.side == "sum"
            assert rep.lower_ok  # rad average below the sum norm
            assert rep.radavg <= rep.radnorm + 1e-6


class TestDuality:
    def test_dual_witness_attains(self, rng):
        for p in (1.5, 2, 3, 4):
            xs = random_family(rng, 3, 3)
            ys, pairing = hvnorms.col_dual_witness(xs, p)
            pp = core.conjugate_exponent(p)
            assert hvnorms.row_norm(ys, pp) == pytest.approx(1.0, rel=1e-8)
            ratio = abs(pairing) / hvnorms.col_norm(xs, p)
            assert ratio >= 1 - 1e-6
            assert ratio <= 1 + 1e-6


class TestSolverSanityAtP2:
    def test_sum_norm_p2_equals_plain_norm(self, rng):
        # at p = 2 column and row norms coincide with the Hilbert norm, so
        # the decomposition infimum collapses to the norm itself -- a
        # closed-form convergence check for the solver
        xs = random_family(rng, 3, 3)
        target = hvnorms.intersection_norm(xs, 2)
        val = hvnorms.sum_norm_solve(xs, 2, ConvexCfg(iters=200)).value
        assert val == pytest.approx(target, rel=1e-6)

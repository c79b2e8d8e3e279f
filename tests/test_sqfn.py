import math

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp import hvnorms, sqfn
from nclp.core import schatten_norm
from nclp.models import martingale
from nclp.optim import ConvexCfg

from conftest import grid_cf, random_matrix


@pytest.fixture
def posdiag_op():
    return fc.LeftMult(np.diag([0.5, 1.0, 2.5, 4.0]))


class TestLogGrid:
    def test_weights_sum_to_log_ratio(self):
        g = sqfn.LogGrid.make(1e-3, 1e3, 128)
        assert g.w.sum() == pytest.approx(math.log(1e6), rel=1e-12)

    def test_for_operator_covers_spectrum(self, posdiag_op):
        g = sqfn.LogGrid.for_operator(posdiag_op)
        assert g.t_min <= 1e-12 / 4.0 * (1 + 1e-12)
        assert g.t_max >= 1e6 / 0.5 * (1 - 1e-12)

    def test_cf_golden_value(self, posdiag_op):
        # int_0^inf |sqrt(t) e^-t|^2 dt/t = 1/2
        g = sqfn.LogGrid.for_operator(posdiag_op)
        assert grid_cf(fc.library("sqrtzexp"), g) ** 2 == pytest.approx(
            0.5, abs=1e-8
        )

    def test_cf_scale_invariance(self, posdiag_op):
        g = sqfn.LogGrid.for_operator(posdiag_op)
        f = fc.library("sqrtzexp")
        base = grid_cf(f, g)
        for lam in (0.5, 1.0, 4.0):
            assert grid_cf(f, g, scale=lam) == pytest.approx(base, abs=1e-11)


class TestSqColRow:
    @pytest.mark.parametrize("fid", ["g", "gn:2", "zexp", "sqrtzexp", "heat:0.7"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_left_diag_scalar_identity(self, rng, posdiag_op, fid, p):
        # for left multiplication by a positive diagonal the column square
        # function collapses to c_F(grid) times the Schatten norm
        f = fc.library(fid)
        grid = sqfn.LogGrid.for_operator(posdiag_op)
        x = random_matrix(rng, 4)
        val = sqfn.sq_col(posdiag_op, x, f, grid, p)
        ref = grid_cf(f, grid) * schatten_norm(x, p)
        assert val == pytest.approx(ref, abs=1e-10 * max(1.0, ref))

    def test_zero_matrix(self, posdiag_op):
        f = fc.library("sqrtzexp")
        assert sqfn.sq_col(posdiag_op, np.zeros((4, 4)), f) == 0.0
        assert sqfn.sq_row(posdiag_op, np.zeros((4, 4)), f) == 0.0

    def test_hermitian_commuting_row_equals_col(self, rng):
        sym = np.array([[1.0, 2.0], [2.0, 3.0]])
        op = fc.SchurMult(sym)
        x = random_matrix(rng, 2)
        x = 0.5 * (x + x.conj().T)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op)
        assert sqfn.sq_row(op, x, f, grid, 3.0) == pytest.approx(
            sqfn.sq_col(op, x, f, grid, 3.0), rel=1e-10
        )

    def test_p2_col_of_op_is_row_of_dagger_on_adjoint(self, rng):
        sym = np.array([[1.0, 0.5], [0.5, 2.0]])
        op = fc.SchurMult(sym)
        x = random_matrix(rng, 2)
        f = fc.library("sqrtzexp")
        grid = sqfn.LogGrid.for_operator(op)
        lhs = sqfn.sq_col(op, x, f, grid, 2.0)
        rhs = sqfn.sq_row(op.dagger(), x.conj().T, f, grid, 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_vanishes_exactly_on_kernel(self):
        m = np.array([[0.0, 1.0], [2.0, 3.0]])
        op = fc.SchurMult(m)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op)
        x_ker = np.array([[5.0, 0.0], [0.0, 0.0]])  # supported where symbol is 0
        assert sqfn.sq_col(op, x_ker, f, grid, 2.0) <= 1e-8
        proj = op.kernel_projection()
        x = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        val = sqfn.sq_col(op, x, f, grid, 2.0)
        range_part = x - proj.apply(x)
        assert (val <= 1e-8) == (np.max(np.abs(range_part)) <= 1e-8)

    def test_function_comparability_band(self, rng, posdiag_op):
        # ratios of square functions for two decaying functions stay in the
        # band of the scalar per-eigenvalue ratios
        grid = sqfn.LogGrid.for_operator(posdiag_op)
        f, g = fc.library("zexp"), fc.library("sqrtzexp")
        lam = np.diag(posdiag_op.a).real
        scal = [grid_cf(f, grid, l) / grid_cf(g, grid, l) for l in lam]
        lo, hi = min(scal), max(scal)
        for _ in range(10):
            x = random_matrix(rng, 4)
            r = sqfn.sq_col(posdiag_op, x, f, grid, 3.0) / sqfn.sq_col(
                posdiag_op, x, g, grid, 3.0
            )
            assert lo - 1e-9 <= r <= hi + 1e-9


class TestSqRadAndBracket:
    def test_p2_all_equal(self, rng, posdiag_op):
        x = random_matrix(rng, 4)
        f = fc.library("sqrtzexp")
        grid = sqfn.LogGrid.for_operator(posdiag_op)
        c = sqfn.sq_col(posdiag_op, x, f, grid, 2.0)
        r = sqfn.sq_row(posdiag_op, x, f, grid, 2.0)
        s = sqfn.sq_rad(posdiag_op, x, f, grid, 2.0)
        assert c == pytest.approx(r, rel=1e-9)
        assert s == pytest.approx(max(c, r), rel=1e-12)

    def test_p4_is_max(self, rng):
        op = fc.SchurMult(np.array([[1.0, 2.0], [0.5, 3.0]]))
        x = random_matrix(rng, 2)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op)
        assert sqfn.sq_rad(op, x, f, grid, 4.0) == pytest.approx(
            max(
                sqfn.sq_col(op, x, f, grid, 4.0),
                sqfn.sq_row(op, x, f, grid, 4.0),
            ),
            rel=1e-12,
        )

    def test_p_below_two_below_endpoints(self, rng):
        op = fc.SchurMult(np.array([[1.0, 2.0], [0.5, 3.0]]))
        x = random_matrix(rng, 2)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op, n=96)
        cfg = ConvexCfg(iters=120)
        val = sqfn.sq_rad(op, x, f, grid, 1.5, cfg)
        cap = min(sqfn.sq_col(op, x, f, grid, 1.5), sqfn.sq_row(op, x, f, grid, 1.5))
        assert val <= cap + 1e-6

    def test_bracket_zero(self, posdiag_op):
        f = fc.library("sqrtzexp")
        res = sqfn.bracket_norm(
            posdiag_op, np.zeros((4, 4)), f, p=1.5, cfg=ConvexCfg(iters=60)
        )
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_bracket_below_col_endpoint(self, rng):
        sym = np.array([[1.0, 0.5], [0.5, 2.0]])
        op = fc.SchurMult(sym)
        x = random_matrix(rng, 2)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op, n=96)
        res = sqfn.bracket_norm(op, x, f, grid, 1.5, ConvexCfg(iters=120))
        assert res.value <= sqfn.sq_col(op, x, f, grid, 1.5) + 1e-9
        # witness is a genuine splitting: re-evaluate the objective
        x1 = res.minimizer
        direct = sqfn.sq_col(op, x1, f, grid, 1.5) + sqfn.sq_row(op, x - x1, f, grid, 1.5)
        assert direct == pytest.approx(res.value, rel=1e-9)

    def test_bracket_dominates_sq_rad(self, rng):
        sym = np.array([[1.0, 0.5], [0.5, 2.0]])
        op = fc.SchurMult(sym)
        x = random_matrix(rng, 2)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op, n=96)
        cfg = ConvexCfg(iters=150)
        bracket = sqfn.bracket_norm(op, x, f, grid, 1.5, cfg).value
        rad = sqfn.sq_rad(op, x, f, grid, 1.5, cfg)
        assert bracket / rad >= 1 - 1e-6


def count_frames(op):
    """Wrap op.frame so that op.frames counts the eigenframe builds."""
    build = op.frame
    op.frames = 0

    def counted():
        op.frames += 1
        return build()

    op.frame = counted
    return op


class TestOneNodeFamily:
    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_report_builds_one_family(self, rng, p):
        op = fc.LeftMult(np.array([[1.0, 0.4, 0.0], [0.4, 2.0, 0.3], [0.0, 0.3, 0.5]]))
        x = random_matrix(rng, 3)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op, n=96)
        cfg = ConvexCfg(iters=40)
        rep = sqfn.square_report(count_frames(op), x, f, grid, p, cfg)
        assert op.frames == 1
        assert rep.col == sqfn.sq_col(op, x, f, grid, p)
        assert rep.row == sqfn.sq_row(op, x, f, grid, p)
        assert rep.rad == sqfn.sq_rad(op, x, f, grid, p, cfg)
        # the bracket norm is built exactly when p < 2
        if p < 2:
            assert rep.bracket == sqfn.bracket_norm(op, x, f, grid, p, cfg).value
        else:
            assert rep.bracket is None

    def test_equivalence_builds_one_family(self, posdiag_op):
        f = fc.library("sqrtzexp")
        rep = sqfn.equivalence_experiment(
            count_frames(posdiag_op), f, 4.0, sample_count=5, seed=2, variant="rad"
        )
        assert posdiag_op.frames == 1
        rng = np.random.default_rng(2)
        ratios = []
        for _ in range(5):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            ratios.append(sqfn.sq_rad(posdiag_op, x, f, p=4.0) / schatten_norm(x, 4.0))
        assert rep.k2_hat == max(ratios)

    def test_rejects_operator_outside_function_sector(self, rng):
        # spectrum a_i - b_j includes -2 and -1: type angle pi
        op = fc.AdPair(np.diag([1.0, 2.0]), np.diag([0.5, 3.0]))
        calls = []
        f = fc.make_hinf(fc.library("zexp").theta, lambda z: calls.append(z) or z, name="f")
        with pytest.raises(ValueError, match="type angle 3.142 is not below the function sector 1.400"):
            sqfn.sq_col(op, random_matrix(rng, 2), f)
        assert calls == []  # refused before F is evaluated


class TestEquivalence:
    def test_scalar_case_constants(self, posdiag_op):
        f = fc.library("sqrtzexp")
        grid = sqfn.LogGrid.for_operator(posdiag_op)
        rep = sqfn.equivalence_experiment(
            posdiag_op, f, 2.0, sample_count=12, seed=3, grid=grid, variant="col"
        )
        assert rep.k1_hat == pytest.approx(1 / math.sqrt(2), abs=1e-4)
        assert rep.k2_hat == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_kernel_direction_carried_by_projection(self):
        m = np.array([[0.0, 1.0], [2.0, 3.0]])
        op = fc.SchurMult(m)
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op)
        proj = op.kernel_projection()
        x = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # pure kernel
        assert sqfn.sq_col(op, x, f, grid, 2.0) <= 1e-10
        assert schatten_norm(proj.apply(x), 2.0) == pytest.approx(1.0)

    def test_normal_operator_band_at_p2(self, rng):
        lam = np.array([0.5, 1.0, 3.0])
        op = fc.LeftMult(np.diag(lam))
        f = fc.library("zexp")
        grid = sqfn.LogGrid.for_operator(op)
        rep = sqfn.equivalence_experiment(
            op, f, 2.0, sample_count=20, seed=9, grid=grid, variant="rad"
        )
        scal = [grid_cf(f, grid, l) for l in lam]
        assert min(scal) - 1e-9 <= rep.k1_hat <= max(scal) + 1e-9
        assert min(scal) - 1e-9 <= rep.k2_hat <= max(scal) + 1e-9


class TestRowColGap:
    def test_coefficients(self):
        d = sqfn.dyadic_gap_coefficients(3)
        assert d[0] == pytest.approx(0.5)
        assert d[1] == pytest.approx(math.sqrt(2) / 3.0)
        assert d[2] == pytest.approx(0.4)

    def test_column_value(self):
        for n in (4, 8):
            rep = sqfn.row_col_gap(n, 4.0)
            assert rep.fc_val == pytest.approx(math.sqrt(n / 2.0), abs=1e-10)

    def test_ratio_grows(self):
        r4 = sqfn.row_col_gap(4, 4.0).ratio
        r16 = sqfn.row_col_gap(16, 4.0).ratio
        assert r16 > r4

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            sqfn.row_col_gap(4, 2.0)


class TestGridRobustness:
    def test_refinement_stability(self, rng, posdiag_op):
        f = fc.library("sqrtzexp")
        g1 = sqfn.LogGrid.for_operator(posdiag_op)
        g2 = g1.refine(n_factor=2, widen=10.0)
        x = random_matrix(rng, 4)
        for p in (1.5, 2.0, 4.0):
            a = sqfn.sq_col(posdiag_op, x, f, g1, p)
            b = sqfn.sq_col(posdiag_op, x, f, g2, p)
            assert abs(a - b) <= 1e-4 * a

    def test_monotone_in_window(self, rng, posdiag_op):
        # the accumulated square is PSD node by node, so widening the
        # integration window can only increase the column value
        f = fc.library("sqrtzexp")
        x = random_matrix(rng, 4)
        windows = [(1e-2, 1e1), (1e-4, 1e3), (1e-8, 1e5), (1e-12, 1e6)]
        vals = [
            sqfn.sq_col(posdiag_op, x, f, sqfn.LogGrid.make(a, b, 512), 3.0)
            for a, b in windows
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-10 * max(1.0, hi)

    def test_truncation_flag(self, rng, posdiag_op):
        f = fc.library("sqrtzexp")
        x = random_matrix(rng, 4)
        rep = sqfn.square_report(posdiag_op, x, f, p=4.0)
        assert not rep.truncated
        narrow = sqfn.LogGrid.make(0.5, 2.0, 64)
        rep2 = sqfn.square_report(posdiag_op, x, f, narrow, p=4.0)
        assert rep2.truncated


def _all_kinds(rng):
    """One small operator of every kind, each with its own frame."""
    u0, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    v0, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    herm = herm @ herm.conj().T + 0.2 * np.eye(3)
    return [
        fc.SchurMult(rng.uniform(0.2, 2.0, size=(3, 3))),
        fc.SandwichSchur(u0, v0, rng.uniform(0.3, 2.0, size=(3, 3))),
        fc.LeftMult(herm),
        fc.RightMult(np.diag([0.5, 1.0, 2.0])),
        fc.DenseOp(fc.LeftMult(np.diag([0.4, 1.1, 3.0])).to_dense()),
        fc.AdPair(herm, np.diag([-0.5, -0.2, 0.1])),
        fc.AmplifiedOp(fc.LeftMult(herm), 2),
        martingale.CondExpOp(martingale.MartingaleTower(2), 1),
    ]


class TestNodeFamilyAdjoint:
    def test_adjointness_all_kinds(self, rng):
        # <fwd(x), Y> = <x, adj(Y)> in the real trace inner product; the
        # decomposition solvers differentiate through adj, so a silent
        # mismatch would degrade them without failing any value check
        f = fc.library("zexp")
        grid = sqfn.LogGrid.make(1e-6, 1e4, 48)
        for op in _all_kinds(rng):
            fam = sqfn._NodeFamily(op, f, grid)
            d = op.dim
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            shape = fam.fwd(x).shape
            ys = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            lhs = np.sum(np.conj(ys) * fam.fwd(x)).real
            rhs = np.sum(np.conj(fam.adj(ys)) * x).real
            assert lhs == pytest.approx(rhs, rel=1e-10), type(op).__name__


class TestNodeCompression:
    """The compressed members against the independent full node stack
    sqrt(w_j) F(t_j A) x of ``node_apply``."""

    @pytest.mark.parametrize("n", [4, 48, 512])
    def test_member_count(self, rng, n):
        f = fc.library("zexp")
        grid = sqfn.LogGrid.make(1e-6, 1e4, n)
        for op in _all_kinds(rng):
            fam = sqfn._NodeFamily(op, f, grid)
            members = fam.weighted(random_matrix(rng, op.dim)).shape
            assert members[1:] == (op.dim, op.dim)
            assert members[0] <= min(n, op.frame()[0].size), type(op).__name__

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_col_row_match_full_stack(self, rng, p):
        f = fc.library("zexp")
        for op in _all_kinds(rng):
            grid = sqfn.LogGrid.for_operator(op)
            x = random_matrix(rng, op.dim)
            full = np.sqrt(grid.w)[:, None, None] * sqfn.node_apply(op, x, f, grid)
            u = sqfn._NodeFamily(op, f, grid).weighted(x)
            for norm in (hvnorms.col_norm, hvnorms.row_norm):
                ref = norm(full, p)
                assert norm(u, p) == pytest.approx(ref, rel=1e-12), type(op).__name__

    def test_bracket_witness_on_full_nodes(self, rng):
        # the bracket value is re-evaluated from its witness on all grid
        # nodes, so it does not rest on the compressed path alone
        f = fc.library("zexp")
        cfg = ConvexCfg(iters=80)
        for op in _all_kinds(rng):
            grid = sqfn.LogGrid.for_operator(op)
            sw = np.sqrt(grid.w)[:, None, None]
            x = random_matrix(rng, op.dim)
            res = sqfn.bracket_norm(op, x, f, grid, 1.5, cfg)
            full = hvnorms.col_norm(sw * sqfn.node_apply(op, res.minimizer, f, grid), 1.5)
            full += hvnorms.row_norm(sw * sqfn.node_apply(op, x - res.minimizer, f, grid), 1.5)
            assert full == pytest.approx(res.value, rel=1e-9), type(op).__name__

import hashlib
import math

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp import hvnorms, rbound
from nclp.core import polar_factor
from nclp.hvnorms import intersection_norm, rad_average

from conftest import random_matrix

CFG = rbound.SearchCfg(restarts=8, iters=25, lengths=(1, 2, 4), rad_steps=8)


def left_diag(*vals):
    return fc.LeftMult(np.diag(np.asarray(vals, dtype=complex)))


def schur_pair():
    """Two Schur multipliers: no exact norm off p = 2, so the search runs."""
    return [fc.SchurMult(np.array([[1.0, 2.0], [0.5, 1.5]])),
            fc.SchurMult(np.array([[0.3, 1.0], [1.2, 0.2]]))]


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
        est2 = rbound.row_bound_estimate([t], 1.0, cfg, seed=0)
        cfg8 = rbound.SearchCfg(restarts=4, iters=20, lengths=(8,), reselect_rounds=1)
        est8 = rbound.row_bound_estimate([t], 1.0, cfg8, seed=0)
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
        est = rbound.col_bound_estimate(schur_pair(), 4.0, cfg, seed=0)
        assert est.restarts == started


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
            # three rows, each under its own selection, in one batch
            sels = rng.integers(0, len(ops), size=(3, n))
            xs = np.stack([[random_matrix(rng, d) for _ in range(n)] for _ in range(3)])
            signs = hvnorms._sign_block(0, 1 << (n - 1), n)
            _, xis = rbound._rad_trial(ops, sels, xs, signs, p)
            got = rbound._rad_subgradient(daggers, sels, xis, signs)
            for row, sel, x in zip(got, sels, xs):
                ref = _reference_subgradient(ops, daggers, tuple(sel), x, p)
                assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_applies_each_operator_and_adjoint_once(self, rng):
        n, log = 6, []
        ops = [_Counted(fc.LeftMult(random_matrix(rng, 3)), f"T{k}", log) for k in range(n)]
        daggers = [op.dagger() for op in ops]
        xs = np.stack([random_matrix(rng, 3) for _ in range(n)])[None]
        sels = np.arange(n)[None]
        signs = hvnorms._sign_block(0, 1 << (n - 1), n)
        _, xis = rbound._rad_trial(ops, sels, xs, signs, 4.0)
        rbound._rad_subgradient(daggers, sels, xis, signs)
        assert sorted(log) == sorted([f"T{k}" for k in range(n)] + [f"T{k}^dag" for k in range(n)])


def _serial_rad_ascent(ops, daggers, sel, x, p, steps, known):
    """The accept-if-improve ascent of one row alone, on the same per-trial
    kernel as the lock-step one; also returns the number of steps taken."""
    sels = np.array([sel])
    signs = hvnorms._sign_block(0, 1 << (len(sel) - 1), len(sel))
    val, xis = rbound._rad_trial(ops, sels, x[None], signs, p)
    best, taken = (val[0] if np.isnan(known) else known), 0
    for _ in range(steps):
        g = rbound._rad_subgradient(daggers, sels, xis, signs)
        gn = rbound._row_norms(g)[0]
        if gn <= 1e-300:
            break
        g = g[0] * (rbound._row_norms(x[None])[0] / gn)
        for eta in (1.0, 0.5, 0.25, 0.1):
            cand = (1 - eta) * x + eta * g
            val, cand_xis = rbound._rad_trial(ops, sels, cand[None], signs, p)
            if val[0] > best + 1e-14:
                best, x, xis, taken = val[0], cand, cand_xis, taken + 1
                break
        else:
            break
    return best, x, taken


class TestLockStepRadAscent:
    @pytest.mark.parametrize("steps", [0, 1, 25])
    @pytest.mark.parametrize("length", [1, 3, 5])
    @pytest.mark.parametrize("p", [1.5, 4.0])
    @pytest.mark.parametrize("kind", [fc.LeftMult, fc.DenseOp])
    def test_rows_are_the_serial_ascent(self, rng, kind, steps, length, p):
        # a DenseOp row rounds as it does alone, whatever the stack height
        ops = [kind(random_matrix(rng, 3 if kind is fc.LeftMult else 9)) for _ in range(4)]
        daggers = [op.dagger() for op in ops]
        rows = 8
        sels = rng.integers(0, len(ops), size=(rows, length))
        xs = np.stack([[random_matrix(rng, 3) for _ in range(length)] for _ in range(rows)])
        xs[1] = 0.0  # a vanishing subgradient freezes its row at once
        known = np.full(rows, np.nan)
        known[2], known[3] = 1e3, 0.0  # a known best no trial beats, and a low one
        best, x = rbound._ascend_rad(ops, daggers, sels, xs, p, steps, known)
        taken = []
        for r in range(rows):
            ref_best, ref_x, n = _serial_rad_ascent(ops, daggers, sels[r], xs[r], p, steps,
                                                   known[r])
            assert best[r] == ref_best
            assert np.array_equal(x[r], ref_x)
            taken.append(n)
        assert taken[1] == taken[2] == 0
        if steps == 25 and length > 1:  # the rows froze at different steps
            assert len(set(taken)) > 2

    def test_steps_zero_evaluates_only_unknown_rows(self, rng, monkeypatch):
        ops = [fc.LeftMult(random_matrix(rng, 3)) for _ in range(2)]
        seen, real = [], rbound._rad_trial
        monkeypatch.setattr(rbound, "_rad_trial",
                            lambda ops_, sels, *a: seen.append(len(sels)) or real(ops_, sels, *a))
        xs = np.stack([[random_matrix(rng, 3)] for _ in range(4)])
        known = np.array([np.nan, 0.5, np.nan, 0.25])
        best, x = rbound._ascend_rad(ops, [op.dagger() for op in ops], np.zeros((4, 1), int),
                                     xs, 4.0, 0, known)
        assert seen == [2]
        assert best[1] == 0.5 and best[3] == 0.25
        assert np.array_equal(x, xs)


def _reference_candidates(notion, ops, held, slot, x, p):
    """The per-candidate loop the batched reselection replaces: one
    ``objective`` call per member, each with its own denominator."""
    held = list(held)
    vals = []
    for j in range(len(ops)):
        held[slot] = j
        vals.append(rbound.objective(notion, ops, tuple(held), x, p))
    return np.array(vals)


def _random_ops(rng, d=3):
    return [
        fc.DenseOp(random_matrix(rng, d * d)),
        fc.LeftMult(random_matrix(rng, d)),
        fc.SchurMult(random_matrix(rng, d)),
        fc.RightMult(random_matrix(rng, d)),
    ]


def _ray_ops(_rng):
    return fc.ray_resolvent_family(left_diag(0.5, 1.0, 2.0), 0.9, 8)


class TestBatchedReselection:
    @pytest.mark.parametrize("family", [_random_ops, _ray_ops])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("notion", ["col", "row", "rad"])
    def test_matches_per_candidate_loop(self, rng, monkeypatch, family, p, notion):
        ops = family(rng)
        real, norms = rbound.family_norms, []
        monkeypatch.setattr(rbound, "family_norms",
                            lambda *args: norms.append(real(*args)) or norms[-1])
        for length in (1, 3, 5):
            sel = rng.integers(0, len(ops), size=length)
            x = np.stack([random_matrix(rng, 3) for _ in range(length)])
            norms.clear()
            got_sel, got_val = rbound._reselect(notion, ops, sel, x, p)
            den, *nums = norms
            assert len(nums) == length
            held = list(sel)
            for slot, num in enumerate(nums):
                ref = _reference_candidates(notion, ops, held, slot, x, p)
                np.testing.assert_allclose(num / den, ref, rtol=1e-13, atol=0)
                held[slot] = got_sel[slot]
                assert ref[got_sel[slot]] >= ref.max() * (1 - 1e-13)
            ref_val = rbound.objective(notion, ops, tuple(got_sel.tolist()), x, p)
            assert got_val == pytest.approx(ref_val, rel=1e-13)

    @pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
    def test_signed_sums_leading_axes_are_per_family_calls(self, rng, lead):
        n = 4
        fams = rng.standard_normal(lead + (n, 3, 2)) + 1j * rng.standard_normal(lead + (n, 3, 2))
        signs = hvnorms._sign_block(0, 1 << (n - 1), n)
        got = hvnorms._signed_sums(signs, fams)
        flat = fams.reshape(-1, n, 3, 2)
        ref = np.stack([hvnorms._signed_sums(signs, f) for f in flat])
        assert np.array_equal(got.reshape(ref.shape), ref)

    def test_applies_each_member_once(self, rng):
        n, log = 5, []
        ops = [_Counted(fc.LeftMult(random_matrix(rng, 3)), f"T{k}", log) for k in range(n)]
        xs = np.stack([random_matrix(rng, 3) for _ in range(4)])
        rbound._reselect("col", ops, np.zeros(4, dtype=int), xs, 4.0)
        assert sorted(log) == [f"T{k}" for k in range(n)]

    @pytest.mark.parametrize("notion", ["col", "row", "rad"])
    def test_one_denominator_per_witness_one_numerator_per_slot(self, rng, monkeypatch,
                                                                 notion):
        ops = [fc.SchurMult(random_matrix(rng, 3)) for _ in range(3)]
        shapes, ascents, inside = [], [], []
        real_norms, real_ascent = rbound.family_norms, fc.power_ascent
        real_reselect = rbound._reselect

        def norms(notion_, fams, p):
            if inside:  # objective, outside reselection, shares the kernel
                shapes.append(fams.shape)
            return real_norms(notion_, fams, p)

        def reselect(*args):
            inside.append(True)
            try:
                return real_reselect(*args)
            finally:
                inside.pop()

        def ascent(fwd, adj, x, p, iters):
            ascents.append(x.shape)
            return real_ascent(fwd, adj, x, p, iters)

        monkeypatch.setattr(rbound, "family_norms", norms)
        monkeypatch.setattr(rbound, "_reselect", reselect)
        monkeypatch.setattr(fc, "power_ascent", ascent)
        lengths, starts, rounds = (1, 2, 4), 3, 2
        cfg = rbound.SearchCfg(restarts=starts * len(lengths), iters=4, lengths=lengths,
                               reselect_rounds=rounds, rad_steps=2)
        getattr(rbound, f"{notion}_bound_estimate")(ops, 4.0, cfg, seed=0)
        dens = [s for s in shapes if len(s) == 3]
        nums = [s for s in shapes if len(s) == 4]
        assert len(dens) == len(lengths) * starts * rounds
        assert len(nums) == sum(lengths) * starts * rounds
        assert all(s[0] == len(ops) for s in nums)
        # one power ascent per (length, round), carrying every start
        assert len(ascents) == len(lengths) * rounds
        assert [s[0] for s in ascents] == [starts] * len(ascents)

    def test_rad_second_round_reuses_the_reselection_value(self, rng, monkeypatch):
        ops = [fc.SchurMult(random_matrix(rng, 3)) for _ in range(3)]
        rows, calls = [], []
        real_trial, real_objective = rbound._rad_trial, rbound.objective
        monkeypatch.setattr(rbound, "_rad_trial",
                            lambda ops_, sels, *a: rows.append(len(sels)) or real_trial(ops_, sels, *a))
        monkeypatch.setattr(rbound, "objective",
                            lambda *a: calls.append(a[0]) or real_objective(*a))
        cfg = rbound.SearchCfg(restarts=4, iters=4, lengths=(1, 2), reselect_rounds=2,
                               rad_steps=0)
        rbound.rad_bound_estimate(ops, 4.0, cfg, seed=0)
        # per start: both openings are evaluated in round 1, only the
        # power-ascent one in round 2, whose other row starts from the
        # reselection value; then one objective certifies the best start
        assert sum(rows) == 4 * 3
        assert len(calls) == 1

    @pytest.mark.parametrize("notion", ["col", "row", "rad"])
    @pytest.mark.parametrize("family_seed", [1, 5, 18])
    def test_value_is_the_witness_objective_exactly(self, notion, family_seed):
        # the search's batched values could differ from objective in the
        # last bit on these families (row on 1, rad on 5, col on 18) while
        # a stacked DenseOp apply rounded by stack height; the returned
        # value is re_evaluate's, bit for bit, whatever the search rounds
        ops = _random_ops(np.random.default_rng(family_seed))
        cfg = rbound.SearchCfg(restarts=6, iters=8, lengths=(1, 2, 4), rad_steps=4)
        est = getattr(rbound, f"{notion}_bound_estimate")(ops, 4.0, cfg, seed=0)
        assert rbound.re_evaluate(est, ops) == est.value

    @pytest.mark.parametrize("notion", ["col", "row"])
    def test_reselection_values_are_the_objectives(self, monkeypatch, notion):
        # a batched numerator and a lone denominator round their roots alike
        ops = _random_ops(np.random.default_rng(18))
        real, seen = rbound._reselect, []

        def reselect(notion_, ops_, sel, x, p):
            sel_out, val = real(notion_, ops_, sel, x, p)
            seen.append((tuple(sel_out.tolist()), x.copy(), p, val))
            return sel_out, val

        monkeypatch.setattr(rbound, "_reselect", reselect)
        cfg = rbound.SearchCfg(restarts=6, iters=8, lengths=(1, 2, 4), rad_steps=4)
        getattr(rbound, f"{notion}_bound_estimate")(ops, 3.0, cfg, seed=0)
        assert seen
        assert [val for *_, val in seen] == [
            rbound.objective(notion, ops, sel, x, p) for sel, x, p, _ in seen
        ]

    @pytest.mark.parametrize("notion", ["col", "row", "rad"])
    def test_objective_refuses_a_non_finite_witness(self, notion):
        xs = np.ones((2, 2, 2), dtype=complex)
        xs[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rbound.objective(notion, [fc.LeftMult(np.eye(2))], (0, 0), xs, 4.0)

    @pytest.mark.parametrize("n", [1, 3, 13, 15])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, math.inf])
    def test_one_family_is_the_hvnorms_norm(self, rng, n, p):
        # n = 15 enumerates its 2^14 sign patterns in two chunks
        fams = np.stack([np.stack([random_matrix(rng, 2) for _ in range(n)])
                         for _ in range(3)])
        for kind, public in (("col", hvnorms.col_norm), ("row", hvnorms.row_norm),
                             ("rad", hvnorms.rad_average)):
            got = hvnorms.family_norms(kind, fams, p)
            assert got.shape == (3,)
            assert got.tolist() == [public(fam, p) for fam in fams], kind


class TestBenchmarkSelections:
    """The selections and values of the benchmark's rbound cases."""

    @pytest.mark.parametrize("notion,selection,value", [
        ("col", (6,), None),
        ("row", (7, 0, 7, 7, 6, 0, 0, 7), 1.1594193918868116),
        ("rad", (6,), None),
    ])
    def test_golden(self, notion, selection, value):
        # None: the exact length-1 constant, the norm 1.154075194853844 of
        # member 6, the largest; col stops there, rad finds nothing above it
        fam = fc.ray_resolvent_family(left_diag(0.5, 1.0, 2.0), 0.9, 12)
        cfg = rbound.SearchCfg(restarts=8, iters=25)
        est = getattr(rbound, f"{notion}_bound_estimate")(fam, 4.0, cfg, seed=0)
        assert est.selection == selection
        if value is None:
            assert est.value == pytest.approx(max(m.opnorm(4.0) for m in fam), rel=1e-14)
        else:
            assert est.value == pytest.approx(value, rel=1e-12)


def _exact_families():
    """Families of every kind with an exact norm at p = 2, as (name, ops)."""
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(random_matrix(rng, 4))
    h = random_matrix(rng, 4)
    h = h + h.conj().T
    kinds = {
        "left": lambda: fc.LeftMult(random_matrix(rng, 4)),
        "right": lambda: fc.RightMult(random_matrix(rng, 4)),
        "schur": lambda: fc.SchurMult(random_matrix(rng, 4)),
        "pauli": lambda: fc.PauliMult(random_matrix(rng, 4)),
        "sandwich": lambda: fc.SandwichSchur(u, u.conj().T, random_matrix(rng, 4)),
        "adpair": lambda: fc.AdPair(h, h.T + np.eye(4)),
        "dense": lambda: fc.DenseOp(random_matrix(rng, 16)),
        "amplified": lambda: fc.AmplifiedOp(fc.SchurMult(random_matrix(rng, 2)), 2),
    }
    return [(name, [make() for _ in range(3)]) for name, make in kinds.items()]


class TestCertifiedStop:
    """A search whose exact length-1 value meets the certified upper bound
    runs no start; its value is the largest member norm."""

    @staticmethod
    def _assert_stopped(est, ops, p):
        top = max(op.opnorm(p) for op in ops)
        assert est.restarts == 0
        # the upper end is the largest norm, raised to the witness's value
        # where roundoff puts that a few ulps above it
        assert est.upper == max(top, est.value)
        assert est.within(rbound.UPPER_RTOL)
        assert est.value == pytest.approx(top, rel=1e-14)
        assert len(est.selection) == 1
        assert rbound.re_evaluate(est, ops) == est.value

    @pytest.mark.parametrize("amplified", [False, True])
    @pytest.mark.parametrize("notion,kind", [("col", fc.LeftMult), ("row", fc.RightMult)])
    def test_multiplications_stop_at_p4(self, rng, notion, kind, amplified):
        ops = [kind(random_matrix(rng, 3)) for _ in range(4)]
        if amplified:
            ops = [fc.AmplifiedOp(op, 2) for op in ops]
        est = getattr(rbound, f"{notion}_bound_estimate")(ops, 4.0, CFG, seed=0)
        self._assert_stopped(est, ops, 4.0)

    @pytest.mark.parametrize("notion,kind", [("row", fc.LeftMult), ("col", fc.RightMult)])
    def test_the_other_side_searches_at_p4(self, rng, notion, kind):
        ops = [kind(random_matrix(rng, 3)) for _ in range(4)]
        est = getattr(rbound, f"{notion}_bound_estimate")(ops, 4.0, CFG, seed=0)
        assert est.upper == math.inf and est.restarts > 0
        # the search starts from the exact length-1 value
        assert est.value >= max(op.opnorm(4.0) for op in ops) * (1 - 1e-14)

    @pytest.mark.parametrize("notion", ["col", "row"])
    @pytest.mark.parametrize("name,ops", _exact_families())
    def test_every_kind_stops_at_p2(self, name, ops, notion):
        est = getattr(rbound, f"{notion}_bound_estimate")(ops, 2.0, CFG, seed=0)
        self._assert_stopped(est, ops, 2.0)

    @pytest.mark.parametrize("name,ops", _exact_families())
    def test_rad_never_stops_early(self, name, ops):
        est = rbound.rad_bound_estimate(ops, 2.0, CFG, seed=0)
        assert est.upper == math.inf and not est.within(rbound.UPPER_RTOL)
        # length 1 is exact and runs no start; the longer lengths run theirs
        assert est.restarts == 2 * (CFG.restarts // 3)
        assert est.value >= max(op.opnorm(2.0) for op in ops) * (1 - 1e-14)

    def test_a_member_without_a_norm_searches_length_one(self, rng):
        ops = [fc.LeftMult(random_matrix(rng, 3)), fc.SchurMult(random_matrix(rng, 3))]
        est = rbound.col_bound_estimate(ops, 4.0, CFG, seed=0)
        assert est.upper == math.inf
        assert est.restarts == 3 * (CFG.restarts // 3)

    @pytest.mark.parametrize("notion", ["col", "row", "rad"])
    def test_longer_lengths_see_the_same_random_stream(self, monkeypatch, notion):
        # the length-1 starts are drawn but not run: the longer lengths run
        # from the starts they would get if length 1 had been searched
        ops = [fc.LeftMult(np.diag([1.0, 2.0])), fc.LeftMult(np.diag([0.5, 1.5j]))]
        seen, real = [], fc.family_ascent
        monkeypatch.setattr(rbound, "family_ascent",
                            lambda o, dg, sels, xs, *a: seen.append((sels.copy(), xs.copy()))
                            or real(o, dg, sels, xs, *a))
        cfg = rbound.SearchCfg(restarts=6, iters=3, lengths=(1, 2, 4), reselect_rounds=1,
                               rad_steps=1)
        getattr(rbound, f"{notion}_bound_estimate")(ops, 4.0, cfg, seed=5)
        rng = np.random.default_rng(5)
        for length in (1, 2, 4):
            starts = [rng.standard_normal((length, 2, 2)) + 1j * rng.standard_normal((length, 2, 2))
                      for _ in range(2)]
            sels = np.array([rng.integers(0, 2, size=length) for _ in starts])
            if length == 1:
                continue
            ran = [xs for s, xs in seen if xs.shape[1] == length]
            if notion == "col":  # stopped at its upper bound before any length ran
                assert not ran
                continue
            assert np.array_equal(ran[0], np.stack(starts))
            assert np.array_equal([s for s, xs in seen if xs.shape[1] == length][0], sels)
        assert all(xs.shape[1] != 1 for _, xs in seen)


class TestSearchWithoutExactNorms:
    @pytest.mark.parametrize("notion,value_hex,selection,digest", [
        ("col", "0x1.52526d8783a4fp+1", (0, 1), "0ba62dbda96014e9"),
        ("row", "0x1.52526d8783a4fp+1", (0, 1), "db7a356fc41589ae"),
        ("rad", "0x1.52526d8783a4fp+1", (1, 1, 0, 1), "131678a0ceb37b95"),
    ])
    def test_schur_family_at_p4_is_unchanged(self, notion, value_hex, selection, digest):
        # values, selections and witness bits of the search before the
        # exact length-1 phase existed: Schur multipliers have no exact
        # norm at p = 4, so the search runs as it did
        rng = np.random.default_rng(7)
        fam = [fc.SchurMult(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
               for _ in range(3)]
        cfg = rbound.SearchCfg(restarts=8, iters=25, lengths=(1, 2, 4), rad_steps=8)
        est = getattr(rbound, f"{notion}_bound_estimate")(fam, 4.0, cfg, seed=3)
        assert est.value.hex() == value_hex
        assert est.selection == selection
        assert hashlib.sha256(est.witness.tobytes()).hexdigest()[:16] == digest
        assert est.restarts == 6 and est.upper == math.inf

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Golden numbers are matched exactly at the quoted tolerances, and
the timed criteria assert their wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp import hvnorms, rbound, sqfn
from nclp.core import schatten_norm
from nclp.models import clifford, fock, freegroup, martingale, schur
from nclp.optim import ConvexCfg

from conftest import grid_cf


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. c_F golden value and the scalar column identity
# ---------------------------------------------------------------------------


def test_acceptance_1_cf_golden():
    t0 = time.monotonic()
    op = fc.LeftMult(np.diag([0.5, 1.0, 2.5, 4.0]))
    grid = sqfn.LogGrid.for_operator(op)
    f = fc.library("sqrtzexp")
    cf = grid_cf(f, grid)
    quad_err = abs(cf**2 - 0.5)

    rng = np.random.default_rng(1001)
    worst = 0.0
    for p in (1.5, 2.0, 4.0):
        for _ in range(20):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            val = sqfn.sq_col(op, x, f, grid, p)
            ref = cf * schatten_norm(x, p)
            worst = max(worst, abs(val - ref))
    elapsed = time.monotonic() - t0
    ok = quad_err <= 1e-8 and worst <= 1e-10 and elapsed < 5.0
    _report(
        1,
        ok,
        f"|cF^2 - 0.5| = {quad_err:.2e} (tol 1e-8), worst |sq_col - cF*norm| = "
        f"{worst:.2e} (tol 1e-10) over 60 draws, {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. row/column gap golden values
# ---------------------------------------------------------------------------


def test_acceptance_2_rowcol_gap():
    t0 = time.monotonic()
    ratios = {}
    worst_fc = 0.0
    worst_fr = 0.0
    for n in (4, 8, 16):
        rep = sqfn.row_col_gap(n, 4.0)  # raises beyond rel 1e-6 internally
        worst_fr = max(worst_fr, abs(rep.fr_val - rep.fr_closed_form) / rep.fr_closed_form)
        worst_fc = max(worst_fc, abs(rep.fc_val - math.sqrt(n / 2.0)))
        ratios[n] = rep.ratio
    elapsed = time.monotonic() - t0
    ok = (
        worst_fr <= 1e-6
        and worst_fc <= 1e-10
        and ratios[16] > ratios[4]
        and elapsed < 30.0
    )
    _report(
        2,
        ok,
        f"Fr vs closed form rel {worst_fr:.2e} (tol 1e-6), |Fc - sqrt(n/2)| = "
        f"{worst_fc:.2e} (tol 1e-10), ratio(16) = {ratios[16]:.4f} > ratio(4) = "
        f"{ratios[4]:.4f}, {elapsed:.2f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 3. contour/extended calculus vs the eigen oracle
# ---------------------------------------------------------------------------


def _oracle_operators(rng):
    herm6 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    herm6 = herm6 @ herm6.conj().T / 6 + 0.2 * np.eye(6)
    herm4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm4 = herm4 @ herm4.conj().T / 4 + 0.3 * np.eye(4)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    non_normal = np.array([[1.0, 1.0], [0.0, 2.0]])
    mixed = fc.DenseOp(
        np.kron(non_normal, np.eye(2)) + np.kron(np.eye(2), np.array([[1.0, 0.5], [0.0, 3.0]]).T)
    )
    schur_pos = rng.uniform(0.3, 3.0, size=(5, 5))
    schur_ker = schur_pos[:4, :4].copy()
    schur_ker[0, 0] = 0.0
    schur_ker[2, 3] = 0.0
    return [
        ("leftdiag4", fc.LeftMult(np.diag([0.5, 1.0, 2.5, 4.0]))),
        ("leftdiag16", fc.LeftMult(np.diag(np.logspace(-1, 1, 16)))),
        ("lefthermitian6", fc.LeftMult(herm6)),
        ("leftnonnormal2", fc.LeftMult(non_normal)),  # non-normal case 1
        ("rightdiag3", fc.RightMult(np.diag([0.7, 1.3, 2.0]))),
        ("righthermitian4", fc.RightMult(herm4)),
        ("schurpositive5", fc.SchurMult(schur_pos)),
        ("schurkernel4", fc.SchurMult(schur_ker)),
        ("schurdistance6", schur.schur_generator(schur.collinear_symbol(6))),
        ("adpair4", fc.AdPair(np.diag([5.0, 6.0, 6.5, 7.0]), np.diag([0.0, 1.0, 1.5, 2.0]))),
        ("adpairkernel2", fc.AdPair(np.diag([1.0, 2.0]), np.diag([0.0, 1.0]))),
        ("sandwich3", fc.SandwichSchur(u, v, rng.uniform(0.5, 2.0, size=(3, 3)))),
        ("densemixed4", mixed),  # non-normal case 2
        ("condexp4", martingale.CondExpOp(martingale.MartingaleTower(2), 1)),
    ]


def test_acceptance_3_calculus_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    fids = ["g", "gn:2", "gn:5", "zexp", "sqrtzexp", "heat:0.7", "zis:0.8", "zis:-2"]
    cases = 0
    worst = 0.0
    worst_case = ""
    for opname, op in _oracle_operators(rng):
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
            rel = num / den
            cases += 1
            if rel > worst:
                worst, worst_case = rel, f"{opname}/{fid}"
    elapsed = time.monotonic() - t0
    ok = cases >= 40 and worst <= 1e-6 and elapsed < 60.0
    _report(
        3,
        ok,
        f"{cases} cases (>= 40, dims <= 16, two non-normal), worst rel err "
        f"{worst:.2e} at {worst_case} (tol 1e-6), {elapsed:.2f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 4. integral identities
# ---------------------------------------------------------------------------


def test_acceptance_4_integral_identities():
    ga_diag = fc.group_average_identity(np.diag([1.0, 2.0]), n_nodes=64)
    a = np.diag([0.0, 1.0, 2.5])
    ga_ad = fc.group_average_identity(a, a, n_nodes=64)

    sub_diag, mass1 = fc.subordination_identity(np.diag([0.3, 1.0, 4.0]), 1.0)
    ad = fc.AdPair(np.diag([0.0, 1.0, 3.0]), np.diag([0.0, 1.0, 3.0]))
    c = fc.SandwichSchur(ad.u, ad.v, ad.w**2)
    sub_ad, mass2 = fc.subordination_identity(c, 0.7)

    ok = (
        ga_diag <= 1e-8
        and ga_ad <= 1e-8
        and sub_diag <= 1e-5
        and sub_ad <= 1e-5
        and abs(mass1 - 1.0) <= 1e-8
        and abs(mass2 - 1.0) <= 1e-8
    )
    _report(
        4,
        ok,
        f"group-average residuals {ga_diag:.2e}/{ga_ad:.2e} (tol 1e-8), "
        f"subordination residuals {sub_diag:.2e}/{sub_ad:.2e} (tol 1e-5), "
        f"|int h - 1| = {abs(mass1 - 1.0):.2e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 5. Khintchine sandwich over 50 seeded families
# ---------------------------------------------------------------------------


def test_acceptance_5_khintchine_sandwich():
    violations = 0
    c_measured = 0.0
    sum_defect = 0.0
    cfg = ConvexCfg(iters=200, tol=1e-4)
    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        fam = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(n)
        ]
        # p = 4: lower Khintchine bound with constant 1/sqrt(2)
        inter = hvnorms.intersection_norm(fam, 4.0)
        ra = hvnorms.rad_average(fam, 4.0)
        if ra < inter / math.sqrt(2.0) - 1e-9 * inter:
            violations += 1
        c_measured = max(c_measured, ra / inter)
        # p = 1: the sign average sits below the sum norm
        ra1 = hvnorms.rad_average(fam, 1.0)
        sm = hvnorms.sum_norm_solve(fam, 1.0, cfg).value
        sum_defect = max(sum_defect, ra1 - sm)
    ok = violations == 0 and sum_defect <= 1e-6
    _report(
        5,
        ok,
        f"50 families: p=4 lower-bound violations = {violations}, measured upper "
        f"ratio C = {c_measured:.4f}, p=1 worst (radavg - sum) = {sum_defect:.2e} "
        f"(tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# 6. q-Fock positivity and moments
# ---------------------------------------------------------------------------


def test_acceptance_6_qfock():
    min_eig = math.inf
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for d in (2, 3):
            for level in range(6):
                lam = np.linalg.eigvalsh(fock.q_gram(level, d, q))
                min_eig = min(min_eig, float(lam[0]))
    rng = np.random.default_rng(66)
    moment_err = 0.0
    stability = 0.0
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        h = rng.standard_normal(2)
        nrm2 = float(h @ h)
        m2 = fock.gaussian_moment([h, h], q)
        moment_err = max(moment_err, abs(m2 - nrm2))
        hu = h / math.sqrt(nrm2)
        m4 = fock.gaussian_moment([hu] * 4, q)
        moment_err = max(moment_err, abs(m4 - (2.0 + q)))
        m4b = fock.gaussian_moment([hu] * 4, q, n_max=5)
        stability = max(stability, abs(m4 - m4b))
    ok = min_eig >= -1e-10 and moment_err <= 1e-10 and stability <= 1e-10
    _report(
        6,
        ok,
        f"gram min eigenvalue {min_eig:.2e} (tol -1e-10) over n<=5, d<=3, "
        f"q in ±0.9/±0.5/0; worst moment defect {moment_err:.2e} (tol 1e-10); "
        f"truncation N->N+1 shift {stability:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. Clifford spin system
# ---------------------------------------------------------------------------


def test_acceptance_7_clifford():
    algebra_exact = True
    trace_exact = True
    eig_err = 0.0
    choi_min = math.inf
    for n in (2, 3, 4, 5):
        rep = clifford.spin_generators(n)
        for i in range(n):
            wi = rep.w[i]
            algebra_exact &= np.array_equal(wi, wi.conj().T)
            algebra_exact &= np.array_equal(wi @ wi, np.eye(rep.dim, dtype=complex))
            for j in range(i + 1, n):
                wj = rep.w[j]
                algebra_exact &= np.array_equal(wi @ wj, -(wj @ wi))
        t = 0.4
        top = clifford.clifford_semigroup(rep, t)
        for subset in clifford.all_subsets(n):
            v = clifford.v_f(rep, subset)
            if subset:
                trace_exact &= np.trace(v) / rep.dim == 0.0
            eig_err = max(
                eig_err,
                float(np.max(np.abs(top.apply(v) - math.exp(-t * len(subset)) * v))),
            )
        choi_min = min(choi_min, float(np.linalg.eigvalsh(fc.choi_matrix(top))[0]))
    ok = algebra_exact and trace_exact and eig_err <= 1e-12 and choi_min >= -1e-10
    _report(
        7,
        ok,
        f"anticommutation/unitarity exact: {algebra_exact}, traces exact: "
        f"{trace_exact}, eigenvalue defect {eig_err:.2e} (tol 1e-12), Choi min "
        f"eigenvalue {choi_min:.2e} at n<=5",
    )


# ---------------------------------------------------------------------------
# 8. free group exactness
# ---------------------------------------------------------------------------


def test_acceptance_8_freegroup():
    unit_err = abs(freegroup.GroupPoly.lam("a b A").norm_even(4) - 1.0)
    x = freegroup.GroupPoly.lam("a") + freegroup.GroupPoly.lam("A")
    golden_err = abs(x.norm_even(4) - 6.0**0.25)

    rng = np.random.default_rng(88)
    words = [(), (1,), (2,), (1, 2), (-1, 2), (1, 1), (2, -1)]
    contraction_defect = 0.0
    for _ in range(100):
        poly = freegroup.GroupPoly(
            {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}
        )
        t = float(rng.uniform(0.0, 2.0))
        contraction_defect = max(
            contraction_defect,
            poly.poisson(t).norm_even(4) - poly.norm_even(4),
        )

    pools = {
        0: [(1,), (-1,), (2,), (-2,)],
        1: [(1, 1), (1, 2), (2, 1), (-1, 2), (2, 2)],
        2: [(1, 2, 1, 2), (1, 1, 2, 2), (2, -1, 2, 1), (1, 2, -1, -2)],
    }
    constants = []
    for seed in range(10):
        srng = np.random.default_rng(800 + seed)
        shells = [
            freegroup.GroupPoly(
                {
                    w: complex(srng.standard_normal(), srng.standard_normal())
                    for w in pools[k]
                }
            )
            for k in range(3)
        ]
        constants.append(freegroup.dyadic_unconditionality(shells, 4))
    spread = max(constants) / min(constants)

    ok = (
        unit_err <= 1e-12
        and golden_err <= 1e-12
        and contraction_defect <= 1e-10
        and all(math.isfinite(c) for c in constants)
        and spread <= 1.10
    )
    _report(
        8,
        ok,
        f"||lam(g)||_4 defect {unit_err:.2e}, 6^(1/4) defect {golden_err:.2e} "
        f"(tol 1e-12), worst Poisson expansion {contraction_defect:.2e} over 100 "
        f"draws, dyadic constant spread x{spread:.3f} over 10 seeds (<= 1.10)",
    )


# ---------------------------------------------------------------------------
# 9. martingale suite
# ---------------------------------------------------------------------------


def test_acceptance_9_martingale():
    tower = martingale.MartingaleTower(3)
    rng = np.random.default_rng(99)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    alg_err = 0.0
    for j in range(4):
        for k in range(4):
            lhs = martingale.cond_exp(tower, j, martingale.cond_exp(tower, k, x))
            rhs = martingale.cond_exp(tower, min(j, k), x)
            alg_err = max(alg_err, float(np.max(np.abs(lhs - rhs))))
        ek = martingale.cond_exp(tower, j, x)
        alg_err = max(alg_err, abs(np.trace(ek) - np.trace(x)))
        alg_err = max(
            alg_err,
            float(np.max(np.abs(martingale.cond_exp(tower, j, np.eye(8)) - np.eye(8)))),
        )

    budget = rbound.SearchCfg(restarts=8, iters=20, lengths=(1, 2))
    stein = martingale.stein_colbound(tower, 2.0, budget, seed=9)
    stein_err = abs(stein.value - 1.0)

    op = martingale.CondExpOp(tower, 1)
    m_count = 24
    rep = martingale.cesaro_square_function(op, x, m_count, 4.0)
    coeff = math.sqrt(sum(1.0 / (m * (m + 1) ** 2) for m in range(1, m_count + 1)))
    target = coeff * schatten_norm(op.apply(x) - x, 4.0)
    cesaro_err = abs(rep.value - target) / target

    ok = alg_err <= 1e-12 and stein_err <= 1e-6 and cesaro_err <= 1e-8
    _report(
        9,
        ok,
        f"expectation algebra defect {alg_err:.2e} (machine exact), Stein p=2 "
        f"estimate error {stein_err:.2e} (tol 1e-6), Cesaro closed-form rel "
        f"error {cesaro_err:.2e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 10. grid robustness for the golden-value experiments
# ---------------------------------------------------------------------------


def test_acceptance_10_grid_robustness():
    op = fc.LeftMult(np.diag([0.5, 1.0, 2.5, 4.0]))
    f = fc.library("sqrtzexp")
    g1 = sqfn.LogGrid.for_operator(op)
    g2 = g1.refine(n_factor=2, widen=10.0)
    rng = np.random.default_rng(10)
    worst = 0.0
    for p in (1.5, 2.0, 4.0):
        for _ in range(5):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = sqfn.sq_col(op, x, f, g1, p)
            b = sqfn.sq_col(op, x, f, g2, p)
            worst = max(worst, abs(a - b) / a)
    for n in (4, 8, 16):
        gen = fc.LeftMult(np.diag(2.0 ** np.arange(1, n + 1)))
        grid1 = sqfn.LogGrid.for_operator(gen)
        grid2 = grid1.refine(n_factor=2, widen=10.0)
        r1 = sqfn.row_col_gap(n, 4.0, grid1)
        r2 = sqfn.row_col_gap(n, 4.0, grid2)
        worst = max(worst, abs(r1.fc_val - r2.fc_val) / r1.fc_val)
        worst = max(worst, abs(r1.fr_val - r2.fr_val) / r1.fr_val)
    ok = worst <= 1e-4
    _report(
        10,
        ok,
        f"largest relative drift under grid doubling + 10x widening: "
        f"{worst:.2e} (tol 1e-4)",
    )

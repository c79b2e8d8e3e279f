import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nclp import core, funcalc as fc, hvnorms, optim, sqfn
from nclp.optim import ConvexCfg

from conftest import random_family, random_matrix


def svd_value_grad(y, p, mu):
    """The smoothed norm and gradient from a full SVD: the reference the
    Gram-spectrum kernel must reproduce."""
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    shifted = s * s + mu * mu
    total = float(np.sum(shifted ** (0.5 * p)))
    ds = total ** (1.0 / p - 1.0) * s * shifted ** (0.5 * p - 1.0)
    return total ** (1.0 / p), (u * ds) @ vh


def rank_one_family(n=6, d=4):
    rng = np.random.default_rng(1)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return np.stack([c * np.outer(a, b.conj()) for c in rng.standard_normal(n)])


def no_stage(*args, **kw):
    raise AssertionError("a smoothing stage ran")


def split_objective(fam, v, p):
    """col(v) + row(fam - v), each from an SVD of the stacked matrix."""
    col, _ = hvnorms._vstack_maps(*fam.shape)
    row, _ = hvnorms._hstack_maps(*fam.shape)
    return core.schatten_norm(col(v), p) + core.schatten_norm(row(fam - v), p)


class TestGramKernel:
    """mu is relative to ||y||_p, at the first and a middle stage of the
    solver's schedule, where mu^2 sits far above the roundoff of the Gram
    eigenvalues on the null slots of a rank-deficient stack."""

    @pytest.mark.parametrize("shape", [(2048, 4), (4, 2048), (192, 8), (6, 2), (4, 4)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mu", [1e-1, 1e-4])
    def test_matches_svd_reference(self, rng, shape, p, mu):
        y = random_matrix(rng, *shape)
        mu *= core.schatten_norm(y, p)
        val, grad = optim._smooth_value_grad(y, p, mu)
        ref_val, ref_grad = svd_value_grad(y, p, mu)
        assert val == pytest.approx(ref_val, rel=1e-12)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mu", [1e-1, 1e-4])
    def test_rank_one_stack(self, p, mu):
        """Both kernels against the closed form of a rank-one 24 x 4 stack.
        Its three null slots carry roundoff of about eps * ||y|| in either
        kernel, which the gradient divides by mu at p = 1; the tolerance
        allows four times that."""
        y = rank_one_family().reshape(24, 4)
        mu *= core.schatten_norm(y, p)
        s = np.linalg.norm(y)
        total = (s * s + mu * mu) ** (0.5 * p) + 3 * mu**p
        val = total ** (1.0 / p)
        grad = total ** (1.0 / p - 1.0) * (s * s + mu * mu) ** (0.5 * p - 1.0) * y
        tol = 1e-12 + 4 * np.finfo(float).eps * s / mu
        for kernel in (optim._smooth_value_grad, svd_value_grad):
            got_val, got_grad = kernel(y, p, mu)
            assert got_val == pytest.approx(val, rel=tol)
            assert np.linalg.norm(got_grad - grad) <= tol * np.linalg.norm(grad)


class TestSolver:
    def test_svd_calls_bounded_per_stage(self, rng, monkeypatch):
        """Exact objectives and certificates take SVDs once per smoothing
        stage; the L-BFGS iterations between them take none."""
        fam = np.stack(random_family(rng, 3, 2))
        calls = {"svd": 0, "stages": 0}
        svd, lbfgs = np.linalg.svd, optim._lbfgs

        def counting_svd(*args, **kw):
            calls["svd"] += 1
            return svd(*args, **kw)

        def counting_lbfgs(*args, **kw):
            calls["stages"] += 1
            return lbfgs(*args, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(optim, "_lbfgs", counting_lbfgs)
        res = hvnorms.sum_norm_solve(fam, 1.0, ConvexCfg(iters=400))
        # the start takes the two one-sided trivial objectives, the held
        # side's norming element and the other side's dual norm, then each
        # stage the iterate's objective and the two dual norms of its
        # certificate
        assert calls["svd"] <= 4 + 4 * calls["stages"]
        assert res.iters > calls["svd"]

    @pytest.mark.parametrize("which,p", [("rank-one", 1.0), ("random", 1.5)])
    def test_reported_value_is_exact(self, rng, which, p):
        fam = rank_one_family() if which == "rank-one" else np.stack(
            random_family(rng, 5, 3)
        )
        res = hvnorms.sum_norm_solve(fam, p, ConvexCfg(iters=200))
        assert res.value == pytest.approx(split_objective(fam, res.minimizer, p), rel=1e-14)
        ref = min(hvnorms.col_norm(fam, p), hvnorms.row_norm(fam, p))
        assert res.value <= ref * (1 + 1e-12)

    def test_pinned_family_inside_its_interval(self):
        """The 4 x 3 x 3 family of default_rng(5) at p = 1, whose infimum
        lies in [13.04275963, 13.04276198]."""
        rng = np.random.default_rng(5)
        fam = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        res = hvnorms.sum_norm_solve(fam, 1.0)
        assert res.status == "converged"
        assert 13.04275963 <= res.value <= 13.04276198
        assert res.value - res.lower <= 1e-6 * res.value
        # its trivial splits are not optimal, so the stages still run, on
        # the same trajectory and to the same bits as before the start
        # certificate
        assert res.iters > 0
        assert res.value == 13.04276197638721
        assert res.lower == 13.042752035516749

    @pytest.mark.parametrize("kind", ["product", "one-row", "one-column"])
    @pytest.mark.parametrize("p", [1.0, 1.3, 1.9])
    def test_trivially_optimal_family_closes_at_the_start(self, monkeypatch, kind, p):
        """u_j = c_j y has col = row = ||c||_2 ||y||_p, and a family with one
        nonzero row (column) has a rank-one row (column) stack: each sum
        norm is its better trivial split, so the start certificate closes
        the interval and no smoothing stage runs."""
        rng = np.random.default_rng(11)
        c = random_matrix(rng, 5, 1)
        e = np.eye(3)[0]
        fam = {
            "product": c[:, :, None] * random_matrix(rng, 3),
            "one-row": e[None, :, None] * random_matrix(rng, 5, 3)[:, None, :],
            "one-column": random_matrix(rng, 5, 3)[:, :, None] * e[None, None, :],
        }[kind]

        monkeypatch.setattr(optim, "_lbfgs", no_stage)
        res = hvnorms.sum_norm_solve(fam, p)
        assert res.status == "converged" and res.iters == 0
        assert res.value == min(hvnorms.col_norm(fam, p), hvnorms.row_norm(fam, p))
        assert 0.0 <= res.value - res.lower <= 1e-14 * res.value

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_bracket_of_a_positive_diagonal_closes_at_the_start(self, monkeypatch, p):
        """For a positive normal A, F*F is a multiple of 1, so the
        conjugate-gradient correction of the start certificate is exact and
        the bracket closes at its better trivial split."""
        op = fc.LeftMult(np.diag([0.5, 1.0, 2.5, 4.0]))
        f = fc.library("sqrtzexp")
        x = random_matrix(np.random.default_rng(6), 4)
        solves = []
        cg = optim._conjugate_gradients

        def recording(normal, rhs, steps):
            solves.append(rhs)
            return cg(normal, rhs, steps)

        monkeypatch.setattr(optim, "_conjugate_gradients", recording)
        monkeypatch.setattr(optim, "_lbfgs", no_stage)
        res = sqfn.bracket_norm(op, x, f, p=p)
        assert len(solves) == 1
        assert res.status == "converged" and res.iters == 0
        cap = min(sqfn.sq_col(op, x, f, p=p), sqfn.sq_row(op, x, f, p=p))
        assert res.value == cap
        assert 0.0 <= res.value - res.lower <= 1e-12 * res.value

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 4),
        p=st.floats(1.0, 2.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interval_is_ordered(self, n, d, p, seed):
        fam = np.stack(random_family(np.random.default_rng(seed), n, d))
        cfg = ConvexCfg()
        res = hvnorms.sum_norm_solve(fam, p, cfg)
        ref = min(hvnorms.col_norm(fam, p), hvnorms.row_norm(fam, p))
        assert res.lower <= res.value <= ref * (1 + 1e-12)
        if res.status == "converged":
            assert res.value - res.lower <= cfg.tol * res.value

    @pytest.mark.parametrize(
        "a",
        [np.diag([1.0, np.exp(0.6j), 2.0 * np.exp(-0.4j)]),
         np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 0.5], [0.0, 0.0, 0.7]])],
        ids=["complex-spectrum", "non-normal"],
    )
    def test_bracket_certificate_through_conjugate_gradients(self, monkeypatch, a):
        """The bracket maps col o F and row o F are not isometric: F*F is a
        multiple of 1 for a positive normal A (the integral of |F(t lam)|^2
        dt/t does not depend on lam > 0), but not when the spectrum has
        several arguments or A is not normal.  The side-2 gradient is then
        corrected by a conjugate-gradient solve of F*F z = r that one step
        cannot finish, and the interval still closes."""
        op = fc.LeftMult(a)
        f = fc.library("zexp")
        x = random_matrix(np.random.default_rng(4), 3)
        solves = []
        cg = optim._conjugate_gradients

        def recording(normal, rhs, steps):
            z = cg(normal, rhs, steps)
            solves.append((rhs, normal(rhs), normal(z)))
            return z

        monkeypatch.setattr(optim, "_conjugate_gradients", recording)
        res = sqfn.bracket_norm(op, x, f, p=1.0)
        assert solves
        for rhs, image, solved in solves:
            # F*F r is not parallel to r, so a single CG step leaves a residual
            along = np.vdot(rhs, image).real / np.vdot(rhs, rhs).real * rhs
            assert np.linalg.norm(image - along) > 1e-3 * np.linalg.norm(image)
            assert np.linalg.norm(solved - rhs) <= 1e-10 * np.linalg.norm(rhs)
        cap = min(sqfn.sq_col(op, x, f, p=1.0), sqfn.sq_row(op, x, f, p=1.0))
        assert res.status == "converged"
        assert res.lower <= res.value <= cap * (1 + 1e-12)
        assert res.value - res.lower <= 1e-6 * res.value


def test_no_scipy_optimize_import():
    """The solver is plain numpy: importing nclp and running both kinds of
    split-norm solve must not load scipy.optimize (tens of MB of RSS)."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from nclp import funcalc as fc, hvnorms, sqfn",
        "rng = np.random.default_rng(0)",
        "fam = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))",
        "hvnorms.sum_norm_solve(fam, 1.0)",
        "op = fc.LeftMult(np.diag([0.5, 1.0, 2.0]))",
        "sqfn.bracket_norm(op, np.eye(3) + 0.5j, fc.library('sqrtzexp'), p=1.5)",
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'",
    ])
    src = str(Path(optim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

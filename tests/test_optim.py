import numpy as np
import pytest

from nclp import core, hvnorms, optim
from nclp.optim import ConvexCfg

from conftest import random_family, random_matrix


def svd_value_grad(y, p, mu):
    """The smoothed norm and gradient from a full SVD: the reference the
    Gram-spectrum kernel must reproduce."""
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    shifted = s * s + mu * mu
    total = float(np.sum(shifted ** (0.5 * p)))
    ds = total ** (1.0 / p - 1.0) * s * shifted ** (0.5 * p - 1.0)
    return total ** (1.0 / p), (u * ds) @ vh, float(core.schatten_from_sv(s, p))


def rank_one_family(n=6, d=4):
    rng = np.random.default_rng(1)
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return np.stack([c * np.outer(a, b.conj()) for c in rng.standard_normal(n)])


def split_objective(fam, v, p):
    """col(v) + row(fam - v), each from an SVD of the stacked matrix."""
    col, _ = hvnorms._vstack_maps(*fam.shape)
    row, _ = hvnorms._hstack_maps(*fam.shape)
    return core.schatten_norm(col(v), p) + core.schatten_norm(row(fam - v), p)


class TestGramKernel:
    """mu is relative to ||y||_p: the solver's schedule never smooths below
    1e-4 times the objective, which keeps mu^2 far above the roundoff of
    the Gram eigenvalues on the null slots of a rank-deficient stack."""

    @pytest.mark.parametrize("shape", [(2048, 4), (4, 2048), (192, 8), (6, 2), (4, 4)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mu", [1e-1, 1e-4])
    def test_matches_svd_reference(self, rng, shape, p, mu):
        y = random_matrix(rng, *shape)
        mu *= core.schatten_norm(y, p)
        val, grad, ranked = optim._smooth_value_grad(y, p, mu)
        ref_val, ref_grad, ref_norm = svd_value_grad(y, p, mu)
        assert val == pytest.approx(ref_val, rel=1e-12)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
        assert ranked == pytest.approx(ref_norm, rel=1e-12)

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
            got_val, got_grad, _ = kernel(y, p, mu)
            assert got_val == pytest.approx(val, rel=tol)
            assert np.linalg.norm(got_grad - grad) <= tol * np.linalg.norm(grad)


class TestSolver:
    def test_no_svd_per_iteration(self, rng, monkeypatch):
        fam = np.stack(random_family(rng, 3, 2))
        svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kw):
            calls.append(1)
            return svd(*args, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        counts = []
        for iters in (40, 400):
            calls.clear()
            hvnorms.sum_norm_solve(fam, 1.0, ConvexCfg(restarts=3, iters=iters))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("which,p", [("rank-one", 1.0), ("random", 1.5)])
    def test_reported_value_is_exact(self, rng, which, p):
        fam = rank_one_family() if which == "rank-one" else np.stack(
            random_family(rng, 5, 3)
        )
        res = hvnorms.sum_norm_solve(fam, p, ConvexCfg(restarts=4, iters=200))
        assert res.value == pytest.approx(split_objective(fam, res.minimizer, p), rel=1e-14)
        ref = min(hvnorms.col_norm(fam, p), hvnorms.row_norm(fam, p))
        assert res.value <= ref * (1 + 1e-12)

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_matrix(rng, d1, d2=None, scale=1.0):
    d2 = d1 if d2 is None else d2
    return scale * (rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2)))


def random_hermitian(rng, d, scale=1.0):
    a = random_matrix(rng, d, scale=scale)
    return 0.5 * (a + a.conj().T)


def random_psd(rng, d, scale=1.0):
    a = random_matrix(rng, d, scale=scale)
    return a.conj().T @ a


def random_family(rng, n, d1, d2=None, scale=1.0):
    return [random_matrix(rng, d1, d2, scale) for _ in range(n)]


def unit(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def grid_cf(f, grid, scale=1.0):
    """c_F on a square-function grid: (sum_j w_j |F(scale * t_j)|^2)^{1/2}."""
    return float(np.sqrt(np.sum(grid.w * np.abs(f(scale * grid.t)) ** 2)))

import numpy as np
import pytest

from nclp import funcalc as fc
from nclp import optim, rbound


@pytest.fixture(autouse=True)
def ordered_bounds(monkeypatch):
    """Every certified interval a test produces has lower <= upper: each
    SolveResult, BoundEstimate and SectorProfile bound built during the
    test is checked after it.  A search's lower end is the objective of its
    witness and its upper end a closed-form norm, so they may cross by
    roundoff, bounded by UPPER_RTOL."""
    made = []
    for cls in (optim.SolveResult, rbound.BoundEstimate, fc.SectorProfile):
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            made.extend(self.bounds.values() if isinstance(self, fc.SectorProfile) else [self])

        monkeypatch.setattr(cls, "__init__", recording)
    yield
    slack = {rbound.BoundEstimate: rbound.UPPER_RTOL}
    crossed = [b for b in made if not b.lower <= b.upper * (1 + slack.get(type(b), 0.0))]
    assert crossed == []


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

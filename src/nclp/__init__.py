"""Numerical laboratory for finite-dimensional noncommutative L^p analysis.

The package works on dense complex matrices (the finite noncommutative
L^p elements), superoperators acting on them, and a small zoo of concrete
semigroup models:

* :mod:`nclp.core` -- Schatten norms, PSD square roots, the matrix text
  format, and :class:`core.Bound`, the certified interval every estimator
  returns.
* :mod:`nclp.hvnorms` -- Hilbert-space-valued norms of matrix families
  (column / row / intersection / sum / Rademacher) and Khintchine ratios.
* :mod:`nclp.funcalc` -- structured superoperators, resolvents, contour
  and extended H-infinity functional calculus, imaginary powers,
  sectoriality profiling, Gaussian group-average and square-root
  subordination identities.
* :mod:`nclp.rbound` -- certified intervals on column / row /
  Rademacher boundedness constants of operator families.
* :mod:`nclp.sqfn` -- square functions under the dt/t measure, bracket
  norms, norm-equivalence experiments and the row/column gap family.
* :mod:`nclp.models` -- Schur-multiplier semigroups, the free-group
  Poisson semigroup, truncated q-Fock spaces, Clifford spin systems and
  matrix martingale towers.
* :mod:`nclp.cli` -- reproducible experiment runner.
"""

__version__ = "0.1.0"

from . import core, funcalc, hvnorms, models, rbound, sqfn  # noqa: F401

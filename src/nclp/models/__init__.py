"""Concrete semigroup models: Schur multipliers from point configurations,
the free-group algebra with its length-decay semigroup, truncated q-Fock
spaces, Clifford spin systems, and matrix martingale towers."""

from . import clifford, fock, freegroup, martingale, schur  # noqa: F401
from .clifford import (  # noqa: F401
    CliffordDiagonalOp,
    SpinRep,
    clifford_multiplier,
    clifford_semigroup,
    normalized_trace,
    number_operator,
    spin_generators,
    v_f,
)
from .fock import (  # noqa: F401
    FockBasis,
    FockOp,
    fock_annihilation,
    fock_creation,
    fock_trace,
    gaussian_moment,
    gaussian_op,
    ou_semigroup,
    q_gram,
    second_quantization,
)
from .freegroup import GroupPoly, dyadic_unconditionality  # noqa: F401
from .martingale import (  # noqa: F401
    CesaroReport,
    CondExpOp,
    MartingaleTower,
    cesaro_square_function,
    cond_exp,
    stein_colbound,
    tower_family,
)
from .schur import (  # noqa: F401
    SchurSymbol,
    collinear_symbol,
    schur_generator,
    schur_hinf_apply,
    schur_semigroup,
)

"""Concrete semigroup models: Schur multipliers from point configurations,
the free-group algebra with its length-decay semigroup, truncated q-Fock
spaces, Clifford spin systems, and matrix martingale towers."""

from . import clifford, fock, freegroup, martingale, schur  # noqa: F401

"""Shared exception types."""


class NumericalIntegrityError(RuntimeError):
    """An exact symmetry result failed its check: a character inner product
    is not a non-negative integer, a measured total spin is not a
    half-integer within its guard, a projected subspace has the wrong rank,
    or a dimension count does not add up.

    Symmetry results are exact; a guard breach means the build is wrong,
    so this is never silently recovered from.
    """


class UnboundModelError(ValueError):
    """Coupling strength lies outside the bound-state window."""


class BasisTooSmallError(ValueError):
    """Fewer spin-orbitals than particles; no determinant can be formed."""

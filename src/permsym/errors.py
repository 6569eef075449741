"""Shared exception types."""


class NumericalIntegrityError(RuntimeError):
    """A quantity that must round to an exact integer (or half-integer)
    failed its rounding guard, or a projected subspace has the wrong rank.

    Symmetry results are exact; a guard breach means the build is wrong,
    so this is never silently recovered from.
    """


class UnboundModelError(ValueError):
    """Coupling strength lies outside the bound-state window."""


class BasisTooSmallError(ValueError):
    """Fewer spin-orbitals than particles; no determinant can be formed."""

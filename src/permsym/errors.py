"""The exception of a failed exactness check; bad input raises ValueError."""


class NumericalIntegrityError(RuntimeError):
    """An exact symmetry result failed its check: a shipped character table
    or normal-mode matrix is invalid, a character inner product is not a
    non-negative integer, a dimension or multiplet count does not add up, a
    projector's factor is not orthonormal of the expected rank, a spin function
    misses S(S+1), or the two routes to the allowed irreps disagree.

    Symmetry results are exact; a guard breach means the build is wrong,
    so this is never silently recovered from.
    """


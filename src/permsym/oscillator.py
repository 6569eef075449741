"""Exactly solvable coupled-oscillator models for N = 3 and N = 4.

The Hamiltonian couples N identical unit-frequency oscillators pairwise with
strength xi.  An orthogonal change of variables decouples it into N - 1
degenerate modes with force constant k = 1 - xi and one totally symmetric
mode with k' = 1 + (N-1) xi, giving a closed-form spectrum.  Permutations of
the particles act orthogonally on the degenerate modes, W = U P U^T.  The
modes share one width, so a level's states are the monomials
prod_i (a†_i)^{m_i} / sqrt(m_i!) of fixed total degree n_sym, and a
permutation acts on them by the substitution a† -> W^T a†.  This module
builds the resulting representation matrices, and the expansion of each
level over one-particle orbitals, from that substitution.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional

from .errors import NumericalIntegrityError
from .symgroup import Permutation, all_permutations

if TYPE_CHECKING:
    import numpy as np
#: coupling window with all force constants positive, per particle count
BOUND_WINDOWS: dict[int, tuple[float, float]] = {3: (-0.5, 1.0), 4: (-1.0 / 3.0, 1.0)}
#: largest cutoff :func:`enumerate_levels` accepts (README, "Command line")
MAX_TOTAL_QUANTA = 200

_ORTHO_TOL = 1e-12


def _normal_mode_matrix(n_particles: int) -> np.ndarray:
    """Rows map particle coordinates x to normal modes y; the last row is
    the uniform (totally symmetric) mode."""
    import numpy as np

    if n_particles == 3:
        u = np.array(
            [
                [0.0, 1.0, -1.0],
                [2.0, -1.0, -1.0],
                [1.0, 1.0, 1.0],
            ]
        ) / np.sqrt([[2.0], [6.0], [3.0]])
    elif n_particles == 4:
        u = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.5, -0.5, -0.5, 0.5],
                [0.5, 0.5, 0.5, 0.5],
            ]
        )
        u[:2] /= np.sqrt(2.0)
    else:
        raise ValueError(f"normal modes shipped for N in {{3, 4}}, got {n_particles}")
    return u


@functools.lru_cache(maxsize=None)
def normal_modes(n_particles: int) -> np.ndarray:
    """The shipped normal-mode matrix U for N particles (cached, read-only),
    checked once per N: it must be orthogonal, with the uniform symmetric
    mode as its last row."""
    import numpy as np

    u = _normal_mode_matrix(n_particles)
    if np.abs(u @ u.T - np.eye(n_particles)).max() > _ORTHO_TOL:
        raise NumericalIntegrityError("normal-mode matrix is not orthogonal")
    # a uniform symmetric mode is fixed by every permutation of the particles
    if np.ptp(u[-1]) > _ORTHO_TOL:
        raise NumericalIntegrityError("symmetric mode is not the uniform last row")
    u.setflags(write=False)
    return u


def make_model(n_particles: int, xi: float) -> tuple[int, float]:
    """The model (N, xi), rejecting couplings outside the bound-state window
    with ValueError."""
    if n_particles not in BOUND_WINDOWS:
        raise ValueError(f"supported particle counts are 3 and 4, got {n_particles}")
    lo, hi = BOUND_WINDOWS[n_particles]
    if not (lo < xi < hi):
        raise ValueError(
            f"xi={xi} outside the bound-state window ({lo:.6g}, {hi:.6g}) "
            f"for N={n_particles}"
        )
    return n_particles, float(xi)


def level_energy(model: tuple[int, float], n_sym: int, n_last: int) -> float:
    """sqrt(k) (n_sym + (N-1)/2) + sqrt(k') (n_last + 1/2), with the force
    constants k = 1 - xi and k' = 1 + (N-1) xi."""
    n, xi = model
    k, k_prime = 1.0 - xi, 1.0 + (n - 1) * xi
    return math.sqrt(k) * (n_sym + (n - 1) / 2.0) + math.sqrt(k_prime) * (n_last + 0.5)


def level_degeneracy(n_particles: int, n_sym: int) -> int:
    """n_sym + 1 for N=3; (n_sym+1)(n_sym+2)/2 for N=4 (compositions of
    n_sym into N-1 degenerate modes)."""
    return math.comb(n_sym + n_particles - 2, n_particles - 2)


class LevelDescriptor(NamedTuple):
    """One degenerate exact level, keyed by quantum numbers.

    Levels are keyed by (n_sym, n_last), never by floating energy: for
    special couplings distinct keys can collide in energy, and the irrep
    analysis must not merge them.  ``irrep_mults`` is None until filled by
    the level-symmetry analysis.
    """

    n_sym: int
    n_last: int
    energy: float
    degeneracy: int
    parity: int
    irrep_mults: Optional[Mapping[str, int]] = None

    @property
    def quanta_key(self) -> tuple[int, int]:
        return (self.n_sym, self.n_last)


def make_level(model: tuple[int, float], n_sym: int, n_last: int) -> LevelDescriptor:
    if n_sym < 0 or n_last < 0:
        raise ValueError(f"negative quanta in level ({n_sym}, {n_last})")
    return LevelDescriptor(
        n_sym=n_sym,
        n_last=n_last,
        energy=level_energy(model, n_sym, n_last),
        degeneracy=level_degeneracy(model[0], n_sym),
        parity=(-1) ** (n_sym + n_last),
    )


def check_cutoff(max_total_quanta: int) -> None:
    """Raise ValueError unless 0 <= cutoff <= ``MAX_TOTAL_QUANTA``."""
    if max_total_quanta < 0:
        raise ValueError("max_total_quanta must be >= 0")
    if max_total_quanta > MAX_TOTAL_QUANTA:
        count = (max_total_quanta + 1) * (max_total_quanta + 2) // 2
        raise ValueError(
            f"cutoff {max_total_quanta} gives {count} levels, above the "
            f"{MAX_TOTAL_QUANTA}-quanta bound"
        )


def enumerate_levels(
    model: tuple[int, float], max_total_quanta: int
) -> list[LevelDescriptor]:
    """All levels with n_sym + n_last <= cutoff, sorted by energy ascending
    with (n_sym, n_last) lexicographic tie-break.

    Accidental energy coincidences between distinct keys are reported in
    one warning per call, never merged.  A bad cutoff (:func:`check_cutoff`)
    raises ValueError before any level is built.
    """
    check_cutoff(max_total_quanta)
    levels = [
        make_level(model, n_sym, n_last)
        for n_sym in range(max_total_quanta + 1)
        for n_last in range(max_total_quanta - n_sym + 1)
    ]
    levels.sort(key=lambda lv: (lv.energy, lv.quanta_key))
    pairs = [
        (a, b)
        for a, b in itertools.pairwise(levels)
        if abs(a.energy - b.energy) < 1e-9
    ]
    if pairs:
        (a, b), more = pairs[0], len(pairs) - 1
        warnings.warn(
            f"accidental energy coincidence between levels {a.quanta_key} "
            f"and {b.quanta_key} at xi={model[1]}"
            + (f", and {more} more adjacent pair{'s' * (more > 1)}" if more else ""),
            stacklevel=2,
        )
    return levels


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ways to split ``total`` quanta over ``parts`` modes, in
    lexicographic order."""
    if parts == 1:
        return [(total,)]
    return [
        (q,) + rest
        for q in range(total + 1)
        for rest in _compositions(total - q, parts - 1)
    ]


def level_patterns(n_particles: int, n_sym: int) -> list[tuple[int, ...]]:
    """Degenerate-mode quanta patterns of a level in lexicographic order.

    This ordering fixes the basis for every representation matrix.
    """
    return _compositions(n_sym, n_particles - 1)


# ---------------------------------------------------------------------------
# permutation action on degenerate levels


def _substitution_matrix(rows: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of the substitution a†_i -> sum_j rows[i, j] a†_j on the
    normalized states |m> = prod_i (a†_i)^{m_i} / sqrt(m_i!) with
    ``degree`` quanta in all.

    Entry [m', m] is the coefficient of |m'> in the image of |m>, rows and
    columns in :func:`_compositions` order: the coefficient of the monomial
    a†^{m'} in the substituted a†^m, weighted by sqrt(m'! / m!).  It is
    built one quantum at a time from |m> = sum_i sqrt(m_i) a†_i |m - e_i> / n
    at degree n: D_n[m', m] = sum_ij sqrt(m_i m'_j) rows[i, j]
    D_{n-1}[m' - e_j, m - e_i] / n, an isometric image of D_{n-1} for
    orthogonal ``rows``, so rounding does not compound with the degree.
    Every term keeps the degree, so nothing leaks out of the level.
    """
    import numpy as np

    k = len(rows)
    states, mat = np.zeros((1, k), dtype=np.int64), np.ones((1, 1))
    for n in range(1, degree + 1):
        base = (n + 1) ** np.arange(k - 1, -1, -1)  # keys in lexicographic order
        below, states = states @ base, np.array(_compositions(n, k))
        # m - e_i one degree down (clipped where m_i = 0, which sqrt(m_i) cancels)
        lower = np.searchsorted(below, states @ base - base[:, None])
        lower = lower.clip(max=len(below) - 1)
        roots = np.sqrt(states.T)
        # peel mode i from the columns, [a, i, m] = sqrt(m_i) D[a, m - e_i],
        # mix the modes by rows, and raise mode j in the rows
        mixed = rows.T @ (np.take(mat, lower, axis=1) * roots)
        mat = np.einsum("jm,mjx->mx", roots / n, mixed[lower.T, range(k)])
    return mat


@functools.lru_cache(maxsize=None)
def _level_rep_matrices(n_particles: int, n_sym: int) -> dict[Permutation, np.ndarray]:
    """D(p) for every permutation p on the level basis (cached).

    The matrices are independent of the coupling because permutations act
    orthogonally on the shared-width degenerate modes; the uniform scale
    q_i = k**(1/4) y_i commutes with the mode action.
    """
    u = normal_modes(n_particles)[:-1]
    # U P = U[:, images - 1]; p substitutes a†_i -> sum_j W[j, i] a†_j
    return {
        p: _substitution_matrix((u[:, [i - 1 for i in p]] @ u.T).T, n_sym)
        for p in all_permutations(n_particles)
    }


def permutation_action_matrix(
    n_particles: int, n_sym: int, p: Permutation
) -> np.ndarray:
    """Matrix of p on the span of a level's eigenfunctions, n_sym quanta in
    the degenerate modes of N particles.

    p sends particle j to p[j-1], acts by (p f)(x) = f(x_{p[0]}, ..., x_{p[N-1]}),
    and on the modes is W = U P U^T, formed by indexing U's columns.
    Basis: degenerate-mode patterns in lexicographic order
    (:func:`level_patterns`).  The matrices form an orthogonal
    representation: D(p) D(q) = D(compose(p, q)).
    """
    if len(p) != n_particles:
        raise ValueError(f"permutation size {len(p)} != N {n_particles}")
    return _level_rep_matrices(n_particles, n_sym)[p].copy()


@functools.lru_cache(maxsize=None)
def uncoupled_expansion(
    n_particles: int, n_sym: int, n_last: int
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Expand the level's eigenfunctions over products of one-particle
    unit-oscillator orbitals.

    At zero coupling the mode and particle pictures share one isotropic
    Gaussian, so each level eigenfunction is a finite combination of
    products prod_i phi_{m_i}(x_i) with sum(m) = n_sym + n_last.  No package
    code calls it; the test oracles antisymmetrize it to check the package.

    Returns (orbital patterns, coefficient matrix C) with C[a, j] the
    coefficient of orbital pattern j in level-basis function a; rows are
    orthonormal.
    """
    total = n_sym + n_last
    orb_patterns = _compositions(total, n_particles)
    index = {pat: j for j, pat in enumerate(orb_patterns)}
    level_cols = [index[pat + (n_last,)] for pat in level_patterns(n_particles, n_sym)]
    # mode a†_i = sum_j U[i, j] a†_j over the particles' unit oscillators
    coeffs = _substitution_matrix(normal_modes(n_particles), total)[:, level_cols].T.copy()
    coeffs.setflags(write=False)  # cached; callers must not mutate
    return orb_patterns, coeffs

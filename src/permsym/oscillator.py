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
level over one-particle orbitals, from that substitution (no quadrature,
no Hermite tables).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import NumericalIntegrityError, UnboundModelError
from .symgroup import Permutation

QuantaPattern = tuple[int, ...]

#: coupling window with all force constants positive, per particle count
BOUND_WINDOWS: dict[int, tuple[float, float]] = {3: (-0.5, 1.0), 4: (-1.0 / 3.0, 1.0)}

_ORTHO_TOL = 1e-12


def _normal_mode_matrix(n_particles: int) -> np.ndarray:
    """Rows map particle coordinates x to normal modes y; the last row is
    the uniform (totally symmetric) mode."""
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


@dataclass(frozen=True)
class OscillatorModel:
    """Model parameters and the orthogonal normal-mode transform U."""

    n_particles: int
    xi: float
    k: float
    k_prime: float
    U: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.U.setflags(write=False)


def make_model(n_particles: int, xi: float) -> OscillatorModel:
    """Build a model, rejecting couplings outside the bound-state window."""
    if n_particles not in BOUND_WINDOWS:
        raise ValueError(f"supported particle counts are 3 and 4, got {n_particles}")
    lo, hi = BOUND_WINDOWS[n_particles]
    if not (lo < xi < hi):
        raise UnboundModelError(
            f"xi={xi} outside the bound-state window ({lo:.6g}, {hi:.6g}) "
            f"for N={n_particles}"
        )
    u = _normal_mode_matrix(n_particles)
    if np.abs(u @ u.T - np.eye(n_particles)).max() > _ORTHO_TOL:
        raise NumericalIntegrityError("normal-mode matrix is not orthogonal")
    return OscillatorModel(
        n_particles=n_particles,
        xi=float(xi),
        k=1.0 - xi,
        k_prime=1.0 + (n_particles - 1) * xi,
        U=u,
    )


def _check_pattern(model: OscillatorModel, pattern: Sequence[int]) -> QuantaPattern:
    pattern = tuple(int(q) for q in pattern)
    if len(pattern) != model.n_particles:
        raise ValueError(
            f"quanta pattern must have {model.n_particles} entries, got {pattern}"
        )
    if any(q < 0 for q in pattern):
        raise ValueError(f"negative quanta in {pattern}")
    return pattern


def exact_energy(model: OscillatorModel, pattern: Sequence[int]) -> float:
    """Closed-form eigenvalue for a full quanta pattern (degenerate modes
    first, symmetric mode last)."""
    pattern = _check_pattern(model, pattern)
    n_sym = sum(pattern[:-1])
    n_last = pattern[-1]
    return level_energy(model, n_sym, n_last)


def level_energy(model: OscillatorModel, n_sym: int, n_last: int) -> float:
    half_modes = (model.n_particles - 1) / 2.0
    return math.sqrt(model.k) * (n_sym + half_modes) + math.sqrt(model.k_prime) * (
        n_last + 0.5
    )


def level_degeneracy(n_particles: int, n_sym: int) -> int:
    """n_sym + 1 for N=3; (n_sym+1)(n_sym+2)/2 for N=4 (compositions of
    n_sym into N-1 degenerate modes)."""
    return math.comb(n_sym + n_particles - 2, n_particles - 2)


@dataclass(frozen=True)
class LevelDescriptor:
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


def make_level(model: OscillatorModel, n_sym: int, n_last: int) -> LevelDescriptor:
    return LevelDescriptor(
        n_sym=n_sym,
        n_last=n_last,
        energy=level_energy(model, n_sym, n_last),
        degeneracy=level_degeneracy(model.n_particles, n_sym),
        parity=(-1) ** (n_sym + n_last),
    )


def enumerate_levels(model: OscillatorModel, max_total_quanta: int) -> list[LevelDescriptor]:
    """All levels with n_sym + n_last <= cutoff, sorted by energy ascending
    with (n_sym, n_last) lexicographic tie-break.

    Accidental energy coincidences between distinct keys are reported as a
    warning, never merged.
    """
    if max_total_quanta < 0:
        raise ValueError("max_total_quanta must be >= 0")
    levels = [
        make_level(model, n_sym, n_last)
        for n_sym in range(max_total_quanta + 1)
        for n_last in range(max_total_quanta - n_sym + 1)
    ]
    levels.sort(key=lambda lv: (lv.energy, lv.quanta_key))
    for a, b in itertools.pairwise(levels):
        if abs(a.energy - b.energy) < 1e-9:
            warnings.warn(
                f"accidental energy coincidence between levels {a.quanta_key} "
                f"and {b.quanta_key} at xi={model.xi}",
                stacklevel=2,
            )
    return levels


def hermite_poly(n: int) -> tuple[int, ...]:
    """Physicists' Hermite polynomial H_n, ascending integer coefficients.

    Built from H_{k+1}(q) = 2q H_k(q) - 2k H_{k-1}(q).
    """
    if n < 0:
        raise ValueError(f"Hermite degree must be >= 0, got {n}")
    prev, cur = [], [1]
    for k in range(n):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return tuple(cur)


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


@dataclass(frozen=True)
class HermiteGaussian:
    """Polynomial part of an exact eigenfunction plus evaluation metadata.

    ``poly`` is over the scaled degenerate-mode coordinates
    q_i = k**(1/4) y_i; the symmetric-mode Hermite factor and the Gaussian
    are carried via the stored model constants.
    """

    pattern: QuantaPattern
    poly: Mapping[tuple[int, ...], float]
    normalization: float
    k: float
    k_prime: float
    U: np.ndarray = field(repr=False, compare=False)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Value of the full normalized eigenfunction at particle
        coordinates ``points`` of shape (..., N)."""
        pts = np.asarray(points, dtype=float)
        y = pts @ self.U.T
        qdeg = self.k**0.25 * y[..., :-1]
        qlast = self.k_prime**0.25 * y[..., -1]
        val = np.zeros(pts.shape[:-1])
        for exps, coeff in self.poly.items():
            term = np.full(pts.shape[:-1], coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * qdeg[..., i] ** e
            val = val + term
        hlast = np.polynomial.hermite.hermval(
            qlast, [0.0] * self.pattern[-1] + [1.0]
        )
        gauss = np.exp(
            -0.5 * math.sqrt(self.k) * (y[..., :-1] ** 2).sum(axis=-1)
            - 0.5 * math.sqrt(self.k_prime) * y[..., -1] ** 2
        )
        return self.normalization * val * hlast * gauss


def _norm_constant(pattern: QuantaPattern, k: float, k_prime: float) -> float:
    # product of 1D harmonic oscillator norms; the degenerate modes share k
    out = 1.0
    for n in pattern[:-1]:
        out *= k**0.25 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    n = pattern[-1]
    out *= k_prime**0.25 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return out


def eigenfunction(model: OscillatorModel, pattern: Sequence[int]) -> HermiteGaussian:
    """Exact normalized eigenfunction as Hermite polynomial x Gaussian."""
    pattern = _check_pattern(model, pattern)
    coeffs = [hermite_poly(q) for q in pattern[:-1]]
    terms = (
        (exps, math.prod(c[e] for c, e in zip(coeffs, exps)))
        for exps in itertools.product(*(range(len(c)) for c in coeffs))
    )
    poly = {exps: float(value) for exps, value in terms if value}
    return HermiteGaussian(
        pattern=pattern,
        poly=poly,
        normalization=_norm_constant(pattern, model.k, model.k_prime),
        k=model.k,
        k_prime=model.k_prime,
        U=model.U,
    )


# ---------------------------------------------------------------------------
# permutation action on degenerate levels


def permutation_matrix(p: Permutation) -> np.ndarray:
    """N x N matrix with P e_j = e_{p(j)}, so that (P x)_i = x_{p^{-1}(i)}."""
    n = p.n
    mat = np.zeros((n, n))
    for j in range(1, n + 1):
        mat[p(j) - 1, j - 1] = 1.0
    return mat


def mode_action(model: OscillatorModel, p: Permutation) -> np.ndarray:
    """Orthogonal action of p on the N-1 degenerate modes: U P U^T restricted
    to the first N-1 rows/columns (the symmetric mode is invariant)."""
    if p.n != model.n_particles:
        raise ValueError(f"permutation size {p.n} != model N {model.n_particles}")
    v = model.U @ permutation_matrix(p) @ model.U.T
    nm = model.n_particles - 1
    if np.abs(v[nm, :nm]).max() > _ORTHO_TOL or abs(v[nm, nm] - 1.0) > _ORTHO_TOL:
        raise NumericalIntegrityError("symmetric mode not invariant under permutation")
    return v[:nm, :nm]


def _substitution_matrix(rows: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of the substitution a†_i -> sum_j rows[i, j] a†_j on the
    normalized states |m> = prod_i (a†_i)^{m_i} / sqrt(m_i!) with
    ``degree`` quanta in all.

    Entry [m', m] is the coefficient of |m'> in the image of |m>, rows and
    columns in :func:`_compositions` order: the coefficient of the monomial
    a†^{m'} in the substituted a†^m, weighted by sqrt(m'! / m!).  It is
    built one quantum at a time: |m> = a†_i |m - e_i> / sqrt(m_i) for the
    first occupied mode i, and a†_j |m''> = sqrt(m''_j + 1) |m'' + e_j>.
    Every term keeps the degree, so nothing can leak out of the level.
    """
    n_in, n_out = rows.shape
    outs, ins = [(0,) * n_out], [(0,) * n_in]
    mat = np.ones((1, 1))
    for n in range(1, degree + 1):
        out_index = {m: k for k, m in enumerate(outs)}
        in_index = {m: k for k, m in enumerate(ins)}
        outs, ins = _compositions(n, n_out), _compositions(n, n_in)
        first = [next(i for i, q in enumerate(m) if q) for m in ins]
        parents = [in_index[_lowered(m, i)] for m, i in zip(ins, first)]
        # image of |m - e_i> / sqrt(m_i), still to be raised by a†_i
        lowered = mat[:, parents] / np.sqrt([m[i] for m, i in zip(ins, first)])
        mat = np.zeros((len(outs), len(ins)))
        for j in range(n_out):
            hit = [k for k, m in enumerate(outs) if m[j]]
            lower = [out_index[_lowered(outs[k], j)] for k in hit]
            raise_j = np.sqrt([[outs[k][j]] for k in hit])
            mat[hit] += raise_j * lowered[lower] * rows[first, j]
    return mat


def _lowered(m: tuple[int, ...], i: int) -> tuple[int, ...]:
    return m[:i] + (m[i] - 1,) + m[i + 1:]


@functools.lru_cache(maxsize=None)
def _level_rep_matrices(n_particles: int, n_sym: int) -> dict[tuple[int, ...], np.ndarray]:
    """D(p) for every permutation p on the level basis (cached).

    The matrices are independent of the coupling because permutations act
    orthogonally on the shared-width degenerate modes; the uniform scale
    q_i = k**(1/4) y_i commutes with the mode action.
    """
    from .symgroup import all_permutations  # local to avoid cycle at import

    model = make_model(n_particles, 0.0)
    # the operator of p substitutes a†_i -> sum_j w[j, i] a†_j
    return {
        p.images: _substitution_matrix(mode_action(model, p).T, n_sym)
        for p in all_permutations(n_particles)
    }


def permutation_action_matrix(
    model: OscillatorModel, level: LevelDescriptor, p: Permutation
) -> np.ndarray:
    """Matrix of p on the span of the level's eigenfunctions.

    Basis: degenerate-mode patterns in lexicographic order
    (:func:`level_patterns`).  The matrices form an orthogonal
    representation: D(p) D(q) = D(compose(p, q)).
    """
    if p.n != model.n_particles:
        raise ValueError(f"permutation size {p.n} != model N {model.n_particles}")
    mats = _level_rep_matrices(model.n_particles, level.n_sym)
    return mats[p.images].copy()


@functools.lru_cache(maxsize=None)
def uncoupled_expansion(
    n_particles: int, n_sym: int, n_last: int
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Expand the level's eigenfunctions over products of one-particle
    unit-oscillator orbitals.

    At zero coupling the mode and particle pictures share one isotropic
    Gaussian, so each level eigenfunction is a finite combination of
    products prod_i phi_{m_i}(x_i) with sum(m) = n_sym + n_last.  Since the
    representation matrices are coupling-independent, this realization is
    the one used for all symmetry bookkeeping in particle coordinates.

    Returns (orbital patterns, coefficient matrix C) with C[a, j] the
    coefficient of orbital pattern j in level-basis function a; rows are
    orthonormal.
    """
    model = make_model(n_particles, 0.0)
    total = n_sym + n_last
    orb_patterns = _compositions(total, n_particles)
    index = {pat: j for j, pat in enumerate(orb_patterns)}
    level_cols = [index[pat + (n_last,)] for pat in level_patterns(n_particles, n_sym)]
    # mode a†_i = sum_j U[i, j] a†_j over the particles' unit oscillators
    coeffs = _substitution_matrix(model.U, total)[:, level_cols].T.copy()
    coeffs.setflags(write=False)  # cached; callers must not mutate
    return orb_patterns, coeffs

"""Irrep decomposition of degenerate levels and symmetry-adapted bases.

A level with n_sym quanta in the degenerate modes carries the n_sym-th
symmetric power of the (N-1)-dimensional mode representation, whatever the
coupling and n_last, so its characters (:func:`level_characters`, a read-only
{cycle type: trace} map cached per (N, n_sym)) are exact integers read off a
generating function.  :func:`irrep_multiplicities` turns them into irrep
multiplicities by the exact character inner product
(:func:`symgroup.decompose`), checked to account for the whole degeneracy.
Character projectors, the terms of :func:`symgroup.character_weights` summed
over the float representation matrices, yield symmetry-adapted linear
combinations (SALCs) fixed by their span; a guard's breach is a hard
:class:`NumericalIntegrityError`, never a silent round.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from types import MappingProxyType

from . import lazy_numpy
from .errors import NumericalIntegrityError
from .oscillator import LevelDescriptor, level_degeneracy, permutation_action_matrix
from .symgroup import (
    CharacterTable,
    CycleType,
    character_table,
    character_weights,
    decompose,
    partitions,
)

np = lazy_numpy()
_RANK_TOL = 1e-8
#: largest level :func:`salc` projects (README, "Numerical conventions")
MAX_SALC_DEGENERACY = 500


@functools.lru_cache(maxsize=None)
def level_characters(n: int, n_sym: int) -> MappingProxyType[CycleType, int]:
    """Exact integer trace of the permutation action on a level of N
    particles with n_sym degenerate quanta, per cycle type (cached, read-only).

    For a permutation of cycle type lambda the mode representation W has
    sum_n t^n trace(Sym^n W) = 1/det(1 - tW) = (1 - t) / prod_l (1 - t^l)
    (Molien series), so the level's trace is the t^n_sym coefficient.
    """
    traces = {}
    for ct in partitions(n):
        series = [1] + [0] * n_sym  # 1 / prod_l (1 - t^l), up to t^n_sym
        for length in ct:
            for k in range(length, n_sym + 1):
                series[k] += series[k - length]
        traces[ct] = series[n_sym] - (series[n_sym - 1] if n_sym else 0)
    return MappingProxyType(traces)


def irrep_multiplicities(n: int, n_sym: int) -> dict[str, int]:
    """Exact irrep multiplicities of a level of N particles with n_sym
    degenerate quanta, from its characters (:func:`symgroup.decompose`),
    checked on every call to account for its whole degeneracy."""
    table = character_table(n)
    out = decompose(table, level_characters(n, n_sym))
    total = sum(table.dimension(ir) * m for ir, m in out.items())
    if total != (degeneracy := level_degeneracy(n, n_sym)):
        raise NumericalIntegrityError(
            f"dimension bookkeeping failed: {total} != degeneracy {degeneracy}"
        )
    return out


def attach_multiplicities(model: tuple[int, float], level: LevelDescriptor):
    """Level descriptor with irrep_mults filled in."""
    mults = irrep_multiplicities(model[0], level.n_sym)
    return dataclasses.replace(level, irrep_mults=mults)


def character_projector(
    model: tuple[int, float], level: LevelDescriptor, table: CharacterTable, irrep: str
) -> np.ndarray:
    """P_Gamma = (dim/N!) sum_g chi_Gamma(g) D(g) on the level basis, N read
    from the table."""
    dimension = table.dimension(irrep)
    order = math.factorial(table.n)
    proj = np.zeros((level.degeneracy, level.degeneracy))
    for p, chi in character_weights(table.n, irrep):
        proj += chi * permutation_action_matrix(table.n, level.n_sym, p)
    return proj * (dimension / order)


def salc(
    model: tuple[int, float], level: LevelDescriptor, table: CharacterTable, irrep: str
) -> np.ndarray:
    """Orthonormal basis of the irrep's isotypic subspace of a level, as rows
    over the level's basis: shape (copies * dimension, degeneracy), with copies
    the irrep's multiplicity in the level (zero rows when it does not occur).

    The rows are the pivoted Cholesky factor of the character projector, so
    they depend on its span alone: each step emits the residual column of
    the heaviest diagonal entry (the first within ``_RANK_TOL``) over the
    root of that weight and subtracts the row's outer product.  Each row is
    positive at its pivot and zero at every earlier one.  A level above
    ``MAX_SALC_DEGENERACY`` raises ValueError before any work.
    """
    dimension = table.dimension(irrep)  # an unknown label fails before any work
    if (deg := level.degeneracy) > MAX_SALC_DEGENERACY:
        order = math.factorial(table.n)
        raise ValueError(
            f"level {level.quanta_key} has degeneracy {deg}, above "
            f"{MAX_SALC_DEGENERACY}: its {order} representation matrices "
            f"take {8 * order * deg**2 / 2**30:.2f} GiB dense"
        )
    rank = irrep_multiplicities(table.n, level.n_sym)[irrep] * dimension
    residual = character_projector(model, level, table, irrep)
    vectors = np.zeros((rank, deg))
    for row in vectors:
        weights = residual.diagonal()
        pivot = int(np.argmax(weights >= weights.max() - _RANK_TOL))
        row[:] = residual[:, pivot] / math.sqrt(max(weights[pivot], _RANK_TOL))
        residual -= np.outer(row, row)
    # only an orthogonal projector of this rank passes: a step past its rank
    # divides a vanishing column by the clamped weight, far from a unit row
    overlap = np.abs(vectors @ vectors.T - np.eye(rank)).max(initial=0.0)
    if max(overlap, np.abs(residual).max()) > _RANK_TOL:
        raise NumericalIntegrityError(
            f"{irrep} projector at {level.quanta_key} is not {rank} orthonormal vectors"
        )
    return vectors

"""Irrep decomposition of degenerate levels and symmetry-adapted bases.

A level with n_sym quanta in the degenerate modes carries the n_sym-th
symmetric power of the (N-1)-dimensional mode representation, so its
characters (:func:`level_characters`, a {cycle type: trace} dict) are exact
integers read off a generating function (no representation matrix is built
for them).  :func:`irrep_multiplicities` turns a level's characters into
irrep multiplicities by the exact character inner product
(:func:`symgroup.decompose`), checked to account for the whole degeneracy.
The character projectors, built from the float representation matrices,
yield orthonormal symmetry-adapted linear combinations (SALCs); their ranks
are checked against the multiplicities, and a breach of any guard is a
hard :class:`NumericalIntegrityError`, never a silent round.
"""

from __future__ import annotations

import dataclasses
import math

from . import lazy_numpy
from .errors import NumericalIntegrityError
from .oscillator import LevelDescriptor, OscillatorModel, permutation_action_matrix
from .symgroup import (
    CharacterTable,
    CycleType,
    all_permutations,
    cycle_type,
    decompose,
    partitions,
)

np = lazy_numpy()
_RANK_TOL = 1e-8
#: largest level :func:`salc` projects (README, "Numerical conventions")
MAX_SALC_DEGENERACY = 500


def level_characters(
    model: OscillatorModel, level: LevelDescriptor
) -> dict[CycleType, int]:
    """Exact integer trace of the permutation action, per cycle type.

    For a permutation of cycle type lambda the mode representation W has
    sum_n t^n trace(Sym^n W) = 1/det(1 - tW) = (1 - t) / prod_l (1 - t^l)
    (Molien series), so the level's trace is the t^n_sym coefficient.
    """
    n = level.n_sym
    traces = {}
    for ct in partitions(model.n_particles):
        series = [1] + [0] * n  # 1 / prod_l (1 - t^l), up to t^n
        for length in ct:
            for k in range(length, n + 1):
                series[k] += series[k - length]
        traces[ct] = series[n] - (series[n - 1] if n else 0)
    return traces


def irrep_multiplicities(
    model: OscillatorModel, level: LevelDescriptor, table: CharacterTable
) -> dict[str, int]:
    """Exact irrep multiplicities of a level, from its characters
    (:func:`symgroup.decompose`), checked to account for its whole
    degeneracy."""
    if table.n != model.n_particles:
        raise ValueError(f"table is for N={table.n}, model for N={model.n_particles}")
    out = decompose(table, level_characters(model, level))
    total = sum(table.dimension(ir) * m for ir, m in out.items())
    if total != level.degeneracy:
        raise NumericalIntegrityError(
            f"dimension bookkeeping failed: {total} != degeneracy {level.degeneracy}"
        )
    return out


def attach_multiplicities(
    model: OscillatorModel, level: LevelDescriptor, table: CharacterTable
) -> LevelDescriptor:
    """Level descriptor with irrep_mults filled in."""
    mults = irrep_multiplicities(model, level, table)
    return dataclasses.replace(level, irrep_mults=mults)


def character_projector(
    model: OscillatorModel,
    level: LevelDescriptor,
    table: CharacterTable,
    irrep: str,
) -> np.ndarray:
    """P_Gamma = (dim/N!) sum_g chi_Gamma(g) D(g) on the level basis."""
    dimension = table.dimension(irrep)
    order = math.factorial(table.n)
    proj = np.zeros((level.degeneracy, level.degeneracy))
    for p in all_permutations(model.n_particles):
        chi = table.char(irrep, cycle_type(p))
        if chi:
            proj += chi * permutation_action_matrix(model, level, p)
    return proj * (dimension / order)


def salc(
    model: OscillatorModel,
    level: LevelDescriptor,
    table: CharacterTable,
    irrep: str,
) -> np.ndarray:
    """Orthonormal basis of the irrep's isotypic subspace of a level: the
    symmetry-adapted vectors as rows over the level's basis, shape
    (copies * dimension, degeneracy), with copies the irrep's multiplicity
    in the level (zero rows when it does not occur).

    The split of a multidimensional irrep block into partners is
    convention-dependent (fixed here by the orthonormalization of the
    projected column space).  Signs are fixed: in each vector the first
    component whose magnitude exceeds 1e-8 (``_RANK_TOL``) is positive.  A
    level above ``MAX_SALC_DEGENERACY`` raises ValueError before any work.
    """
    dimension = table.dimension(irrep)  # an unknown label fails before any work
    if (deg := level.degeneracy) > MAX_SALC_DEGENERACY:
        order = math.factorial(table.n)
        raise ValueError(
            f"level {level.quanta_key} has degeneracy {deg}, above "
            f"{MAX_SALC_DEGENERACY}: its {order} representation matrices "
            f"take {8 * order * deg**2 / 2**30:.2f} GiB dense"
        )
    mults = irrep_multiplicities(model, level, table)
    expected = mults[irrep] * dimension
    proj = character_projector(model, level, table, irrep)
    u, s, _ = np.linalg.svd(proj)
    rank = int(np.sum(s > _RANK_TOL))
    if rank != expected:
        raise NumericalIntegrityError(
            f"projected rank {rank} != multiplicity * dimension {expected} "
            f"for irrep {irrep} at level {level.quanta_key}"
        )
    # kept singular values of a projector must be 1
    if rank and np.abs(s[:rank] - 1.0).max() > _RANK_TOL:
        raise NumericalIntegrityError(
            f"projector spectrum deviates from 0/1 for {irrep}"
        )
    # the SVD's signs flip under rounding-level changes of proj: fix them
    vectors = u[:, :rank].T.copy()
    lead = np.argmax(np.abs(vectors) > _RANK_TOL, axis=1)
    vectors *= np.sign(vectors[np.arange(rank), lead])[:, None]
    return vectors

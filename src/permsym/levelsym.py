"""Irrep decomposition of degenerate levels and symmetry-adapted bases.

A level with n_sym quanta in the degenerate modes carries the n_sym-th
symmetric power of the (N-1)-dimensional mode representation, so its
characters are exact integers read off a generating function (no
representation matrix is built for them).  The character inner product
turns them into irrep multiplicities, guarded to be non-negative integers
that account for the whole degeneracy.  The character projectors, built
from the float representation matrices, yield orthonormal symmetry-adapted
linear combinations (SALCs); their ranks are checked against the
multiplicities, and a breach of any guard is a hard
:class:`NumericalIntegrityError`, never a silent round.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericalIntegrityError
from .oscillator import LevelDescriptor, OscillatorModel, permutation_action_matrix
from .symgroup import (
    CharacterTable,
    CycleType,
    IrrepId,
    all_permutations,
    cycle_type,
)

_ROUND_GUARD = 1e-6
_RANK_TOL = 1e-8


@dataclass(frozen=True)
class LevelCharacters:
    """Per-class traces of the level representation."""

    n_particles: int
    degeneracy: int
    traces: Mapping[CycleType, int]


def _guard_int(value: float, what: str) -> int:
    rounded = round(value)
    if abs(value - rounded) >= _ROUND_GUARD:
        raise NumericalIntegrityError(f"{what} = {value!r} is not an integer")
    return int(rounded)


def level_characters(model: OscillatorModel, level: LevelDescriptor) -> LevelCharacters:
    """Exact integer trace of the permutation action, per class.

    For a permutation of cycle type lambda the mode representation W has
    sum_n t^n trace(Sym^n W) = 1/det(1 - tW) = (1 - t) / prod_l (1 - t^l)
    (Molien series), so the level's trace is the t^n_sym coefficient.
    """
    n = level.n_sym
    traces = {}
    for ct in _cycle_types(model.n_particles):
        series = [1] + [0] * n  # 1 / prod_l (1 - t^l), up to t^n
        for length in ct:
            for k in range(length, n + 1):
                series[k] += series[k - length]
        traces[ct] = series[n] - (series[n - 1] if n else 0)
    return LevelCharacters(
        n_particles=model.n_particles, degeneracy=level.degeneracy, traces=traces
    )


def _cycle_types(n_particles: int) -> list[CycleType]:
    from .symgroup import conjugacy_classes

    return [c.cycle_type for c in conjugacy_classes(n_particles)]


def irrep_multiplicities(
    chars: LevelCharacters, table: CharacterTable
) -> dict[IrrepId, int]:
    """m_Gamma = (1/N!) sum_c size(c) chi_Gamma(c) trace(c), rounding-guarded."""
    if table.n != chars.n_particles:
        raise ValueError(
            f"table is for N={table.n}, characters for N={chars.n_particles}"
        )
    order = math.factorial(table.n)
    out = {}
    for irrep, row in zip(table.irreps, table.chars):
        acc = sum(
            cls.size * chi * chars.traces[cls.cycle_type]
            for cls, chi in zip(table.classes, row)
        )
        m = _guard_int(acc / order, f"multiplicity of {irrep.label}")
        if m < 0:
            raise NumericalIntegrityError(f"negative multiplicity for {irrep.label}")
        out[irrep] = m
    total = sum(ir.dimension * m for ir, m in out.items())
    if total != chars.degeneracy:
        raise NumericalIntegrityError(
            f"dimension bookkeeping failed: {total} != degeneracy {chars.degeneracy}"
        )
    return out


def attach_multiplicities(
    model: OscillatorModel, level: LevelDescriptor, table: CharacterTable
) -> LevelDescriptor:
    """Level descriptor with irrep_mults filled in (keyed by irrep label)."""
    mults = irrep_multiplicities(level_characters(model, level), table)
    return dataclasses.replace(
        level, irrep_mults={ir.label: m for ir, m in mults.items()}
    )


@dataclass(frozen=True)
class SalcSet:
    """Orthonormal symmetry-adapted vectors over a level's basis.

    ``vectors`` has shape (copies * dimension, degeneracy); the split of a
    multidimensional irrep block into partners is convention-dependent
    (fixed here by the orthonormalization of the projected column space).
    Signs are fixed: in each vector the first component whose magnitude
    exceeds 1e-8 (``_RANK_TOL``) is positive.
    """

    irrep: IrrepId
    copies: int
    vectors: np.ndarray


def character_projector(
    model: OscillatorModel,
    level: LevelDescriptor,
    table: CharacterTable,
    irrep: IrrepId | str,
) -> np.ndarray:
    """P_Gamma = (dim/N!) sum_g chi_Gamma(g) D(g) on the level basis."""
    if isinstance(irrep, str):
        irrep = table.irrep(irrep)
    order = math.factorial(table.n)
    proj = np.zeros((level.degeneracy, level.degeneracy))
    for p in all_permutations(model.n_particles):
        chi = table.char(irrep, cycle_type(p))
        if chi:
            proj += chi * permutation_action_matrix(model, level, p)
    return proj * (irrep.dimension / order)


def salc(
    model: OscillatorModel,
    level: LevelDescriptor,
    table: CharacterTable,
    irrep: IrrepId | str,
) -> SalcSet:
    """Orthonormal basis of the irrep's isotypic subspace of a level.

    Returns an empty set (zero vectors) when the irrep does not occur.
    """
    if isinstance(irrep, str):
        irrep = table.irrep(irrep)
    mults = irrep_multiplicities(level_characters(model, level), table)
    expected = mults[irrep] * irrep.dimension
    proj = character_projector(model, level, table, irrep)
    u, s, _ = np.linalg.svd(proj)
    rank = int(np.sum(s > _RANK_TOL))
    if rank != expected:
        raise NumericalIntegrityError(
            f"projected rank {rank} != multiplicity * dimension {expected} "
            f"for irrep {irrep.label} at level {level.quanta_key}"
        )
    # kept singular values of a projector must be 1
    if rank and np.abs(s[:rank] - 1.0).max() > _RANK_TOL:
        raise NumericalIntegrityError(
            f"projector spectrum deviates from 0/1 for {irrep.label}"
        )
    # the SVD's signs flip under rounding-level changes of proj: fix them
    vectors = u[:, :rank].T.copy()
    lead = np.argmax(np.abs(vectors) > _RANK_TOL, axis=1)
    vectors *= np.sign(vectors[np.arange(rank), lead])[:, None]
    return SalcSet(irrep=irrep, copies=mults[irrep], vectors=vectors)


def all_perm_eigenfunction_irreps(table: CharacterTable) -> set[IrrepId]:
    """Irreps whose basis functions are eigenfunctions of every permutation
    operator: exactly the one-dimensional ones."""
    return {ir for ir in table.irreps if ir.dimension == 1}

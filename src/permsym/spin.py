"""Spin space of N electrons and the Pauli-allowed spatial symmetry species.

Two independent routes, both in exact integers, decide which spatial irreps
survive total antisymmetrization:

* the character route: spatial Gamma is allowed with total spin S iff
  Gamma (x) (the spin functions of S) contains the sign irrep, with the spin
  characters from a generating function (:func:`spin_character`);
* the constructive route: the determinants whose orbital quanta sum to Q
  span the levels with n_sym + n_last = Q once each, as an equal-frequency
  shell is closed under the change to normal modes (Moshinsky, The Harmonic
  Oscillator in Modern Physics, 1969).  N!/dim times an irrep's character
  projector, its terms from :func:`symgroup.character_weights`, maps each
  determinant to an integer row; differences of exact ranks, between
  shells and then between M_s, count a level's multiplets.

The two must agree pair by pair; their agreement is the module's central
cross-validation (a test failure, not a runtime recovery).  Each count n_S
must also be 0 or the irrep's multiplicity, as the spatial irrep is the
conjugate of the spin diagram (Pauncz, The Symmetric Group in Quantum
Chemistry, 1995).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .errors import NumericalIntegrityError
from .levelsym import irrep_multiplicities
from .symgroup import (
    CycleType,
    character_table,
    character_weights,
    decompose,
    sign_irrep,
)

_MULTIPLET_NAMES = {
    1: "singlet",
    2: "doublet",
    3: "triplet",
    4: "quadruplet",
    5: "quintuplet",
    6: "sextet",
    7: "septet",
}


def multiplet_name(s: float) -> str:
    mult = round(2 * s) + 1
    return _MULTIPLET_NAMES.get(mult, f"{mult}-fold multiplet")


def spin_character(n: int, s: float, cycle_type: CycleType) -> int:
    """Trace of a permutation of ``cycle_type`` on the spin functions of
    total spin S, one member (M_s = S) of each multiplet.

    A permutation fixes a spin product iff each of its cycles is all alpha
    or all beta, so prod_l (1 + t^l) counts the fixed products by their
    number b of betas.  The M_s = S space (b = N/2 - S) minus the
    M_s = S + 1 space is the t^b coefficient of (1 - t) prod_l (1 + t^l).
    """
    b, odd = divmod(n - round(2 * s), 2)
    if odd or 2 * s % 1 or not 0 <= b <= n // 2 or sum(cycle_type) != n:
        raise ValueError(f"no spin S={s} with cycle type {cycle_type} for N={n}")
    series = [1] + [0] * b  # prod_l (1 + t^l), up to t^b
    for length in cycle_type:
        for k in range(b, length - 1, -1):
            series[k] += series[k - length]
    return series[b] - (series[b - 1] if b else 0)


def _spins(n: int) -> list[float]:
    """Total spins of N electrons, ascending."""
    return [(n - 2 * b) / 2 for b in range(n // 2, -1, -1)]


def multiplet_table(n: int) -> dict[float, int]:
    """Multiplet count per total spin S, ascending: the number of S
    multiplets is the trace of the identity on their M_s = S members.
    Weighted by 2S + 1, the counts must sum to 2^N."""
    if n < 1:
        raise ValueError("need at least one spin")
    counts = {s: spin_character(n, s, (1,) * n) for s in _spins(n)}
    if sum(round(2 * s + 1) * c for s, c in counts.items()) != 2**n:
        raise NumericalIntegrityError("multiplet dimensions do not sum to 2^N")
    return counts


def allowed_spatial_irreps(n: int) -> dict[str, tuple[float, ...]]:
    """Character route: for each spatial irrep label, the total spins S it
    combines with into a totally antisymmetric space-spin function (empty
    means forbidden).  Gamma is allowed with spin S iff the sign irrep
    occurs in Gamma (x) (the spin functions of total spin S)."""
    table = character_table(n)
    sign = sign_irrep(table)
    spin_traces = {
        s: {ct: spin_character(n, s, ct) for ct in table.classes} for s in _spins(n)
    }
    spins: dict[str, tuple[float, ...]] = {}
    for spatial, row in zip(table.irreps, table.chars):
        chi = dict(zip(table.classes, row))
        spins[spatial] = tuple(
            s
            for s, traces in spin_traces.items()
            if decompose(table, {ct: chi[ct] * t for ct, t in traces.items()})[sign]
        )
    return spins


# ---------------------------------------------------------------------------
# constructive route: integer rows over total-quanta shells


@dataclass(frozen=True)
class SpaceSpinFunction:
    """Integer coefficients over Slater determinants, keyed by their
    :mod:`permsym.ci` rows (ascending spin-orbital indices)."""

    determinants: Mapping[tuple[int, ...], int]

    @property
    def nonzero(self) -> bool:
        return bool(self.determinants)


@functools.lru_cache(maxsize=None)
def _shell(n: int, quanta: int, n_beta: int) -> tuple[tuple[int, ...], ...]:
    """The determinants with n_beta beta electrons whose orbital quanta sum
    to ``quanta``, as CI rows: 2a is orbital a with alpha spin, 2a + 1 beta."""
    return tuple(
        det
        for det in itertools.combinations(range(2 * quanta + 2), n)
        if sum(c >> 1 for c in det) == quanta and sum(c & 1 for c in det) == n_beta
    )


def _sort_sign(codes: list[int]) -> int:
    """The parity (+1 or -1) of the sort that orders the codes; 0 when one
    repeats (the Pauli principle)."""
    if len(set(codes)) < len(codes):
        return 0
    return (-1) ** sum(a > b for a, b in itertools.combinations(codes, 2))


def antisymmetrize_space_spin(
    determinant: tuple[int, ...], irrep: str
) -> SpaceSpinFunction:
    """(N!/dim) P_Gamma = sum_p chi_Gamma(p) p on one Slater determinant of
    N = len(determinant) electrons, p permuting their orbitals and leaving
    their spins.

    P_Gamma commutes with the antisymmetrizer, so each term of
    :func:`symgroup.character_weights` is the determinant in which electron
    i takes the orbital of electron p(i): one determinant signed by
    :func:`_sort_sign`, or zero.  The image has integer coefficients, and
    no sum over space-spin relabelings is formed.
    """
    orbitals = [code >> 1 for code in determinant]
    spins = [code & 1 for code in determinant]
    image: dict[tuple[int, ...], int] = {}
    for p, chi in character_weights(len(determinant), irrep):
        codes = [2 * orbitals[j - 1] + s for j, s in zip(p, spins)]
        if sign := _sort_sign(codes):
            key = tuple(sorted(codes))
            image[key] = image.get(key, 0) + sign * chi
    return SpaceSpinFunction({k: c for k, c in image.items() if c})


def _rank(rows) -> int:
    """Exact rank of integer rows ({column: value} with ordered columns):
    each row is reduced, fraction-free, by the kept row that leads at its
    leading column, and kept when anything is left."""
    pivots: dict = {}
    for row in rows:
        while row and (lead := min(row)) in pivots:
            pivot = pivots[lead]
            a, b = pivot[lead], row[lead]
            row = {
                k: v
                for k in row.keys() | pivot.keys()
                if (v := a * row.get(k, 0) - b * pivot.get(k, 0))
            }
        if row:
            pivots[min(row)] = row
    return len(pivots)


def _shell_rank(n: int, irrep: str, quanta: int, n_beta: int) -> tuple[int, int]:
    """(rank, trace) of the images of one shell's determinants."""
    shell = _shell(n, quanta, n_beta)
    rows = [antisymmetrize_space_spin(det, irrep).determinants for det in shell]
    return _rank(rows), sum(row.get(det, 0) for det, row in zip(shell, rows))


def _level_multiplets(n: int, irrep: str, n_sym: int):
    """n_S, the antisymmetric spin-S multiplets with spatial Gamma at a level
    with n_sym degenerate quanta, per S ascending.

    With R_Q the rank of shell Q at M_s = N/2 - n_beta, the level holds
    r = R_(n_sym) - R_(n_sym - 1) states at each M_s >= 0, and
    n_S = r(M_s = S) - r(M_s = S + 1).  Raises NumericalIntegrityError
    unless each rank is the trace times dim/N!, as for N!/dim times a
    projector.
    """
    dimension, order = character_table(n).dimension(irrep), math.factorial(n)
    counts = [0] * (n // 2 + 1)
    for n_beta in range(n // 2 + 1):
        for quanta, sign in ((n_sym, 1), (n_sym - 1, -1)):
            rank, trace = _shell_rank(n, irrep, quanta, n_beta)
            if rank * order != trace * dimension:
                raise NumericalIntegrityError(
                    f"{irrep} Q={quanta} n_beta={n_beta}: rank {rank}, trace {trace}"
                )
            counts[n_beta] += sign * rank
    return {
        (n - 2 * b) / 2: counts[b] - (counts[b - 1] if b else 0)
        for b in range(n // 2, -1, -1)
    }


def constructive_allowed_spins(n: int, n_sym: int, irrep: str) -> set[float]:
    """The total spins of the antisymmetric states with spatial part in the
    irrep at the levels of N particles with n_sym degenerate quanta
    (:func:`_level_multiplets`); empty proves it forbidden.  Raises
    NumericalIntegrityError unless each n_S is 0 or the irrep's multiplicity
    in the level."""
    multiplets = _level_multiplets(n, irrep, n_sym)
    copies = irrep_multiplicities(n, n_sym)[irrep]
    if any(count not in (0, copies) for count in multiplets.values()):
        raise NumericalIntegrityError(
            f"{irrep} at n_sym={n_sym}: multiplets per S {multiplets}, "
            f"expected 0 or its multiplicity {copies}"
        )
    return {s for s, count in multiplets.items() if count}


def first_level_with_irrep(n: int, irrep: str) -> int:
    """The lowest n_sym whose levels contain the irrep.  The scan ends by
    n_sym = N(N - 1)/2: S_N acts on the N - 1 normal modes as a reflection
    group, whose coinvariants, of top degree its number of reflections, are
    its regular representation (Chevalley, Am. J. Math. 77, 778 (1955))."""
    character_table(n).dimension(irrep)  # an unknown label fails before any work
    return next(q for q in itertools.count() if irrep_multiplicities(n, q)[irrep])


def constructive_spatial_irreps(n: int) -> dict[str, tuple[float, ...]]:
    """Constructive route: each irrep's spins are those of its antisymmetric
    states at every level that holds it, up to the first level of the last
    irrep to appear (any coupling: a level's symmetry depends on n_sym
    alone); it must equal :func:`allowed_spatial_irreps`.  Raises
    NumericalIntegrityError unless an irrep's spins agree at all its levels."""
    irreps = character_table(n).irreps
    top = max(first_level_with_irrep(n, irrep) for irrep in irreps)
    spins = {}
    for irrep in irreps:
        per_level = {
            n_sym: tuple(sorted(constructive_allowed_spins(n, n_sym, irrep)))
            for n_sym in range(top + 1)
            if irrep_multiplicities(n, n_sym)[irrep]
        }
        if len(set(per_level.values())) != 1:
            raise NumericalIntegrityError(
                f"{irrep}: spins differ between its levels, by n_sym {per_level}"
            )
        spins[irrep] = per_level[min(per_level)]
    return spins

"""Spin space of N electrons and the Pauli-allowed spatial symmetry species.

Two independent routes decide which spatial irreps survive total
antisymmetrization:

* the character route, in exact integers: the characters of the spin
  functions of each total spin S come from a generating function
  (:func:`spin_character`), and spatial Gamma is allowed with S iff
  Gamma (x) (those spin functions) contains the sign irrep;
* the constructive route: each column of an irrep's character projector
  on a level, times each spin product, is antisymmetrized over
  simultaneous space-spin label permutations
  (:func:`antisymmetrize_space_spin`), and the survivors' spins are
  collected.  Antisymmetrizing a product of spin-orbitals gives their
  Slater determinant (Slater, Phys. Rev. 34, 1293 (1929)), signed by the
  parity of the sort that orders them and zero when one repeats, so no
  sum over the N! permutations is formed.  The determinants are rows of
  :mod:`permsym.ci` occupied spin-orbitals, and total spin comes from
  |S+ psi|^2 with the S+ of that module.

The two must agree pair by pair; their agreement is the module's central
cross-validation (a test failure, not a runtime recovery).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from . import ci, lazy_numpy
from .errors import NumericalIntegrityError
from .levelsym import character_projector, irrep_multiplicities
from .oscillator import (
    LevelDescriptor,
    OscillatorModel,
    make_level,
    make_model,
    uncoupled_expansion,
)
from .symgroup import (
    CharacterTable,
    CycleType,
    character_table,
    decompose,
    sign_irrep,
)

np = lazy_numpy()
_HALF_GUARD = 1e-6
_ZERO_TOL = 1e-8
#: highest n_sym searched for the first level that holds an irrep
_MAX_FIRST_N_SYM = 8

ALPHA, BETA = "a", "b"

_MULTIPLET_NAMES = {
    1: "singlet",
    2: "doublet",
    3: "triplet",
    4: "quadruplet",
    5: "quintuplet",
    6: "sextet",
    7: "septet",
}


@dataclass(frozen=True)
class SpinProduct:
    """A product of N one-electron spin states, each alpha or beta; the
    labels may be given as any sequence, such as ``"aab"``."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if any(l not in (ALPHA, BETA) for l in self.labels):
            raise ValueError(f"spin labels must be '{ALPHA}'/'{BETA}': {self.labels}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def ms(self) -> float:
        up = self.labels.count(ALPHA)
        return (up - (self.n - up)) / 2.0


def spin_basis(n: int) -> list[tuple[str, ...]]:
    """All 2^N products in lexicographic order (alpha before beta)."""
    return [tuple(p) for p in itertools.product((ALPHA, BETA), repeat=n)]


def _s_from_eigenvalue(value: float) -> float:
    s = 0.5 * (-1.0 + math.sqrt(max(1.0 + 4.0 * value, 0.0)))
    twice = round(2 * s)
    if abs(2 * s - twice) >= _HALF_GUARD:
        raise NumericalIntegrityError(f"S^2 eigenvalue {value} gives non-half-integer S")
    return twice / 2.0


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


def _spin_traces(table: CharacterTable, s: float) -> dict[CycleType, int]:
    return {
        cls.cycle_type: spin_character(table.n, s, cls.cycle_type)
        for cls in table.classes
    }


@dataclass(frozen=True)
class AllowedIrrepMap:
    """For each spatial irrep, the total spins S it can combine with to form
    a totally antisymmetric space-spin function; empty means forbidden."""

    n: int
    spins: Mapping[str, tuple[float, ...]]

    def forbidden_labels(self) -> set[str]:
        return {label for label, s in self.spins.items() if not s}

    def to_dict(self) -> dict:
        return {
            label: {
                "allowed": bool(spins),
                "spins": list(spins),
                "multiplets": [multiplet_name(s) for s in spins],
            }
            for label, spins in self.spins.items()
        }


def allowed_spatial_irreps(n: int) -> AllowedIrrepMap:
    """Character route: spatial Gamma is allowed with spin S iff the sign
    irrep occurs in Gamma (x) (the spin functions of total spin S)."""
    table = character_table(n)
    sign = sign_irrep(table)
    spin_traces = {s: _spin_traces(table, s) for s in _spins(n)}
    spins: dict[str, tuple[float, ...]] = {}
    for spatial, row in zip(table.irreps, table.chars):
        chi = {c.cycle_type: x for c, x in zip(table.classes, row)}
        spins[spatial] = tuple(
            s
            for s, traces in spin_traces.items()
            if decompose(table, {ct: chi[ct] * t for ct, t in traces.items()})[sign]
        )
    return AllowedIrrepMap(n=n, spins=spins)


# ---------------------------------------------------------------------------
# constructive route: antisymmetrized space-spin functions


@dataclass(frozen=True)
class SpaceSpinFunction:
    """Result of antisymmetrizing (spatial function) x (spin product).

    ``determinants`` expands the survivor over normalized determinants of
    one-particle space x spin functions, keyed by their :mod:`permsym.ci`
    occupation rows (ascending spin-orbital indices).  A zero result is a
    valid answer.
    """

    nonzero: bool
    norm: float
    s_value: Optional[float]
    determinants: Mapping[tuple[int, ...], float]


def antisymmetrize_space_spin(
    model: OscillatorModel,
    level: LevelDescriptor,
    spatial: np.ndarray,
    spin_product: SpinProduct,
) -> SpaceSpinFunction:
    """Antisymmetrize (spatial vector over the level basis) x spin product
    over simultaneous space-spin relabeling.

    The spatial function is expanded over products of one-particle
    oscillator orbitals (valid for symmetry purposes at any coupling, see
    :func:`uncoupled_expansion`) and the spin product attached.  The
    antisymmetrizer turns a product of spin-orbitals into their Slater
    determinant over sqrt(N!), signed by the parity of the sort that orders
    them, and into zero when a spin-orbital repeats, so no sum over
    permutations is formed.  Spin-orbitals are coded as in :mod:`permsym.ci`,
    2a (orbital a, alpha) and 2a + 1 (beta).  Survivors carry their total
    spin, <S^2> = |S+ psi|^2 / |psi|^2 + M_s(M_s + 1).  A spin product whose
    length is not the model's N, or a level whose orbital products reach
    orbital 31 with beta spin (beyond a determinant mask), raises ValueError.

    A zero result shows only that this combination dies; forbiddenness
    needs exhaustion (:func:`constructive_allowed_spins`).
    """
    n = model.n_particles
    if spin_product.n != n:
        raise ValueError(f"spin product has {spin_product.n} labels, model N={n}")
    if np.linalg.norm(spatial) < _ZERO_TOL:
        return SpaceSpinFunction(False, 0.0, None, {})
    spatial = spatial / np.linalg.norm(spatial)

    orb_patterns, expansion = uncoupled_expansion(n, level.n_sym, level.n_last)
    xvec = spatial @ expansion  # coefficients over orbital patterns
    keep = np.abs(xvec) > 1e-14
    beta = [label == BETA for label in spin_product.labels]
    codes = 2 * np.array(orb_patterns, dtype=np.int64)[keep] + beta
    inversions = np.triu(codes[:, :, None] > codes[:, None, :]).sum(axis=(1, 2))
    weights = xvec[keep] * (1 - 2 * (inversions % 2))
    codes = np.sort(codes, axis=1)
    pauli = (np.diff(codes, axis=1) > 0).all(axis=1)
    dets, which = np.unique(codes[pauli], axis=0, return_inverse=True)
    nfact = math.factorial(n)
    # coefficient of one product of each determinant; below 1e-12 is round-off
    coeffs = np.bincount(which.reshape(-1), weights[pauli], len(dets)) / nfact
    survives = np.abs(coeffs) >= 1e-12
    dets, coeffs = dets[survives], coeffs[survives] * math.sqrt(nfact)
    norm = float(np.linalg.norm(coeffs))
    if norm <= _ZERO_TOL:
        return SpaceSpinFunction(False, norm, None, {})

    occ = ci._occupations(dets)
    targets, src, values = ci._s_plus(occ)
    _, image = np.unique(targets, return_inverse=True)
    raised = np.bincount(image, values * coeffs[src])  # S+ psi over its images
    ms = spin_product.ms
    s_value = _s_from_eigenvalue(raised @ raised / norm**2 + ms * (ms + 1))
    keys = map(tuple, occ.tolist())
    return SpaceSpinFunction(True, norm, s_value, dict(zip(keys, coeffs.tolist())))


def constructive_allowed_spins(
    model: OscillatorModel,
    level: LevelDescriptor,
    table: CharacterTable,
    irrep: str,
) -> set[float]:
    """Exhaust all spin products and all projector columns (seeds) of a
    level; return the set of total spins of the surviving antisymmetrized
    functions.

    An empty set proves the irrep forbidden at this level: a single zero
    does not, but exhaustion over the finite space does.  The projector is
    built once and shared by every (spin product, seed) pair.
    """
    proj = character_projector(model, level, table, irrep)
    spins: set[float] = set()
    for labels in spin_basis(model.n_particles):
        for seed in range(level.degeneracy):
            res = antisymmetrize_space_spin(
                model, level, proj[:, seed], SpinProduct(labels)
            )
            if res.nonzero:
                spins.add(res.s_value)
    return spins


def first_level_with_irrep(
    model: OscillatorModel,
    table: CharacterTable,
    irrep: str,
) -> LevelDescriptor:
    """Lowest level (by n_sym, at n_last = 0) containing the irrep."""
    table.dimension(irrep)  # an unknown label fails before any work
    for n_sym in range(_MAX_FIRST_N_SYM + 1):
        level = make_level(model, n_sym, 0)
        if irrep_multiplicities(model, level, table)[irrep]:
            return level
    raise ValueError(f"irrep {irrep} not found up to n_sym={_MAX_FIRST_N_SYM}")


def constructive_spatial_irreps(n: int) -> AllowedIrrepMap:
    """Constructive route: each irrep's spins are those that survive
    antisymmetrization at the first level holding it (weak coupling, xi =
    0.1); it must equal :func:`allowed_spatial_irreps`."""
    model = make_model(n, 0.1)
    table = character_table(n)
    spins = {}
    for irrep in table.irreps:
        level = first_level_with_irrep(model, table, irrep)
        spins[irrep] = tuple(
            sorted(constructive_allowed_spins(model, level, table, irrep))
        )
    return AllowedIrrepMap(n=n, spins=spins)

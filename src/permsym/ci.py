"""Configuration interaction over Slater determinants of oscillator orbitals.

The one-particle basis is the first M eigenfunctions of the uncoupled
unit-frequency oscillator, which makes the one-body part diagonal.  The
pair coupling is half the square of the total position minus a one-body
term, so H, like S^2, is assembled from one vectorized one-body-operator
builder acting on integer occupation arrays and bitmasks of the
determinants (string-based CI in the manner of Knowles and Handy, 1984).
The determinant space (all C(2M, N) selections, optionally filtered to one
M_s sector) is diagonalized densely in (M_s, parity) blocks; total spin is
measured on each eigenvector, never imposed on the basis.  Comparing the
resulting spectrum against the exact levels exposes the missing ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import BasisTooSmallError, NumericalIntegrityError
from .oscillator import LevelDescriptor, OscillatorModel
from .spin import AllowedIrrepMap, _s_from_eigenvalue

_S2_GUARD = 1e-6
#: relative width of a run of degenerate energies
_DEGENERACY_TOL = 1e-9
#: determinants are int64 bitmasks over the spin-orbitals
_MASK_BITS = 63


@dataclass(frozen=True, order=True)
class SpinOrbital:
    """One-particle basis function: oscillator orbital x spin projection.

    ``ms2`` is twice the spin projection (+1 for alpha, -1 for beta).  The
    flat index interleaves spins: index = 2 * orbital + (0 if alpha else 1),
    which realizes the canonical "by orbital, then spin" order.
    """

    orbital: int
    ms2: int

    @property
    def index(self) -> int:
        return 2 * self.orbital + (0 if self.ms2 > 0 else 1)

    @classmethod
    def from_index(cls, index: int) -> "SpinOrbital":
        return cls(orbital=index // 2, ms2=+1 if index % 2 == 0 else -1)


@dataclass(frozen=True)
class SlaterDeterminant:
    """Occupied spin-orbital indices, strictly increasing (Pauli + canonical
    sign convention)."""

    occupied: tuple[int, ...]

    def __post_init__(self):
        occ = tuple(self.occupied)
        object.__setattr__(self, "occupied", occ)
        if any(a >= b for a, b in zip(occ, occ[1:])):
            raise ValueError(f"occupied indices must strictly increase: {occ}")
        if any(i < 0 for i in occ):
            raise ValueError(f"negative spin-orbital index in {occ}")

    @property
    def n(self) -> int:
        return len(self.occupied)

    @property
    def ms(self) -> float:
        return sum(0.5 if i % 2 == 0 else -0.5 for i in self.occupied)

    @property
    def orbital_quanta(self) -> int:
        return sum(i // 2 for i in self.occupied)

    def spin_orbitals(self) -> tuple[SpinOrbital, ...]:
        return tuple(SpinOrbital.from_index(i) for i in self.occupied)


def canonicalize(indices: Sequence[int]) -> tuple[SlaterDeterminant, int]:
    """Sort spin-orbital indices, returning the determinant and the parity
    of the sorting permutation; swapping two inputs flips the sign."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated spin-orbital in {indices}")
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    return SlaterDeterminant(tuple(indices)), sign


def x_matrix_element(a: int, b: int) -> float:
    """<phi_a | x | phi_b> for unit-frequency oscillator orbitals:
    sqrt(max(a, b)/2) when |a - b| = 1, else 0."""
    if a < 0 or b < 0:
        raise ValueError("orbital indices must be >= 0")
    if abs(a - b) != 1:
        return 0.0
    return math.sqrt(max(a, b) / 2.0)


def core_energy(a: int) -> float:
    """One-body energy of orbital a: a + 1/2 (diagonal in this basis)."""
    if a < 0:
        raise ValueError("orbital index must be >= 0")
    return a + 0.5


MsFilter = Union[str, float, None]


def _ms_matches(det_ms: float, ms: MsFilter) -> bool:
    if ms is None or ms == "all":
        return True
    return abs(det_ms - float(ms)) < 1e-12


def build_basis(
    n_particles: int, n_orbitals: int, ms: MsFilter = "all"
) -> list[SlaterDeterminant]:
    """All C(2M, N) determinants over 2M spin-orbitals, optionally filtered
    to a fixed M_s, in deterministic lexicographic order."""
    if 2 * n_orbitals < n_particles:
        raise BasisTooSmallError(
            f"{2 * n_orbitals} spin-orbitals cannot hold {n_particles} particles"
        )
    out = []
    for occ in itertools.combinations(range(2 * n_orbitals), n_particles):
        det = SlaterDeterminant(occ)
        if _ms_matches(det.ms, ms):
            out.append(det)
    return out


def _occupations(basis: Sequence[SlaterDeterminant]) -> np.ndarray:
    """(dim, N) integer array: row i lists the occupied spin-orbitals of
    basis[i] in ascending order."""
    if not basis:
        raise ValueError("empty determinant basis")
    occ = np.array([det.occupied for det in basis], dtype=np.int64)
    if occ.max() >= _MASK_BITS:
        raise ValueError(f"at most {_MASK_BITS // 2} orbitals fit a determinant mask")
    return occ


def _masks(occ: np.ndarray) -> np.ndarray:
    return (np.int64(1) << occ).sum(axis=1)


def _occupations_of(masks: np.ndarray, n: int) -> np.ndarray:
    bits = (masks[:, None] >> np.arange(_MASK_BITS)) & 1
    return np.nonzero(bits)[1].reshape(len(masks), n)


def _one_body(occ: np.ndarray, op: np.ndarray):
    """sum_pq op[p, q] a+_p a_q applied to every determinant of ``occ``.

    Returns (target masks, source rows, values), one entry per surviving
    term.  The fermion sign is the parity of the number of occupied
    spin-orbitals strictly between p and q.
    """
    masks = _masks(occ)
    p, q = np.nonzero(op)

    def holds(orbitals):
        return ((masks[:, None] >> orbitals) & 1).astype(bool)

    src, term = np.nonzero(holds(q) & (~holds(p) | (p == q)))
    p, q = p[term], q[term]
    rows = occ[src]
    between = (
        (rows > np.minimum(p, q)[:, None]) & (rows < np.maximum(p, q)[:, None])
    ).sum(axis=1)
    targets = (masks[src] ^ (np.int64(1) << q)) | (np.int64(1) << p)
    return targets, src, op[p, q] * (1 - 2 * (between % 2))


def _position(n_orbitals: int) -> np.ndarray:
    """x on the interleaved spin-orbital index (spin-free)."""
    m = range(n_orbitals)
    return np.kron([[x_matrix_element(a, b) for b in m] for a in m], np.eye(2))


def _gram(targets: np.ndarray, src: np.ndarray, values: np.ndarray, dim: int):
    """A^T A for the operator A given by its entries over the basis columns;
    the images (rows of A) are indexed by np.unique over their masks."""
    images, rows = np.unique(targets, return_inverse=True)
    a = np.zeros((len(images), dim))
    a[rows.reshape(-1), src] = values
    return images, a.T @ a


def hamiltonian_matrix(
    model: OscillatorModel, basis: Sequence[SlaterDeterminant]
) -> np.ndarray:
    """Dense symmetric CI matrix over any set of determinants.

    The pair coupling is (xi/2)[(sum_i x_i)^2 - sum_i x_i^2].  With X the
    one-body position operator on the M orbitals the basis reaches and Q
    the one-body operator of the truncated product x_M x_M, the two-body
    part X.X - Q is exact on those orbitals, so H = H1 + (xi/2)(X^T X - Q).
    The images of X are indexed over the masks they reach, so the basis
    may be a full sector, a reordering or a subset.
    """
    occ = _occupations(basis)
    dim = len(basis)
    if occ.shape[1] != model.n_particles:
        raise ValueError(
            f"determinants have {occ.shape[1]} particles, "
            f"model has {model.n_particles}"
        )
    n_orb = int(occ.max()) // 2 + 1
    x = _position(n_orb)
    h1 = np.kron(np.diag([core_energy(a) for a in range(n_orb)]), np.eye(2))
    targets, src, values = _one_body(occ, h1 - 0.5 * model.xi * (x @ x))
    masks = _masks(occ)
    order = np.argsort(masks)
    pos = order[np.searchsorted(masks, targets, sorter=order).clip(max=dim - 1)]
    hit = masks[pos] == targets
    h = np.bincount(
        pos[hit] * dim + src[hit], weights=values[hit], minlength=dim * dim
    ).reshape(dim, dim)
    h += 0.5 * model.xi * _gram(*_one_body(occ, x), dim)[1]
    return h


def s_squared_matrix(basis: Sequence[SlaterDeterminant]) -> np.ndarray:
    """S^2 = S-S+ + Sz(Sz+1) over the determinant basis, with S- = S+^T.

    The basis must hold every determinant that S-S+ reaches (a full M_s
    sector does); otherwise a ValueError is raised.
    """
    occ = _occupations(basis)
    dim = len(basis)
    n_orb = int(occ.max()) // 2 + 1
    s_plus = np.kron(np.eye(n_orb), [[0.0, 1.0], [0.0, 0.0]])  # a+_(a,up) a_(a,dn)
    images, s2 = _gram(*_one_body(occ, s_plus), dim)
    back = _one_body(_occupations_of(images, occ.shape[1]), s_plus.T)[0]
    if not np.isin(back, _masks(occ)).all():
        raise ValueError("S^2 leaves the given basis; use a full M_s sector")
    ms = 0.5 * (1 - 2 * (occ % 2)).sum(axis=1)
    s2[np.diag_indices(dim)] += ms * (ms + 1.0)
    return s2


@dataclass(frozen=True)
class CIState:
    energy: float
    s: float
    ms: float
    parity: int


@dataclass(frozen=True)
class CIResult:
    """Eigensolution over the determinant basis, labelled per state."""

    basis: tuple[SlaterDeterminant, ...]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray          # column j belongs to eigenvalues[j]
    states: tuple[CIState, ...]


def _runs(values: np.ndarray):
    """(start, stop) of each run of ascending values that lie within
    _DEGENERACY_TOL (relative) of the run's first value."""
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and (
            values[j] - values[i] <= _DEGENERACY_TOL * max(1.0, abs(values[i]))
        ):
            j += 1
        yield i, j
        i = j


def _resolve_degenerate_clusters(
    evals: np.ndarray, evecs: np.ndarray, s2: np.ndarray
) -> None:
    """Rotate each degenerate eigenvalue cluster onto S^2 eigenvectors.

    An exact level can host several total spins at one energy; the raw
    eigensolver is free to mix them, which would leave <S^2> between
    S(S+1) values.  Diagonalizing S^2 inside each cluster restores definite
    spin, fixes the degenerate-block orthonormalization deterministically,
    and leaves the eigenvalues untouched.  Signs are normalized so the
    largest-magnitude component of every vector is positive.
    """
    for i, j in _runs(evals):
        if j - i > 1:
            block = evecs[:, i:j]
            small = block.T @ s2 @ block
            _, rot = np.linalg.eigh(0.5 * (small + small.T))
            evecs[:, i:j] = block @ rot
    lead = np.argmax(np.abs(evecs), axis=0)
    evecs *= np.where(evecs[lead, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)


def ci_solve(model: OscillatorModel, basis: Sequence[SlaterDeterminant]) -> CIResult:
    """Dense symmetric eigensolution with deterministic output.

    H and S^2 conserve M_s and the parity of the total orbital quanta, so
    the basis is split into (M_s, parity) blocks, each taken in
    lexicographic determinant order and diagonalized separately; the
    result does not depend on the order of ``basis``.  Total spin is
    measured from <S^2> on each eigenvector (degenerate clusters are first
    rotated onto S^2 eigenvectors) and guarded to a half-integer.

    State order: ascending energy, except that inside a run of energies
    within 1e-9 (relative) of its lowest member, states are ordered by
    (M_s, parity, index within the block).
    """
    basis = list(basis)
    occ = _occupations(basis)
    ms = 0.5 * (1 - 2 * (occ % 2)).sum(axis=1)
    parity = 1 - 2 * ((occ // 2).sum(axis=1) % 2)
    canon = np.lexsort(occ.T[::-1])
    blocks = []  # (basis rows, eigenvectors) per (M_s, parity) block
    entries = []  # (energy, M_s, parity, index in block, S, block)
    for key in sorted(set(zip(ms.tolist(), parity.tolist()))):
        idx = canon[(ms[canon] == key[0]) & (parity[canon] == key[1])]
        sub = [basis[i] for i in idx]
        evals, evecs = np.linalg.eigh(hamiltonian_matrix(model, sub))
        s2 = s_squared_matrix(sub)
        _resolve_degenerate_clusters(evals, evecs, s2)
        s2v = np.einsum("ij,ij->j", evecs, s2 @ evecs)
        spins = np.array([_s_from_eigenvalue(v) for v in s2v])
        bad = np.abs(spins * (spins + 1) - s2v) >= _S2_GUARD
        if bad.any():
            raise NumericalIntegrityError(
                f"<S^2> = {s2v[bad][0]} is not S(S+1) for any half-integer S"
            )
        entries += [
            (float(e), *key, j, float(s), len(blocks))
            for j, (e, s) in enumerate(zip(evals, spins))
        ]
        blocks.append((idx, evecs))

    entries.sort()
    for i, j in _runs(np.array([t[0] for t in entries])):
        entries[i:j] = sorted(entries[i:j], key=lambda t: t[1:4])
    eigenvectors = np.zeros((len(basis), len(basis)))
    for col, (_, _, _, j, _, b) in enumerate(entries):
        idx, evecs = blocks[b]
        eigenvectors[idx, col] = evecs[:, j]
    return CIResult(
        basis=tuple(basis),
        eigenvalues=np.array([t[0] for t in entries]),
        eigenvectors=eigenvectors,
        states=tuple(
            CIState(energy=e, s=s, ms=m, parity=p) for e, m, p, _, s, _ in entries
        ),
    )


# ---------------------------------------------------------------------------
# comparison against the exact spectrum


@dataclass(frozen=True)
class MatchedState:
    ci_energy: float
    exact_energy: float
    quanta_key: tuple[int, int]
    s: float
    parity: int


@dataclass(frozen=True)
class MissingLevel:
    quanta_key: tuple[int, int]
    energy: float
    irrep_mults: Mapping[str, int]


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of matching CI states against the exact level list.

    ``missing`` holds exact levels below the convergence horizon that no CI
    state matched; on a successful experiment every one of them carries only
    forbidden irrep content and ``spurious`` is empty.
    """

    matched: tuple[MatchedState, ...]
    missing: tuple[MissingLevel, ...]
    spurious: tuple[float, ...]
    horizon: float
    vacuous: bool
    forbidden_irreps: tuple[str, ...]

    @property
    def ok(self) -> bool:
        forbidden = set(self.forbidden_irreps)
        for lv in self.missing:
            content = {lbl for lbl, m in lv.irrep_mults.items() if m}
            if not content <= forbidden:
                return False
        return not self.spurious

    def to_dict(self) -> dict:
        return {
            "matched": [
                {
                    "ci_energy": m.ci_energy,
                    "exact_energy": m.exact_energy,
                    "quanta_key": list(m.quanta_key),
                    "S": m.s,
                    "parity": m.parity,
                }
                for m in self.matched
            ],
            "missing": [
                {
                    "quanta_key": list(lv.quanta_key),
                    "energy": lv.energy,
                    "irrep_mults": dict(lv.irrep_mults),
                }
                for lv in self.missing
            ],
            "spurious": list(self.spurious),
            "horizon": self.horizon,
            "vacuous": self.vacuous,
            "ok": self.ok,
        }


def compare(
    model: OscillatorModel,
    ci_result: CIResult,
    exact_levels: Sequence[LevelDescriptor],
    allowed: AllowedIrrepMap,
    tol: float,
) -> ComparisonReport:
    """Greedy energy matching of CI states to exact levels within tol.

    Every exact level must carry irrep multiplicities.  The convergence
    horizon is the energy of the first allowed level that no CI state
    reproduces within tol (clipped to the top of the enumerated list); only
    CI states below the horizon are classified.  Levels below the horizon
    with no matching CI state are reported missing.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if allowed.n != model.n_particles:
        raise ValueError(
            f"allowed map is for N={allowed.n}, model has N={model.n_particles}"
        )
    vacuous = not math.isfinite(tol)
    for lv in exact_levels:
        if lv.irrep_mults is None:
            raise ValueError(
                f"level {lv.quanta_key} lacks irrep multiplicities; decorate "
                "levels before comparing"
            )
    levels = sorted(exact_levels, key=lambda lv: (lv.energy, lv.quanta_key))
    forbidden = allowed.forbidden_labels()

    def has_allowed_content(lv: LevelDescriptor) -> bool:
        return any(m and lbl not in forbidden for lbl, m in lv.irrep_mults.items())

    evals = ci_result.eigenvalues
    horizon = levels[-1].energy + tol if levels else 0.0
    for lv in levels:
        if not has_allowed_content(lv):
            continue
        if not np.any(np.abs(evals - lv.energy) <= tol):
            horizon = min(horizon, lv.energy)
            break

    allowed_levels = [
        lv for lv in levels if has_allowed_content(lv) and lv.energy < horizon
    ]
    matched: list[MatchedState] = []
    matched_keys: set[tuple[int, int]] = set()
    spurious: list[float] = []
    for j, e in enumerate(evals):
        if e >= horizon:
            break
        best = None
        for lv in allowed_levels:
            gap = abs(e - lv.energy)
            if gap <= tol and (best is None or gap < abs(e - best.energy)):
                best = lv
        if best is None:
            spurious.append(float(e))
            continue
        state = ci_result.states[j]
        matched.append(
            MatchedState(
                ci_energy=float(e),
                exact_energy=best.energy,
                quanta_key=best.quanta_key,
                s=state.s,
                parity=state.parity,
            )
        )
        matched_keys.add(best.quanta_key)

    missing = tuple(
        MissingLevel(lv.quanta_key, lv.energy, dict(lv.irrep_mults))
        for lv in levels
        if lv.energy < horizon and lv.quanta_key not in matched_keys
    )
    return ComparisonReport(
        matched=tuple(matched),
        missing=missing,
        spurious=tuple(spurious),
        horizon=float(horizon),
        vacuous=vacuous,
        forbidden_irreps=tuple(sorted(forbidden)),
    )

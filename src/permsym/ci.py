"""Configuration interaction over Slater determinants of oscillator orbitals.

The one-particle basis is the first M eigenfunctions of the uncoupled
unit-frequency oscillator, which makes the one-body part diagonal.  The
pair coupling is half the square of the total position minus a one-body
term, so H, like S^2, is assembled from one vectorized one-body-operator
builder acting on integer occupation arrays and bitmasks of the
determinants (string-based CI in the manner of Knowles and Handy, 1984).
The determinant space (all C(2M, N) selections, optionally filtered to one
M_s sector) is spin-adapted: each configuration of orbital occupations
times each spin eigenfunction of its open shells is one configuration
state function (CSF; Pauncz, Spin Eigenfunctions, 1979), and H is
diagonalized densely in one block of CSFs per (S, parity), so total spin
holds by construction.  Comparing the resulting spectrum against the exact
levels exposes the missing ones.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import BasisTooSmallError, NumericalIntegrityError
from .oscillator import LevelDescriptor, OscillatorModel, level_energy

if TYPE_CHECKING:
    from .spin import AllowedIrrepMap

#: largest |S^2 f - S(S+1) f| a spin function may show
_SPIN_GUARD = 1e-10
#: relative width of a run of degenerate energies
_DEGENERACY_TOL = 1e-9
#: determinants are int64 bitmasks over the spin-orbitals
_MASK_BITS = 63


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


def _ms(occ: np.ndarray) -> np.ndarray:
    """M_s of each row: +1/2 per even (alpha) index, -1/2 per odd (beta)."""
    return 0.5 * (1 - 2 * (occ % 2)).sum(axis=1)


def build_basis(
    n_particles: int, n_orbitals: int, ms: str | float = "all"
) -> np.ndarray:
    """All C(2M, N) determinants over 2M spin-orbitals, or those of one M_s,
    in lexicographic order.

    A determinant basis is a (dim, N) int64 array: each row lists the
    occupied spin-orbitals in ascending order (Pauli + canonical sign
    convention).  Spins interleave: index 2a is orbital a with spin alpha,
    2a + 1 is orbital a with spin beta.
    """
    if 2 * n_orbitals < n_particles:
        raise BasisTooSmallError(
            f"{2 * n_orbitals} spin-orbitals cannot hold {n_particles} particles"
        )
    if n_orbitals > _MASK_BITS // 2:
        raise ValueError(f"at most {_MASK_BITS // 2} orbitals fit a determinant mask")
    combos = itertools.combinations(range(2 * n_orbitals), n_particles)
    occ = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64)
    occ = occ.reshape(-1, n_particles)
    if ms != "all":
        occ = occ[np.abs(_ms(occ) - float(ms)) < 1e-12]
    return occ


def _occupations(basis) -> np.ndarray:
    """The basis as a fresh (dim, N) int64 array, checked: every row holds
    non-negative, strictly increasing spin-orbital indices that fit a mask."""
    occ = np.array(basis)
    if not occ.size:
        raise ValueError("empty determinant basis")
    if occ.ndim != 2 or occ.dtype.kind not in "iu":
        raise ValueError(
            f"determinant basis of {occ.dtype} and shape {occ.shape}, "
            "not a (dim, N) integer array"
        )
    occ = occ.astype(np.int64, copy=False)
    bad = (occ < 0).any(axis=1) | (np.diff(occ, axis=1) <= 0).any(axis=1)
    if bad.any():
        raise ValueError(
            "occupied indices must be non-negative and strictly increase: "
            f"{occ[bad][0].tolist()}"
        )
    if occ.max() >= _MASK_BITS:
        raise ValueError(f"at most {_MASK_BITS // 2} orbitals fit a determinant mask")
    return occ


def _masks(occ: np.ndarray) -> np.ndarray:
    return (np.int64(1) << occ).sum(axis=1)


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
    return a.T @ a


def _s_minus_s_plus(occ: np.ndarray) -> np.ndarray:
    """S-S+ over the determinants of ``occ``, with S- = S+^T and
    S+ = sum_a a+_(a,alpha) a_(a,beta)."""
    s_plus = np.kron(np.eye(int(occ.max()) // 2 + 1), [[0.0, 1.0], [0.0, 0.0]])
    return _gram(*_one_body(occ, s_plus), len(occ))


def hamiltonian_matrix(model: OscillatorModel, basis: np.ndarray) -> np.ndarray:
    """Dense symmetric CI matrix over any set of determinants.

    The pair coupling is (xi/2)[(sum_i x_i)^2 - sum_i x_i^2].  With X the
    one-body position operator on the M orbitals the basis reaches and Q
    the one-body operator of the truncated product x_M x_M, the two-body
    part X.X - Q is exact on those orbitals, so H = H1 + (xi/2)(X^T X - Q).
    The images of X are indexed over the masks they reach, so the basis
    may be a full sector, a reordering or a subset.
    """
    occ = _occupations(basis)
    dim = len(occ)
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
    h += 0.5 * model.xi * _gram(*_one_body(occ, x), dim)
    return h


def s_squared_matrix(basis: np.ndarray) -> np.ndarray:
    """S^2 = S-S+ + Sz(Sz+1) over the determinant basis.

    S-S+ keeps each configuration and M_s, so the basis is closed under it
    when every configuration comes with all of its spin strings, as
    :func:`_sectors` requires (a full M_s sector does); otherwise a
    ValueError is raised.
    """
    occ = _occupations(basis)
    list(_sectors(occ))  # raises on a missing spin partner
    s2 = _s_minus_s_plus(occ)
    ms = _ms(occ)
    s2[np.diag_indices(len(occ))] += ms * (ms + 1.0)
    return s2


@functools.lru_cache(maxsize=None)
def _spin_strings(k: int, n_beta: int) -> np.ndarray:
    """Spin strings of k open shells with n_beta of them beta, ascending.

    A string is an index into the 2^k product basis of the shells' spins:
    bit k-1-j is set when shell j is beta.
    """
    strings = np.array(
        [i for i in range(1 << k) if bin(i).count("1") == n_beta], dtype=np.int64
    )
    strings.setflags(write=False)  # cached: shared by every caller
    return strings


@functools.lru_cache(maxsize=None)
def spin_functions(k: int, n_beta: int, s: float) -> np.ndarray:
    """Orthonormal total-spin-``s`` eigenfunctions of k open shells with
    n_beta of them beta, as columns over ``_spin_strings(k, n_beta)``.

    With L the matrix of S- from the strings of M_s + 1 to these, the k-site
    S^2 here is L L^T + M_s(M_s + 1).  The M_s = s members are an eigenbasis
    of it on the highest-weight strings; each lower M_s applies S- to the
    one above and renormalizes, so column j is one member of the same
    multiplet in every M_s.  Each set is checked against S(S+1) once, when
    it is built.
    """
    m = k / 2 - n_beta
    if not abs(m) <= s <= k / 2 or (k / 2 - s) % 1:
        raise ValueError(f"no S={s} spin function of {k} shells at M_s={m}")
    strings = _spin_strings(k, n_beta)
    above = _spin_strings(k, n_beta - 1)
    # S- turns one alpha shell beta: string b is reached from a when the
    # bits of b are those of a plus one
    lower = (np.bitwise_and(strings[:, None], above) == above) * 1.0
    s2 = lower @ lower.T + m * (m + 1) * np.eye(len(strings))
    if m == s:
        evals, evecs = np.linalg.eigh(s2)
        funcs = evecs[:, np.abs(evals - s * (s + 1)) < 0.5]
    else:
        funcs = lower @ spin_functions(k, n_beta - 1, s)
        funcs /= math.sqrt(s * (s + 1) - m * (m + 1))
    if np.abs(s2 @ funcs - s * (s + 1) * funcs).max(initial=0.0) > _SPIN_GUARD:
        raise NumericalIntegrityError(
            f"spin functions of {k} shells miss S(S+1) for S={s}"
        )
    funcs.setflags(write=False)
    return funcs


@dataclass(frozen=True)
class CIState:
    energy: float
    s: float
    ms: float
    parity: int


@dataclass(frozen=True)
class _CSFBlock:
    """The configuration state functions of one (M_s, parity, S) block.

    ``rows`` are the basis indices of its determinants, ordered by open-
    shell count, then configuration, then spin string; ``groups`` holds
    (number of configurations, spin functions) per open-shell count.  The
    CSF transform K is block diagonal, one copy of the spin functions per
    configuration, and ``coeffs`` are the eigenvectors over the CSFs.
    """

    ms: float
    parity: int
    s: float
    rows: np.ndarray
    groups: tuple[tuple[int, np.ndarray], ...]
    evals: np.ndarray
    coeffs: np.ndarray


def _to_csf(groups, x: np.ndarray) -> np.ndarray:
    """K^T x, for x over the block's determinants in block order.  With
    every spin-function matrix of ``groups`` transposed, this is K x."""
    out, at = [], 0
    for n_conf, funcs in groups:
        d, f = funcs.shape
        part = x[at : at + n_conf * d].reshape(n_conf, d, -1)
        out.append((funcs.T @ part).reshape(n_conf * f, -1))
        at += n_conf * d
    return np.concatenate(out)


@dataclass(frozen=True)
class CIResult:
    """Eigensolution over the determinant basis, labelled per state.

    State j is column ``columns[j, 1]`` of block ``columns[j, 0]``.
    """

    basis: np.ndarray  # (dim, N) occupations, read-only
    eigenvalues: np.ndarray
    states: tuple[CIState, ...]
    blocks: tuple[_CSFBlock, ...] = field(repr=False)
    columns: np.ndarray = field(repr=False)  # (block, index in block) per state


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


def _sectors(occ: np.ndarray):
    """Split the determinants into (M_s, parity) sectors, solve order first.

    Yields (M_s, parity, rows, open-shell groups): ``rows`` are basis
    indices ordered by open-shell count k, configuration and spin string,
    and each group is (k, beta open shells, first position in rows,
    configurations) for one k.
    Raises ValueError unless every configuration present comes with all of
    its spin strings.
    """
    orb, beta = occ // 2, occ % 2
    pair = orb[:, 1:] == orb[:, :-1]
    edge = np.zeros((len(occ), 1), dtype=bool)
    single = ~(np.hstack([edge, pair]) | np.hstack([pair, edge]))
    k = single.sum(axis=1)
    later = k[:, None] - np.cumsum(single, axis=1)  # open shells after this one
    string = (single * beta << later).sum(axis=1)
    config = (np.int64(1) << 2 * orb).sum(axis=1)  # occupation numbers, base 4
    ms = _ms(occ)
    parity = 1 - 2 * (orb.sum(axis=1) % 2)
    order = np.lexsort((string, config, k))
    sectors = set(zip(ms.tolist(), parity.tolist()))
    for m, p in sorted(sectors, key=lambda t: (abs(t[0]), -t[0], t[1])):
        rows = order[(ms[order] == m) & (parity[order] == p)]
        groups = []
        k_rows = np.unique(k[rows], return_index=True, return_counts=True)
        for kk, at, size in zip(*(v.tolist() for v in k_rows)):
            n_beta = round(kk / 2 - m)
            expected = _spin_strings(kk, n_beta)
            d, group = len(expected), rows[at : at + size]
            if (
                size % d
                or (config[group].reshape(-1, d) != config[group[::d], None]).any()
                or (string[group].reshape(-1, d) != expected).any()
            ):
                raise ValueError(
                    "a configuration lacks some of its spin partners; "
                    "use a full M_s sector"
                )
            groups.append((kk, n_beta, at, config[group[::d]]))
        yield m, p, rows, groups


def ci_solve(model: OscillatorModel, basis: np.ndarray) -> CIResult:
    """Spin-adapted dense eigensolution with deterministic output.

    H conserves M_s, the parity of the total orbital quanta and the total
    spin S.  Each (M_s, parity) sector of the basis is ordered by open-shell
    count, configuration and spin string, and H on it is transformed to
    configuration state functions: a configuration with k open shells
    times each spin function of ``spin_functions``.  H is then diagonalized
    in one block per S, so every spin label holds by construction.  Each
    (S, parity) block is solved once, in the sector of smallest |M_s| that
    holds it (+M_s on a tie); the other sectors reuse its eigenpairs through
    their own lowered spin functions, so the members of a multiplet carry
    bitwise-equal energies.  The result does not depend on the order of
    ``basis``; a basis that lacks a spin partner of one of its
    determinants raises ValueError.

    State order: ascending energy, except that inside a run of energies
    within 1e-9 (relative) of its lowest member, states are ordered by
    (M_s, parity, S, index within the block).
    """
    occ = _occupations(basis)
    occ.setflags(write=False)
    solved = {}  # (S, parity, configurations) -> (eigenvalues, coefficients)
    blocks = []
    for ms, parity, rows, groups in _sectors(occ):
        h = None
        for s in np.arange(abs(ms), groups[-1][0] / 2 + 0.25).tolist():
            carrying = [g for g in groups if g[0] >= 2 * s]
            start = carrying[0][2]
            spin_groups = tuple(
                (len(conf), spin_functions(kk, n_beta, s))
                for kk, n_beta, _, conf in carrying
            )
            key = (s, parity, np.concatenate([c for *_, c in carrying]).tobytes())
            if key not in solved:
                if h is None:
                    h = hamiltonian_matrix(model, occ[rows])
                part = _to_csf(spin_groups, h[start:, start:])
                solved[key] = np.linalg.eigh(_to_csf(spin_groups, part.T))
            evals, coeffs = solved[key]
            blocks.append(
                _CSFBlock(ms, parity, s, rows[start:], spin_groups, evals, coeffs)
            )

    entries = sorted(
        (float(e), b.ms, b.parity, b.s, j, i)
        for i, b in enumerate(blocks)
        for j, e in enumerate(b.evals)
    )
    for i, j in _runs(np.array([t[0] for t in entries])):
        entries[i:j] = sorted(entries[i:j], key=lambda t: t[1:5])
    return CIResult(
        basis=occ,
        eigenvalues=np.array([t[0] for t in entries]),
        states=tuple(
            CIState(energy=e, s=s, ms=m, parity=p) for e, m, p, s, _, _ in entries
        ),
        blocks=tuple(blocks),
        columns=np.array([(t[5], t[4]) for t in entries]),
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
    forbidden irrep content and ``spurious`` is empty.  ``vacuous`` is set
    when no allowed exact state lies below the horizon, so nothing was
    verified.
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
    """Pair CI states with exact states rank by rank in each (M_s, S, parity)
    block.

    Every exact level must carry irrep multiplicities.  A level holding m
    copies of irrep Gamma puts m exact states into block (M_s, S, its
    parity) for each M_s of the CI states and each allowed spin S >= |M_s|
    of Gamma.  Both lists of a block ascend, and by the Hylleraas-Undheim-
    MacDonald theorem (MacDonald, Phys. Rev. 43, 830 (1933)) CI_k >=
    exact_k, so the k-th CI state of a block can only reproduce the k-th
    exact state.  A block's horizon is exact_k at its first rank k with no
    CI state or with CI_k - exact_k > tol; if that CI_k lies within tol of
    the block's next distinct exact energy, the list has shifted (it
    predicts a state the CI lacks), and that CI state is spurious.  The
    horizon is the lowest block horizon, clipped to the top of the
    enumerated list and to tol below the lowest level the list leaves out:
    with cutoff the largest n_sym + n_last given, that is the lowest level
    of the cutoff+1 shell, since energies rise with both quanta.  A CI state
    is matched when its same-rank exact state lies within tol and the lower
    of the two energies (normally the exact one) is below the horizon; an
    unmatched CI state below the horizon is spurious.  Levels below the
    horizon with no matched state are reported missing.  A CI result whose
    states all have |M_s| above some allowed spin cannot hold that spin's
    states, so it raises ValueError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if allowed.n != model.n_particles:
        raise ValueError(
            f"allowed map is for N={allowed.n}, model has N={model.n_particles}"
        )
    spins = [s for ss in allowed.spins.values() for s in ss]
    lowest_ms = min(abs(st.ms) for st in ci_result.states)
    if spins and min(spins) < lowest_ms:
        raise ValueError(
            f"allowed spin S={min(spins):g} has no state with |M_s| >= "
            f"{lowest_ms:g}, the smallest |M_s| of the CI states"
        )
    for lv in exact_levels:
        if lv.irrep_mults is None:
            raise ValueError(
                f"level {lv.quanta_key} lacks irrep multiplicities; decorate "
                "levels before comparing"
            )
    levels = sorted(exact_levels, key=lambda lv: (lv.energy, lv.quanta_key))
    ci = {(b.ms, b.s, b.parity): b.evals for b in ci_result.blocks}
    exact = {key: [] for key in ci}
    ms_values = {st.ms for st in ci_result.states}
    for lv in levels:
        for label, m in lv.irrep_mults.items():
            for s, ms in itertools.product(allowed.spins[label], ms_values):
                if s >= abs(ms):
                    exact.setdefault((ms, s, lv.parity), []).extend([lv] * m)

    horizon = levels[-1].energy + tol if levels else 0.0
    if levels:
        shell = max(lv.n_sym + lv.n_last for lv in levels) + 1
        unlisted = min(level_energy(model, q, shell - q) for q in range(shell + 1))
        horizon = min(horizon, unlisted - tol)
    skipped = []  # CI states at the next level of a shifted exact list
    for key, ex in exact.items():
        evals = ci.get(key, ())
        for k, lv in enumerate(ex):
            if k < len(evals) and evals[k] - lv.energy <= tol:
                continue
            horizon = min(horizon, lv.energy)
            gap = _DEGENERACY_TOL * max(1.0, abs(lv.energy))
            above = [e.energy for e in ex[k:] if e.energy - lv.energy > gap]
            if k < len(evals) and above and abs(evals[k] - above[0]) <= tol:
                skipped.append(float(evals[k]))
            break

    matched: list[MatchedState] = []
    spurious: list[float] = []
    for state, k in zip(ci_result.states, ci_result.columns[:, 1].tolist()):
        ex = exact[state.ms, state.s, state.parity]
        exact_e = ex[k].energy if k < len(ex) else math.inf
        if abs(state.energy - exact_e) <= tol and min(state.energy, exact_e) < horizon:
            matched.append(
                MatchedState(
                    state.energy, exact_e, ex[k].quanta_key, state.s, state.parity
                )
            )
        elif state.energy < horizon:
            spurious.append(state.energy)

    matched_keys = {m.quanta_key for m in matched}
    missing = tuple(
        MissingLevel(lv.quanta_key, lv.energy, dict(lv.irrep_mults))
        for lv in levels
        if lv.energy < horizon and lv.quanta_key not in matched_keys
    )
    return ComparisonReport(
        matched=tuple(matched),
        missing=missing,
        spurious=tuple(spurious + sorted(skipped)),
        horizon=float(horizon),
        vacuous=not any(ex and ex[0].energy < horizon for ex in exact.values()),
        forbidden_irreps=tuple(sorted(allowed.forbidden_labels())),
    )

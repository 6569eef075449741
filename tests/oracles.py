"""Test-only reference implementations.

``hamiltonian_element`` is the textbook Slater-Condon casework for the
coupled-oscillator Hamiltonian, element by element, from the scalar
one-body integrals ``x_matrix_element`` and ``core_energy``.  The package
builds H from one-body operator matrices instead; this oracle checks it
entrywise.  ``product_basis_oracle`` diagonalizes H on the
non-antisymmetrized product basis, which holds the forbidden levels too.  ``ci_solve_dense`` is the
determinant-basis CI that measures total spin instead of imposing it.
``spin_content_by_eigh`` decomposes the spin space by diagonalizing S^2 and
tracing permutation matrices, in floats, against the package's integer
generating function.  ``constructive_spins_by_floats`` is the constructive
route in floats, the reference for the package's integer shell ranks: each
projector column times each spin product is antisymmetrized into Slater
determinants (``antisymmetrize_space_spin``) and each survivor's spin read
from <S^2>; ``antisymmetrize_by_permutations`` checks that in turn as a sum
over all N! relabelings with spin measured in the 2^N product space.
``eigenfunction`` evaluates the exact eigenfunctions
as Hermite polynomials times Gaussians, an independent numerical check of
the representation matrices built from creation operators.
``compare_greedy`` is the nearest-level matcher that ``ci.compare`` used
before it paired states rank by rank per block; where it passes, the two
reports agree.  ``eigenvectors`` rebuilds each CSF block of the CI states,
which carry eigenvalues only, by the dense transform ``_to_csf`` of the
determinant H (the reference for the package's sparse blocks), re-solves
it and assembles the dense eigenvector matrix.
``one_body_gram`` builds the two-body square A^T A of a one-body operator
through a dense image matrix, against the package's pairwise entries.
The rest (spin-orbital labels, sign-counting sort, permutation inverse, exact
projector coefficients, the closed-form energy of a quanta pattern and the
spin-space content per S) is bookkeeping that only the tests use.
Determinants are rows of ascending occupied spin-orbitals, as in the
package's occupation arrays.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from permsym.ci import (
    ComparisonReport,
    _occupations,
    _runs,
    _s_plus,
    _sectors,
    hamiltonian_matrix,
    s_squared_matrix,
)
from permsym.errors import NumericalIntegrityError
from permsym.oscillator import (
    LevelDescriptor,
    enumerate_levels,
    level_energy,
    normal_modes,
    uncoupled_expansion,
)
from permsym.levelsym import attach_multiplicities, character_projector
from permsym.spin import _spins, spin_character
from permsym.symgroup import (
    CharacterTable,
    Permutation,
    all_permutations,
    character_table,
    class_representative,
    class_size,
    cycle_type,
    decompose,
    parity,
)


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


def _orb(index):
    return index // 2


def _spin_bit(index):
    return index % 2


def _pair_interaction(a, b, c, d, xi):
    """<ab|v|cd> for v = xi * x_1 x_2, spin-orthogonality included."""
    if _spin_bit(a) != _spin_bit(c) or _spin_bit(b) != _spin_bit(d):
        return 0.0
    return xi * x_matrix_element(_orb(a), _orb(c)) * x_matrix_element(_orb(b), _orb(d))


def _antisymmetrized(a, b, c, d, xi):
    return _pair_interaction(a, b, c, d, xi) - _pair_interaction(a, b, d, c, xi)


def det_ms(det: Sequence[int]) -> float:
    """M_s of one determinant row: +1/2 per alpha (even) spin-orbital."""
    return sum(0.5 if i % 2 == 0 else -0.5 for i in det)


def hamiltonian_element(d1: Sequence[int], d2: Sequence[int], model) -> float:
    """Slater-Condon matrix element of the coupled-oscillator Hamiltonian
    between two determinant rows (ascending occupied spin-orbitals).

    Cases: identical determinants, single excitation, double excitation;
    anything differing in more than two spin-orbitals vanishes.
    """
    occ1, occ2 = tuple(map(int, d1)), tuple(map(int, d2))
    if len(occ1) != len(occ2):
        raise ValueError(f"determinant sizes differ: {len(occ1)} vs {len(occ2)}")
    n, xi = model
    if len(occ1) != n:
        raise ValueError(f"determinants have {len(occ1)} particles, model has {n}")
    set1, set2 = set(occ1), set(occ2)
    only1 = sorted(set1 - set2)
    only2 = sorted(set2 - set1)
    if len(only1) > 2:
        return 0.0

    if not only1:
        val = sum(core_energy(_orb(i)) for i in occ1)
        val += sum(
            _antisymmetrized(p, q, p, q, xi) for p, q in itertools.combinations(occ1, 2)
        )
        return val

    common = set1 & set2
    if len(only1) == 1:
        p, q = only1[0], only2[0]
        sign = (-1) ** (occ1.index(p) + occ2.index(q))
        # one-body term <p|h|q> vanishes off-diagonal in this orbital basis
        val = sum(_antisymmetrized(p, r, q, r, xi) for r in common)
        return sign * val

    p1, p2 = only1
    q1, q2 = only2
    sign = (-1) ** (occ1.index(p1) + occ1.index(p2) + occ2.index(q1) + occ2.index(q2))
    return sign * _antisymmetrized(p1, p2, q1, q2, xi)


def slater_condon_matrix(model, basis) -> np.ndarray:
    """Dense H over ``basis``, one Slater-Condon element at a time."""
    return np.array([[hamiltonian_element(d1, d2, model) for d2 in basis] for d1 in basis])


def _apply_flip(det, create, destroy):
    """a+_create a_destroy on an index-sorted determinant; None if it dies."""
    if destroy not in det:
        return None
    pos = det.index(destroy)
    phase = -1 if pos % 2 else 1
    rest = det[:pos] + det[pos + 1 :]
    if create in rest:
        return None
    ins = sum(1 for r in rest if r < create)
    if ins % 2:
        phase = -phase
    return phase, rest[:ins] + (create,) + rest[ins:]


def s_squared_loop(basis) -> np.ndarray:
    """S^2 = S-S+ + Sz(Sz+1), one determinant and one spin flip at a time."""
    dets = [tuple(map(int, row)) for row in basis]
    index = {det: i for i, det in enumerate(dets)}
    max_orb = max(_orb(i) for det in dets for i in det)
    s2 = np.zeros((len(dets), len(dets)))
    for col, det in enumerate(dets):
        s2[col, col] += det_ms(det) * (det_ms(det) + 1.0)
        for i in range(max_orb + 1):
            up = _apply_flip(det, 2 * i, 2 * i + 1)  # S+ on orbital i
            if up is None:
                continue
            for k in range(max_orb + 1):
                down = _apply_flip(up[1], 2 * k + 1, 2 * k)  # S- on orbital k
                if down is not None:
                    s2[index[down[1]], col] += up[0] * down[0]
    return s2


class DimensionCapError(ValueError):
    """A brute-force oracle was asked for a basis too large to handle densely."""


#: brute-force product-basis caps: M^N stays diagonalizable densely
_ORACLE_CAPS = {3: 8, 4: 6}


def product_basis_oracle(model, n_orbitals, cluster_tol=1e-7):
    """Dense spectrum of H on the non-antisymmetrized M^N product basis.

    Realizes the full permutation-symmetric spectrum, including the levels
    that antisymmetrized (CI) calculations cannot reach; low-lying
    eigenvalues converge to the closed form.  Returns (energy, degeneracy)
    pairs with eigenvalues clustered within ``cluster_tol``.
    """
    n, xi = model
    cap = _ORACLE_CAPS.get(n)
    if cap is None or n_orbitals > cap:
        raise DimensionCapError(
            f"product-basis oracle limited to M <= {cap} for N={n}; "
            f"got M={n_orbitals}"
        )
    h1 = np.diag([core_energy(a) for a in range(n_orbitals)])
    x1 = np.zeros((n_orbitals, n_orbitals))
    for a in range(n_orbitals):
        for b in range(n_orbitals):
            x1[a, b] = x_matrix_element(a, b)
    eye = np.eye(n_orbitals)

    def kron_chain(ops):
        out = np.array([[1.0]])
        for op in ops:
            out = np.kron(out, op)
        return out

    dim = n_orbitals**n
    h = np.zeros((dim, dim))
    for site in range(n):
        h += kron_chain(h1 if k == site else eye for k in range(n))
    for i, j in itertools.combinations(range(n), 2):
        h += xi * kron_chain(
            x1 if k in (i, j) else eye for k in range(n)
        )
    evals = np.linalg.eigvalsh(h)
    out = []
    i = 0
    while i < len(evals):
        j = i
        while j < len(evals) and evals[j] - evals[i] <= cluster_tol:
            j += 1
        out.append((float(np.mean(evals[i:j])), j - i))
        i = j
    return out


def _resolve_degenerate_clusters(evals, evecs, s2):
    """Rotate each degenerate eigenvalue cluster onto S^2 eigenvectors, in
    place; the raw eigensolver is free to mix the spins of one level."""
    for i, j in _runs(evals):
        if j - i > 1:
            block = evecs[:, i:j]
            small = block.T @ s2 @ block
            _, rot = np.linalg.eigh(0.5 * (small + small.T))
            evecs[:, i:j] = block @ rot


def ci_solve_dense(model, basis, guard=1e-6):
    """Dense CI over each whole (M_s, parity) block of determinants.

    Total spin is measured: degenerate clusters are rotated onto S^2 and
    every eigenvector's <S^2> must lie within ``guard`` of some S(S+1).
    Returns (eigenvalues, states) in the package's state order: ascending
    energy, and (M_s, parity, index) inside a run of energies within 1e-9.
    """
    occ = _occupations(basis)
    ms = 0.5 * (1 - 2 * (occ % 2)).sum(axis=1)
    parity = 1 - 2 * ((occ // 2).sum(axis=1) % 2)
    canon = np.lexsort(occ.T[::-1])
    entries = []
    for key in sorted(set(zip(ms.tolist(), parity.tolist()))):
        idx = canon[(ms[canon] == key[0]) & (parity[canon] == key[1])]
        sub = occ[idx]
        evals, evecs = np.linalg.eigh(hamiltonian_matrix(model, sub))
        s2 = s_squared_matrix(sub)
        _resolve_degenerate_clusters(evals, evecs, s2)
        s2v = np.einsum("ij,ij->j", evecs, s2 @ evecs)
        spins = np.array([_s_from_eigenvalue(v) for v in s2v])
        bad = np.abs(spins * (spins + 1) - s2v) >= guard
        if bad.any():
            raise NumericalIntegrityError(
                f"<S^2> = {s2v[bad][0]} is not S(S+1) for any half-integer S"
            )
        entries += [
            (float(e), *key, j, float(s)) for j, (e, s) in enumerate(zip(evals, spins))
        ]
    entries.sort()
    for i, j in _runs(np.array([t[0] for t in entries])):
        entries[i:j] = sorted(entries[i:j], key=lambda t: t[1:4])
    states = [{"energy": e, "S": s, "Ms": m, "parity": p} for e, m, p, _, s in entries]
    return np.array([t[0] for t in entries]), states


def _to_csf(groups, x: np.ndarray) -> np.ndarray:
    """K^T x, for x over a CSF block's determinants in block order, with
    ``groups`` the (configurations, spin functions) of each open-shell
    count.  With every spin-function matrix transposed, this is K x."""
    out, at = [], 0
    for n_conf, funcs in groups:
        d, f = funcs.shape
        part = x[at : at + n_conf * d].reshape(n_conf, d, -1)
        out.append((funcs.T @ part).reshape(n_conf * f, -1))
        at += n_conf * d
    return np.concatenate(out)


def eigenvectors(model: tuple[int, float], basis, states: Sequence[dict]) -> np.ndarray:
    """The dense eigenvector matrix of the CI states ``ci_solve`` gave on
    ``basis``, column j for states[j], rows in the order of ``basis``: each
    (M_s, parity, S) block is rebuilt from the package's sectors and spin
    functions, its CSF H is solved with eigh, and its eigenvectors are taken
    back to determinants.  By the documented state order, the k-th state of
    a block is its k-th eigenvector."""
    occ = _occupations(basis)
    out = np.zeros((len(occ), len(occ)))
    cols = {}  # (M_s, parity, S) -> state indices in order
    for j, st in enumerate(states):
        cols.setdefault((st["Ms"], st["parity"], st["S"]), []).append(j)
    for ms, parity, rows, blocks in _sectors(occ):
        for s, start, block, _ in blocks:
            block_rows = rows[start:]
            h = hamiltonian_matrix(model, occ[block_rows])
            _, coeffs = np.linalg.eigh(_to_csf(block, _to_csf(block, h).T))
            k_transposed = [(n_conf, funcs.T) for n_conf, funcs in block]
            block_cols = cols[ms, parity, s]
            out[np.ix_(block_rows, block_cols)] = _to_csf(k_transposed, coeffs)
    return out


def one_body_gram(basis, op: np.ndarray) -> np.ndarray:
    """Dense A^T A over ``basis`` for A = sum_pq op[p, q] a+_p a_q, with A
    built one determinant and one term at a time over the images it
    reaches, in or out of the basis."""
    images, entries = {}, []
    for col, det in enumerate(tuple(map(int, row)) for row in basis):
        for p, q in zip(*np.nonzero(op)):
            hit = _apply_flip(det, int(p), int(q))
            if hit is not None:
                row = images.setdefault(hit[1], len(images))
                entries.append((row, col, op[p, q] * hit[0]))
    a = np.zeros((len(images), len(basis)))
    for row, col, value in entries:
        a[row, col] += value
    return a.T @ a


# ---------------------------------------------------------------------------
# spin space, by floats

ALPHA, BETA = "a", "b"
_HALF_GUARD = 1e-6
_ZERO_TOL = 1e-8


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


@dataclass(frozen=True)
class FloatSpaceSpinFunction:
    """Result of antisymmetrizing (spatial function) x (spin product).

    ``determinants`` expands the survivor over normalized determinants,
    keyed by their CI occupation rows.  A zero result is a valid answer.
    """

    nonzero: bool
    norm: float
    s_value: Optional[float]
    determinants: Mapping[tuple[int, ...], float]


def antisymmetrize_space_spin(
    model: tuple[int, float],
    level: LevelDescriptor,
    spatial: np.ndarray,
    spin_product: SpinProduct,
) -> FloatSpaceSpinFunction:
    """Antisymmetrize (spatial vector over the level basis) x spin product
    over simultaneous space-spin relabeling, in floats.

    The spatial function is expanded over products of one-particle
    oscillator orbitals (``uncoupled_expansion``) and the spin product
    attached.  The antisymmetrizer turns a product of spin-orbitals into
    their Slater determinant over sqrt(N!), signed by the parity of the sort
    that orders them, and into zero when a spin-orbital repeats.
    Survivors carry their total spin, <S^2> = |S+ psi|^2 / |psi|^2 +
    M_s(M_s + 1), with the CI's S+, rounded to a half-integer within 1e-6.
    A spin product whose length is not the model's N, or a level whose
    orbital products reach orbital 31 with beta spin (beyond a determinant
    mask), raises ValueError.
    """
    n = model[0]
    if spin_product.n != n:
        raise ValueError(f"spin product has {spin_product.n} labels, model N={n}")
    if np.linalg.norm(spatial) < _ZERO_TOL:
        return FloatSpaceSpinFunction(False, 0.0, None, {})
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
        return FloatSpaceSpinFunction(False, norm, None, {})

    occ = _occupations(dets)
    targets, src, values = _s_plus(occ)
    _, image = np.unique(targets, return_inverse=True)
    raised = np.bincount(image, values * coeffs[src])  # S+ psi over its images
    ms = spin_product.ms
    s_value = _s_from_eigenvalue(raised @ raised / norm**2 + ms * (ms + 1))
    keys = map(tuple, occ.tolist())
    return FloatSpaceSpinFunction(True, norm, s_value, dict(zip(keys, coeffs.tolist())))


def constructive_spins_by_floats(
    model: tuple[int, float], level: LevelDescriptor, table: CharacterTable, irrep: str
) -> set[float]:
    """The spins of the survivors of every (spin product, projector column)
    pair of a level (:func:`antisymmetrize_space_spin`)."""
    proj = character_projector(model, level, table, irrep)
    spins: set[float] = set()
    for labels in spin_basis(model[0]):
        for seed in range(level.degeneracy):
            product = SpinProduct(labels)
            res = antisymmetrize_space_spin(model, level, proj[:, seed], product)
            if res.nonzero:
                spins.add(res.s_value)
    return spins


def _basis_index(labels: tuple[str, ...]) -> int:
    idx = 0
    for l in labels:
        idx = 2 * idx + (0 if l == ALPHA else 1)
    return idx


def permute_labels(p: Permutation, labels: Sequence) -> tuple:
    """Move the content of slot i to slot p[i-1]: out[p[i-1]-1] = labels[i-1].

    Matches the action of the permutation operator on product functions.
    """
    out = [None] * len(labels)
    for i, val in enumerate(labels, start=1):
        out[p[i - 1] - 1] = val
    return tuple(out)


def spin_s_squared_matrix(n: int) -> np.ndarray:
    """Total-spin operator S^2 = Sz^2 + (S+S- + S-S+)/2 on the 2^N product
    basis, built from the elementary one-site spin matrices.  Real and
    symmetric."""
    sz1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    sp1 = np.array([[0.0, 1.0], [0.0, 0.0]])  # |a><b|
    sm1 = sp1.T

    def total(op1: np.ndarray) -> np.ndarray:
        dim = 2**n
        out = np.zeros((dim, dim))
        for site in range(n):
            mat = np.array([[1.0]])
            for k in range(n):
                mat = np.kron(mat, op1 if k == site else np.eye(2))
            out += mat
        return out

    sz, sp, sm = total(sz1), total(sp1), total(sm1)
    return sz @ sz + 0.5 * (sp @ sm + sm @ sp)


def antisymmetrize_by_permutations(
    level: LevelDescriptor, spatial: np.ndarray, spin_product: SpinProduct
) -> FloatSpaceSpinFunction:
    """The space-spin antisymmetrizer as an explicit sum over all N!
    simultaneous relabelings of (spatial vector over the level basis) x spin
    product, with total spin measured by the 2^N product-space S^2 on the
    spin factor of each orbital pattern."""
    n = spin_product.n
    if np.linalg.norm(spatial) < _ZERO_TOL:
        return FloatSpaceSpinFunction(False, 0.0, None, {})
    spatial = spatial / np.linalg.norm(spatial)

    orb_patterns, expansion = uncoupled_expansion(n, level.n_sym, level.n_last)
    xvec = spatial @ expansion
    work = {
        (pat, spin_product.labels): float(xvec[j])
        for j, pat in enumerate(orb_patterns)
        if abs(xvec[j]) > 1e-14
    }
    out: dict = {}
    nfact = math.factorial(n)
    for p in all_permutations(n):
        sgn = parity(p)
        for (pat, labels), coeff in work.items():
            key = (permute_labels(p, pat), permute_labels(p, labels))
            out[key] = out.get(key, 0.0) + sgn * coeff / nfact

    norm = math.sqrt(sum(c * c for c in out.values()))
    if norm <= _ZERO_TOL:
        return FloatSpaceSpinFunction(False, norm, None, {})

    dets = {}
    for (pat, labels), coeff in out.items():
        if abs(coeff) < 1e-12:
            continue
        sos = [2 * o + (l != ALPHA) for o, l in zip(pat, labels)]
        if len(set(sos)) != n:
            raise NumericalIntegrityError(
                "antisymmetric function has weight on a Pauli-violating product"
            )
        ordered = tuple(sorted(sos))
        if ordered == tuple(sos):  # keep one representative per orbit
            dets[ordered] = coeff * math.sqrt(nfact)

    s2 = spin_s_squared_matrix(n)
    grouped: dict = {}
    for (pat, labels), c in out.items():
        vec = grouped.setdefault(pat, np.zeros(2**n))
        vec[_basis_index(labels)] += c
    num = sum(vec @ s2 @ vec for vec in grouped.values())
    den = sum(vec @ vec for vec in grouped.values())
    return FloatSpaceSpinFunction(True, norm, _s_from_eigenvalue(num / den), dets)


def spin_permutation_matrix(n: int, p: Permutation) -> np.ndarray:
    """2^N x 2^N 0/1 matrix permuting the tensor factors of the spin basis."""
    if len(p) != n:
        raise ValueError(f"permutation size {len(p)} != N {n}")
    dim = 2**n
    mat = np.zeros((dim, dim))
    for labels in spin_basis(n):
        mat[_basis_index(permute_labels(p, labels)), _basis_index(labels)] = 1.0
    return mat


def spin_eigenspaces(n: int) -> list[tuple[float, np.ndarray]]:
    """(S, orthonormal eigenbasis columns) per total-spin eigenspace of the
    2^N spin space, ascending S."""
    evals, evecs = np.linalg.eigh(spin_s_squared_matrix(n))
    spaces = []
    i = 0
    while i < len(evals):
        j = i
        while j < len(evals) and abs(evals[j] - evals[i]) < 1e-8:
            j += 1
        spaces.append((_s_from_eigenvalue(float(np.mean(evals[i:j]))), evecs[:, i:j]))
        i = j
    return spaces


def spin_content_by_eigh(n: int, table: CharacterTable) -> dict:
    """Irrep content of each total-spin eigenspace: float traces of the
    class representatives on the eigenbasis, rounded within 1e-6."""
    order = math.factorial(n)
    mats = [
        spin_permutation_matrix(n, class_representative(ct)) for ct in table.classes
    ]
    sizes = [class_size(ct) for ct in table.classes]
    out = {}
    for s, basis in spin_eigenspaces(n):
        traces = [np.trace(basis.T @ mat @ basis) for mat in mats]
        out[s] = {}
        for irrep, row in zip(table.irreps, table.chars):
            acc = sum(size * chi * t for size, chi, t in zip(sizes, row, traces))
            m = acc / order
            if abs(m - round(m)) >= 1e-6:
                raise NumericalIntegrityError(f"multiplicity {m} of {irrep}")
            out[s][irrep] = round(m)
    return out


def spin_content_by_s(n: int, table: CharacterTable) -> dict[float, dict[str, int]]:
    """Irrep content of each total-spin eigenspace (all 2S+1 members of its
    multiplets) from the package's integer spin characters."""
    if table.n != n:
        raise ValueError(f"table is for N={table.n}, not N={n}")
    content = {}
    for s in _spins(n):
        traces = {ct: spin_character(n, s, ct) for ct in table.classes}
        mults = decompose(table, traces)
        content[s] = {ir: (round(2 * s) + 1) * m for ir, m in mults.items()}
    return content


def spin_irrep_multiplicities(n: int, table: CharacterTable) -> dict[str, int]:
    """Decomposition of the full 2^N spin space into irreps."""
    out = dict.fromkeys(table.irreps, 0)
    for content in spin_content_by_s(n, table).values():
        for ir, m in content.items():
            out[ir] += m
    if sum(table.dimension(ir) * m for ir, m in out.items()) != 2**n:
        raise NumericalIntegrityError("spin decomposition does not sum to 2^N")
    return out


# ---------------------------------------------------------------------------
# exact eigenfunctions as Hermite polynomials times Gaussians

QuantaPattern = tuple[int, ...]


def _check_pattern(model: tuple[int, float], pattern: Sequence[int]) -> QuantaPattern:
    pattern = tuple(int(q) for q in pattern)
    if len(pattern) != model[0]:
        raise ValueError(f"quanta pattern must have {model[0]} entries, got {pattern}")
    if any(q < 0 for q in pattern):
        raise ValueError(f"negative quanta in {pattern}")
    return pattern


def exact_energy(model: tuple[int, float], pattern: Sequence[int]) -> float:
    """Closed-form eigenvalue for a full quanta pattern (degenerate modes
    first, symmetric mode last)."""
    pattern = _check_pattern(model, pattern)
    return level_energy(model, sum(pattern[:-1]), pattern[-1])



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


def eigenfunction(model: tuple[int, float], pattern: Sequence[int]) -> HermiteGaussian:
    """Exact normalized eigenfunction as Hermite polynomial x Gaussian, with
    the force constants k = 1 - xi and k' = 1 + (N-1) xi."""
    pattern = _check_pattern(model, pattern)
    n, xi = model
    k, k_prime = 1.0 - xi, 1.0 + (n - 1) * xi
    coeffs = [hermite_poly(q) for q in pattern[:-1]]
    terms = (
        (exps, math.prod(c[e] for c, e in zip(coeffs, exps)))
        for exps in itertools.product(*(range(len(c)) for c in coeffs))
    )
    poly = {exps: float(value) for exps, value in terms if value}
    return HermiteGaussian(
        pattern=pattern,
        poly=poly,
        normalization=_norm_constant(pattern, k, k_prime),
        k=k,
        k_prime=k_prime,
        U=normal_modes(n),
    )


# ---------------------------------------------------------------------------
# bookkeeping that only the tests use


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


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The permutation that swaps labels i and j."""
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return tuple(images)


def inverse(p: Permutation) -> Permutation:
    images = [0] * len(p)
    for i, img in enumerate(p, start=1):
        images[img - 1] = i
    return tuple(images)


def is_identity(p: Permutation) -> bool:
    return all(img == i + 1 for i, img in enumerate(p))


def canonicalize(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort spin-orbital indices, returning the determinant row and the
    parity of the sorting permutation; swapping two inputs flips the sign."""
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
    return tuple(indices), sign


def projector_coefficients(
    table: CharacterTable, irrep: str
) -> dict[Permutation, Fraction]:
    """Coefficients of the character projector P_Gamma.

    The coefficient of group element g is dim(Gamma)/N! * chi_Gamma(class
    of g); for multidimensional irreps this is the dimension-weighted
    character projector, the same convention as the printed P_E.
    """
    dimension = table.dimension(irrep)
    order = math.factorial(table.n)
    out = {}
    for p in all_permutations(table.n):
        chi = table.char(irrep, cycle_type(p))
        out[p] = Fraction(dimension * chi, order)
    return out


def all_perm_eigenfunction_irreps(table: CharacterTable) -> set[str]:
    """Irreps whose basis functions are eigenfunctions of every permutation
    operator: exactly the one-dimensional ones."""
    return {ir for ir in table.irreps if table.dimension(ir) == 1}


def compare_greedy(
    model: tuple[int, float],
    states: Sequence[dict],
    max_quanta: int,
    allowed: dict[str, tuple[float, ...]],
    tol: float,
) -> ComparisonReport:
    """The nearest-level matcher ``permsym.ci.compare`` replaced: greedy
    energy matching of CI states to the levels with n_sym + n_last <=
    ``max_quanta`` within tol.

    The convergence horizon is the energy of the first allowed level that
    no CI state reproduces within tol, clipped to the top level plus tol
    and to tol below the lowest level of the max_quanta + 1 shell, since
    energies rise with both quanta.  Only CI states below the horizon are
    classified.  Levels below the horizon with no matching CI state are
    reported missing, as ``compare``'s rows.  CI states that all have |M_s|
    above some allowed spin cannot hold that spin's states, so it raises
    ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    labels = character_table(model[0]).irreps
    if set(allowed) != set(labels):
        raise ValueError(
            f"allowed map has irreps {sorted(allowed)}, S{model[0]} has {sorted(labels)}"
        )
    spins = [s for ss in allowed.values() for s in ss]
    lowest_ms = min(abs(st["Ms"]) for st in states)
    if spins and min(spins) < lowest_ms:
        raise ValueError(
            f"allowed spin S={min(spins):g} has no state with |M_s| >= "
            f"{lowest_ms:g}, the smallest |M_s| of the CI states"
        )
    levels = [
        attach_multiplicities(model, lv) for lv in enumerate_levels(model, max_quanta)
    ]
    forbidden = {lbl for lbl, ss in allowed.items() if not ss}

    def has_allowed_content(lv: LevelDescriptor) -> bool:
        return any(m and lbl not in forbidden for lbl, m in lv.irrep_mults.items())

    evals = np.array([st["energy"] for st in states])
    shell = max_quanta + 1
    unlisted = min(level_energy(model, q, shell - q) for q in range(shell + 1))
    horizon = min(levels[-1].energy + tol, unlisted - tol)
    for lv in levels:
        if not has_allowed_content(lv):
            continue
        if not np.any(np.abs(evals - lv.energy) <= tol):
            horizon = min(horizon, lv.energy)
            break

    allowed_levels = [
        lv for lv in levels if has_allowed_content(lv) and lv.energy < horizon
    ]
    matched: list[dict] = []
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
        state = states[j]
        matched.append(
            {
                "ci_energy": float(e),
                "exact_energy": best.energy,
                "quanta_key": best.quanta_key,
                "S": state["S"],
                "parity": state["parity"],
            }
        )
        matched_keys.add(best.quanta_key)

    lost = [
        lv for lv in levels if lv.energy < horizon and lv.quanta_key not in matched_keys
    ]
    return ComparisonReport(
        matched=tuple(matched),
        missing=tuple(
            {"quanta_key": lv.quanta_key, "energy": lv.energy,
             "irrep_mults": lv.irrep_mults}
            for lv in lost
        ),
        spurious=tuple(spurious),
        horizon=float(horizon),
        vacuous=not allowed_levels,
        ok=not spurious and not any(has_allowed_content(lv) for lv in lost),
    )

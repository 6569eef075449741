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
state function (CSF; Pauncz, Spin Eigenfunctions, 1979).  The sparse
entries of H are scattered straight into one dense block of CSFs per (S,
parity), with no dense determinant H, and only its eigenvalues are
computed, so total spin holds by construction.  Comparing the resulting
spectrum against the exact levels exposes the missing ones.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NumericalIntegrityError
from .oscillator import enumerate_levels, level_energy
from .symgroup import character_table
#: largest |S^2 f - S(S+1) f| a spin function may show
_SPIN_GUARD = 1e-10
#: relative width of a run of degenerate energies
_DEGENERACY_TOL = 1e-9
#: determinants are int64 bitmasks over the spin-orbitals
_MASK_BITS = 63
#: largest (S, parity) CSF block solved densely: time grows as d³, and with one
#: BLAS thread d = 4,608 took 33.6 s at 419 MiB, so d = 4,096 (128 MiB dense)
#: takes about half a minute
MAX_CSF_BLOCK = 4096


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
        raise ValueError(
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
    """x on the interleaved spin-orbital index (spin-free): for unit-frequency
    oscillator orbitals <phi_a | x | phi_(a+1)> = sqrt((a + 1)/2)."""
    off = np.sqrt(np.arange(1, n_orbitals) / 2.0)
    return np.kron(np.diag(off, 1) + np.diag(off, -1), np.eye(2))


def _gram_entries(targets: np.ndarray, src: np.ndarray, values: np.ndarray):
    """(rows, columns, values) of A^T A for the operator A given by its
    entries over the basis columns: one entry v_i v_j for every ordered pair
    of terms i, j that reach the same image, so no image matrix is built."""
    _, image, counts = np.unique(targets, return_inverse=True, return_counts=True)
    order = np.argsort(image, kind="stable")
    image = image[order]
    size = counts[image]  # terms sharing each term's image
    first = np.cumsum(counts)[image] - size  # sorted position of its first
    i = np.repeat(np.arange(len(order)), size)
    j = np.repeat(first - np.cumsum(size) + size, size) + np.arange(len(i))
    src, values = src[order], values[order]
    return src[i], src[j], values[i] * values[j]


def _dense(dim: int, *parts) -> np.ndarray:
    """The dim x dim float matrix that sums the values of each (rows,
    columns, values) part at its positions."""
    rows, cols, values = (np.concatenate(p) for p in zip(*parts))
    flat = np.bincount(rows * dim + cols, weights=values, minlength=dim * dim)
    return flat.astype(float, copy=False).reshape(dim, dim)


def _s_plus(occ: np.ndarray):
    """S+ = sum_a a+_(a,alpha) a_(a,beta) on the determinants of ``occ``,
    as :func:`_one_body` entries."""
    n_orb = int(occ.max(initial=-1)) // 2 + 1
    return _one_body(occ, np.kron(np.eye(n_orb), [[0.0, 1.0], [0.0, 0.0]]))


def _hamiltonian_entries(model: tuple[int, float], basis: np.ndarray):
    """The entries of H over any set of determinants: (rows, columns,
    values), one per position reached, in ascending row-major order.

    The pair coupling is (xi/2)[(sum_i x_i)^2 - sum_i x_i^2].  With X the
    one-body position operator on the M orbitals the basis reaches and Q
    the one-body operator of the truncated product x_M x_M, the two-body
    part X.X - Q is exact on those orbitals, so H = H1 + (xi/2)(X^T X - Q).
    X^T X is summed pairwise over the terms of X that reach one image
    (:func:`_gram_entries`), so the images need not lie in the basis, which
    may be a full sector, a reordering or a subset.  One bincount sums the
    terms at each position, so no dim x dim array is built.
    """
    n, xi = model
    occ = _occupations(basis)
    dim = len(occ)
    if occ.shape[1] != n:
        raise ValueError(f"determinants have {occ.shape[1]} particles, model has {n}")
    n_orb = int(occ.max()) // 2 + 1
    x = _position(n_orb)
    h1 = np.diag(np.arange(2 * n_orb) // 2 + 0.5)  # orbital a: a + 1/2
    targets, src, values = _one_body(occ, h1 - 0.5 * xi * (x @ x))
    masks = _masks(occ)
    order = np.argsort(masks)
    pos = order[np.searchsorted(masks, targets, sorter=order).clip(max=dim - 1)]
    hit = masks[pos] == targets
    rows, cols, pairs = _gram_entries(*_one_body(occ, x))
    rows, cols = np.concatenate([pos[hit], rows]), np.concatenate([src[hit], cols])
    flat, at = np.unique(rows * dim + cols, return_inverse=True)
    values = np.concatenate([values[hit], 0.5 * xi * pairs])
    return flat // dim, flat % dim, np.bincount(at, weights=values)


def hamiltonian_matrix(model: tuple[int, float], basis: np.ndarray) -> np.ndarray:
    """Dense symmetric CI matrix of :func:`_hamiltonian_entries`, for
    inspection and tests; :func:`ci_solve` never builds it."""
    return _dense(len(basis), _hamiltonian_entries(model, basis))


def _s_squared(occ: np.ndarray) -> np.ndarray:
    """S^2 = S-S+ + Sz(Sz+1) over the determinants of ``occ``, S- = S+^T."""
    ms, diag = _ms(occ), np.arange(len(occ))
    return _dense(len(occ), _gram_entries(*_s_plus(occ)), (diag, diag, ms * (ms + 1.0)))


def s_squared_matrix(basis: np.ndarray) -> np.ndarray:
    """:func:`_s_squared` over the determinant basis.

    S-S+ keeps each configuration and M_s, so the basis is closed under it
    when every configuration comes with all of its spin strings, as
    :func:`_sectors` requires (a full M_s sector does); otherwise a
    ValueError is raised.
    """
    occ = _occupations(basis)
    list(_sectors(occ))  # raises on a missing spin partner
    return _s_squared(occ)


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
    n_beta of them beta, as columns over ``_spin_strings(k, n_beta)``: the
    S(S+1) eigenvectors of the S^2 of :func:`s_squared_matrix` on k singly
    occupied orbitals.  Each M_s is solved alone, so columns need not pair up
    across M_s; each set is checked against S(S+1) once, when it is built.
    """
    m = k / 2 - n_beta
    if not abs(m) <= s <= k / 2 or (k / 2 - s) % 1:
        raise ValueError(f"no S={s} spin function of {k} shells at M_s={m}")
    bits = _spin_strings(k, n_beta)[:, None] >> np.arange(k - 1, -1, -1) & 1
    s2 = _s_squared(2 * np.arange(k) + bits)
    evals, evecs = np.linalg.eigh(s2)
    funcs = evecs[:, np.abs(evals - s * (s + 1)) < 0.5]
    if np.abs(s2 @ funcs - s * (s + 1) * funcs).max(initial=0.0) > _SPIN_GUARD:
        raise NumericalIntegrityError(
            f"spin functions of {k} shells miss S(S+1) for S={s}"
        )
    funcs.setflags(write=False)
    return funcs


def _csf_block(entries, start: int, groups) -> np.ndarray:
    """The CSF block of H over a sector's determinants from ``start`` on,
    from the sector's ``entries`` and the (configurations, spin functions)
    of each open-shell count.  Each determinant lies in at most f CSFs (the
    widest f, padded with zero coefficients), so one bincount over the f^2
    products of every entry fills the block."""
    width = max(funcs.shape[1] for _, funcs in groups)
    index, coeff, size = [], [], 0
    for n_conf, funcs in groups:
        d, f = funcs.shape
        csf = size + f * np.arange(n_conf) + np.arange(width)[:, None] % f
        index.append(np.repeat(csf, d, axis=1))
        coeff.append(np.tile(np.pad(funcs.T, ((0, width - f), (0, 0))), n_conf))
        size += n_conf * f
    index, coeff = np.hstack(index), np.hstack(coeff)
    rows, cols, values = entries
    keep = (rows >= start) & (cols >= start)
    i, j = rows[keep] - start, cols[keep] - start
    at = (size * index.take(i, axis=1))[:, None] + index.take(j, axis=1)
    products = coeff.take(i, axis=1)[:, None] * (coeff.take(j, axis=1) * values[keep])
    return np.bincount(at.ravel(), products.ravel(), size * size).reshape(size, size)


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

    Yields (M_s, parity, rows, blocks): ``rows`` are basis indices ordered
    by open-shell count k, configuration and spin string, and each block is
    one total spin S >= |M_s| of the sector's CSFs: (S, first position in
    rows, the (configuration count, spin functions) of each k >= 2S, those
    configurations).
    Raises ValueError unless every configuration present comes with all of
    its spin strings, and when a block holds more than ``MAX_CSF_BLOCK`` CSFs.
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
        blocks = []
        for s in np.arange(abs(m), groups[-1][0] / 2 + 0.25).tolist():
            carrying = [g for g in groups if g[0] >= 2 * s]
            csf = [(len(c), spin_functions(kk, nb, s)) for kk, nb, _, c in carrying]
            dim = sum(n_conf * funcs.shape[1] for n_conf, funcs in csf)
            if dim > MAX_CSF_BLOCK:
                raise ValueError(
                    f"the S={s:g}, parity {p:+d} CSF block has dim {dim} "
                    f"({8 * dim * dim / 2**30:.2f} GiB dense), above {MAX_CSF_BLOCK}"
                )
            configs = np.concatenate([c for *_, c in carrying])
            blocks.append((s, carrying[0][2], csf, configs))
        yield m, p, rows, blocks


def ci_solve(model: tuple[int, float], basis: np.ndarray) -> list[dict]:
    """The CI states over the determinant basis: spin-adapted dense
    eigenvalues, each a row {"energy", "S", "Ms", "parity"}, in a
    deterministic order.

    H conserves M_s, the parity of the total orbital quanta and the total
    spin S.  Each (M_s, parity) sector of the basis is ordered by open-shell
    count, configuration and spin string, and the sparse entries of H on
    it are scattered into configuration state functions (:func:`_csf_block`;
    no dense determinant H is built): a configuration with k open shells
    times each spin function of ``spin_functions``.  Each block per S is
    solved for its eigenvalues only (``eigvalsh``), so every spin label
    holds by construction.  Each (S, parity) block is solved once, in the
    sector of smallest |M_s| that holds it (+M_s on a tie); the other
    sectors reuse its eigenvalues, so the members of a multiplet carry
    bitwise-equal energies (H commutes with S-, so a block has one spectrum
    in every M_s, whichever orthonormal spin functions span it).  The
    result does not depend on the order of ``basis``; a basis that lacks a
    spin partner of one of its determinants raises ValueError, and so does
    one with a CSF block above ``MAX_CSF_BLOCK``, before any H is built.

    State order: ascending energy, except that inside a run of energies
    within 1e-9 (relative) of its lowest member, states are ordered by
    (M_s, parity, S, index within the block).  So the states of one (M_s,
    parity, S) block appear in its eigenvalue order: the k-th is its k-th
    eigenvalue.
    """
    occ = _occupations(basis)
    solved = {}  # (S, parity, configurations) -> eigenvalues
    entries = []  # (energy, M_s, parity, S, index in block)
    for ms, parity, rows, blocks in list(_sectors(occ)):  # all sizes checked first
        h = None
        for s, start, csf, configs in blocks:
            key = (s, parity, configs.tobytes())
            if key not in solved:
                if h is None:
                    h = _hamiltonian_entries(model, occ[rows])
                solved[key] = np.linalg.eigvalsh(_csf_block(h, start, csf))
            entries += [(float(e), ms, parity, s, j) for j, e in enumerate(solved[key])]

    entries.sort()
    for i, j in _runs(np.array([t[0] for t in entries])):
        entries[i:j] = sorted(entries[i:j], key=lambda t: t[1:])
    return [{"energy": e, "S": s, "Ms": m, "parity": p} for e, m, p, s, _ in entries]


# ---------------------------------------------------------------------------
# comparison against the exact spectrum


class ComparisonReport(NamedTuple):
    """Outcome of :func:`compare`; its fields are what the CLI prints.

    ``matched`` rows pair a CI state with its exact state; ``missing`` rows
    ({"quanta_key", "energy", "irrep_mults"}) are the levels below the
    horizon that no CI state matched.  ``ok`` holds when each carries only
    forbidden irrep content and ``spurious`` is empty; an empty ``matched``
    verifies nothing.
    """

    matched: tuple[dict, ...]
    missing: tuple[dict, ...]
    spurious: tuple[float, ...]
    horizon: float
    ok: bool


def compare(
    model: tuple[int, float],
    states: Sequence[dict],
    max_quanta: int,
    allowed: Mapping[str, Sequence[float]],
    tol: float,
) -> ComparisonReport:
    """Pair the CI states (as :func:`ci_solve` orders them) with the exact
    states of every level with n_sym + n_last <= ``max_quanta``, rank by
    rank in each (M_s, S, parity) block.

    A level holding m copies of irrep Gamma puts m exact states into each
    block (M_s, S, its parity) with S >= |M_s| an allowed spin of Gamma.
    Both lists of a block ascend, and CI_k >= exact_k (Hylleraas-Undheim-
    MacDonald; MacDonald, Phys. Rev. 43, 830 (1933)), so the k-th CI state
    can only reproduce the k-th exact state: there is no search, and
    coincident levels are equal entries.  A block's horizon is exact_k at
    its first rank k with no CI state or with CI_k - exact_k > tol; if that
    CI_k lies within tol of the block's next distinct exact energy, the list
    has shifted (it predicts a state the CI lacks, as when a forbidden irrep
    is marked allowed) and that CI state is spurious.  The horizon is the
    lowest block horizon, clipped to the top level plus tol and to tol
    below the lowest level of the max_quanta + 1 shell, so a state of an
    unlisted level is never spurious.  A CI state is matched when its
    same-rank exact state lies within tol and the lower of the two energies
    is below the horizon, so at a crossing a level just under the horizon
    keeps its CI state just over it; an unmatched CI state below the
    horizon is spurious, and an unmatched level below it is missing (so
    nothing is matched iff no allowed exact state lies below the horizon).
    ValueError is raised for a bad tol or cutoff, an empty state list, an
    allowed map (label -> spins) whose labels are not the irreps of S_N,
    and CI states whose |M_s| all exceed some allowed spin.
    """
    from . import levelsym  # here, so the ci command never runs it

    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    labels = character_table(model[0]).irreps
    if set(allowed) != set(labels):
        raise ValueError(
            f"allowed map has irreps {sorted(allowed)}, S{model[0]} has {sorted(labels)}"
        )
    if not states:
        raise ValueError("the list of CI states is empty: nothing to compare")
    spins = [s for ss in allowed.values() for s in ss]
    lowest_ms = min(abs(st["Ms"]) for st in states)
    if spins and min(spins) < lowest_ms:
        raise ValueError(
            f"allowed spin S={min(spins):g} has no state with |M_s| >= "
            f"{lowest_ms:g}, the smallest |M_s| of the CI states"
        )
    levels = [
        levelsym.attach_multiplicities(model, lv)
        for lv in enumerate_levels(model, max_quanta)
    ]
    ci, ranks = {}, []  # block eigenvalues ascending; each state's rank
    for st in states:
        block = ci.setdefault((st["Ms"], st["S"], st["parity"]), [])
        ranks.append(len(block))
        block.append(st["energy"])
    exact = {key: [] for key in ci}
    ms_values = {st["Ms"] for st in states}
    for lv in levels:
        for label, m in lv.irrep_mults.items():
            for s, ms in itertools.product(allowed[label], ms_values):
                if s >= abs(ms):
                    exact.setdefault((ms, s, lv.parity), []).extend([lv] * m)

    shell = max_quanta + 1
    unlisted = min(level_energy(model, q, shell - q) for q in range(shell + 1))
    horizon = min(levels[-1].energy + tol, unlisted - tol)
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

    matched: list[dict] = []
    spurious: list[float] = []
    for state, k in zip(states, ranks):
        energy, s, parity = state["energy"], state["S"], state["parity"]
        ex = exact[state["Ms"], s, parity]
        exact_e = ex[k].energy if k < len(ex) else math.inf
        if abs(energy - exact_e) <= tol and min(energy, exact_e) < horizon:
            matched.append({
                "ci_energy": energy,
                "exact_energy": exact_e,
                "quanta_key": ex[k].quanta_key,
                "S": s,
                "parity": parity,
            })
        elif energy < horizon:
            spurious.append(energy)

    matched_keys = {m["quanta_key"] for m in matched}
    missing = tuple(
        dict(quanta_key=lv.quanta_key, energy=lv.energy, irrep_mults=lv.irrep_mults)
        for lv in levels
        if lv.energy < horizon and lv.quanta_key not in matched_keys
    )
    spurious += sorted(skipped)
    ok = not spurious and not any(
        m and allowed[lbl] for row in missing for lbl, m in row["irrep_mults"].items()
    )
    return ComparisonReport(
        matched=tuple(matched),
        missing=missing,
        spurious=tuple(spurious),
        horizon=float(horizon),
        ok=ok,
    )

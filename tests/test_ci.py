import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import energies, first_quantized_determinant_matrix
from permsym import ci as cimod
from permsym import levelsym as ls
from permsym import oscillator as osc
from permsym import spin, symgroup


def quadrature_x_element(a, b, nodes=64):
    """Independent Gauss-Hermite oracle for <phi_a|x|phi_b>."""
    x, w = np.polynomial.hermite.hermgauss(nodes)

    def h(n, q):
        return np.polynomial.hermite.hermval(q, [0.0] * n + [1.0])

    norm = 1.0 / math.sqrt(
        2.0 ** (a + b) * math.factorial(a) * math.factorial(b) * math.pi
    )
    return norm * np.sum(w * h(a, x) * x * h(b, x))


class TestOneBodyIntegrals:
    """The oracles' scalar integrals, and the package's position matrix,
    against Gauss-Hermite quadrature."""

    def test_frozen_values(self):
        assert oracles.x_matrix_element(0, 1) == pytest.approx(
            0.70710678, abs=1e-8
        )
        assert oracles.x_matrix_element(3, 4) == pytest.approx(
            1.41421356, abs=1e-8
        )
        assert oracles.x_matrix_element(2, 2) == 0.0

    def test_against_quadrature_oracle(self):
        for a in range(12):
            for b in range(12):
                assert abs(
                    oracles.x_matrix_element(a, b) - quadrature_x_element(a, b)
                ) < 1e-12

    def test_position_matrix_against_quadrature(self):
        """x on the interleaved spin-orbitals: spin-free, so the quadrature
        element of orbitals (a, b) sits at (2a + sigma, 2b + sigma)."""
        quadrature = [[quadrature_x_element(a, b) for b in range(12)] for a in range(12)]
        expected = np.kron(quadrature, np.eye(2))
        assert np.abs(cimod._position(12) - expected).max() < 1e-12

    def test_core_energy(self):
        assert oracles.core_energy(0) == 0.5
        assert oracles.core_energy(3) == 3.5
        assert oracles.core_energy(10) == 10.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            oracles.x_matrix_element(-1, 0)
        with pytest.raises(ValueError):
            oracles.core_energy(-2)


def _checked_entry_points(model):
    """The functions that take a hand-built determinant basis."""
    return [
        lambda basis: cimod.hamiltonian_matrix(model, basis),
        cimod.s_squared_matrix,
        lambda basis: cimod.ci_solve(model, basis),
    ]


class TestSpinOrbitalsAndDeterminants:
    def test_index_roundtrip(self):
        for idx in range(12):
            so = oracles.SpinOrbital.from_index(idx)
            assert so.index == idx

    def test_canonical_order_by_orbital_then_spin(self):
        assert oracles.SpinOrbital(0, +1).index == 0
        assert oracles.SpinOrbital(0, -1).index == 1
        assert oracles.SpinOrbital(1, +1).index == 2

    def test_determinant_rejects_repeats_and_disorder(self, model3):
        """Repeated, descending and negative indices, in any row."""
        for entry in _checked_entry_points(model3):
            for row in [(1, 1, 2), (2, 1, 4), (-1, 0, 2)]:
                with pytest.raises(ValueError, match="non-negative and strictly"):
                    entry([(0, 1, 2), row])

    def test_basis_is_an_integer_matrix(self, model3):
        for entry in _checked_entry_points(model3):
            for basis in [[0, 1, 2], [(0, 1, 2.5)], [(0, 1, 2), (0, 1)]]:
                with pytest.raises(ValueError, match="integer array|inhomogeneous"):
                    entry(basis)

    def test_canonicalize_sign_flip(self):
        det1, sign1 = oracles.canonicalize([4, 0, 2])
        det2, sign2 = oracles.canonicalize([0, 4, 2])
        assert det1 == det2
        assert sign1 == -sign2

    def test_ms(self):
        det = [0, 1, 2]  # phi0 a, phi0 b, phi1 a
        assert oracles.det_ms(det) == pytest.approx(0.5)
        assert det in cimod.build_basis(3, 2, ms=0.5).tolist()
        assert det not in cimod.build_basis(3, 2, ms=-0.5).tolist()


class TestBuildBasis:
    def test_counts_all(self):
        basis = cimod.build_basis(3, 2)
        assert basis.shape == (4, 3)  # C(4, 3)
        assert basis.dtype == np.int64
        assert basis.tolist() == [list(c) for c in itertools.combinations(range(4), 3)]

    def test_ms_filter_empty(self):
        assert cimod.build_basis(3, 2, ms=1.5).shape == (0, 3)

    def test_n4_m3_ms0_count(self):
        # brute-force enumerate C(6,4) = 15 and count Ms = 0
        sel = [
            occ
            for occ in itertools.combinations(range(6), 4)
            if sum(+1 if i % 2 == 0 else -1 for i in occ) == 0
        ]
        assert len(sel) == 9
        assert cimod.build_basis(4, 3, ms=0.0).tolist() == [list(c) for c in sel]

    def test_too_small(self):
        with pytest.raises(ValueError, match="2 spin-orbitals cannot hold 3 particles"):
            cimod.build_basis(3, 1)


class TestHamiltonianElement:
    """The Slater-Condon oracle of tests/oracles.py."""

    def test_diagonal_uncoupled(self):
        m = osc.make_model(3, 0.0)
        det = (0, 1, 2)  # phi0 a, phi0 b, phi1 a
        assert oracles.hamiltonian_element(det, det, m) == pytest.approx(2.5)

    def test_three_differences_vanish(self, model3):
        d1, d2 = (0, 1, 2), (3, 4, 5)
        assert oracles.hamiltonian_element(d1, d2, model3) == 0.0

    def test_size_mismatch(self, model3):
        d1, d2 = (0, 1), (0, 1, 2)
        with pytest.raises(ValueError):
            oracles.hamiltonian_element(d1, d2, model3)
        with pytest.raises(ValueError):
            oracles.hamiltonian_element(d1, d1, model3)

    def test_hermitian_exactly(self, model3):
        basis = cimod.build_basis(3, 3)
        for d1 in basis[:10]:
            for d2 in basis[:10]:
                assert oracles.hamiltonian_element(d1, d2, model3) == (
                    oracles.hamiltonian_element(d2, d1, model3)
                )

    def test_matrix_matches_first_quantized_oracle(self, model3):
        """Slater-Condon vs explicit antisymmetrization on the product
        space, entrywise to 1e-10 (N=3, M=4)."""
        basis, oracle = first_quantized_determinant_matrix(model3, 4)
        sc = oracles.slater_condon_matrix(model3, basis)
        assert np.abs(sc - oracle).max() < 1e-10


class TestHamiltonianMatrix:
    @pytest.mark.parametrize("n,m_orb", [(3, 6), (4, 5)])
    @pytest.mark.parametrize("xi", [-0.3, 0.1, 0.7])
    @pytest.mark.parametrize("variant", ["sector", "shuffled", "subset"])
    def test_matches_slater_condon(self, n, m_orb, xi, variant):
        model = osc.make_model(n, xi)
        basis = cimod.build_basis(n, m_orb, ms=0.5 if n % 2 else 0.0)
        rng = np.random.default_rng(7)
        if variant == "shuffled":
            basis = basis[rng.permutation(len(basis))]
        elif variant == "subset":
            keep = np.sort(rng.choice(len(basis), len(basis) // 2, replace=False))
            basis = basis[keep]
        h = cimod.hamiltonian_matrix(model, basis)
        assert np.array_equal(h, h.T)
        assert np.abs(h - oracles.slater_condon_matrix(model, basis)).max() < 1e-12

    def test_particle_count_mismatch(self, model3):
        with pytest.raises(ValueError, match="particles"):
            cimod.hamiltonian_matrix(model3, cimod.build_basis(4, 3, ms=0.0))

    def test_mask_width_guard(self, model3):
        for entry in _checked_entry_points(model3):
            with pytest.raises(ValueError, match="31 orbitals"):
                entry([(0, 1, 63)])  # orbital 31

    def test_build_basis_refuses_wide_bases(self):
        # C(64, 3) determinants would be built before the mask check
        with pytest.raises(ValueError, match="31 orbitals"):
            cimod.build_basis(3, 32)


class TestGramEntries:
    @pytest.mark.parametrize("operator", ["x", "s_plus"])
    def test_matches_dense_image_matrix(self, operator):
        """A^T A summed over pairs of terms equals the dense product over
        the images, on a subset basis whose images lie partly (x) or wholly
        (S+, which raises M_s) outside it."""
        basis = cimod.build_basis(3, 5, ms=0.5)[::3]
        occ = cimod._occupations(basis)
        op = (
            cimod._position(5)
            if operator == "x"
            else np.kron(np.eye(5), [[0.0, 1.0], [0.0, 0.0]])
        )
        targets, src, values = cimod._one_body(occ, op)
        assert not np.isin(targets, cimod._masks(occ)).all()
        rows, cols, pairs = cimod._gram_entries(targets, src, values)
        gram = np.zeros((len(basis), len(basis)))
        np.add.at(gram, (rows, cols), pairs)
        assert np.abs(gram - oracles.one_body_gram(basis, op)).max() < 1e-12


class TestCISolve:
    def test_peak_memory_of_eigenvalue_solve(self):
        """Without eigenvectors, a dense image matrix or a dense determinant
        H, ci_solve holds less than one dense float matrix of its largest
        sector: only the CSF blocks, each smaller, are dense."""
        model = osc.make_model(4, 0.1)
        basis = cimod.build_basis(4, 10, ms=0.0)
        largest = max(len(rows) for _, _, rows, _ in cimod._sectors(basis))
        tracemalloc.start()
        try:
            cimod.ci_solve(model, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * largest**2

    def test_uncoupled_diagonal(self):
        m = osc.make_model(3, 0.0)
        basis = cimod.build_basis(3, 3)
        states = cimod.ci_solve(m, basis)
        expected = sorted(
            sum(oracles.core_energy(i // 2) for i in det) for det in basis
        )
        assert np.abs(energies(states) - np.array(expected)).max() < 1e-12

    def test_lowest_allowed_n3(self, ci3_m10, model3):
        exact = osc.level_energy(model3, 1, 0)
        assert ci3_m10[0]["energy"] == pytest.approx(exact, abs=1e-4)
        assert ci3_m10[0]["energy"] == pytest.approx(2.4450892, abs=1e-6)

    def test_no_eigenvalue_near_forbidden_n3(self, ci3_m10, model3):
        for j in range(4):
            forbidden = osc.level_energy(model3, 0, j)
            assert np.abs(energies(ci3_m10) - forbidden).min() > 0.05

    def test_eigenvectors_orthonormal(self, model3):
        basis = cimod.build_basis(3, 4, ms=0.5)
        states = cimod.ci_solve(model3, basis)
        vecs = oracles.eigenvectors(model3, basis, states)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(len(gram))).max() < 1e-10

    def test_s2_labels_are_half_integers(self, ci3_m10):
        for st in ci3_m10:
            assert st["S"] in (0.5, 1.5)
            assert st["Ms"] == pytest.approx(0.5)

    def test_s2_expectation_guard(self, model3):
        basis = cimod.build_basis(3, 4, ms=0.5)
        states = cimod.ci_solve(model3, basis)
        s2 = cimod.s_squared_matrix(basis)
        vecs = oracles.eigenvectors(model3, basis, states)
        for j in range(len(basis)):
            vec = vecs[:, j]
            s2v = vec @ s2 @ vec
            s = states[j]["S"]
            assert abs(s2v - s * (s + 1)) < 1e-6

    def test_energy_invariant_under_basis_order(self, model3):
        basis = cimod.build_basis(3, 3)
        shuffled = basis[::-1]
        e1 = energies(cimod.ci_solve(model3, basis))
        e2 = energies(cimod.ci_solve(model3, shuffled))
        assert np.abs(e1 - e2).max() < 1e-10

    def test_states_invariant_under_basis_order(self, model4):
        basis = cimod.build_basis(4, 5)
        s1 = cimod.ci_solve(model4, basis)
        s2 = cimod.ci_solve(model4, basis[::-1])
        assert s1 == s2
        assert np.array_equal(
            oracles.eigenvectors(model4, basis, s1),
            oracles.eigenvectors(model4, basis[::-1], s2)[::-1],
        )

    def test_state_order_rule(self, model4):
        """Ascending energy; inside a run of energies within 1e-9 the
        states go by (M_s, parity, index within the block)."""
        states = cimod.ci_solve(model4, cimod.build_basis(4, 5))
        values = energies(states)
        start, quintets = 0, 0
        for k in range(1, len(values) + 1):
            width = 1e-9 * max(1.0, abs(values[start]))
            if k < len(values) and values[k] - values[start] <= width:
                continue
            keys = [(st["Ms"], st["parity"]) for st in states[start:k]]
            assert keys == sorted(keys)
            quintets += k - start >= 5  # the M_s members of S=2 share a run
            start = k
        assert quintets

    def test_eigenvectors_have_one_parity(self, model4):
        basis = cimod.build_basis(4, 5)
        states = cimod.ci_solve(model4, basis)
        det_parity = (-1) ** (basis // 2).sum(axis=1)
        vecs = oracles.eigenvectors(model4, basis, states)
        for j, st in enumerate(states):
            support = np.abs(vecs[:, j]) > 0
            assert set(det_parity[support]) == {st["parity"]}

    def test_variational_bound_and_monotonicity(self, model3):
        lowest_allowed = osc.level_energy(model3, 1, 0)
        previous = None
        for m_orb in (4, 6, 8, 10):
            basis = cimod.build_basis(3, m_orb, ms=0.5)
            e0 = cimod.ci_solve(model3, basis)[0]["energy"]
            assert e0 >= lowest_allowed - 1e-12
            if previous is not None:
                assert e0 <= previous + 1e-12
            previous = e0

    def test_multiplet_completeness_across_ms(self, model3):
        """Every spin-S eigenvalue appears in each Ms block from -S to S."""
        states = cimod.ci_solve(model3, cimod.build_basis(3, 3))
        by_ms: dict[float, list] = {}
        for st in states:
            by_ms.setdefault(st["Ms"], []).append(st)
        for st in states:
            for ms2 in np.arange(-st["S"], st["S"] + 0.5, 1.0):
                partners = [
                    o
                    for o in by_ms[float(ms2)]
                    if abs(o["energy"] - st["energy"]) < 1e-8 and o["S"] == st["S"]
                ]
                assert partners, f"no Ms={ms2} partner for S={st['S']} E={st['energy']}"

    def test_parity_labels(self, ci3_m10):
        # lowest state comes from the odd level n_sym=1
        assert ci3_m10[0]["parity"] == -1

    def test_empty_basis(self, model3):
        with pytest.raises(ValueError, match="empty"):
            cimod.ci_solve(model3, [])
        with pytest.raises(ValueError, match="empty"):
            cimod.ci_solve(model3, cimod.build_basis(3, 2, ms=1.5))


def _lowering(k):
    """S- on the 2^k spin products, one site operator per tensor factor."""
    out = np.zeros((2**k, 2**k))
    for site in range(k):
        mat = np.array([[1.0]])
        for j in range(k):
            mat = np.kron(mat, [[0.0, 0.0], [1.0, 0.0]] if j == site else np.eye(2))
        out += mat
    return out


SPIN_CASES = [
    (k, n_beta, s)
    for k in range(7)
    for n_beta in range(k + 1)
    for s in np.arange(abs(k / 2 - n_beta), k / 2 + 0.25).tolist()
]


class TestSizeBound:
    def test_checked_before_hamiltonian_entries(self, model3, monkeypatch):
        """Every block is counted before the first H entry: with the bound
        below the largest N=3 M=6 block, ci_solve refuses and builds none."""
        def no_entries(*args):
            raise AssertionError("H entries built before the size check")

        monkeypatch.setattr(cimod, "MAX_CSF_BLOCK", 20)
        monkeypatch.setattr(cimod, "_hamiltonian_entries", no_entries)
        refused = r"CSF block has dim \d+ \(0\.00 GiB dense\)"
        with pytest.raises(ValueError, match=refused):
            cimod.ci_solve(model3, cimod.build_basis(3, 6, ms=0.5))

    def test_bound_admits_its_own_size(self, model3, monkeypatch):
        largest = 35  # both S=1/2 blocks of N=3 M=6 at M_s=1/2
        states = cimod.ci_solve(model3, cimod.build_basis(3, 6, ms=0.5))
        monkeypatch.setattr(cimod, "MAX_CSF_BLOCK", largest)
        assert cimod.ci_solve(model3, cimod.build_basis(3, 6, ms=0.5)) == states
        monkeypatch.setattr(cimod, "MAX_CSF_BLOCK", largest - 1)
        with pytest.raises(ValueError, match=f"dim {largest} "):
            cimod.ci_solve(model3, cimod.build_basis(3, 6, ms=0.5))


class TestSpinFunctions:
    def _embedded(self, k, n_beta, s):
        out = np.zeros((2**k, math.comb(k, n_beta)))
        out[cimod._spin_strings(k, n_beta), :] = np.eye(out.shape[1])
        return out @ cimod.spin_functions(k, n_beta, s)

    @pytest.mark.parametrize("k,n_beta,s", SPIN_CASES)
    def test_orthonormal_s2_eigenvectors(self, k, n_beta, s):
        funcs = self._embedded(k, n_beta, s)
        assert np.abs(funcs.T @ funcs - np.eye(funcs.shape[1])).max() < 1e-12
        s2 = oracles.spin_s_squared_matrix(k)
        assert np.abs(s2 @ funcs - s * (s + 1) * funcs).max() < 1e-12

    @pytest.mark.parametrize(
        "k,n_beta,s", [(k, nb, s) for k, nb, s in SPIN_CASES if k / 2 - nb - 1 >= -s]
    )
    def test_lowering_consistent(self, k, n_beta, s):
        """S- maps the set at M_s, normalized, onto an orthonormal basis of
        the set at M_s - 1 (each M_s is solved alone, so their columns need
        not pair up as members of one multiplet)."""
        m = k / 2 - n_beta
        lowered = _lowering(k) @ self._embedded(k, n_beta, s)
        lowered /= math.sqrt(s * (s + 1) - m * (m - 1))
        below = self._embedded(k, n_beta + 1, s)
        assert np.abs(lowered @ lowered.T - below @ below.T).max() < 1e-12

    @pytest.mark.parametrize("k", range(9))
    def test_count_matches_spin_character(self, k):
        """Each M_s holds one spin function per multiplet of total spin S:
        the exact S_k character of S at the identity."""
        for n_beta in range(k + 1):
            for s in np.arange(abs(k / 2 - n_beta), k / 2 + 0.25).tolist():
                funcs = cimod.spin_functions(k, n_beta, s)
                assert funcs.shape[1] == spin.spin_character(k, s, (1,) * k)

    @pytest.mark.parametrize("k", range(7))
    def test_complete(self, k):
        """The spin functions of all S span every string of each M_s."""
        for n_beta in range(k + 1):
            count = sum(
                cimod.spin_functions(kk, nb, s).shape[1]
                for kk, nb, s in SPIN_CASES
                if (kk, nb) == (k, n_beta)
            )
            assert count == math.comb(k, n_beta)

    def test_rejects_impossible_spin(self):
        with pytest.raises(ValueError):
            cimod.spin_functions(3, 1, 0.0)
        with pytest.raises(ValueError):
            cimod.spin_functions(2, 0, 0.0)


def _ms_filters(n):
    """Every sector, the solved one, a lowered one, the top one."""
    return ["all", 0.5, -0.5, 1.5] if n % 2 else ["all", 0.0, -1.0, 2.0]


class TestSpinAdaptedSolve:
    @pytest.mark.parametrize(
        "n,m_orb,ms",
        [
            (n, m, ms)
            for n, m in [(3, 5), (3, 8), (4, 4), (4, 6)]
            for ms in _ms_filters(n)
        ],
    )
    @pytest.mark.parametrize("xi", [-0.3, 0.1, 0.7])
    def test_matches_dense_oracle(self, n, m_orb, ms, xi):
        """Same eigenvalues as the dense (M_s, parity) solver that measures
        <S^2>, and the same (S, M_s, parity) label on each."""
        model = osc.make_model(n, xi)
        basis = cimod.build_basis(n, m_orb, ms=ms)
        ci_states = cimod.ci_solve(model, basis)
        evals, states = oracles.ci_solve_dense(model, basis)
        assert np.abs(energies(ci_states) - evals).max() < 1e-10

        def labelled(sts):
            return sorted((st["S"], st["Ms"], st["parity"], st["energy"]) for st in sts)

        ours, theirs = labelled(ci_states), labelled(states)
        assert [t[:3] for t in ours] == [t[:3] for t in theirs]
        assert max(abs(a[3] - b[3]) for a, b in zip(ours, theirs)) < 1e-10

    @pytest.mark.parametrize(
        "n,m_orb,ms", [(3, 5, "all"), (4, 5, "all"), (3, 6, -0.5), (4, 5, -1.0)]
    )
    @pytest.mark.parametrize("xi", [0.0, 0.3])  # 0.0: blocks hold exact ties
    def test_block_states_in_eigenvalue_order(self, n, m_orb, ms, xi):
        """The rank order `compare` pairs by: the states of each (M_s,
        parity, S) block ascend in `states`, and they are the eigenvalues
        the dense oracle finds for that block."""
        model = osc.make_model(n, xi)
        basis = cimod.build_basis(n, m_orb, ms=ms)
        if ms == "all":
            basis = basis[np.random.default_rng(5).permutation(len(basis))]
        _, states = oracles.ci_solve_dense(model, basis)

        def blocks(sts):
            out = {}
            for st in sts:
                out.setdefault((st["Ms"], st["parity"], st["S"]), []).append(st["energy"])
            return out

        ours, theirs = blocks(cimod.ci_solve(model, basis)), blocks(states)
        assert ours.keys() == theirs.keys()
        for key, energies in ours.items():
            assert energies == sorted(energies)
            assert np.abs(np.subtract(energies, sorted(theirs[key]))).max() < 1e-10

    @pytest.mark.parametrize("n,m_orb,xi", [(3, 6, 0.45), (4, 5, 0.6)])
    def test_multiplet_energies_bitwise_equal(self, n, m_orb, xi):
        states = cimod.ci_solve(osc.make_model(n, xi), cimod.build_basis(n, m_orb))
        by_block: dict = {}
        for st in states:
            sectors = by_block.setdefault((st["S"], st["parity"]), {})
            sectors.setdefault(st["Ms"], []).append(st["energy"])
        for (s, _), sectors in by_block.items():
            assert sorted(sectors) == np.arange(-s, s + 0.5).tolist()
            first = sorted(sectors[s])
            assert all(sorted(e) == first for e in sectors.values())

    def test_h_built_only_in_the_solved_sectors(self, monkeypatch):
        """`ci --ms all` builds H for M_s = +1/2 only; every other sector
        reuses its eigenpairs."""
        built = []
        real = cimod._hamiltonian_entries

        def spy(model, basis):
            built.append({oracles.det_ms(det) for det in basis})
            return real(model, basis)

        monkeypatch.setattr(cimod, "_hamiltonian_entries", spy)
        model = osc.make_model(3, 0.1)
        cimod.ci_solve(model, cimod.build_basis(3, 5))
        assert built == [{0.5}, {0.5}]

    @pytest.mark.parametrize("entry", ["ci_solve", "s_squared_matrix"])
    @pytest.mark.parametrize("n,m_orb,ms", [(3, 3, 0.5), (3, 4, "all"), (4, 4, 0.0)])
    def test_missing_spin_partner_raises(self, n, m_orb, ms, entry):
        basis = cimod.build_basis(n, m_orb, ms=ms)
        # the first determinant with two open shells of opposite spin
        victim = next(
            i for i, det in enumerate(basis)
            if len({k // 2 for k in det}) == n and len({k % 2 for k in det}) == 2
        )
        model = (osc.make_model(n, 0.1),) if entry == "ci_solve" else ()
        with pytest.raises(ValueError, match="M_s sector"):
            getattr(cimod, entry)(*model, np.delete(basis, victim, axis=0))

    def test_eigenpairs(self, ci3_m10, basis3_m10, model3):
        """Each energy belongs to its own vector: at N=3 M=10 three states
        within 1e-9 of 7.1885 carry S = 1/2, 1/2 and 3/2, and a rotation of
        the cluster onto S^2 that kept the eigenvalues in place paired the
        S = 3/2 vector with another state's energy."""
        vecs = oracles.eigenvectors(model3, basis3_m10, ci3_m10)
        h = cimod.hamiltonian_matrix(model3, basis3_m10)
        assert np.abs(h @ vecs - vecs * energies(ci3_m10)).max() < 1e-10
        quartet = [
            st["energy"] for st in ci3_m10
            if abs(st["energy"] - 7.1885056) < 1e-6 and st["S"] == 1.5
        ]
        assert quartet == [pytest.approx(7.188505643877, abs=1e-11)]

    @pytest.mark.parametrize("n,m_orb", [(3, 5), (4, 5)])
    def test_eigenpairs_of_every_sector(self, n, m_orb):
        """The eigenvalues that sectors borrow from the sector that solved
        their (S, parity) block are those of their own H: every block's own
        eigenvectors, orthonormal over the whole basis, carry them."""
        model = osc.make_model(n, 0.3)
        basis = cimod.build_basis(n, m_orb)
        states = cimod.ci_solve(model, basis)
        vecs = oracles.eigenvectors(model, basis, states)
        h = cimod.hamiltonian_matrix(model, basis)
        assert np.abs(h @ vecs - vecs * energies(states)).max() < 1e-10
        assert np.abs(vecs.T @ vecs - np.eye(len(basis))).max() < 1e-12
        ms = np.array([oracles.det_ms(det) for det in basis])
        for j, st in enumerate(states):
            assert set(ms[np.abs(vecs[:, j]) > 0]) == {st["Ms"]}


@pytest.mark.parametrize("n,m_orb", [(3, 6), (3, 8), (4, 5), (4, 6)])
@pytest.mark.parametrize("where", ["low edge", "high edge", 0.1, 0.6])
def test_csf_blocks_match_dense_transform(n, m_orb, where):
    """Every (M_s, parity, S) block, scattered from the sparse entries of
    H, is the dense transform K^T H K of the determinant H, 1e-3 inside
    each edge of the bound window and at two couplings inside it."""
    lo, hi = osc.BOUND_WINDOWS[n]
    xi = {"low edge": lo + 1e-3, "high edge": hi - 1e-3}.get(where, where)
    model = osc.make_model(n, xi)
    occ = cimod.build_basis(n, m_orb)
    for ms, _, rows, blocks in cimod._sectors(occ):
        entries = cimod._hamiltonian_entries(model, occ[rows])
        h = cimod.hamiltonian_matrix(model, occ[rows])
        for s, start, block, _ in blocks:
            half = oracles._to_csf(block, h[start:, start:])
            dense = oracles._to_csf(block, half.T)
            sparse = cimod._csf_block(entries, start, block)
            assert np.abs(sparse - dense).max() < 1e-12, (ms, s)


class TestLowestN4:
    def test_lowest_is_singlet(self, ci4_m8, model4):
        exact = osc.level_energy(model4, 2, 0)
        assert ci4_m8[0]["energy"] == pytest.approx(exact, abs=5e-3)
        assert ci4_m8[0]["energy"] == pytest.approx(3.8904793, abs=1e-6)
        assert ci4_m8[0]["S"] == 0.0


class TestS2Matrix:
    @pytest.mark.parametrize(
        "n,m_orb,ms", [(3, 5, 0.5), (3, 4, "all"), (4, 4, 0.0), (3, 4, 1.5)]
    )
    def test_matches_loop_oracle(self, n, m_orb, ms):
        """Also on an all-alpha sector, where S+ has no term at all."""
        basis = cimod.build_basis(n, m_orb, ms=ms)
        basis = basis[np.random.default_rng(3).permutation(len(basis))]
        s2 = cimod.s_squared_matrix(basis)
        assert s2.dtype == np.float64
        assert np.array_equal(s2, oracles.s_squared_loop(basis))

    def test_commutes_with_hamiltonian(self, model3):
        basis = cimod.build_basis(3, 4, ms=0.5)
        h = cimod.hamiltonian_matrix(model3, basis)
        s2 = cimod.s_squared_matrix(basis)
        assert np.abs(h @ s2 - s2 @ h).max() < 1e-10


class TestCompare:
    def test_n3_missing_levels(self, ci3_m10, model3):
        allowed = spin.allowed_spatial_irreps(3)
        report = cimod.compare(model3, ci3_m10, 4, allowed, tol=1e-4)
        assert report.ok
        assert not report.spurious
        missing_keys = {row["quanta_key"] for row in report.missing}
        assert all(key[0] == 0 for key in missing_keys)
        assert (0, 0) in missing_keys and (0, 1) in missing_keys
        # every missing level carries only A1 content
        for row in report.missing:
            assert {l for l, m in row["irrep_mults"].items() if m} == {"A1"}

    def test_n4_missing_levels(self, ci4_m8, model4):
        allowed = spin.allowed_spatial_irreps(4)
        report = cimod.compare(model4, ci4_m8, 3, allowed, tol=5e-3)
        assert report.ok
        missing_keys = {row["quanta_key"] for row in report.missing}
        assert (0, 0) in missing_keys and (1, 0) in missing_keys
        for row in report.missing:  # only the forbidden A1 and T2
            assert {l for l, m in row["irrep_mults"].items() if m} <= {"A1", "T2"}
        matched_keys = {m["quanta_key"] for m in report.matched}
        assert (2, 0) in matched_keys
        first = min(report.matched, key=lambda m: m["ci_energy"])
        assert first["quanta_key"] == (2, 0)
        assert first["S"] == 0.0
        assert first["ci_energy"] == pytest.approx(3.8904793, abs=5e-3)

    def test_oracle_contains_ci_and_difference_is_forbidden(self, ci3_m10, model3):
        """Product-basis oracle realizes the full spectrum; the part absent
        from CI is precisely the pure-A1 (forbidden) levels."""
        oracle = oracles.product_basis_oracle(model3, 8)
        for lv in osc.enumerate_levels(model3, 3):
            gap = min(abs(e - lv.energy) for e, _ in oracle)
            assert gap < 1e-4, f"oracle misses level {lv.quanta_key}"
            ci_gap = np.abs(energies(ci3_m10) - lv.energy).min()
            content = {l for l, m in ls.irrep_multiplicities(3, lv.n_sym).items() if m}
            if content == {"A1"}:
                assert ci_gap > 0.05
            else:
                assert ci_gap < 1e-6

    @pytest.mark.filterwarnings("ignore:accidental energy coincidence")
    def test_vacuous_tolerance_flagged(self, ci3_m10, model3):
        """A tolerance that pushes the horizon below every allowed level
        verifies nothing; tol=5 matches no state at N=3 M=10 (an infinite
        tol is refused, see test_rejects_nonpositive_tol).  As CI_k >=
        exact_k, nothing is matched exactly when the horizon lies at or
        below the lowest listed level with allowed content, across the
        bound window, cutoffs and tolerances."""
        allowed = spin.allowed_spatial_irreps(3)
        assert not cimod.compare(model3, ci3_m10, 2, allowed, tol=5.0).matched
        assert cimod.compare(model3, ci3_m10, 2, allowed, tol=1e-4).matched
        for n, orbitals in ((3, 5), (3, 8), (4, 4), (4, 6)):
            allowed = spin.allowed_spatial_irreps(n)
            basis = cimod.build_basis(n, orbitals, ms=DEFAULT_MS[n])
            lo, hi = osc.BOUND_WINDOWS[n]
            for xi in np.linspace(lo + 1e-3, hi - 1e-3, 9):
                model = osc.make_model(n, float(xi))
                states = cimod.ci_solve(model, basis)
                for q, tol in itertools.product(
                    range(6), (1e-8, 1e-4, 1e-2, 0.3, 3.0, 30.0)
                ):
                    report = cimod.compare(model, states, q, allowed, tol)
                    e_min = min(
                        (lv.energy for lv in osc.enumerate_levels(model, q)
                         if any(m and allowed[lbl] for lbl, m in
                                ls.irrep_multiplicities(n, lv.n_sym).items())),
                        default=math.inf,
                    )
                    assert (not report.matched) == (report.horizon <= e_min), (
                        n, orbitals, xi, q, tol
                    )

    def test_rejects_nonpositive_tol(self, ci3_m10, model3):
        allowed = spin.allowed_spatial_irreps(3)
        for tol in (0.0, float("nan"), math.inf):
            with pytest.raises(ValueError):
                cimod.compare(model3, ci3_m10, 2, allowed, tol=tol)

    def test_rejects_empty_state_list(self, model3):
        """No CI states: the error names the empty list, not min()."""
        allowed = spin.allowed_spatial_irreps(3)
        with pytest.raises(ValueError, match="list of CI states is empty"):
            cimod.compare(model3, [], 2, allowed, tol=1e-4)

    @pytest.mark.parametrize(
        "n,orbitals,ms,lowest",
        [(3, 8, 1.5, "S=0.5"), (4, 6, 1.0, "S=0"), (4, 4, 2.0, "S=0")],
        ids=["n3-ms3/2", "n4-ms1", "n4-ms2"],
    )
    def test_compare_sector_without_allowed_spin(self, n, orbitals, ms, lowest):
        """CI states whose |M_s| all lie above the smallest allowed spin hold
        none of that spin's states, so nothing of it would be verified; the
        error names both."""
        model = osc.make_model(n, 0.1)
        states = cimod.ci_solve(model, cimod.build_basis(n, orbitals, ms=ms))
        allowed = spin.allowed_spatial_irreps(n)
        message = f"allowed spin {lowest} has no state with |M_s| >= {ms:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cimod.compare(model, states, 3, allowed, 1e-4)


class TestCompareLabels:
    """The allowed map passed to compare must hold exactly the irrep labels
    of the states' S_N; the error names both label sets.  The oracle matcher
    applies the same check."""

    @staticmethod
    def _inputs(n):
        model = osc.make_model(n, 0.1)
        states = cimod.ci_solve(model, cimod.build_basis(n, 4, ms=DEFAULT_MS[n]))
        return model, states, 2

    @pytest.mark.parametrize("matcher", [cimod.compare, oracles.compare_greedy])
    @pytest.mark.parametrize("n, map_n", [(3, 4), (4, 3)])
    def test_map_of_the_other_n(self, matcher, n, map_n):
        model, states, max_quanta = self._inputs(n)
        allowed = spin.allowed_spatial_irreps(map_n)
        own = symgroup.character_table(n).irreps
        message = f"allowed map has irreps {sorted(allowed)}, S{n} has {sorted(own)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            matcher(model, states, max_quanta, allowed, 1e-4)

    @pytest.mark.parametrize("matcher", [cimod.compare, oracles.compare_greedy])
    def test_map_lacking_a_label(self, matcher):
        model, states, max_quanta = self._inputs(3)
        allowed = spin.allowed_spatial_irreps(3)
        del allowed["A1"]
        with pytest.raises(ValueError, match=re.escape("irreps ['A2', 'E'], S3 has")):
            matcher(model, states, max_quanta, allowed, 1e-4)


#: the regression sweep's couplings: 0, 0.1, 0.5 and 15 spread over the
#: bound window, from 0.02 above its low edge to 0.95
WINDOW_COUPLINGS = {
    n: [0.0, 0.1, 0.5, *np.linspace(osc.BOUND_WINDOWS[n][0] + 0.02, 0.95, 15)]
    for n in (3, 4)
}
DEFAULT_MS = {3: 0.5, 4: 0.0}
#: couplings at which a level (n_sym, n_last) meets (n_sym', n_last'):
#: omega_cm / omega_sym = (n_sym' - n_sym) / (n_last - n_last') = (a - c) / d
#: squared is r = (1 + (N - 1) xi) / (1 - xi), so xi = (r - 1) / (N - 1 + r)
CROSSINGS = {
    n: sorted({
        (r - 1) / (n - 1 + r)
        for a in range(1, 6)
        for c in range(a)
        for d in range(1, 6)
        for r in [((a - c) / d) ** 2]
    })
    for n in (3, 4)
}


class TestCompareBlocks:
    """``compare`` pairs CI and exact states rank by rank per block."""

    @pytest.mark.filterwarnings("ignore:accidental energy coincidence")
    @pytest.mark.parametrize(
        "n,orbitals,xi",
        [(n, m, float(xi)) for n, m in ((3, 8), (4, 6)) for xi in WINDOW_COUPLINGS[n]],
        ids=lambda v: f"{v:g}",
    )
    def test_window_sweep(self, n, orbitals, xi):
        """Every coupling passes: exact coincidences (xi = 0, and 0.5 at
        N=3) and partly converged multiplets at strong coupling were false
        failures of the nearest-level matcher.  Where that matcher passes,
        both reports agree."""
        model = osc.make_model(n, xi)
        basis = cimod.build_basis(n, orbitals, ms=DEFAULT_MS[n])
        states = cimod.ci_solve(model, basis)
        allowed = spin.allowed_spatial_irreps(n)
        for tol in (1e-4, 1e-3):
            report = cimod.compare(model, states, 4, allowed, tol)
            assert report.ok, (tol, report._asdict())
            greedy = oracles.compare_greedy(model, states, 4, allowed, tol)
            if greedy.ok:
                assert greedy == report

    @pytest.mark.filterwarnings("ignore:accidental energy coincidence")
    @pytest.mark.parametrize(
        "n,orbitals,xi",
        [(n, m, xi) for n, ms in ((3, (8, 10)), (4, (7, 8))) for m in ms
         for xi in CROSSINGS[n]],
        ids=lambda v: f"{v:g}",
    )
    def test_level_crossings(self, n, orbitals, xi):
        """Where two levels cross, their float energies may differ by an
        ulp, one on each side of the horizon that the other defines (N=4,
        xi = 3/7: (2, 1) just under (4, 0)).  The level below keeps the CI
        state just above it, so it is not reported missing."""
        model = osc.make_model(n, xi)
        basis = cimod.build_basis(n, orbitals, ms=DEFAULT_MS[n])
        states = cimod.ci_solve(model, basis)
        allowed = spin.allowed_spatial_irreps(n)
        for tol in (1e-4, 1e-3):
            report = cimod.compare(model, states, 4, allowed, tol)
            assert report.ok, (tol, report._asdict())

    @pytest.mark.parametrize("tol", [1e-4, 1e-3])
    @pytest.mark.parametrize("n,orbitals,a1_spin", [(3, 8, 0.5), (4, 6, 0.0)])
    def test_a1_wrongly_allowed_fails(self, n, orbitals, a1_spin, tol):
        """With A1 marked allowed, the exact list of the ground level's
        block starts with a state the CI lacks, so its lowest CI state lands
        on the next predicted level: the list has shifted."""
        model = osc.make_model(n, 0.1)
        states = cimod.ci_solve(model, cimod.build_basis(n, orbitals, ms=DEFAULT_MS[n]))
        allowed = spin.allowed_spatial_irreps(n)
        wrong = {**allowed, "A1": (a1_spin,)}
        report = cimod.compare(model, states, 4, wrong, tol)
        assert report.spurious
        assert not report.ok
        assert cimod.compare(model, states, 4, allowed, tol).ok

    @pytest.mark.filterwarnings("ignore:accidental energy coincidence")
    @pytest.mark.parametrize("xi", [-0.3, 0.0, 0.4, 0.8])
    @pytest.mark.parametrize(
        "n,orbitals,max_quanta", [(3, 8, 12), (3, 12, 12), (4, 6, 9)]
    )
    def test_ci_bounds_exact_in_every_block(self, n, orbitals, max_quanta, xi):
        """Hylleraas-Undheim-MacDonald: the k-th CI energy of each
        (M_s, S, parity) block lies on or above the k-th exact energy of
        that symmetry, counted over the levels below the first shell left
        out (a complete list there)."""
        model = osc.make_model(n, xi)
        states = cimod.ci_solve(model, cimod.build_basis(n, orbitals, ms=DEFAULT_MS[n]))
        allowed = spin.allowed_spatial_irreps(n)
        shell = max_quanta + 1
        unlisted = min(osc.level_energy(model, q, shell - q) for q in range(shell + 1))
        exact = {}
        for lv in osc.enumerate_levels(model, max_quanta):
            for label, m in ls.irrep_multiplicities(n, lv.n_sym).items():
                for s in allowed[label]:
                    if lv.energy < unlisted:
                        exact.setdefault((s, lv.parity), []).extend([lv.energy] * m)
        blocks = {}  # (M_s, S, parity) -> its states' energies, ascending
        for st in states:
            blocks.setdefault((st["Ms"], st["S"], st["parity"]), []).append(st["energy"])
        compared = 0
        for (_, s, parity), evals in blocks.items():
            ex = sorted(exact.get((s, parity), []))
            k = min(len(ex), len(evals))
            assert (np.array(evals[:k]) - np.array(ex[:k]) >= -1e-10).all()
            compared += k
        assert compared > 0


class TestProductBasisOracle:
    def test_ground_state_value(self, model3):
        spectrum = oracles.product_basis_oracle(model3, 8)
        assert spectrum[0][0] == pytest.approx(1.4964059, abs=1e-5)

    def test_uncoupled_ladder(self):
        m = osc.make_model(3, 0.0)
        spectrum = oracles.product_basis_oracle(m, 4)
        assert [(round(e, 9), d) for e, d in spectrum[:3]] == [
            (1.5, 1),
            (2.5, 3),
            (3.5, 6),
        ]

    def test_dimension_cap(self, model3, model4):
        with pytest.raises(oracles.DimensionCapError):
            oracles.product_basis_oracle(model3, 9)
        with pytest.raises(oracles.DimensionCapError):
            oracles.product_basis_oracle(model4, 7)


class TestDeterminism:
    def test_ci_solve_bit_stable(self, model3):
        basis = cimod.build_basis(3, 5, ms=0.5)
        s1 = cimod.ci_solve(model3, basis)
        s2 = cimod.ci_solve(model3, basis)
        assert np.array_equal(energies(s1), energies(s2))
        assert np.array_equal(
            oracles.eigenvectors(model3, basis, s1),
            oracles.eigenvectors(model3, basis, s2),
        )
        assert s1 == s2

    def test_spurious_detected_with_doctored_allowed_map(self, ci3_m10, model3):
        """If the E species were forbidden, the converged CI states at the
        E-bearing levels would have nothing to match: flagged spurious."""
        doctored = {"A1": (), "A2": (1.5,), "E": ()}
        report = cimod.compare(model3, ci3_m10, 4, doctored, tol=1e-4)
        assert report.spurious
        assert not report.ok


class TestCanonicalizeProperty:
    def test_sign_equals_permutation_parity(self):
        import itertools as it

        from permsym import symgroup as sg

        base = [0, 3, 5, 8]
        for p in it.permutations(range(1, 5)):
            shuffled = [base[i - 1] for i in p]
            det, sign = oracles.canonicalize(shuffled)
            assert det == tuple(base)
            assert sign == sg.parity(p)


class TestDegenerateSpinResolution:
    def test_coincident_spins_resolved(self, ci3_m10, basis3_m10, model3):
        """The (3,0) level hosts an S=3/2 state (from A2) and an S=1/2
        state (from E) at one energy; the solver must hand back vectors of
        definite spin, not arbitrary mixtures."""
        target = osc.level_energy(model3, 3, 0)
        idx = np.nonzero(np.abs(energies(ci3_m10) - target) < 1e-8)[0]
        assert len(idx) == 2
        spins = {ci3_m10[j]["S"] for j in idx}
        assert spins == {0.5, 1.5}
        s2 = cimod.s_squared_matrix(basis3_m10)
        vecs = oracles.eigenvectors(model3, basis3_m10, ci3_m10)
        for j in idx:
            vec = vecs[:, j]
            s = ci3_m10[j]["S"]
            assert abs(vec @ s2 @ vec - s * (s + 1)) < 1e-9

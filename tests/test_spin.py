import itertools

import numpy as np
import pytest

import oracles
from permsym import ci as cimod
from permsym import levelsym as ls
from permsym import oscillator as osc
from permsym import spin
from permsym import symgroup as sg


class TestSpinPermutationMatrix:
    def test_identity(self):
        assert np.array_equal(
            oracles.spin_permutation_matrix(3, sg.Permutation.identity(3)), np.eye(8)
        )

    def test_n2_swap(self):
        # basis order (aa, ab, ba, bb): P12 swaps ab <-> ba
        mat = oracles.spin_permutation_matrix(2, sg.Permutation((2, 1)))
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(mat, expected)

    def test_three_cycle_trace_counts_fixed_patterns(self):
        # brute-force count: patterns fixed by a 3-cycle are aaa and bbb
        cyc = sg.Permutation((2, 3, 1))
        fixed = sum(
            1
            for labels in itertools.product("ab", repeat=3)
            if oracles.permute_labels(cyc, labels) == labels
        )
        assert fixed == 2
        mat = oracles.spin_permutation_matrix(3, cyc)
        assert np.trace(mat) == pytest.approx(2.0)

    def test_homomorphism(self):
        perms = sg.all_permutations(3)
        mats = {p.images: oracles.spin_permutation_matrix(3, p) for p in perms}
        for p in perms:
            for q in perms:
                pq = sg.compose(p, q)
                assert np.array_equal(
                    mats[p.images] @ mats[q.images], mats[pq.images]
                )


class TestSTotal:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_s2_commutes_with_permutations(self, n):
        s2 = oracles.spin_s_squared_matrix(n)
        for p in sg.all_permutations(n):
            mat = oracles.spin_permutation_matrix(n, p)
            assert np.abs(s2 @ mat - mat @ s2).max() < 1e-12

    def test_multiplet_table_n2(self):
        assert spin.multiplet_table(2).counts == {1.0: 1, 0.0: 1}

    def test_multiplet_table_n3(self):
        assert spin.multiplet_table(3).counts == {1.5: 1, 0.5: 2}

    def test_multiplet_table_n4(self):
        assert spin.multiplet_table(4).counts == {2.0: 1, 1.0: 3, 0.0: 2}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dimension_sum(self, n):
        assert spin.multiplet_table(n).dimension() == 2**n


class TestCharacterRoute:
    """The integer generating function against the float S^2 route."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_spin_character_is_a_trace_difference(self, n):
        ms = np.array([spin.SpinProduct(labels).ms for labels in spin.spin_basis(n)])
        for ct in sg.partitions(n):
            rep = sg.class_representative(ct)
            diag = np.diag(oracles.spin_permutation_matrix(n, rep))
            for s in np.arange(n / 2, -0.25, -1.0):
                want = diag[ms == s].sum() - diag[ms == s + 1].sum()
                assert spin.spin_character(n, float(s), ct) == want, (n, s, ct)

    @pytest.mark.parametrize(
        "n, s, ct",
        [
            (3, 1.0, (1, 1, 1)),
            (3, 2.5, (1, 1, 1)),
            (4, 0.0, (2, 1)),
            (3, 0.7, (1, 1, 1)),
        ],
    )
    def test_spin_character_rejects_bad_input(self, n, s, ct):
        with pytest.raises(ValueError):
            spin.spin_character(n, s, ct)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_multiplet_table_matches_eigh(self, n):
        want = {
            s: basis.shape[1] // round(2 * s + 1)
            for s, basis in oracles.spin_eigenspaces(n)
        }
        assert spin.multiplet_table(n).counts == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_content_by_s_matches_eigh(self, n):
        table = sg.character_table(n)
        by_characters = oracles.spin_content_by_s(n, table)
        assert by_characters == oracles.spin_content_by_eigh(n, table)


class TestSpinIrrepContent:
    def test_n3(self, t3):
        content = oracles.spin_irrep_multiplicities(3, t3)
        mults = {ir.label: m for ir, m in content.items()}
        assert mults["A2"] == 0
        assert sum(t3.irrep(l).dimension * m for l, m in mults.items()) == 8
        assert mults == {"A1": 4, "A2": 0, "E": 2}

    def test_n4(self, t4):
        content = oracles.spin_irrep_multiplicities(4, t4)
        mults = {ir.label: m for ir, m in content.items()}
        assert mults["A2"] == 0
        assert sum(t4.irrep(l).dimension * m for l, m in mults.items()) == 16

    def test_n4_no_antisymmetric_spin_function_brute_force(self, t4):
        """Independent check: apply the 24-term antisymmetrizer to every one
        of the 16 spin products and observe annihilation."""
        perms = sg.all_permutations(4)
        basis = spin.spin_basis(4)
        index = {labels: i for i, labels in enumerate(basis)}
        for labels in basis:
            acc = np.zeros(16)
            for p in perms:
                acc[index[oracles.permute_labels(p, labels)]] += sg.parity(p)
            assert np.abs(acc).max() == 0

    def test_content_by_s_n3(self, t3):
        content = {
            s: {ir.label: m for ir, m in d.items() if m}
            for s, d in oracles.spin_content_by_s(3, t3).items()
        }
        assert content == {1.5: {"A1": 4}, 0.5: {"E": 2}}

    def test_content_by_s_n4(self, t4):
        content = {
            s: {ir.label: m for ir, m in d.items() if m}
            for s, d in oracles.spin_content_by_s(4, t4).items()
        }
        assert content == {2.0: {"A1": 5}, 1.0: {"T2": 3}, 0.0: {"E": 1}}


class TestAllowedIrreps:
    def test_n3(self):
        allowed = spin.allowed_spatial_irreps(3)
        assert allowed.spins == {"A1": (), "A2": (1.5,), "E": (0.5,)}
        assert allowed.forbidden_labels() == {"A1"}

    def test_n4(self):
        allowed = spin.allowed_spatial_irreps(4)
        assert allowed.spins == {
            "A1": (),
            "A2": (2.0,),
            "E": (0.0,),
            "T1": (1.0,),
            "T2": (),
        }
        assert allowed.forbidden_labels() == {"A1", "T2"}

    def test_to_dict_labels(self):
        d = spin.allowed_spatial_irreps(3).to_dict()
        assert d["A2"] == {
            "allowed": True,
            "spins": [1.5],
            "multiplets": ["quadruplet"],
        }
        assert d["A1"]["allowed"] is False


def _assert_antisymmetric(res, n):
    """Rebuild a survivor's product-space coefficients (up to 1/sqrt(N!))
    from its determinants; permuting spin-orbital codes relabels space and
    spin together, and every transposition must flip the sign."""
    coeffs = {}
    for det, c in res.determinants.items():
        for p in sg.all_permutations(n):
            key = oracles.permute_labels(p, det)
            coeffs[key] = coeffs.get(key, 0.0) + sg.parity(p) * c
    for i, j in itertools.combinations(range(1, n + 1), 2):
        t = sg.Permutation.transposition(n, i, j)
        for key, c in coeffs.items():
            swapped = oracles.permute_labels(t, key)
            assert coeffs.get(swapped, 0.0) == pytest.approx(-c, abs=1e-9)


class TestAntisymmetrizeSpaceSpin:
    def test_a1_always_zero(self, model3, t3):
        lv = osc.make_level(model3, 0, 0)
        for labels in spin.spin_basis(3):
            res = spin.antisymmetrize_space_spin(
                model3, lv, t3, "A1", spin.SpinProduct(labels)
            )
            assert not res.nonzero

    def test_a2_quadruplet_member(self, model3, t3):
        lv = osc.make_level(model3, 3, 0)
        res = spin.antisymmetrize_space_spin(model3, lv, t3, "A2", "aaa")
        assert res.nonzero
        assert res.s_value == pytest.approx(1.5)
        # all three spins up with orbital quanta summing to 3 and Pauli
        # exclusion: exactly the determinant |phi0 a, phi1 a, phi2 a|
        assert set(res.determinants) == {(0, 2, 4)}

    def test_e_with_full_alpha_dies(self, model3, t3):
        # S = 3/2 is incompatible with E
        lv = osc.make_level(model3, 1, 0)
        res = spin.antisymmetrize_space_spin(model3, lv, t3, "E", "aaa")
        assert not res.nonzero

    def test_e_doublet_member(self, model3, t3):
        lv = osc.make_level(model3, 1, 0)
        res = spin.antisymmetrize_space_spin(model3, lv, t3, "E", "aab")
        assert res.nonzero
        assert res.s_value == pytest.approx(0.5)

    def test_output_antisymmetric_under_transpositions(self, model3, t3):
        """The survivor must change sign under every simultaneous space-spin
        transposition; in determinant form the expansion is over strictly
        ordered spin-orbital sets and reconstruction of any transposed
        product component must flip sign."""
        lv = osc.make_level(model3, 1, 0)
        res = spin.antisymmetrize_space_spin(model3, lv, t3, "E", "aab")
        _assert_antisymmetric(res, 3)

    def test_wrong_pattern_length(self, model3, t3):
        lv = osc.make_level(model3, 1, 0)
        with pytest.raises(ValueError):
            spin.antisymmetrize_space_spin(model3, lv, t3, "E", "aabb")

    def test_orbital_31_exceeds_the_determinant_mask(self, model3, t3):
        """Spin-orbital codes share the CI masks: orbital 31 with beta spin
        (code 63) does not fit an int64, so the level is refused."""
        lv = osc.make_level(model3, 31, 0)
        with pytest.raises(ValueError, match="fit a determinant mask"):
            spin.antisymmetrize_space_spin(model3, lv, t3, "E", "bba")


REFERENCE_LEVELS = [
    (n, n_sym, n_last)
    for n, top in ((3, 5), (4, 3))
    for n_sym in range(top + 1)
    for n_last in (0, 1)
]


@pytest.mark.parametrize("n, n_sym, n_last", REFERENCE_LEVELS)
def test_determinants_match_permutation_sum(n, n_sym, n_last):
    """The Slater-determinant route against the explicit N!-term
    antisymmetrizer, for every irrep, spin product and seed of the level."""
    model = osc.make_model(n, 0.1)
    table = sg.character_table(n)
    level = osc.make_level(model, n_sym, n_last)
    for irrep in table.irreps:
        proj = ls.character_projector(model, level, table, irrep)
        for labels in spin.spin_basis(n):
            product = spin.SpinProduct(labels)
            for seed in range(level.degeneracy):
                case = (irrep.label, "".join(labels), seed)
                got = spin._antisymmetrize(level, proj[:, seed], product)
                want = oracles.antisymmetrize_by_permutations(
                    level, proj[:, seed], product
                )
                assert got.nonzero == want.nonzero, case
                assert got.s_value == want.s_value, case
                assert got.norm == pytest.approx(want.norm, abs=1e-12), case
                assert set(got.determinants) == set(want.determinants), case
                for key, c in want.determinants.items():
                    assert got.determinants[key] == pytest.approx(c, abs=1e-12), case


@pytest.mark.parametrize(
    "n, irrep, product, n_sym",
    [
        (3, "A2", "aaa", 3),
        (3, "E", "aab", 1),
        (4, "T1", "aabb", 3),
        (4, "A2", "aaab", 6),
        (4, "E", "abab", 2),
    ],
)
def test_determinants_are_ci_basis_rows(n, irrep, product, n_sym):
    """Survivor keys index the CI basis, whose S^2 gives the measured spin."""
    model = osc.make_model(n, 0.1)
    res = spin.antisymmetrize_space_spin(
        model, osc.make_level(model, n_sym, 0), sg.character_table(n), irrep, product
    )
    n_orb = max(map(max, res.determinants)) // 2 + 1
    basis = cimod.build_basis(n, n_orb, ms=spin.SpinProduct.parse(product).ms)
    rows = {row: i for i, row in enumerate(map(tuple, basis.tolist()))}
    psi = np.zeros(len(basis))
    psi[[rows[key] for key in res.determinants]] = list(res.determinants.values())
    s2 = psi @ cimod.s_squared_matrix(basis) @ psi / (psi @ psi)
    assert abs(s2 - res.s_value * (res.s_value + 1)) < 1e-12


class TestRoutesAgree:
    """Character route vs constructive route: the module's central
    cross-validation, exhaustive over every (N, irrep) pair."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_all_irreps(self, n):
        constructive = spin.constructive_spatial_irreps(n)
        assert constructive == spin.allowed_spatial_irreps(n)


class TestSpinProduct:
    def test_ms(self):
        assert spin.SpinProduct.parse("aab").ms == pytest.approx(0.5)
        assert spin.SpinProduct.parse("bbbb").ms == pytest.approx(-2.0)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            spin.SpinProduct(("a", "x"))

    def test_first_level_with_irrep(self, model4, t4):
        assert spin.first_level_with_irrep(model4, t4, "A2").n_sym == 6
        assert spin.first_level_with_irrep(model4, t4, "T1").n_sym == 3


class TestMoreEdges:
    def test_multiplet_table_rejects_zero(self):
        with pytest.raises(ValueError):
            spin.multiplet_table(0)

    def test_spin_matrix_size_mismatch(self):
        with pytest.raises(ValueError):
            oracles.spin_permutation_matrix(3, sg.Permutation((2, 1)))

    def test_antisymmetric_output_n4_triplet(self, model4, t4):
        """Exhaustive transposition sign check on an N=4 survivor."""
        lv = osc.make_level(model4, 3, 0)
        res = spin.antisymmetrize_space_spin(model4, lv, t4, "T1", "aabb")
        assert res.nonzero and res.s_value == pytest.approx(1.0)
        _assert_antisymmetric(res, 4)

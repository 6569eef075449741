import itertools
import math

import numpy as np
import pytest

import oracles
from permsym import ci as cimod
from permsym import cli
from permsym import levelsym as ls
from permsym import oscillator as osc
from permsym import spin
from permsym import symgroup as sg
from permsym.errors import NumericalIntegrityError


class TestSpinPermutationMatrix:
    def test_identity(self):
        assert np.array_equal(
            oracles.spin_permutation_matrix(3, oracles.identity(3)), np.eye(8)
        )

    def test_n2_swap(self):
        # basis order (aa, ab, ba, bb): P12 swaps ab <-> ba
        mat = oracles.spin_permutation_matrix(2, (2, 1))
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(mat, expected)

    def test_three_cycle_trace_counts_fixed_patterns(self):
        # brute-force count: patterns fixed by a 3-cycle are aaa and bbb
        cyc = (2, 3, 1)
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
        mats = {p: oracles.spin_permutation_matrix(3, p) for p in perms}
        for p in perms:
            for q in perms:
                pq = sg.compose(p, q)
                assert np.array_equal(
                    mats[p] @ mats[q], mats[pq]
                )


class TestSTotal:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_s2_commutes_with_permutations(self, n):
        s2 = oracles.spin_s_squared_matrix(n)
        for p in sg.all_permutations(n):
            mat = oracles.spin_permutation_matrix(n, p)
            assert np.abs(s2 @ mat - mat @ s2).max() < 1e-12

    def test_multiplet_table_n2(self):
        assert spin.multiplet_table(2) == {1.0: 1, 0.0: 1}

    def test_multiplet_table_n3(self):
        assert spin.multiplet_table(3) == {1.5: 1, 0.5: 2}

    def test_multiplet_table_n4(self):
        assert spin.multiplet_table(4) == {2.0: 1, 1.0: 3, 0.0: 2}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dimension_sum(self, n):
        counts = spin.multiplet_table(n)
        assert sum(round(2 * s + 1) * c for s, c in counts.items()) == 2**n


class TestCharacterRoute:
    """The integer generating function against the float S^2 route."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_spin_character_is_a_trace_difference(self, n):
        products = map(oracles.SpinProduct, oracles.spin_basis(n))
        ms = np.array([product.ms for product in products])
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
        assert spin.multiplet_table(n) == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_content_by_s_matches_eigh(self, n):
        table = sg.character_table(n)
        by_characters = oracles.spin_content_by_s(n, table)
        assert by_characters == oracles.spin_content_by_eigh(n, table)


class TestSpinIrrepContent:
    def test_n3(self, t3):
        mults = oracles.spin_irrep_multiplicities(3, t3)
        assert mults["A2"] == 0
        assert sum(t3.dimension(l) * m for l, m in mults.items()) == 8
        assert mults == {"A1": 4, "A2": 0, "E": 2}

    def test_n4(self, t4):
        mults = oracles.spin_irrep_multiplicities(4, t4)
        assert mults["A2"] == 0
        assert sum(t4.dimension(l) * m for l, m in mults.items()) == 16

    def test_n4_no_antisymmetric_spin_function_brute_force(self, t4):
        """Independent check: apply the 24-term antisymmetrizer to every one
        of the 16 spin products and observe annihilation."""
        perms = sg.all_permutations(4)
        basis = oracles.spin_basis(4)
        index = {labels: i for i, labels in enumerate(basis)}
        for labels in basis:
            acc = np.zeros(16)
            for p in perms:
                acc[index[oracles.permute_labels(p, labels)]] += sg.parity(p)
            assert np.abs(acc).max() == 0

    def test_content_by_s_n3(self, t3):
        content = {
            s: {ir: m for ir, m in d.items() if m}
            for s, d in oracles.spin_content_by_s(3, t3).items()
        }
        assert content == {1.5: {"A1": 4}, 0.5: {"E": 2}}

    def test_content_by_s_n4(self, t4):
        content = {
            s: {ir: m for ir, m in d.items() if m}
            for s, d in oracles.spin_content_by_s(4, t4).items()
        }
        assert content == {2.0: {"A1": 5}, 1.0: {"T2": 3}, 0.0: {"E": 1}}


class TestAllowedIrreps:
    def test_n3(self):
        allowed = spin.allowed_spatial_irreps(3)
        assert allowed == {"A1": (), "A2": (1.5,), "E": (0.5,)}

    def test_n4(self):
        allowed = spin.allowed_spatial_irreps(4)
        assert allowed == {
            "A1": (),
            "A2": (2.0,),
            "E": (0.0,),
            "T1": (1.0,),
            "T2": (),
        }

    def test_to_dict_labels(self):
        # the `allowed` payload names each surviving spin by multiplet_name
        labels = {
            label: [spin.multiplet_name(s) for s in spins]
            for label, spins in spin.allowed_spatial_irreps(3).items()
        }
        assert labels == {"A1": [], "A2": ["quadruplet"], "E": ["doublet"]}


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
        t = oracles.transposition(n, i, j)
        for key, c in coeffs.items():
            swapped = oracles.permute_labels(t, key)
            assert coeffs.get(swapped, 0.0) == pytest.approx(-c, abs=1e-9)


def _antisymmetrize_first_seed(model, level, table, irrep, product):
    """Antisymmetrize the spin product with the first column of the irrep's
    projector whose norm exceeds 1e-8 (column 0, a zero, when none does)."""
    proj = ls.character_projector(model, level, table, irrep)
    seed = proj[:, np.argmax(np.linalg.norm(proj, axis=0) > 1e-8)]
    return oracles.antisymmetrize_space_spin(
        model, level, seed, oracles.SpinProduct(product)
    )


class TestAntisymmetrizeSpaceSpin:
    def test_a1_always_zero(self, model3, t3):
        lv = osc.make_level(model3, 0, 0)
        for labels in oracles.spin_basis(3):
            res = _antisymmetrize_first_seed(model3, lv, t3, "A1", labels)
            assert not res.nonzero

    def test_a2_quadruplet_member(self, model3, t3):
        lv = osc.make_level(model3, 3, 0)
        res = _antisymmetrize_first_seed(model3, lv, t3, "A2", "aaa")
        assert res.nonzero
        assert res.s_value == pytest.approx(1.5)
        # all three spins up with orbital quanta summing to 3 and Pauli
        # exclusion: exactly the determinant |phi0 a, phi1 a, phi2 a|
        assert set(res.determinants) == {(0, 2, 4)}

    def test_e_with_full_alpha_dies(self, model3, t3):
        # S = 3/2 is incompatible with E
        lv = osc.make_level(model3, 1, 0)
        res = _antisymmetrize_first_seed(model3, lv, t3, "E", "aaa")
        assert not res.nonzero

    def test_e_doublet_member(self, model3, t3):
        lv = osc.make_level(model3, 1, 0)
        res = _antisymmetrize_first_seed(model3, lv, t3, "E", "aab")
        assert res.nonzero
        assert res.s_value == pytest.approx(0.5)

    def test_output_antisymmetric_under_transpositions(self, model3, t3):
        """The survivor must change sign under every simultaneous space-spin
        transposition; in determinant form the expansion is over strictly
        ordered spin-orbital sets and reconstruction of any transposed
        product component must flip sign."""
        lv = osc.make_level(model3, 1, 0)
        res = _antisymmetrize_first_seed(model3, lv, t3, "E", "aab")
        _assert_antisymmetric(res, 3)

    def test_wrong_pattern_length(self, model3, t3):
        lv = osc.make_level(model3, 1, 0)
        with pytest.raises(ValueError):
            _antisymmetrize_first_seed(model3, lv, t3, "E", "aabb")

    def test_orbital_31_exceeds_the_determinant_mask(self, model3, t3):
        """Spin-orbital codes share the CI masks: orbital 31 with beta spin
        (code 63) does not fit an int64, so the level is refused."""
        lv = osc.make_level(model3, 31, 0)
        with pytest.raises(ValueError, match="fit a determinant mask"):
            _antisymmetrize_first_seed(model3, lv, t3, "E", "bba")


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
        for labels in oracles.spin_basis(n):
            product = oracles.SpinProduct(labels)
            for seed in range(level.degeneracy):
                case = (irrep, "".join(labels), seed)
                got = oracles.antisymmetrize_space_spin(
                    model, level, proj[:, seed], product
                )
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
    res = _antisymmetrize_first_seed(
        model, osc.make_level(model, n_sym, 0), sg.character_table(n), irrep, product
    )
    n_orb = max(map(max, res.determinants)) // 2 + 1
    basis = cimod.build_basis(n, n_orb, ms=oracles.SpinProduct(product).ms)
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


#: every level the exact route is checked at: N=3 n_sym <= 12, N=4 n_sym <= 8
EXACT_TOPS = [(3, 12), (4, 8)]


class TestExactRoute:
    """The integer shell-rank route, at every level, against the character
    route and the float oracle, with negative controls."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_first_levels_match_float_oracle(self, n):
        model, table = osc.make_model(n, 0.1), sg.character_table(n)
        for irrep in table.irreps:
            n_sym = spin.first_level_with_irrep(n, irrep)
            level = osc.make_level(model, n_sym, 0)
            want = oracles.constructive_spins_by_floats(model, level, table, irrep)
            assert spin.constructive_allowed_spins(n, n_sym, irrep) == want

    @pytest.mark.parametrize("n, top", EXACT_TOPS)
    def test_shell_rank_is_trace_times_dim_over_order(self, n, top):
        """(N!/dim) P_Gamma is N!/dim times a projector, so its rank on each
        shell and M_s >= 0 is its trace times dim/N!."""
        table, order = sg.character_table(n), math.factorial(n)
        shells, total = 0, 0
        for irrep in table.irreps:
            for quanta in range(top + 1):
                for n_beta in range(n // 2 + 1):
                    rank, trace = spin._shell_rank(n, irrep, quanta, n_beta)
                    assert rank * order == trace * table.dimension(irrep)
                    shells, total = shells + 1, total + rank
        assert shells == {3: 78, 4: 135}[n]  # 213 in all
        assert total > 0

    @pytest.mark.parametrize("n, top", EXACT_TOPS)
    def test_multiplets_at_every_level(self, n, top):
        """n_S is the level's multiplicity of Gamma for each spin the
        character route allows with Gamma, and 0 for every other S."""
        table = sg.character_table(n)
        allowed = spin.allowed_spatial_irreps(n)
        for n_sym in range(top + 1):
            mults = ls.irrep_multiplicities(n, n_sym)
            for irrep in table.irreps:
                got = spin._level_multiplets(n, irrep, n_sym)
                want = {
                    s: mults[irrep] if s in allowed[irrep] else 0
                    for s in sorted(spin.multiplet_table(n))
                }
                assert got == want, (n_sym, irrep)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_multiplicity_off_by_one_raises(self, n, delta, monkeypatch):
        levels = {
            irrep: spin.first_level_with_irrep(n, irrep)
            for irrep, spins in spin.allowed_spatial_irreps(n).items()
            if spins
        }
        true_mults = spin.irrep_multiplicities

        def shifted(n, n_sym):
            return {ir: m + delta for ir, m in true_mults(n, n_sym).items()}

        monkeypatch.setattr(spin, "irrep_multiplicities", shifted)
        for irrep, n_sym in levels.items():
            with pytest.raises(NumericalIntegrityError, match="multiplets per S"):
                spin.constructive_allowed_spins(n, n_sym, irrep)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dropped_sort_sign_loses_a2(self, n, monkeypatch):
        """Without the sort's sign the images are symmetric, not
        antisymmetric: A2 (the space-spin partner of the all-alpha spin
        function) vanishes, and the CLI reports an integrity failure."""
        n_sym = spin.first_level_with_irrep(n, "A2")
        sort_sign = spin._sort_sign
        monkeypatch.setattr(spin, "_sort_sign", lambda codes: abs(sort_sign(codes)))
        assert spin.constructive_allowed_spins(n, n_sym, "A2") == set()
        argv = ["allowed", "--n", str(n), "--verify", "constructive"]
        assert cli.main(argv) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("n", [3, 4])
    def test_dropped_lower_shell_fails_the_cli(self, n, monkeypatch):
        """Without R_(n_sym - 1) subtracted, a level's counts are those of
        every level up to it (the differences telescope, R_(-1) = 0).  At
        each irrep's first level nothing changes, so only the levels above
        it, which the CLI ranks too, can show the fault."""
        level_multiplets = spin._level_multiplets

        def upper_shell_only(n, irrep, n_sym):
            per_level = [level_multiplets(n, irrep, q) for q in range(n_sym + 1)]
            return {s: sum(m[s] for m in per_level) for s in per_level[0]}

        monkeypatch.setattr(spin, "_level_multiplets", upper_shell_only)
        argv = ["allowed", "--n", str(n), "--verify", "constructive"]
        assert cli.main(argv) == cli.EXIT_INTEGRITY

    @pytest.mark.parametrize("n, irrep, n_sym", [(3, "E", 2), (4, "T2", 2)])
    def test_other_spins_above_the_first_level_fail_the_cli(
        self, n, irrep, n_sym, monkeypatch
    ):
        """An irrep's spins must agree at all its levels, not only its first
        (n_sym = 1 for both doctored irreps)."""
        true_spins = spin.constructive_allowed_spins

        def doctored(n, q, label):
            if (q, label) == (n_sym, irrep):
                return {n / 2}
            return true_spins(n, q, label)

        monkeypatch.setattr(spin, "constructive_allowed_spins", doctored)
        with pytest.raises(NumericalIntegrityError, match="spins differ"):
            spin.constructive_spatial_irreps(n)
        argv = ["allowed", "--n", str(n), "--verify", "constructive"]
        assert cli.main(argv) == cli.EXIT_INTEGRITY

    def test_a2_image_of_the_all_alpha_determinant(self):
        """Each of the 6 permutations maps |0a 1a 2a| to itself signed by its
        parity, which the A2 character repeats; A1 cancels it."""
        det = (0, 2, 4)
        a2 = spin.antisymmetrize_space_spin(det, "A2")
        assert a2.nonzero and a2.determinants == {det: 6}
        assert not spin.antisymmetrize_space_spin(det, "A1").nonzero

    @pytest.mark.parametrize("n, quanta", [(3, 6), (4, 5)])
    def test_shells_are_the_ci_basis_rows_of_their_quanta(self, n, quanta):
        for n_beta in range(n // 2 + 1):
            basis = cimod.build_basis(n, quanta + 1, ms=n / 2 - n_beta)
            want = [tuple(r) for r in basis.tolist() if sum(c // 2 for c in r) == quanta]
            assert spin._shell(n, quanta, n_beta) == tuple(want)

    def test_rank_against_floats(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mat = rng.integers(-2, 3, size=(6, 5)) * (rng.random((6, 5)) < 0.4)
            mat[3] = 2 * mat[0] - mat[1]  # a dependent row
            rows = [{j: int(v) for j, v in enumerate(row) if v} for row in mat]
            assert spin._rank(rows) == np.linalg.matrix_rank(mat)


class TestSpinProduct:
    def test_ms(self):
        assert oracles.SpinProduct("aab").ms == pytest.approx(0.5)
        assert oracles.SpinProduct("bbbb").ms == pytest.approx(-2.0)

    def test_string_and_tuple_labels_are_one_value(self):
        text, pair = oracles.SpinProduct("ab"), oracles.SpinProduct(("a", "b"))
        assert text == pair
        assert hash(text) == hash(pair)
        assert text.labels == ("a", "b")

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            oracles.SpinProduct(("a", "x"))

    def test_first_level_with_irrep(self):
        assert spin.first_level_with_irrep(4, "A2") == 6
        assert spin.first_level_with_irrep(4, "T1") == 3


class TestMoreEdges:
    def test_multiplet_table_rejects_zero(self):
        with pytest.raises(ValueError):
            spin.multiplet_table(0)

    def test_spin_matrix_size_mismatch(self):
        with pytest.raises(ValueError):
            oracles.spin_permutation_matrix(3, (2, 1))

    def test_antisymmetric_output_n4_triplet(self, model4, t4):
        """Exhaustive transposition sign check on an N=4 survivor."""
        lv = osc.make_level(model4, 3, 0)
        res = _antisymmetrize_first_seed(model4, lv, t4, "T1", "aabb")
        assert res.nonzero and res.s_value == pytest.approx(1.0)
        _assert_antisymmetric(res, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda model, level, table: ls.character_projector(model, level, table, "T1"),
        lambda model, level, table: ls.salc(model, level, table, "T1"),
        lambda model, level, table: spin.first_level_with_irrep(table.n, "T1"),
        lambda model, level, table: spin.constructive_allowed_spins(
            table.n, level.n_sym, "T1"
        ),
        lambda model, level, table: spin.antisymmetrize_space_spin((0, 1, 2), "T1"),
    ],
    ids=["character_projector", "salc", "first_level_with_irrep",
         "constructive_allowed_spins", "antisymmetrize_space_spin"],
)
def test_unknown_label_is_one_value_error(model3, t3, call):
    """S3 has no T1: every function that takes a label rejects it with the
    table's own error, not a bare KeyError from a dict lookup."""
    with pytest.raises(ValueError, match="no irrep labelled 'T1'"):
        call(model3, osc.make_level(model3, 2, 0), t3)

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from permsym import symgroup as sg


def perms_strategy(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(tuple)


def pair_strategy(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.permutations(list(range(1, n + 1))),
        )
    ).map(lambda t: (tuple(t[0]), tuple(t[1])))


class TestPermutation:
    def test_rejects_non_bijection(self):
        # without the check, following the cycles of (1, 1, 2) never ends
        for images in [(1, 1, 3), (1, 1, 2), (2, 3), (0, 1)]:
            for fn in (sg.cycles, sg.cycle_type, sg.parity):
                with pytest.raises(ValueError, match="not a bijection"):
                    fn(images)

    def test_identity_compose(self):
        p = (2, 3, 1)
        assert sg.compose(oracles.identity(3), p) == p
        assert sg.compose(p, oracles.identity(3)) == p

    def test_transposition_squares_to_identity(self):
        p12 = oracles.transposition(3, 1, 2)
        assert oracles.is_identity(sg.compose(p12, p12))

    def test_three_cycle_composition(self):
        # frozen from the brute-force S3 closure table below
        p = (2, 3, 1)
        assert sg.compose(p, p) == (3, 1, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            sg.compose((2, 1), (1, 2, 3))

    def test_s3_closure_table_brute_force(self):
        # oracle: compose as raw index mappings, written out independently
        elements = list(itertools.permutations((1, 2, 3)))

        def raw_compose(p, q):
            return tuple(p[q[i] - 1] for i in range(3))

        for p in elements:
            for q in elements:
                expected = raw_compose(p, q)
                got = sg.compose(p, q)
                assert got == expected
                assert expected in elements  # closure

    @settings(max_examples=60, deadline=None)
    @given(pair_strategy())
    def test_parity_multiplicative(self, pq):
        p, q = pq
        assert sg.parity(sg.compose(p, q)) == sg.parity(p) * sg.parity(q)

    @settings(max_examples=60, deadline=None)
    @given(perms_strategy())
    def test_inverse(self, p):
        assert oracles.is_identity(sg.compose(p, oracles.inverse(p)))
        assert oracles.is_identity(sg.compose(oracles.inverse(p), p))

    @settings(max_examples=60, deadline=None)
    @given(pair_strategy())
    def test_cycle_type_conjugation_invariant(self, pq):
        p, q = pq
        conj = sg.compose(q, sg.compose(p, oracles.inverse(q)))
        assert sg.cycle_type(conj) == sg.cycle_type(p)


class TestParity:
    def test_identity_even(self):
        assert sg.parity(oracles.identity(3)) == +1

    def test_single_transposition_odd(self):
        assert sg.parity(oracles.transposition(3, 1, 2)) == -1

    def test_three_cycle_even_by_factorization(self):
        # brute-force search for a 2-transposition factorization
        target = (3, 1, 2)
        transpositions = [
            oracles.transposition(3, i, j)
            for i in range(1, 4)
            for j in range(i + 1, 4)
        ]
        found = any(
            sg.compose(a, b) == target for a in transpositions for b in transpositions
        )
        assert found
        assert sg.parity(target) == +1


class TestCycleType:
    def test_identity(self):
        assert sg.cycle_type(oracles.identity(4)) == (1, 1, 1, 1)

    def test_transposition(self):
        assert sg.cycle_type(oracles.transposition(4, 1, 2)) == (2, 1, 1)

    def test_four_cycle_by_orbit(self):
        p = (2, 3, 4, 1)
        # follow the orbit 1 -> 2 -> 3 -> 4 -> 1 by hand
        orbit = [1]
        while True:
            nxt = p[orbit[-1] - 1]
            if nxt == orbit[0]:
                break
            orbit.append(nxt)
        assert len(orbit) == 4
        assert sg.cycle_type(p) == (4,)


class TestConjugacyClasses:
    def test_n3(self):
        classes = sg.conjugacy_classes(3)
        assert [(c, sg.class_size(c), sg.element_order(c)) for c in classes] == [
            ((1, 1, 1), 1, 1),
            ((2, 1), 3, 2),
            ((3,), 2, 3),
        ]

    def test_n4(self):
        classes = sg.conjugacy_classes(4)
        assert [sg.class_size(ct) for ct in classes] == [1, 6, 8, 6, 3]
        assert [sg.element_order(ct) for ct in classes] == [1, 2, 3, 4, 2]

    def test_n2(self):
        classes = sg.conjugacy_classes(2)
        assert [sg.class_size(ct) for ct in classes] == [1, 1]

    def test_sizes_sum_to_order(self):
        for n in (2, 3, 4, 5):
            sizes = map(sg.class_size, sg.conjugacy_classes(n))
            assert sum(sizes) == math.factorial(n)

    def test_class_size_matches_enumeration(self):
        for n in (3, 4):
            counts = {}
            for p in sg.all_permutations(n):
                ct = sg.cycle_type(p)
                counts[ct] = counts.get(ct, 0) + 1
            for ct in sg.conjugacy_classes(n):
                assert counts[ct] == sg.class_size(ct)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sg.conjugacy_classes(1)

    def test_representative_has_right_type(self):
        for n in (3, 4, 5):
            for ct in sg.conjugacy_classes(n):
                assert sg.cycle_type(sg.class_representative(ct)) == ct


def derive_s4_table_by_orthogonality():
    """Pre-build oracle: reconstruct the S4 character rows from the
    orthogonality relations alone (no table data)."""
    classes = sg.conjugacy_classes(4)
    sizes = [sg.class_size(ct) for ct in classes]
    order = 24
    rows = []
    for dim in range(1, 5):
        for tail in itertools.product(range(-dim, dim + 1), repeat=4):
            row = (dim,) + tail
            if sum(s * x * x for s, x in zip(sizes, row)) != order:
                continue
            if sum(s * x for s, x in zip(sizes, row)) != (order if row == (1, 1, 1, 1, 1) else 0):
                continue
            rows.append(row)
    # pick 5 mutually orthogonal rows containing the trivial one
    for combo in itertools.combinations(rows, 5):
        if (1, 1, 1, 1, 1) not in combo:
            continue
        if sum(r[0] ** 2 for r in combo) != order:
            continue
        ok = all(
            sum(s * a * b for s, a, b in zip(sizes, r1, r2)) == 0
            for r1, r2 in itertools.combinations(combo, 2)
        )
        if ok:
            return set(combo)
    raise AssertionError("no consistent character table found")


class TestCharacterTables:
    def test_n3_matches_printed_table(self, t3):
        # printed C3v table: columns (E, 2C3, 3sigma_v)
        printed = {
            "A1": {(1, 1, 1): 1, (3,): 1, (2, 1): 1},
            "A2": {(1, 1, 1): 1, (3,): 1, (2, 1): -1},
            "E": {(1, 1, 1): 2, (3,): -1, (2, 1): 0},
        }
        for label, expected in printed.items():
            for ct, chi in expected.items():
                assert t3.char(label, ct) == chi

    def test_dimension_sum_rule(self, t3, t4):
        assert sum(t3.dimension(ir) ** 2 for ir in t3.irreps) == 6
        assert sum(t4.dimension(ir) ** 2 for ir in t4.irreps) == 24

    def test_n4_matches_orthogonality_oracle(self, t4):
        derived = derive_s4_table_by_orthogonality()
        assert set(t4.chars) == derived

    def test_n4_coordinate_triple_is_t2(self, t4):
        # the permutation rep on coordinates minus the symmetric mode:
        # chi(g) = fix(g) - 1 must match the T2 row
        for ct in t4.classes:
            rep = sg.class_representative(ct)
            fixed = sum(1 for i, img in enumerate(rep, start=1) if img == i)
            assert t4.char("T2", ct) == fixed - 1

    def test_validate_ok(self, t3, t4):
        assert sg.validate_table(t3) is None
        assert sg.validate_table(t4) is None

    def test_validate_catches_flip(self, t3):
        def tampered(row_i, col_j, value):
            bad_chars = tuple(
                tuple(value if (i, j) == (row_i, col_j) else x
                      for j, x in enumerate(row))
                for i, row in enumerate(t3.chars)
            )
            bad = sg.CharacterTable(
                group_name=t3.group_name,
                n=t3.n,
                classes=t3.classes,
                class_labels=t3.class_labels,
                irreps=t3.irreps,
                chars=bad_chars,
            )
            return sg.validate_table(bad)

        # flip chi_A2 on the transposition class to +1
        report = tampered(1, 1, 1)
        assert report is not None
        assert "A1" in report and "A2" in report
        # chi_E on the identity, the dimension of E, raised from 2 to 3
        report = tampered(2, 0, 3)
        assert report is not None
        assert "sum of squared dimensions is 11" in report

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            sg.character_table(5)

    def test_to_dict_roundtrip_fields(self, t4):
        d = t4.to_dict()
        assert d["group_name"] == "S4/O"
        assert len(d["classes"]) == 5
        assert d["characters"]["A2"] == [1, -1, 1, -1, 1]


class TestProjectors:
    def test_a2_coefficients_n3(self, t3):
        coeffs = oracles.projector_coefficients(t3, "A2")
        for p, c in coeffs.items():
            expected = Fraction(sg.parity(p), 6)
            assert c == expected

    def test_e_coefficients_n3(self, t3):
        coeffs = oracles.projector_coefficients(t3, "E")
        for p, c in coeffs.items():
            ct = sg.cycle_type(p)
            if ct == (1, 1, 1):
                assert c == Fraction(2, 3)
            elif ct == (3,):
                assert c == Fraction(-1, 3)
            else:
                assert c == 0

    def test_a1_uniform_n4(self, t4):
        coeffs = oracles.projector_coefficients(t4, "A1")
        assert all(c == Fraction(1, 24) for c in coeffs.values())

    def test_unknown_irrep(self, t3):
        with pytest.raises(ValueError, match="no irrep labelled 'T1'"):
            oracles.projector_coefficients(t3, "T1")


def regular_projectors(table):
    """Exact-rational projector matrices in the regular representation."""
    n = table.n
    perms = sg.all_permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    out = {}
    for irrep in table.irreps:
        coeffs = oracles.projector_coefficients(table, irrep)
        size = len(perms)
        mat = [[Fraction(0)] * size for _ in range(size)]
        for g, c in coeffs.items():
            if c == 0:
                continue
            for j, h in enumerate(perms):
                gh = sg.compose(g, h)
                mat[index[gh]][j] += c
        out[irrep] = mat
    return out


def mat_mul(a, b):
    size = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_regular_representation_projector_algebra(n):
    """Idempotency, mutual orthogonality, completeness, and trace = dim^2,
    all in exact rational arithmetic."""
    table = sg.character_table(n)
    projs = regular_projectors(table)
    size = math.factorial(n)
    total = [[Fraction(0)] * size for _ in range(size)]
    for irrep, mat in projs.items():
        sq = mat_mul(mat, mat)
        assert sq == mat, f"P^2 != P for {irrep}"
        trace = sum(mat[i][i] for i in range(size))
        assert trace == table.dimension(irrep) ** 2
        for i in range(size):
            for j in range(size):
                total[i][j] += mat[i][j]
    for (ir1, m1), (ir2, m2) in itertools.combinations(projs.items(), 2):
        prod = mat_mul(m1, m2)
        assert all(x == 0 for row in prod for x in row), (
            f"P_{ir1} P_{ir2} != 0"
        )
    identity = [
        [Fraction(1) if i == j else Fraction(0) for j in range(size)]
        for i in range(size)
    ]
    assert total == identity


class TestSignIrrep:
    def test_shipped_tables(self, t3, t4):
        assert sg.sign_irrep(t3) == "A2"
        assert sg.sign_irrep(t4) == "A2"

    def test_s2_table_constructed_inline(self):
        # S2 has two 1-dim irreps; the parity one is the antisymmetric one
        classes = sg.conjugacy_classes(2)
        table = sg.CharacterTable(
            group_name="S2",
            n=2,
            classes=classes,
            class_labels=("E", "sigma"),
            irreps=("A1", "A2"),
            chars=((1, 1), (1, -1)),
        )
        assert sg.validate_table(table) is None
        assert sg.sign_irrep(table) == "A2"


@settings(max_examples=40, deadline=None)
@given(pair_strategy(max_n=5))
def test_compose_associative(pq):
    p, q = pq
    r = oracles.inverse(p)
    assert sg.compose(sg.compose(p, q), r) == sg.compose(p, sg.compose(q, r))

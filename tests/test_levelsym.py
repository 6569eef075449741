import math

import numpy as np
import pytest

import oracles
from permsym import levelsym as ls
from permsym import oscillator as osc
from permsym import symgroup as sg
from permsym.errors import NumericalIntegrityError


def mult_labels(model, level, table):
    # a level's content depends on (N, n_sym) alone; the signature is the
    # one test_acceptance's criteria call
    mults = ls.irrep_multiplicities(table.n, level.n_sym)
    return {ir: m for ir, m in mults.items() if m}


class TestLevelCharacters:
    def test_n3_nsym0(self):
        chars = ls.level_characters(3, 0)
        assert chars[(1, 1, 1)] == pytest.approx(1.0, abs=1e-9)
        assert chars[(2, 1)] == pytest.approx(1.0, abs=1e-9)
        assert chars[(3,)] == pytest.approx(1.0, abs=1e-9)

    def test_n3_nsym1_matches_e_row(self):
        chars = ls.level_characters(3, 1)
        assert chars[(1, 1, 1)] == pytest.approx(2.0, abs=1e-9)
        assert chars[(3,)] == pytest.approx(-1.0, abs=1e-9)
        assert chars[(2, 1)] == pytest.approx(0.0, abs=1e-9)

    def test_returned_map_is_read_only(self):
        """The map is cached per (N, n_sym): a caller cannot change what
        the next call returns."""
        chars = ls.level_characters(4, 3)
        with pytest.raises(TypeError):
            chars[(1, 1, 1, 1)] = 0
        assert ls.level_characters(4, 3)[(1, 1, 1, 1)] == 10
        assert ls.level_characters(4, 3) == {**chars}

    def test_n4_nsym1_matches_t2_row(self, t4):
        chars = ls.level_characters(4, 1)
        for ct in t4.classes:
            assert chars[ct] == pytest.approx(t4.char("T2", ct), abs=1e-9)

    def test_trace_independent_of_class_member(self):
        by_type = {}
        for p in sg.all_permutations(3):
            tr = float(np.trace(osc.permutation_action_matrix(3, 3, p)))
            by_type.setdefault(sg.cycle_type(p), []).append(tr)
        for traces in by_type.values():
            assert max(traces) - min(traces) < 1e-9

    @pytest.mark.parametrize("n,max_nsym", [(3, 20), (4, 10)])
    def test_matrix_traces_equal_integer_characters(self, n, max_nsym):
        """trace D(g) of the representation matrices equals the integer
        character of the symmetric-power formula, for every g."""
        for n_sym in range(max_nsym + 1):
            traces = ls.level_characters(n, n_sym)
            assert all(type(t) is int for t in traces.values())
            for p in sg.all_permutations(n):
                d = osc.permutation_action_matrix(n, n_sym, p)
                assert abs(np.trace(d) - traces[sg.cycle_type(p)]) < 1e-9


class TestIrrepMultiplicities:
    def test_n3_ladder(self, model3, t3):
        expected = {
            0: {"A1": 1},
            1: {"E": 1},
            2: {"A1": 1, "E": 1},
            3: {"A1": 1, "A2": 1, "E": 1},
        }
        for n_sym, want in expected.items():
            got = mult_labels(model3, osc.make_level(model3, n_sym, 0), t3)
            assert got == want

    def test_n4_ladder(self, model4, t4):
        assert mult_labels(model4, osc.make_level(model4, 1, 0), t4) == {"T2": 1}
        assert mult_labels(model4, osc.make_level(model4, 2, 0), t4) == {
            "A1": 1,
            "E": 1,
            "T2": 1,
        }

    def test_n4_nsym3_decomposition(self, model4, t4):
        # ten states: the trace route gives A1 + T1 + 2 T2 (1+3+6 = 10);
        # dimension bookkeeping rules out any nine-dimensional content
        got = mult_labels(model4, osc.make_level(model4, 3, 0), t4)
        assert got == {"A1": 1, "T1": 1, "T2": 2}
        assert sum(t4.dimension(lbl) * m for lbl, m in got.items()) == 10

    def test_n4_a2_first_appearance_at_6(self, model4, t4):
        for n_sym in range(6):
            got = mult_labels(model4, osc.make_level(model4, n_sym, 0), t4)
            assert "A2" not in got, f"A2 present at n_sym={n_sym}"
        got = mult_labels(model4, osc.make_level(model4, 6, 0), t4)
        assert got.get("A2", 0) >= 1

    @pytest.mark.parametrize("n,max_nsym", [(3, 8), (4, 6)])
    def test_dimension_bookkeeping(self, n, max_nsym):
        model = osc.make_model(n, 0.1)
        table = sg.character_table(n)
        for n_sym in range(max_nsym + 1):
            lv = osc.make_level(model, n_sym, 0)
            mults = ls.irrep_multiplicities(n, n_sym)
            assert sum(table.dimension(ir) * m for ir, m in mults.items()) == lv.degeneracy

    @pytest.mark.parametrize("xi", [-0.2, 0.1, 0.5])
    def test_independent_of_coupling(self, xi, t3):
        model = osc.make_model(3, xi)
        for n_sym in range(5):
            got = mult_labels(model, osc.make_level(model, n_sym, 0), t3)
            ref = mult_labels(
                osc.make_model(3, 0.1), osc.make_level(model, n_sym, 0), t3
            )
            assert got == ref

    def test_independent_of_n_last(self, model3, t3):
        for n_last in range(3):
            got = mult_labels(model3, osc.make_level(model3, 2, n_last), t3)
            assert got == {"A1": 1, "E": 1}

    def test_rounding_guard_trips(self, t3, monkeypatch):
        chars = ls.level_characters(3, 1)
        wider = ls.level_characters(3, 2)  # A1 + E: three states, not two
        # a fractional trace, and an integer one off by 1 in one class
        # (which leaves every multiplicity fractional but non-negative)
        for ct, bad in (((2, 1), 0.5), ((3,), chars[(3,)] + 1)):
            tampered = {**chars, ct: bad}
            monkeypatch.setattr(ls, "level_characters", lambda n, s, t=tampered: t)
            with pytest.raises(NumericalIntegrityError):
                ls.irrep_multiplicities(3, 1)
            with pytest.raises(NumericalIntegrityError):
                sg.decompose(t3, tampered)
        # a true representation of the wrong size passes the decomposition
        # and trips the degeneracy sum
        monkeypatch.setattr(ls, "level_characters", lambda n, s: wider)
        with pytest.raises(NumericalIntegrityError, match="degeneracy 2"):
            ls.irrep_multiplicities(3, 1)


class TestAttachMultiplicities:
    def test_fills_field(self, model3):
        lv = ls.attach_multiplicities(model3, osc.make_level(model3, 3, 0))
        assert lv.irrep_mults == {"A1": 1, "A2": 1, "E": 1}


def hermite_product_vector(patterns, components):
    """Level-basis vector of a combination of *unnormalized* Hermite-product
    functions, e.g. {(3, 0): 1, (1, 2): -3} for H3(q1) - 3 H1(q1) H2(q2)."""
    vec = np.zeros(len(patterns))
    for pat, coeff in components.items():
        norm = math.sqrt(
            np.prod([2.0**a * math.factorial(a) for a in pat])
        )
        vec[patterns.index(pat)] = coeff * norm
    return vec / np.linalg.norm(vec)


class TestSalc:
    def test_nsym2_a1_span_contains_sum(self, model3, t3):
        lv = osc.make_level(model3, 2, 0)
        vectors = ls.salc(model3, lv, t3, "A1")
        assert len(vectors) == 1  # one copy of the one-dimensional A1
        patterns = osc.level_patterns(3, 2)
        # psi_20 + psi_02: identical norms, so components (1, 0, 1)/sqrt(2)
        target = np.zeros(3)
        target[patterns.index((2, 0))] = 1.0
        target[patterns.index((0, 2))] = 1.0
        target /= np.linalg.norm(target)
        residual = target - vectors.T @ (vectors @ target)
        assert np.linalg.norm(residual) < 1e-8

    def test_nsym3_a2_span(self, model3, t3):
        # the printed combination psi_30 - 3 psi_12 is in Hermite-product
        # (unnormalized) components; the A2 subspace is one-dimensional
        lv = osc.make_level(model3, 3, 0)
        vectors = ls.salc(model3, lv, t3, "A2")
        assert vectors.shape == (1, 4)
        patterns = osc.level_patterns(3, 3)
        target = hermite_product_vector(patterns, {(3, 0): 1.0, (1, 2): -3.0})
        residual = target - vectors.T @ (vectors @ target)
        assert np.linalg.norm(residual) < 1e-8

    def test_nsym3_a1_span(self, model3, t3):
        lv = osc.make_level(model3, 3, 0)
        vectors = ls.salc(model3, lv, t3, "A1")
        patterns = osc.level_patterns(3, 3)
        target = hermite_product_vector(patterns, {(2, 1): 3.0, (0, 3): -1.0})
        residual = target - vectors.T @ (vectors @ target)
        assert np.linalg.norm(residual) < 1e-8

    def test_empty_when_absent(self, model3, t3):
        lv = osc.make_level(model3, 0, 0)
        vectors = ls.salc(model3, lv, t3, "A2")
        assert vectors.shape == (0, 1)  # no copy: zero vectors over the level

    def test_vectors_orthonormal(self, model4, t4):
        lv = osc.make_level(model4, 3, 0)
        for label in ("A1", "T1", "T2"):
            vectors = ls.salc(model4, lv, t4, label)
            gram = vectors @ vectors.T
            assert np.abs(gram - np.eye(len(gram))).max() < 1e-9

    def test_projector_consistency(self, model3, t3):
        """P_Gamma reproduces its own SALCs and annihilates the others."""
        lv = osc.make_level(model3, 3, 0)
        salcs = {lbl: ls.salc(model3, lv, t3, lbl) for lbl in ("A1", "A2", "E")}
        projs = {
            lbl: ls.character_projector(model3, lv, t3, lbl)
            for lbl in ("A1", "A2", "E")
        }
        for lbl, vectors in salcs.items():
            for vec in vectors:
                assert np.linalg.norm(projs[lbl] @ vec - vec) < 1e-9
                for other, proj in projs.items():
                    if other != lbl:
                        assert np.linalg.norm(proj @ vec) < 1e-9

    @pytest.mark.parametrize("n,max_nsym", [(3, 6), (4, 4)])
    def test_pivot_convention(self, n, max_nsym):
        """Each vector has a column (its pivot) where it is positive and
        every later vector is zero, as in a pivoted Cholesky factor."""
        model = osc.make_model(n, 0.1)
        table = sg.character_table(n)
        for n_sym in range(max_nsym + 1):
            lv = osc.make_level(model, n_sym, 0)
            for irrep in table.irreps:
                vectors = ls.salc(model, lv, table, irrep)
                for k, vec in enumerate(vectors):
                    later_zero = (np.abs(vectors[k + 1 :]) <= 1e-12).all(axis=0)
                    assert ((vec > 1e-12) & later_zero).any(), (n_sym, irrep, k)

    @pytest.mark.parametrize(
        "n,n_sym", [(3, s) for s in range(13)] + [(4, s) for s in (*range(9), 30)]
    )
    def test_vectors_fixed_by_the_span(self, monkeypatch, n, n_sym):
        """1e-16 relative noise on every D(p) moves the vectors by rounding
        only, not within their span (an SVD basis moved by up to 2.0)."""
        model = osc.make_model(n, 0.1)
        table = sg.character_table(n)
        lv = osc.make_level(model, n_sym, 0)
        irreps = ("T1",) if n_sym == 30 else table.irreps
        exact = {ir: ls.salc(model, lv, table, ir) for ir in irreps}
        rng = np.random.default_rng(n_sym)
        action = ls.permutation_action_matrix

        def noisy(n, n_sym, p):
            d = action(n, n_sym, p)
            return d * (1 + 1e-16 * rng.standard_normal(d.shape))

        monkeypatch.setattr(ls, "permutation_action_matrix", noisy)
        for ir, vectors in exact.items():
            moved = ls.salc(model, lv, table, ir) - vectors
            assert np.abs(moved).max(initial=0.0) <= 1e-10, ir

    def test_counts_match_multiplicity_times_dimension(self, model4, t4):
        lv = osc.make_level(model4, 4, 0)
        mults = ls.irrep_multiplicities(4, 4)
        for ir, m in mults.items():
            vectors = ls.salc(model4, lv, t4, ir)
            assert vectors.shape == (m * t4.dimension(ir), lv.degeneracy)


class TestAllPermEigenfunctionIrreps:
    def test_shipped_tables(self, t3, t4):
        for table in (t3, t4):
            irreps = oracles.all_perm_eigenfunction_irreps(table)
            assert irreps == {"A1", "A2"}

    def test_all_one_dimensional_table(self):
        classes = sg.conjugacy_classes(2)
        table = sg.CharacterTable(
            group_name="S2",
            n=2,
            classes=classes,
            class_labels=("E", "sigma"),
            irreps=("A1", "A2"),
            chars=((1, 1), (1, -1)),
        )
        assert oracles.all_perm_eigenfunction_irreps(table) == set(table.irreps)


class TestNsym4Content:
    def test_n3_nsym4_is_a1_plus_two_e(self, model3, t3):
        # five states: h4 of the pair of degenerate modes gives A1 + 2E
        got = mult_labels(model3, osc.make_level(model3, 4, 0), t3)
        assert got == {"A1": 1, "E": 2}

    def test_n4_projector_consistency(self, model4, t4):
        lv = osc.make_level(model4, 2, 0)
        salcs = {lbl: ls.salc(model4, lv, t4, lbl) for lbl in t4.irreps}
        projs = {
            lbl: ls.character_projector(model4, lv, t4, lbl) for lbl in t4.irreps
        }
        for lbl, vectors in salcs.items():
            for vec in vectors:
                assert np.linalg.norm(projs[lbl] @ vec - vec) < 1e-9
                for other, proj in projs.items():
                    if other != lbl:
                        assert np.linalg.norm(proj @ vec) < 1e-9

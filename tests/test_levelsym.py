import math

import numpy as np
import pytest

from permsym import levelsym as ls
from permsym import oscillator as osc
from permsym import symgroup as sg
from permsym.errors import NumericalIntegrityError


def mult_labels(model, level, table):
    mults = ls.irrep_multiplicities(ls.level_characters(model, level), table)
    return {ir.label: m for ir, m in mults.items() if m}


class TestLevelCharacters:
    def test_n3_nsym0(self, model3, t3):
        chars = ls.level_characters(model3, osc.make_level(model3, 0, 0))
        assert chars.traces[(1, 1, 1)] == pytest.approx(1.0, abs=1e-9)
        assert chars.traces[(2, 1)] == pytest.approx(1.0, abs=1e-9)
        assert chars.traces[(3,)] == pytest.approx(1.0, abs=1e-9)

    def test_n3_nsym1_matches_e_row(self, model3, t3):
        chars = ls.level_characters(model3, osc.make_level(model3, 1, 0))
        assert chars.traces[(1, 1, 1)] == pytest.approx(2.0, abs=1e-9)
        assert chars.traces[(3,)] == pytest.approx(-1.0, abs=1e-9)
        assert chars.traces[(2, 1)] == pytest.approx(0.0, abs=1e-9)

    def test_n4_nsym1_matches_t2_row(self, model4, t4):
        chars = ls.level_characters(model4, osc.make_level(model4, 1, 0))
        for cls in t4.classes:
            assert chars.traces[cls.cycle_type] == pytest.approx(
                t4.char("T2", cls.cycle_type), abs=1e-9
            )

    def test_trace_independent_of_class_member(self, model3):
        lv = osc.make_level(model3, 3, 0)
        by_type = {}
        for p in sg.all_permutations(3):
            tr = float(np.trace(osc.permutation_action_matrix(model3, lv, p)))
            by_type.setdefault(sg.cycle_type(p), []).append(tr)
        for traces in by_type.values():
            assert max(traces) - min(traces) < 1e-9

    @pytest.mark.parametrize("n,max_nsym", [(3, 20), (4, 10)])
    def test_matrix_traces_equal_integer_characters(self, n, max_nsym):
        """trace D(g) of the representation matrices equals the integer
        character of the symmetric-power formula, for every g."""
        model = osc.make_model(n, 0.1)
        for n_sym in range(max_nsym + 1):
            lv = osc.make_level(model, n_sym, 0)
            traces = ls.level_characters(model, lv).traces
            assert all(type(t) is int for t in traces.values())
            for p in sg.all_permutations(n):
                d = osc.permutation_action_matrix(model, lv, p)
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
        assert sum(t4.irrep(lbl).dimension * m for lbl, m in got.items()) == 10

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
            mults = ls.irrep_multiplicities(ls.level_characters(model, lv), table)
            assert sum(ir.dimension * m for ir, m in mults.items()) == lv.degeneracy

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

    def test_rounding_guard_trips(self, t3, model3):
        lv = osc.make_level(model3, 1, 0)
        chars = ls.level_characters(model3, lv)
        tampered = ls.LevelCharacters(
            n_particles=3,
            degeneracy=2,
            traces={**chars.traces, (2, 1): 0.5},
        )
        with pytest.raises(NumericalIntegrityError):
            ls.irrep_multiplicities(tampered, t3)

    def test_table_size_mismatch(self, model3, t4):
        chars = ls.level_characters(model3, osc.make_level(model3, 0, 0))
        with pytest.raises(ValueError):
            ls.irrep_multiplicities(chars, t4)


class TestAttachMultiplicities:
    def test_fills_field(self, model3, t3):
        lv = ls.attach_multiplicities(model3, osc.make_level(model3, 3, 0), t3)
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
        salc = ls.salc(model3, lv, t3, "A1")
        assert salc.copies == 1
        patterns = osc.level_patterns(3, 2)
        # psi_20 + psi_02: identical norms, so components (1, 0, 1)/sqrt(2)
        target = np.zeros(3)
        target[patterns.index((2, 0))] = 1.0
        target[patterns.index((0, 2))] = 1.0
        target /= np.linalg.norm(target)
        residual = target - salc.vectors.T @ (salc.vectors @ target)
        assert np.linalg.norm(residual) < 1e-8

    def test_nsym3_a2_span(self, model3, t3):
        # the printed combination psi_30 - 3 psi_12 is in Hermite-product
        # (unnormalized) components; the A2 subspace is one-dimensional
        lv = osc.make_level(model3, 3, 0)
        salc = ls.salc(model3, lv, t3, "A2")
        assert salc.vectors.shape == (1, 4)
        patterns = osc.level_patterns(3, 3)
        target = hermite_product_vector(patterns, {(3, 0): 1.0, (1, 2): -3.0})
        residual = target - salc.vectors.T @ (salc.vectors @ target)
        assert np.linalg.norm(residual) < 1e-8

    def test_nsym3_a1_span(self, model3, t3):
        lv = osc.make_level(model3, 3, 0)
        salc = ls.salc(model3, lv, t3, "A1")
        patterns = osc.level_patterns(3, 3)
        target = hermite_product_vector(patterns, {(2, 1): 3.0, (0, 3): -1.0})
        residual = target - salc.vectors.T @ (salc.vectors @ target)
        assert np.linalg.norm(residual) < 1e-8

    def test_empty_when_absent(self, model3, t3):
        lv = osc.make_level(model3, 0, 0)
        salc = ls.salc(model3, lv, t3, "A2")
        assert salc.copies == 0
        assert salc.vectors.shape[0] == 0

    def test_vectors_orthonormal(self, model4, t4):
        lv = osc.make_level(model4, 3, 0)
        for label in ("A1", "T1", "T2"):
            salc = ls.salc(model4, lv, t4, label)
            gram = salc.vectors @ salc.vectors.T
            assert np.abs(gram - np.eye(len(gram))).max() < 1e-9

    def test_projector_consistency(self, model3, t3):
        """P_Gamma reproduces its own SALCs and annihilates the others."""
        lv = osc.make_level(model3, 3, 0)
        salcs = {lbl: ls.salc(model3, lv, t3, lbl) for lbl in ("A1", "A2", "E")}
        projs = {
            lbl: ls.character_projector(model3, lv, t3, lbl)
            for lbl in ("A1", "A2", "E")
        }
        for lbl, salc in salcs.items():
            for vec in salc.vectors:
                assert np.linalg.norm(projs[lbl] @ vec - vec) < 1e-9
                for other, proj in projs.items():
                    if other != lbl:
                        assert np.linalg.norm(proj @ vec) < 1e-9

    @pytest.mark.parametrize("n,max_nsym", [(3, 6), (4, 4)])
    def test_sign_convention(self, n, max_nsym):
        """In every vector the first component above the rank tolerance is
        positive, whichever signs the SVD picked."""
        model = osc.make_model(n, 0.1)
        table = sg.character_table(n)
        for n_sym in range(max_nsym + 1):
            lv = osc.make_level(model, n_sym, 0)
            for irrep in table.irreps:
                for vec in ls.salc(model, lv, table, irrep).vectors:
                    assert vec[np.abs(vec) > 1e-8][0] > 0

    def test_counts_match_multiplicity_times_dimension(self, model4, t4):
        lv = osc.make_level(model4, 4, 0)
        mults = ls.irrep_multiplicities(ls.level_characters(model4, lv), t4)
        for ir, m in mults.items():
            salc = ls.salc(model4, lv, t4, ir)
            assert salc.vectors.shape[0] == m * ir.dimension


class TestAllPermEigenfunctionIrreps:
    def test_shipped_tables(self, t3, t4):
        assert {ir.label for ir in ls.all_perm_eigenfunction_irreps(t3)} == {"A1", "A2"}
        assert {ir.label for ir in ls.all_perm_eigenfunction_irreps(t4)} == {"A1", "A2"}

    def test_all_one_dimensional_table(self):
        classes = sg.conjugacy_classes(2)
        table = sg.CharacterTable(
            group_name="S2",
            n=2,
            classes=classes,
            class_labels=("E", "sigma"),
            irreps=(sg.IrrepId("A1", 1), sg.IrrepId("A2", 1)),
            chars=((1, 1), (1, -1)),
        )
        assert ls.all_perm_eigenfunction_irreps(table) == set(table.irreps)


class TestNsym4Content:
    def test_n3_nsym4_is_a1_plus_two_e(self, model3, t3):
        # five states: h4 of the pair of degenerate modes gives A1 + 2E
        got = mult_labels(model3, osc.make_level(model3, 4, 0), t3)
        assert got == {"A1": 1, "E": 2}

    def test_n4_projector_consistency(self, model4, t4):
        lv = osc.make_level(model4, 2, 0)
        labels = [ir.label for ir in t4.irreps]
        salcs = {lbl: ls.salc(model4, lv, t4, lbl) for lbl in labels}
        projs = {
            lbl: ls.character_projector(model4, lv, t4, lbl) for lbl in labels
        }
        for lbl, salc_set in salcs.items():
            for vec in salc_set.vectors:
                assert np.linalg.norm(projs[lbl] @ vec - vec) < 1e-9
                for other, proj in projs.items():
                    if other != lbl:
                        assert np.linalg.norm(proj @ vec) < 1e-9

"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion as it executes.

Criterion 4 is split: 4a carries the attainable assertions; 4b asserts the
documented content of the ten-fold N=4, n_sym=3 level literally, which
contradicts its own degeneracy (the listed irreps total nine functions, not
ten) and is expected to stay red.  The trace route, the character power
formula, eigenvalue enumeration, and explicit projectors all give
A1 + T1 + 2 T2 for that level; see test_levelsym.py.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import energies, first_quantized_determinant_matrix
from permsym import ci as cimod
from permsym import cli
from permsym import levelsym as ls
from permsym import oscillator as osc
from permsym import spin
from permsym import symgroup as sg

from test_levelsym import hermite_product_vector, mult_labels
from test_symgroup import mat_mul, regular_projectors


class _report:
    def __init__(self, tag, desc):
        self.tag, self.desc = tag, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.tag:>3}] {status}: {self.desc}")
        return False


def test_criterion_01_character_tables(t3, t4):
    with _report("1", "shipped tables match the printed C3v table and both "
                 "pass exact orthogonality"):
        printed = {  # columns (E, 2C3, 3sigma_v)
            "A1": (1, 1, 1),
            "A2": (1, 1, -1),
            "E": (2, -1, 0),
        }
        for label, (chi_e, chi_c3, chi_sv) in printed.items():
            assert t3.char(label, (1, 1, 1)) == chi_e
            assert t3.char(label, (3,)) == chi_c3
            assert t3.char(label, (2, 1)) == chi_sv
        assert sg.validate_table(t3) is None
        assert sg.validate_table(t4) is None


def test_criterion_02_irrep_content_n3(model3, t3):
    with _report("2", "N=3 irrep content for n_sym = 0..4 from traces, "
                 "rounding guard below 1e-6"):
        expected = {
            0: {"A1": 1},
            1: {"E": 1},
            2: {"A1": 1, "E": 1},
            3: {"A1": 1, "A2": 1, "E": 1},
        }
        worst = 0.0
        for n_sym in range(5):
            level = osc.make_level(model3, n_sym, 0)
            for trace in ls.level_characters(3, n_sym).values():
                worst = max(worst, abs(trace - round(trace)))
            mults = ls.irrep_multiplicities(3, n_sym)
            got = {ir: m for ir, m in mults.items() if m}
            if n_sym in expected:
                assert got == expected[n_sym], f"n_sym={n_sym}: {got}"
            assert sum(t3.dimension(ir) * m for ir, m in mults.items()) == level.degeneracy
        assert worst < 1e-6


def test_criterion_03_salc_reproduction(model3, t3):
    with _report("3", "printed symmetry-adapted combinations lie in their "
                 "projected spans (residual < 1e-8)"):
        lv2 = osc.make_level(model3, 2, 0)
        pat2 = osc.level_patterns(3, 2)
        a1 = ls.salc(model3, lv2, t3, "A1")
        target = hermite_product_vector(pat2, {(2, 0): 1.0, (0, 2): 1.0})
        assert np.linalg.norm(target - a1.T @ (a1 @ target)) < 1e-8

        lv3 = osc.make_level(model3, 3, 0)
        pat3 = osc.level_patterns(3, 3)
        a2 = ls.salc(model3, lv3, t3, "A2")
        target = hermite_product_vector(pat3, {(3, 0): 1.0, (1, 2): -3.0})
        assert np.linalg.norm(target - a2.T @ (a2 @ target)) < 1e-8

        a1_3 = ls.salc(model3, lv3, t3, "A1")
        target = hermite_product_vector(pat3, {(2, 1): 3.0, (0, 3): -1.0})
        assert np.linalg.norm(target - a1_3.T @ (a1_3 @ target)) < 1e-8


def test_criterion_04a_irrep_content_n4(model4, t4):
    with _report("4a", "N=4 content at n_sym = 1, 2; A2 absent below "
                 "n_sym = 6 and present there; degeneracy formula"):
        assert mult_labels(model4, osc.make_level(model4, 1, 0), t4) == {"T2": 1}
        assert mult_labels(model4, osc.make_level(model4, 2, 0), t4) == {
            "A1": 1, "E": 1, "T2": 1,
        }
        for n_sym in range(6):
            got = mult_labels(model4, osc.make_level(model4, n_sym, 0), t4)
            assert got.get("A2", 0) == 0
        assert mult_labels(model4, osc.make_level(model4, 6, 0), t4)["A2"] >= 1
        for n_sym in range(11):
            assert osc.level_degeneracy(4, n_sym) == (n_sym + 1) * (n_sym + 2) // 2


def test_criterion_04b_nsym3_content_as_documented(model4, t4):
    with _report("4b", "N=4 content at n_sym = 3 equals A1+E+T1+T2 as "
                 "documented (dimensionally impossible for 10 states)"):
        got = mult_labels(model4, osc.make_level(model4, 3, 0), t4)
        assert got == {"A1": 1, "E": 1, "T1": 1, "T2": 1}


def test_criterion_05_multiplet_tables():
    with _report("5", "spin multiplets: one quadruplet + two doublets (N=3); "
                 "one quintuplet + three triplets + two singlets (N=4)"):
        assert spin.multiplet_table(3) == {1.5: 1, 0.5: 2}
        assert spin.multiplet_table(4) == {2.0: 1, 1.0: 3, 0.0: 2}


def test_criterion_06_allowed_irrep_law():
    with _report("6", "allowed-irrep law by characters, confirmed "
                 "constructively for every (N, irrep) pair"):
        a3 = spin.allowed_spatial_irreps(3)
        assert a3 == {"A1": (), "A2": (1.5,), "E": (0.5,)}
        a4 = spin.allowed_spatial_irreps(4)
        assert a4 == {
            "A1": (), "A2": (2.0,), "E": (0.0,), "T1": (1.0,), "T2": (),
        }
        for n, amap in ((3, a3), (4, a4)):
            assert spin.constructive_spatial_irreps(n) == amap, f"N={n}"


def test_criterion_07_missing_levels_n3(model3, ci3_m10, tmp_path):
    with _report("7", "N=3, xi=0.1, M=10: lowest CI at the first allowed "
                 "level within 1e-4; E_00j levels missing; compare exits 0"):
        lowest_allowed = 2 * math.sqrt(0.9) + 0.5 * math.sqrt(1.2)
        assert abs(ci3_m10[0]["energy"] - lowest_allowed) < 1e-4
        levels = osc.enumerate_levels(model3, 4)
        report = cimod.compare(
            model3, ci3_m10, 4, spin.allowed_spatial_irreps(3), tol=1e-4
        )
        for lv in levels:
            if lv.n_sym == 0 and lv.energy < report.horizon:
                assert np.abs(energies(ci3_m10) - lv.energy).min() > 0.05
        missing_keys = {m["quanta_key"] for m in report.missing}
        expected_missing = {
            lv.quanta_key
            for lv in levels
            if lv.n_sym == 0 and lv.energy < report.horizon
        }
        assert expected_missing and expected_missing <= missing_keys
        assert report.ok

        out = tmp_path / "compare3.json"
        rc = cli.main([
            "compare", "--n", "3", "--xi", "0.1", "--orbitals", "10",
            "--max-quanta", "4", "--tol", "1e-4", "--output", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["ok"] is True


def test_criterion_08_missing_levels_n4(model4, ci4_m8):
    with _report("8", "N=4, xi=0.1, M=8: lowest CI state is a singlet at the "
                 "n_sym=2 level within 5e-3; n_sym = 0, 1 levels missing"):
        target = 3.5 * math.sqrt(0.9) + 0.5 * math.sqrt(1.3)
        assert abs(ci4_m8[0]["energy"] - target) < 5e-3
        assert ci4_m8[0]["S"] == 0.0
        levels = osc.enumerate_levels(model4, 3)
        report = cimod.compare(
            model4, ci4_m8, 3, spin.allowed_spatial_irreps(4), tol=5e-3
        )
        missing_keys = {m["quanta_key"] for m in report.missing}
        for lv in levels:
            if lv.n_sym in (0, 1) and lv.energy < report.horizon:
                assert lv.quanta_key in missing_keys
        assert report.ok


def test_criterion_09_oracle_equivalence(model3):
    with _report("9", "brute-force product-basis oracle reproduces the "
                 "closed form to 1e-5; the CI matrix matches the "
                 "first-quantized oracle to 1e-10"):
        spectrum = oracles.product_basis_oracle(model3, 8)
        assert abs(spectrum[0][0] - 1.4964059) < 1e-5
        for n_sym, n_last in [(0, 0), (1, 0), (0, 1), (2, 0)]:
            exact = osc.level_energy(model3, n_sym, n_last)
            assert min(abs(e - exact) for e, _ in spectrum) < 1e-5
        basis, oracle = first_quantized_determinant_matrix(model3, 4)
        h = cimod.hamiltonian_matrix(model3, basis)
        assert np.abs(h - oracle).max() < 1e-10


def test_criterion_10_property_suites(model3, ci3_m10, basis3_m10):
    with _report("10", "projector algebra exact in the regular rep; "
                 "representation homomorphism to 1e-9; variational "
                 "monotonicity; <S^2> = S(S+1) within 1e-6"):
        # exact projector algebra for both shipped groups
        for n in (3, 4):
            table = sg.character_table(n)
            projs = regular_projectors(table)
            size = math.factorial(n)
            total = [[Fraction(0)] * size for _ in range(size)]
            for irrep, mat in projs.items():
                assert mat_mul(mat, mat) == mat
                assert sum(mat[i][i] for i in range(size)) == table.dimension(irrep) ** 2
                for i in range(size):
                    for j in range(size):
                        total[i][j] += mat[i][j]
            for (i1, m1), (i2, m2) in itertools.combinations(projs.items(), 2):
                assert all(x == 0 for row in mat_mul(m1, m2) for x in row)
            assert all(
                total[i][j] == (1 if i == j else 0)
                for i in range(size)
                for j in range(size)
            )

        # exhaustive homomorphism for N = 3, 4 up to n_sym = 6
        for n in (3, 4):
            perms = sg.all_permutations(n)
            for n_sym in range(7):
                mats = {p: osc.permutation_action_matrix(n, n_sym, p) for p in perms}
                for p in perms:
                    for q in perms:
                        lhs = mats[p] @ mats[q]
                        rhs = mats[sg.compose(p, q)]
                        assert np.abs(lhs - rhs).max() < 1e-9

        # variational monotonicity of the CI ground state
        previous = None
        for m_orb in (4, 6, 8, 10):
            basis = cimod.build_basis(3, m_orb, ms=0.5)
            e0 = cimod.ci_solve(model3, basis)[0]["energy"]
            if previous is not None:
                assert e0 <= previous + 1e-12
            previous = e0

        # <S^2> equals S(S+1) for every eigenvector of the M=10 run
        s2 = cimod.s_squared_matrix(list(basis3_m10))
        vecs = oracles.eigenvectors(model3, basis3_m10, ci3_m10)
        for j, state in enumerate(ci3_m10):
            vec = vecs[:, j]
            assert abs(vec @ s2 @ vec - state["S"] * (state["S"] + 1)) < 1e-6

import math
import warnings

import numpy as np
import pytest

import oracles
from permsym import oscillator as osc
from permsym import symgroup as sg
from permsym.errors import NumericalIntegrityError


def spacings(model):
    """(sqrt(k), sqrt(k')): the level spacing in n_sym and in n_last."""
    ground = osc.level_energy(model, 0, 0)
    return osc.level_energy(model, 1, 0) - ground, osc.level_energy(model, 0, 1) - ground


class TestMakeModel:
    def test_n3_constants(self):
        m = osc.make_model(3, 0.1)
        assert m == (3, 0.1)
        root_k, root_k_prime = spacings(m)
        assert root_k**2 == pytest.approx(0.9, abs=1e-15)
        assert root_k_prime**2 == pytest.approx(1.2, abs=1e-15)

    def test_n4_constants(self):
        m = osc.make_model(4, 0.1)
        assert m == (4, 0.1)
        root_k, root_k_prime = spacings(m)
        assert root_k**2 == pytest.approx(0.9, abs=1e-15)
        assert root_k_prime**2 == pytest.approx(1.3, abs=1e-15)

    def test_xi_is_a_float(self):
        assert osc.make_model(4, 0) == (4, 0.0)
        assert type(osc.make_model(4, 0)[1]) is float

    def test_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            osc.make_model(3, 1.5)
        with pytest.raises(ValueError):
            osc.make_model(3, -0.5)
        with pytest.raises(ValueError):
            osc.make_model(4, -0.34)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            osc.make_model(5, 0.1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_u_orthogonal(self, n):
        u = osc.normal_modes(n)
        assert np.abs(u @ u.T - np.eye(n)).max() < 1e-12
        # built and checked once per N, and shared read-only
        assert osc.normal_modes(n) is u
        assert not u.flags.writeable

    @pytest.mark.parametrize("n", [3, 4])
    def test_last_row_uniform(self, n):
        assert np.allclose(osc.normal_modes(n)[-1], 1.0 / math.sqrt(n), atol=1e-15)

    def test_nonuniform_symmetric_mode_rejected(self, monkeypatch):
        # still orthogonal, but the symmetric mode is no longer the last row,
        # so some permutation would move it into the degenerate modes
        shipped = osc._normal_mode_matrix
        monkeypatch.setattr(
            osc, "_normal_mode_matrix", lambda n: shipped(n)[[0, 1, 3, 2]]
        )
        with pytest.raises(NumericalIntegrityError, match="symmetric mode"):
            osc.normal_modes.__wrapped__(4)

    def test_u_matches_mode_definitions(self):
        # y1 = (x2 - x3)/sqrt(2), y2 = (2x1 - x2 - x3)/sqrt(6) for N=3
        x = np.array([0.3, -1.2, 0.7])
        y = osc.normal_modes(3) @ x
        assert y[0] == pytest.approx((x[1] - x[2]) / math.sqrt(2))
        assert y[1] == pytest.approx((2 * x[0] - x[1] - x[2]) / math.sqrt(6))
        assert y[2] == pytest.approx(x.sum() / math.sqrt(3))
        # y1 = (x1 - x4)/sqrt(2), y3 = (x1 - x2 - x3 + x4)/2 for N=4
        x = np.array([0.5, -0.25, 1.5, 2.0])
        y = osc.normal_modes(4) @ x
        assert y[0] == pytest.approx((x[0] - x[3]) / math.sqrt(2))
        assert y[1] == pytest.approx((x[1] - x[2]) / math.sqrt(2))
        assert y[2] == pytest.approx((x[0] - x[1] - x[2] + x[3]) / 2)
        assert y[3] == pytest.approx(x.sum() / 2)


class TestExactEnergy:
    def test_ground_n3_frozen_value(self):
        # sqrt(0.9) + 0.5*sqrt(1.2), cross-checked against the dense
        # product-basis diagonalization below
        m = osc.make_model(3, 0.1)
        assert oracles.exact_energy(m, (0, 0, 0)) == pytest.approx(1.4964059, abs=5e-8)

    def test_ground_n4_frozen_value(self):
        m = osc.make_model(4, 0.1)
        energy = oracles.exact_energy(m, (0, 0, 0, 0))
        assert energy == pytest.approx(1.9931126, abs=1e-7)

    def test_uncoupled_ladder(self):
        m = osc.make_model(3, 0.0)
        for pattern in [(0, 0, 0), (1, 2, 0), (3, 1, 4)]:
            assert oracles.exact_energy(m, pattern) == pytest.approx(
                sum(pattern) + 1.5, abs=1e-14
            )

    def test_against_product_basis_oracle(self, model3):
        spectrum = oracles.product_basis_oracle(model3, 8)
        assert abs(spectrum[0][0] - oracles.exact_energy(model3, (0, 0, 0))) < 1e-5

    def test_bad_pattern(self, model3):
        with pytest.raises(ValueError):
            oracles.exact_energy(model3, (0, 0))
        with pytest.raises(ValueError):
            oracles.exact_energy(model3, (0, -1, 0))


class TestEnumerateLevels:
    def test_degeneracies_n3(self, model3):
        levels = osc.enumerate_levels(model3, 2)
        by_key = {lv.quanta_key: lv for lv in levels}
        for (ns, nl), lv in by_key.items():
            assert lv.degeneracy == ns + 1

    def test_degeneracy_n4_nsym3(self, model4):
        lv = osc.make_level(model4, 3, 0)
        assert lv.degeneracy == 10

    @pytest.mark.parametrize("n", [3, 4])
    def test_degeneracy_formula_up_to_10(self, n):
        for n_sym in range(11):
            expected = n_sym + 1 if n == 3 else (n_sym + 1) * (n_sym + 2) // 2
            assert osc.level_degeneracy(n, n_sym) == expected

    def test_uncoupled_cutoff_zero(self):
        m = osc.make_model(3, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            levels = osc.enumerate_levels(m, 0)
        assert len(levels) == 1
        assert levels[0].energy == pytest.approx(1.5)
        assert levels[0].degeneracy == 1

    def test_sorted_by_energy(self, model3):
        levels = osc.enumerate_levels(model3, 5)
        energies = [lv.energy for lv in levels]
        assert energies == sorted(energies)

    def test_parity_labels(self, model3):
        for lv in osc.enumerate_levels(model3, 3):
            assert lv.parity == (-1) ** (lv.n_sym + lv.n_last)

    def test_accidental_coincidence_warns(self):
        # k' = 4k at xi = 0.5 for N=3: sqrt(k') = 2 sqrt(k), so the keys
        # (2, 0) and (0, 1) collide in energy but stay distinct levels
        m = osc.make_model(3, 0.5)
        with pytest.warns(UserWarning, match="coincidence"):
            levels = osc.enumerate_levels(m, 2)
        keys = {lv.quanta_key for lv in levels}
        assert (2, 0) in keys and (0, 1) in keys


class TestHermite:
    def test_first_three(self):
        assert oracles.hermite_poly(0) == (1,)
        assert oracles.hermite_poly(1) == (0, 2)
        assert oracles.hermite_poly(2) == (-2, 0, 4)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_recurrence(self, n):
        hn = oracles.hermite_poly(n)
        hm1 = oracles.hermite_poly(n - 1)
        hm2 = oracles.hermite_poly(n - 2)
        # H_n = 2 q H_{n-1} - 2(n-1) H_{n-2}
        lhs = list(hn)
        rhs = [0] * (n + 1)
        for i, c in enumerate(hm1):
            rhs[i + 1] += 2 * c
        for i, c in enumerate(hm2):
            rhs[i] -= 2 * (n - 1) * c
        assert lhs == rhs


class TestEigenfunction:
    def test_constant_for_symmetric_excitations(self, model3):
        for j in range(3):
            f = oracles.eigenfunction(model3, (0, 0, j))
            assert set(f.poly.keys()) == {(0, 0)}

    def test_first_hermite(self, model3):
        f = oracles.eigenfunction(model3, (1, 0, 0))
        assert f.poly == {(1, 0): 2.0}

    def test_second_hermite_scaling(self, model3):
        # polynomial in scaled coordinates is H_2(q1) = 4 q1^2 - 2,
        # i.e. 4 sqrt(k) y1^2 - 2 in mode coordinates
        f = oracles.eigenfunction(model3, (2, 0, 0))
        assert f.poly[(2, 0)] == pytest.approx(4.0)
        assert f.poly[(0, 0)] == pytest.approx(-2.0)

    @pytest.mark.parametrize("pattern", [(0, 0, 0), (2, 1, 1), (0, 3, 2)])
    def test_parity_under_inversion(self, model3, pattern):
        f = oracles.eigenfunction(model3, pattern)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 3))
        vals = f.evaluate(pts)
        flipped = f.evaluate(-pts)
        sign = (-1) ** sum(pattern)
        assert np.abs(flipped - sign * vals).max() < 1e-12


class TestPermutationAction:
    def test_identity(self, model3):
        lv = osc.make_level(model3, 2, 0)
        d = osc.permutation_action_matrix(3, lv.n_sym, oracles.identity(3))
        assert np.allclose(d, np.eye(3), atol=1e-12)

    def test_scalar_one_on_symmetric_level(self, model3, model4):
        for model in (model3, model4):
            lv = osc.make_level(model, 0, 2)
            for p in sg.all_permutations(model[0]):
                d = osc.permutation_action_matrix(model[0], lv.n_sym, p)
                assert d.shape == (1, 1)
                assert d[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_transposition_traceless_on_nsym1(self, model3):
        lv = osc.make_level(model3, 1, 0)
        for i in range(1, 3):
            for j in range(i + 1, 4):
                d = osc.permutation_action_matrix(
                    3, lv.n_sym, oracles.transposition(3, i, j)
                )
                assert abs(np.trace(d)) < 1e-12

    @pytest.mark.parametrize("n,max_nsym", [(3, 6), (4, 6)])
    def test_homomorphism_and_orthogonality_exhaustive(self, n, max_nsym):
        model = osc.make_model(n, 0.1)
        perms = sg.all_permutations(n)
        for n_sym in range(max_nsym + 1):
            lv = osc.make_level(model, n_sym, 0)
            mats = {p: osc.permutation_action_matrix(n, n_sym, p) for p in perms}
            dim = lv.degeneracy
            for p in perms:
                dp = mats[p]
                assert np.abs(dp @ dp.T - np.eye(dim)).max() < 1e-9
                for q in perms:
                    dq = mats[q]
                    dpq = mats[sg.compose(p, q)]
                    assert np.abs(dp @ dq - dpq).max() < 1e-9

    def test_deep_level_orthogonal_representation(self, model3):
        """The one-quantum step is an isometry for orthogonal mode maps, so
        rounding does not compound with the degree: at n_sym 200 the
        matrices stay an orthogonal representation to 1e-12."""
        lv = osc.make_level(model3, 200, 0)
        perms = sg.all_permutations(3)
        mats = {p: osc.permutation_action_matrix(3, lv.n_sym, p) for p in perms}
        for p in perms:
            dp = mats[p]
            assert np.abs(dp @ dp.T - np.eye(lv.degeneracy)).max() <= 1e-12
            for q in perms:
                dpq = mats[sg.compose(p, q)]
                assert np.abs(dp @ mats[q] - dpq).max() <= 1e-12

    @pytest.mark.parametrize(
        "n,pattern",
        [(3, (2, 1, 1)), (3, (0, 3, 0)), (4, (1, 0, 2, 1))],
    )
    def test_matrix_matches_pointwise_function_action(self, n, pattern):
        """D(p) must reproduce the actual substitution action on the
        eigenfunctions, checked on random points."""
        model = osc.make_model(n, 0.1)
        n_sym = sum(pattern[:-1])
        n_last = pattern[-1]
        lv = osc.make_level(model, n_sym, n_last)
        patterns = osc.level_patterns(n, n_sym)
        funcs = [
            oracles.eigenfunction(model, pat + (n_last,)) for pat in patterns
        ]
        col = patterns.index(pattern[:-1])
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(25, n))
        for p in sg.all_permutations(n):
            d = osc.permutation_action_matrix(model[0], lv.n_sym, p)
            # (p f)(x) = f(x_{p[0]}, ..., x_{p[N-1]})
            permuted_pts = pts[:, [i - 1 for i in p]]
            lhs = funcs[col].evaluate(permuted_pts)
            rhs = sum(
                d[row, col] * funcs[row].evaluate(pts)
                for row in range(len(patterns))
            )
            scale = np.abs(lhs).max()
            assert np.abs(lhs - rhs).max() < 1e-9 * max(scale, 1.0)

    def test_level_span_invariance(self, model3):
        # permuting an eigenfunction stays inside its level's span
        lv = osc.make_level(model3, 3, 1)
        for p in sg.all_permutations(3):
            d = osc.permutation_action_matrix(3, lv.n_sym, p)
            # columns must have unit norm: nothing leaks out of the span
            norms = np.linalg.norm(d, axis=0)
            assert np.abs(norms - 1.0).max() < 1e-9


class TestUncoupledExpansion:
    @pytest.mark.parametrize(
        "n,n_sym,n_last", [(3, 2, 1), (3, 4, 0), (4, 3, 0), (3, 12, 0)]
    )
    def test_rows_orthonormal(self, n, n_sym, n_last):
        _, coeffs = osc.uncoupled_expansion(n, n_sym, n_last)
        gram = coeffs @ coeffs.T
        assert np.abs(gram - np.eye(len(gram))).max() < 1e-12

    def test_pointwise_agreement_at_zero_coupling(self):
        """At xi=0 the expansion must reproduce the eigenfunction values."""
        m = osc.make_model(3, 0.0)
        n_sym, n_last = 2, 1
        patterns = osc.level_patterns(3, n_sym)
        orb_patterns, coeffs = osc.uncoupled_expansion(3, n_sym, n_last)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))

        def orbital(nq, x):
            h = np.polynomial.hermite.hermval(x, [0.0] * nq + [1.0])
            norm = 1.0 / math.sqrt(2.0**nq * math.factorial(nq) * math.sqrt(math.pi))
            return norm * h * np.exp(-0.5 * x**2)

        for a, pat in enumerate(patterns):
            f = oracles.eigenfunction(m, pat + (n_last,))
            lhs = f.evaluate(pts)
            rhs = np.zeros(len(pts))
            for j, mpat in enumerate(orb_patterns):
                if abs(coeffs[a, j]) < 1e-15:
                    continue
                term = np.ones(len(pts)) * coeffs[a, j]
                for particle, nq in enumerate(mpat):
                    term = term * orbital(nq, pts[:, particle])
                rhs += term
            assert np.abs(lhs - rhs).max() < 1e-12


class TestMoreEdges:
    def test_negative_cutoff(self, model3):
        with pytest.raises(ValueError):
            osc.enumerate_levels(model3, -1)

    def test_cutoff_bound(self, model3):
        top = osc.MAX_TOTAL_QUANTA
        assert len(osc.enumerate_levels(model3, top)) == (top + 1) * (top + 2) // 2
        with pytest.raises(ValueError, match=f"above the {top}-quanta bound"):
            osc.enumerate_levels(model3, top + 1)

    def test_negative_hermite_degree(self):
        with pytest.raises(ValueError):
            oracles.hermite_poly(-1)

    def test_action_matrix_size_mismatch(self, model4):
        lv = osc.make_level(model4, 1, 0)
        with pytest.raises(ValueError):
            osc.permutation_action_matrix(4, lv.n_sym, (2, 1, 3))


class TestModeActionCorrespondence:
    def test_reflection_and_rotation_classes(self, model3):
        """The transposition fixing particle 1 reflects y1; a 3-cycle acts
        as a proper rotation by 120 degrees on the degenerate pair.  Level
        (1, 0) carries the mode representation itself, in the basis y2, y1."""
        lv = osc.make_level(model3, 1, 0)
        assert osc.level_patterns(3, 1) == [(0, 1), (1, 0)]
        d = osc.permutation_action_matrix(3, lv.n_sym, (1, 3, 2))
        assert np.abs(d - np.diag([1.0, -1.0])).max() < 1e-12
        d = osc.permutation_action_matrix(3, lv.n_sym, (3, 1, 2))
        assert np.trace(d) == pytest.approx(-1.0, abs=1e-12)   # 2 cos(120deg)
        assert np.linalg.det(d) == pytest.approx(1.0, abs=1e-12)

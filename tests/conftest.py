"""Shared fixtures and independent oracles for the test suite."""

import itertools
import math

import numpy as np
import pytest

from permsym import ci as cimod
from permsym import oscillator, symgroup


@pytest.fixture(scope="session")
def t3():
    return symgroup.character_table(3)


@pytest.fixture(scope="session")
def t4():
    return symgroup.character_table(4)


@pytest.fixture(scope="session")
def model3():
    return oscillator.make_model(3, 0.1)


@pytest.fixture(scope="session")
def model4():
    return oscillator.make_model(4, 0.1)


@pytest.fixture(scope="session")
def basis3_m10():
    """The N=3, M=10, Ms=+1/2 determinant basis."""
    return cimod.build_basis(3, 10, ms=0.5)


@pytest.fixture(scope="session")
def ci3_m10(model3, basis3_m10):
    """Full CI states for N=3, M=10, Ms=+1/2 (reused across tests)."""
    return cimod.ci_solve(model3, basis3_m10)


@pytest.fixture(scope="session")
def ci4_m8(model4):
    """Full CI states for N=4, M=8, Ms=0."""
    basis = cimod.build_basis(4, 8, ms=0.0)
    return cimod.ci_solve(model4, basis)


def energies(states):
    """The energies of CI states as an array, in state order."""
    return np.array([st["energy"] for st in states])


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def first_quantized_determinant_matrix(model, n_orbitals):
    """Independent oracle for the Slater-Condon Hamiltonian.

    Builds H explicitly on the (2M)^N spin-orbital product space (one-body
    oscillator terms plus the pair coupling, spin untouched), antisymmetrizes
    each determinant basis vector by the explicit N!-term sum, and projects.
    Entirely free of Slater-Condon logic.
    """
    n, xi = model
    nso = 2 * n_orbitals
    h1 = np.zeros((nso, nso))
    x1 = np.zeros((nso, nso))
    for a in range(nso):
        h1[a, a] = a // 2 + 0.5
        for b in range(nso):
            if a % 2 == b % 2 and abs(a // 2 - b // 2) == 1:
                x1[a, b] = math.sqrt(max(a // 2, b // 2) / 2.0)
    eye = np.eye(nso)

    def chain(ops):
        out = np.array([[1.0]])
        for op in ops:
            out = np.kron(out, op)
        return out

    dim = nso**n
    h = np.zeros((dim, dim))
    for site in range(n):
        h += chain(h1 if k == site else eye for k in range(n))
    for i, j in itertools.combinations(range(n), 2):
        h += xi * chain(x1 if k in (i, j) else eye for k in range(n))

    basis = cimod.build_basis(n, n_orbitals)
    cols = np.zeros((dim, len(basis)))
    for col, det in enumerate(basis):
        for p in itertools.permutations(range(n)):
            idx = 0
            for k in range(n):
                idx = idx * nso + det[p[k]]
            cols[idx, col] += perm_sign(p) / math.sqrt(math.factorial(n))
    return basis, cols.T @ h @ cols

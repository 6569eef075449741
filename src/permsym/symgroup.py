"""Permutations of N labels, conjugacy classes, and character tables.

Ships validated integer character tables for S3 (point-group alias C3v) and
S4 (alias O), and the character inner product that decomposes any
representation given by its integer traces.  Everything in this module is
integer arithmetic; no floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import NumericalIntegrityError

CycleType = tuple[int, ...]


#: a permutation of the labels 1..N as its image tuple: p[i - 1] is the
#: image of label i.  ``compose(p, q)`` means "apply q first, then p".
Permutation = tuple[int, ...]


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles (fixed points included), each starting at its
    smallest label, listed by ascending smallest label.  Raises ValueError
    unless p is a bijection of 1..N."""
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a bijection of 1..{len(p)}: {p!r}")
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = p[start - 1]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = p[cur - 1]
        out.append(tuple(cyc))
    return out


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition "apply q, then p"."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: N={len(p)} vs N={len(q)}")
    return tuple(p[i - 1] for i in q)


def parity(p: Permutation) -> int:
    """+1 for even permutations, -1 for odd (one transposition is odd)."""
    transpositions = sum(len(c) - 1 for c in cycles(p))
    return -1 if transpositions % 2 else +1


def cycle_type(p: Permutation) -> CycleType:
    """Cycle lengths in weakly decreasing order; a partition of N.

    Two permutations are conjugate in S_N iff their cycle types agree.
    """
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def all_permutations(n: int) -> list[Permutation]:
    """All N! permutations in lexicographic image order (identity first)."""
    return list(itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# conjugacy classes


def partitions(n: int) -> list[CycleType]:
    """All partitions of n as weakly decreasing tuples."""
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def class_size(ct: CycleType) -> int:
    """Number of permutations with this cycle type: N! / prod(m_i! * i^m_i)."""
    n = sum(ct)
    denom = 1
    for length in set(ct):
        mult = ct.count(length)
        denom *= math.factorial(mult) * length**mult
    return math.factorial(n) // denom


def element_order(ct: CycleType) -> int:
    """The lcm of the cycle lengths: the period of every member."""
    return math.lcm(*ct)


def class_representative(ct: CycleType) -> Permutation:
    """Canonical member: cycles filled with consecutive labels, e.g.
    (3, 1) -> the permutation with cycle (1 2 3) and fixed point 4."""
    images = []
    start = 1
    for length in ct:
        block = list(range(start, start + length))
        for idx, label in enumerate(block):
            images.append(block[(idx + 1) % length])
        start += length
    # images currently indexed by label order within blocks, which is 1..N
    return tuple(images)


def _class_sort_key(ct: CycleType):
    # Identity first, then classes by ascending number of moved points;
    # among equal moved counts, fewer nontrivial cycles first (so for S4:
    # transpositions, 3-cycles, 4-cycles, double transpositions).
    moved = sum(length for length in ct if length > 1)
    nontrivial = sum(1 for length in ct if length > 1)
    return (moved, nontrivial, tuple(-length for length in ct))


def conjugacy_classes(n: int) -> tuple[CycleType, ...]:
    """Conjugacy classes of S_N, each as its cycle type (its size and
    element order are :func:`class_size` and :func:`element_order`).

    Ordering is canonical (documented in :func:`_class_sort_key`); class
    sizes always sum to N!.
    """
    if n < 2:
        raise ValueError(f"conjugacy classes require N >= 2, got {n}")
    return tuple(sorted(partitions(n), key=_class_sort_key))


# ---------------------------------------------------------------------------
# character tables


@dataclass(frozen=True)
class CharacterTable:
    """Integer character table of S_N, classes in canonical order.

    ``class_labels`` carry the point-group alias of each class as display
    metadata; the one-to-one operator correspondence is fixed by matching
    class size and element order, and any consistent assignment yields the
    same multiplicities downstream.
    """

    group_name: str
    n: int
    classes: tuple[CycleType, ...]
    class_labels: tuple[str, ...]
    irreps: tuple[str, ...]                     # labels, in row order
    chars: tuple[tuple[int, ...], ...]          # rows = irreps, cols = classes

    def char(self, label: str, ct: CycleType) -> int:
        if label not in self.irreps:
            raise ValueError(f"no irrep labelled {label!r}")
        return self.chars[self.irreps.index(label)][self.classes.index(ct)]

    def dimension(self, label: str) -> int:
        """The irrep's dimension: its character on the identity class."""
        return self.char(label, (1,) * self.n)

    def to_dict(self) -> dict:
        return {
            "group_name": self.group_name,
            "n": self.n,
            "classes": [
                {
                    "cycle_type": list(ct),
                    "size": class_size(ct),
                    "order": element_order(ct),
                    "label": lbl,
                }
                for ct, lbl in zip(self.classes, self.class_labels)
            ],
            "irreps": [
                {"label": ir, "dimension": row[0]}
                for ir, row in zip(self.irreps, self.chars)
            ],
            "characters": {ir: list(row) for ir, row in zip(self.irreps, self.chars)},
        }


# Literal tables, classes in canonical order (see conjugacy_classes).
# S3 classes: identity, 3 transpositions, 2 three-cycles.  Operator-level
# correspondence with C3v (image tuples, "apply" convention of
# compose): sigma_v1 = (1,3,2), sigma_v2 = (3,2,1), sigma_v3 = (2,1,3);
# C3 = (3,1,2), C3^2 = (2,3,1).  Any consistent assignment yields the same
# class data and multiplicities.
_S3_TABLE = dict(
    group_name="S3/C3v",
    n=3,
    class_labels=("E", "3sigma_v", "2C3"),
    irreps=("A1", "A2", "E"),
    chars=(
        (1, 1, 1),
        (1, -1, 1),
        (2, 0, -1),
    ),
)

# S4 classes: identity, 6 transpositions, 8 three-cycles, 6 four-cycles,
# 3 double transpositions.  The coordinate triple (the three degenerate
# normal modes) transforms as T2, which fixes which 3-dim row gets which
# label: chi_T2 = +1 on transpositions.
_S4_TABLE = dict(
    group_name="S4/O",
    n=4,
    class_labels=("E", "6C2", "8C3", "6C4", "3C2"),
    irreps=("A1", "A2", "E", "T1", "T2"),
    chars=(
        (1, 1, 1, 1, 1),
        (1, -1, 1, -1, 1),
        (2, 0, -1, 0, 2),
        (3, -1, 0, 1, -1),
        (3, 1, 0, -1, -1),
    ),
)

_TABLES = {3: _S3_TABLE, 4: _S4_TABLE}


@functools.lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """The shipped character table for S3 or S4, validated once per N."""
    if n not in _TABLES:
        raise ValueError(f"no character table shipped for N={n} (supported: 3, 4)")
    data = _TABLES[n]
    table = CharacterTable(classes=conjugacy_classes(n), **data)
    violation = validate_table(table)
    if violation is not None:
        raise NumericalIntegrityError(f"shipped table for N={n} invalid: {violation}")
    return table


@functools.lru_cache(maxsize=None)
def character_weights(n: int, irrep: str) -> tuple[tuple[Permutation, int], ...]:
    """The terms (p, chi_Gamma(p)) of (N!/dim) P_Gamma = sum_p chi_Gamma(p) p,
    for each p in S_N with chi_Gamma(p) != 0, in :func:`all_permutations`
    order (identity first).  Cached per (N, label)."""
    table = character_table(n)
    weights = ((p, table.char(irrep, cycle_type(p))) for p in all_permutations(n))
    return tuple((p, chi) for p, chi in weights if chi)


def validate_table(table: CharacterTable) -> Optional[str]:
    """Check the order sum rule and both orthogonality relations exactly.

    Returns None if the table is consistent, otherwise a description of the
    first violated relation (with the indices involved).
    """
    order = math.factorial(table.n)
    sizes = [class_size(ct) for ct in table.classes]
    if sum(sizes) != order:
        return f"class sizes sum to {sum(sizes)}, expected {order}"
    dim_sum = sum(row[0] ** 2 for row in table.chars)
    if dim_sum != order:
        return f"sum of squared dimensions is {dim_sum}, expected {order}"
    nir = len(table.irreps)
    for i in range(nir):
        for j in range(i, nir):
            acc = sum(
                s * a * b for s, a, b in zip(sizes, table.chars[i], table.chars[j])
            )
            want = order if i == j else 0
            if acc != want:
                return (
                    f"row orthogonality violated for irreps "
                    f"({table.irreps[i]}, {table.irreps[j]}): "
                    f"{acc} != {want}"
                )
    ncl = len(table.classes)
    for a in range(ncl):
        for b in range(a, ncl):
            acc = sum(row[a] * row[b] for row in table.chars)
            want = order // sizes[a] if a == b else 0
            if acc != want:
                return (
                    f"column orthogonality violated for classes ({a}, {b}): "
                    f"{acc} != {want}"
                )
    return None


def decompose(
    table: CharacterTable, traces: Mapping[CycleType, int]
) -> dict[str, int]:
    """Irrep multiplicities of a representation from its integer traces per
    class: m_Gamma = (1/N!) sum_c size(c) chi_Gamma(c) trace(c), exactly.

    Traces of a true representation give non-negative integers; anything
    else raises :class:`NumericalIntegrityError`.
    """
    order = math.factorial(table.n)
    out = {}
    for irrep, row in zip(table.irreps, table.chars):
        acc = sum(
            class_size(ct) * chi * traces[ct] for ct, chi in zip(table.classes, row)
        )
        m, rem = divmod(acc, order)
        if rem or m < 0:
            raise NumericalIntegrityError(
                f"multiplicity of {irrep} is {acc}/{order}, "
                f"not a non-negative integer"
            )
        out[irrep] = m
    return out


def sign_irrep(table: CharacterTable) -> str:
    """The one-dimensional irrep whose character is the permutation parity.

    Totally antisymmetric functions transform as it; the antisymmetrizer is
    (up to normalization) its projector.  A2 for both shipped tables.
    """
    # a permutation with c cycles is a product of N - c transpositions
    parities = tuple((-1) ** (table.n - len(ct)) for ct in table.classes)
    for ir, row in zip(table.irreps, table.chars):
        if row == parities:
            return ir
    raise NumericalIntegrityError(
        f"{table.group_name}: no irrep matches the parity character"
    )

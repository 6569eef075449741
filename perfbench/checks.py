"""Output checks that do not trust the package.

Every expected value below is either stated in the paper (PAPER.md) or
recomputed here from the closed-form spectrum; nothing is imported from
``permsym``.  Each check returns a list of problems; an empty list accepts
the output.
"""

from __future__ import annotations

import math

from workloads import Operation

IRREP_DIMS = {
    3: {"A1": 1, "A2": 1, "E": 2},
    4: {"A1": 1, "A2": 1, "E": 2, "T1": 3, "T2": 3},
}
FORBIDDEN = {3: {"A1"}, 4: {"A1", "T2"}}
#: spatial irrep -> total spins it pairs with in an antisymmetric state
ALLOWED_SPINS = {
    3: {"A1": [], "A2": [1.5], "E": [0.5]},
    4: {"A1": [], "A2": [2.0], "E": [0.0], "T1": [1.0], "T2": []},
}
#: irrep content of the levels with n_sym = 0..3
LOW_CONTENT = {
    3: [{"A1": 1}, {"E": 1}, {"A1": 1, "E": 1}, {"A1": 1, "A2": 1, "E": 1}],
    4: [{"A1": 1}, {"T2": 1}, {"A1": 1, "E": 1, "T2": 1}, {"A1": 1, "T1": 1, "T2": 2}],
}
#: n_sym of the lowest level carrying an allowed irrep (E in both cases)
LOWEST_ALLOWED_NSYM = {3: 1, 4: 2}

#: the CLI prints 9 significant digits
_PRINT_RTOL = 1e-8


def exact_energy(n: int, xi: float, n_sym: int, n_last: int) -> float:
    """E(n_sym, n_last) = sqrt(k)(n_sym + (N-1)/2) + sqrt(k')(n_last + 1/2)."""
    k = 1.0 - xi
    k_prime = 1.0 + (n - 1) * xi
    return math.sqrt(k) * (n_sym + (n - 1) / 2) + math.sqrt(k_prime) * (n_last + 0.5)


def degeneracy(n: int, n_sym: int) -> int:
    return math.comb(n_sym + n - 2, n - 2)


def _content(mults: dict) -> dict:
    return {label: m for label, m in mults.items() if m}


def _level_problems(op: Operation, key, energy, mults, degen=None) -> list[str]:
    n_sym, n_last = key
    out = []
    want = exact_energy(op.n, op.xi, n_sym, n_last)
    if abs(energy - want) > _PRINT_RTOL * max(1.0, abs(want)):
        out.append(f"level {key}: energy {energy} != closed form {want}")
    dims = IRREP_DIMS[op.n]
    if set(mults) - set(dims):
        out.append(f"level {key}: unknown irreps {sorted(set(mults) - set(dims))}")
        return out
    total = sum(dims[label] * m for label, m in mults.items())
    want_degen = degeneracy(op.n, n_sym)
    if total != want_degen:
        out.append(f"level {key}: sum dim*m = {total} != degeneracy {want_degen}")
    if degen is not None and degen != want_degen:
        out.append(f"level {key}: degeneracy {degen} != {want_degen}")
    if n_sym < len(LOW_CONTENT[op.n]) and _content(mults) != LOW_CONTENT[op.n][n_sym]:
        out.append(f"level {key}: content {_content(mults)} != paper "
                   f"{LOW_CONTENT[op.n][n_sym]}")
    if op.n == 4 and mults.get("A2") and n_sym < 6:
        out.append(f"level {key}: A2 before n_sym=6")
    return out


def check_compare(op: Operation, out: dict) -> list[str]:
    problems = []
    for m in out["matched"]:
        key = tuple(m["quanta_key"])
        want = exact_energy(op.n, op.xi, *key)
        if abs(m["exact_energy"] - want) > _PRINT_RTOL * max(1.0, want):
            problems.append(f"matched {key}: exact_energy {m['exact_energy']} "
                            f"!= closed form {want}")
        if abs(m["ci_energy"] - want) > op.tol + _PRINT_RTOL * max(1.0, want):
            problems.append(f"matched {key}: ci_energy {m['ci_energy']} is not "
                            f"within {op.tol} of {want}")
    for lv in out["missing"]:
        key = tuple(lv["quanta_key"])
        problems += _level_problems(op, key, lv["energy"], lv["irrep_mults"])
        allowed = set(_content(lv["irrep_mults"])) - FORBIDDEN[op.n]
        if allowed:
            problems.append(f"missing level {key} carries allowed irreps "
                            f"{sorted(allowed)}")
    return problems


def check_irreps(op: Operation, out: dict) -> list[str]:
    levels = out["levels"]
    keys = {tuple(lv["quanta_key"]) for lv in levels}
    want = {(a, b) for a in range(op.max_quanta + 1)
            for b in range(op.max_quanta + 1 - a)}
    problems = [] if keys == want and len(levels) == len(want) else [
        f"levels {sorted(keys)} are not all n_sym + n_last <= {op.max_quanta}"]
    for lv in levels:
        problems += _level_problems(op, tuple(lv["quanta_key"]), lv["energy"],
                                    lv["irrep_mults"], lv["degeneracy"])
    if op.n == 4 and op.max_quanta >= 6:
        if not any(lv["n_sym"] == 6 and lv["irrep_mults"].get("A2")
                   for lv in levels):
            problems.append("A2 does not appear at n_sym=6")
    return problems


def check_allowed(op: Operation, out: dict) -> list[str]:
    want = ALLOWED_SPINS[op.n]
    problems = []
    got = {label: entry["spins"] for label, entry in out["allowed"].items()}
    if got != want:
        problems.append(f"allowed map {got} != paper {want}")
    if out.get("constructive") != want:
        problems.append(f"constructive map {out.get('constructive')} != paper {want}")
    if out.get("routes_agree") is not True:
        problems.append("routes_agree is not true")
    return problems


def check_ci(op: Operation, out: dict) -> list[str]:
    """Full spectrum over all M_s sectors.

    The lowest energy must match the lowest allowed exact level from above:
    truncated CI is variational, and it can never reach the forbidden levels
    below.  No upper tolerance is imposed, because near the window edges a
    fixed basis does not converge and correct code would fail it.
    """
    states = out["states"]
    problems = []
    want = math.comb(2 * op.orbitals, op.n)
    if len(states) != want or out["basis_size"] != want:
        problems.append(f"{len(states)} states, basis {out['basis_size']}; "
                        f"C(2M, N) = {want}")
    for st in states:
        s, ms = st["S"], st["Ms"]
        if 2 * s != round(2 * s) or round(2 * s) % 2 != op.n % 2 or s < abs(ms):
            problems.append(f"state at {st['energy']}: S={s}, Ms={ms}")
            break
    if states:
        lowest = min(st["energy"] for st in states)
        floor = exact_energy(op.n, op.xi, LOWEST_ALLOWED_NSYM[op.n], 0)
        if lowest < floor - _PRINT_RTOL * max(1.0, floor):
            problems.append(f"lowest energy {lowest} is below the lowest allowed "
                            f"level {floor}")
    return problems


CHECKS = {
    "compare": check_compare,
    "irreps": check_irreps,
    "allowed": check_allowed,
    "ci": check_ci,
}

"""The benchmark's workloads: fixed lists of ``permsym`` CLI operations.

Every operation is one ``permsym`` invocation, run in a fresh interpreter.
Only ``window-sweep`` depends on the seed: the seed draws its couplings.
No operation of a workload fails on today's code; the operations that do
fail are in known_defects.py.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

#: open bound windows of the coupling xi (PAPER.md)
WINDOWS = {3: (-0.5, 1.0), 4: (-1.0 / 3.0, 1.0)}
#: the part of each window that window-sweep draws from: above 0.8, ``ci``
#: exits 2 ("eigenvector mixes orbital parities") at many couplings, so
#: the sweep stops at 0.7 (known_defects.py keeps those failures in view)
SWEEP_WINDOWS = {3: (-0.5, 0.7), 4: (-1.0 / 3.0, 0.7)}

#: couplings drawn per N in one window-sweep pass, one per equal-width stratum
SWEEP_STRATA = 2
SWEEP_ORBITALS = {3: 10, 4: 8}


@dataclass(frozen=True)
class Operation:
    """One CLI invocation; the fields are what the output checks need."""

    command: str
    n: int
    xi: Optional[float] = None
    orbitals: Optional[int] = None
    max_quanta: Optional[int] = None
    tol: Optional[float] = None

    def argv(self) -> list[str]:
        out = [self.command, "--n", str(self.n)]
        if self.xi is not None:
            out += ["--xi", repr(self.xi)]
        if self.orbitals is not None:
            out += ["--orbitals", str(self.orbitals)]
        if self.max_quanta is not None:
            out += ["--max-quanta", str(self.max_quanta)]
        if self.tol is not None:
            out += ["--tol", repr(self.tol)]
        if self.command == "allowed":
            out += ["--verify", "constructive"]
        if self.command == "ci":
            out += ["--ms", "all"]
        return out

    def block_dims(self) -> list[int]:
        """Dimensions of the M_s blocks the CI diagonalizes (none outside
        compare and ci): compare uses M_s = 1/2 (N=3) or 0 (N=4)."""
        m = self.orbitals
        if self.command == "compare":
            alpha = (self.n + 1) // 2
            return [math.comb(m, alpha) * math.comb(m, self.n - alpha)]
        if self.command == "ci":
            return [math.comb(m, a) * math.comb(m, self.n - a) for a in range(self.n + 1)]
        return []


def _compare(n: int, xi: float, orbitals: int) -> Operation:
    return Operation("compare", n, xi=xi, orbitals=orbitals, max_quanta=4, tol=1e-4)


def sweep_couplings(seed: int, n: int) -> list[float]:
    """One coupling drawn uniformly from each of SWEEP_STRATA equal slices of
    N's sweep window.  Stratifying keeps the share of couplings in each
    part of the window, and with it the run time, alike across seeds."""
    lo, hi = SWEEP_WINDOWS[n]
    width = (hi - lo) / SWEEP_STRATA
    rng = random.Random(f"window-sweep/{n}/{seed}")
    out = []
    for i in range(SWEEP_STRATA):
        xi = lo
        while not lo < xi < hi:
            xi = lo + (i + rng.random()) * width
        out.append(xi)
    return out


def _compare_large(seed: int) -> list[Operation]:
    return [_compare(3, 0.1, 14), _compare(4, 0.1, 10)]


def _irreps_deep(seed: int) -> list[Operation]:
    # N=3 stops at 11: from n_sym=12 on, irreps exits 2 on degree leakage
    return [
        Operation("irreps", 4, xi=0.1, max_quanta=10),
        Operation("irreps", 3, xi=0.1, max_quanta=11),
    ]


def _allowed_constructive(seed: int) -> list[Operation]:
    return [Operation("allowed", 3), Operation("allowed", 4)]


def _window_sweep(seed: int) -> list[Operation]:
    # ci only: compare off xi = 0.1 exits 3 at about half the window today
    return [
        Operation("ci", n, xi=xi, orbitals=SWEEP_ORBITALS[n])
        for n in (3, 4)
        for xi in sweep_couplings(seed, n)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operations: Callable[[int], list[Operation]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-large",
            "the paper's missing-level experiment at N=3 M=14 and N=4 M=10, "
            "where the ci layer does about 95% of the work",
            _compare_large,
        ),
        Workload(
            "irreps-deep",
            "irrep labels up to n_sym=10 (N=4) and 11 (N=3): oscillator and "
            "levelsym representation matrices, no ci",
            _irreps_deep,
        ),
        Workload(
            "allowed-constructive",
            "Pauli-allowed species by explicit antisymmetrization, the only "
            "workload where spin does most of the work",
            _allowed_constructive,
        ),
        Workload(
            "window-sweep",
            "seed-drawn couplings across the bound window up to xi=0.7; full "
            "ci spectra of every M_s block; short operations weight setup and cli",
            _window_sweep,
        ),
    )
}

"""Command-line surface: reproducible experiments with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 numerical-integrity error, 3 failed
missing-level verification.  JSON is the canonical format (all floats
printed with 9 significant digits); CSV is a lossy convenience projection
offered where the output is a flat table.
"""

from __future__ import annotations

import os

# honor the thread cap before any numpy-backed module loads BLAS
_threads = os.environ.get("PERMSYM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
from typing import Optional, Sequence

from . import ci as cimod
from . import levelsym, oscillator, spin, symgroup
from .errors import NumericalIntegrityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 2
EXIT_VERIFICATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses -1e-05 and -1/2, reading them as options
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation, echoed into every output artifact."""

    command: str
    n: Optional[int] = None
    xi: Optional[float] = None
    orbitals: Optional[int] = None
    max_quanta: Optional[int] = None
    ms: Optional[str] = None
    tol: Optional[float] = None
    n_sym: Optional[int] = None
    n_last: Optional[int] = None
    irrep: Optional[str] = None
    verify: Optional[str] = None
    format: str = "json"
    output: Optional[str] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def _round9(obj):
    """Round every float to 9 significant digits for reproducible artifacts."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, config: RunConfig) -> None:
    payload = {"config": config.to_dict(), **payload}
    _emit(json.dumps(_round9(payload), indent=2) + "\n", config.output)


def _emit_csv(rows: list[dict], config: RunConfig) -> None:
    buf = io.StringIO()
    for key, value in config.to_dict().items():
        buf.write(f"# {key}={value}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _round9(v) for k, v in row.items()})
    _emit(buf.getvalue(), config.output)


def _parse_ms(text: str):
    if text == "all":
        return "all"
    if "/" in text:
        num, den = text.split("/", 1)
        if float(den) == 0:
            raise UsageError(f"--ms {text}: zero denominator")
        return float(num) / float(den)
    return float(text)


def _level_row(level: oscillator.LevelDescriptor) -> dict:
    row = {
        "quanta_key": list(level.quanta_key),
        "n_sym": level.n_sym,
        "n_last": level.n_last,
        "energy": level.energy,
        "degeneracy": level.degeneracy,
        "parity": level.parity,
    }
    if level.irrep_mults is not None:
        row["irrep_mults"] = dict(level.irrep_mults)
    return row


def _flatten_level_row(row: dict) -> dict:
    flat = {k: v for k, v in row.items() if k not in ("quanta_key", "irrep_mults")}
    for lbl, m in row.get("irrep_mults", {}).items():
        flat[f"mult_{lbl}"] = m
    return flat


# ---------------------------------------------------------------------------
# subcommands


def _cmd_table(config: RunConfig) -> int:
    table = symgroup.character_table(config.n)
    _emit_json({"table": table.to_dict()}, config)
    return EXIT_OK


def _emit_levels(levels, config: RunConfig) -> int:
    rows = [_level_row(lv) for lv in levels]
    if config.format == "csv":
        _emit_csv([_flatten_level_row(r) for r in rows], config)
    else:
        _emit_json({"levels": rows}, config)
    return EXIT_OK


def _cmd_spectrum(config: RunConfig) -> int:
    model = oscillator.make_model(config.n, config.xi)
    return _emit_levels(oscillator.enumerate_levels(model, config.max_quanta), config)


def _decorated_levels(config: RunConfig):
    model = oscillator.make_model(config.n, config.xi)
    table = symgroup.character_table(config.n)
    levels = [
        levelsym.attach_multiplicities(model, lv, table)
        for lv in oscillator.enumerate_levels(model, config.max_quanta)
    ]
    return model, levels


def _cmd_irreps(config: RunConfig) -> int:
    return _emit_levels(_decorated_levels(config)[1], config)


def _cmd_project(config: RunConfig) -> int:
    model = oscillator.make_model(config.n, config.xi)
    table = symgroup.character_table(config.n)
    irrep = table.irrep(config.irrep)
    level = oscillator.make_level(model, config.n_sym, config.n_last)
    salc_set = levelsym.salc(model, level, table, irrep)
    _emit_json(
        {
            "irrep": irrep.label,
            "dimension": irrep.dimension,
            "copies": salc_set.copies,
            "level": _level_row(level),
            "basis_patterns": [
                list(p) for p in oscillator.level_patterns(config.n, config.n_sym)
            ],
            "vectors": [list(v) for v in salc_set.vectors],
        },
        config,
    )
    return EXIT_OK


def _cmd_allowed(config: RunConfig) -> int:
    allowed = spin.allowed_spatial_irreps(config.n)
    mtable = spin.multiplet_table(config.n)
    payload = {
        "allowed": allowed.to_dict(),
        "multiplets": {str(s): c for s, c in sorted(mtable.counts.items())},
    }
    if config.verify == "constructive":
        constructive = spin.constructive_spatial_irreps(config.n)
        payload["constructive"] = {k: list(v) for k, v in constructive.spins.items()}
        payload["routes_agree"] = constructive == allowed
        if not payload["routes_agree"]:
            raise NumericalIntegrityError(
                "character and constructive routes disagree on allowed irreps"
            )
    _emit_json(payload, config)
    return EXIT_OK


def _determinant_basis(config: RunConfig):
    basis = cimod.build_basis(config.n, config.orbitals, ms=_parse_ms(config.ms))
    if not len(basis):
        raise UsageError(
            f"--ms {config.ms}: no determinant of N={config.n} particles in "
            f"{config.orbitals} orbitals has this M_s"
        )
    return basis


def _cmd_ci(config: RunConfig) -> int:
    model = oscillator.make_model(config.n, config.xi)
    basis = _determinant_basis(config)
    result = cimod.ci_solve(model, basis)
    rows = [
        {"energy": st.energy, "S": st.s, "Ms": st.ms, "parity": st.parity}
        for st in result.states
    ]
    if config.format == "csv":
        _emit_csv(rows, config)
    else:
        _emit_json({"basis_size": len(basis), "states": rows}, config)
    return EXIT_OK


def _cmd_compare(config: RunConfig) -> int:
    model, levels = _decorated_levels(config)
    allowed = spin.allowed_spatial_irreps(config.n)
    basis = _determinant_basis(config)
    result = cimod.ci_solve(model, basis)
    report = cimod.compare(model, result, levels, allowed, config.tol)
    _emit_json(report.to_dict(), config)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


_MS_HELP = "M_s sector: all, or a number such as 1/2, -1/2 or -1"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="permsym",
        description=(
            "Exactly solvable N-particle oscillators: permutation-symmetry "
            "classification of the spectrum and missing levels in "
            "configuration interaction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, xi=False, quanta=False, fmt=False, orbitals=False):
        p.add_argument("--n", type=int, required=True, choices=(3, 4))
        if xi:
            p.add_argument("--xi", type=float, required=True)
        if quanta:
            p.add_argument("--max-quanta", type=int, required=True)
        if orbitals:
            p.add_argument("--orbitals", type=int, required=True)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)

    p = sub.add_parser("table", help="dump a character table")
    add_common(p)

    p = sub.add_parser("spectrum", help="exact level table")
    add_common(p, xi=True, quanta=True, fmt=True)

    p = sub.add_parser("irreps", help="level table with irrep multiplicities")
    add_common(p, xi=True, quanta=True, fmt=True)

    p = sub.add_parser("project", help="symmetry-adapted combination vectors")
    add_common(p)
    p.add_argument("--xi", type=float, default=0.1)
    p.add_argument("--nsym", dest="n_sym", type=int, required=True)
    p.add_argument("--nlast", dest="n_last", type=int, default=0)
    p.add_argument("--irrep", required=True)

    p = sub.add_parser("allowed", help="Pauli-allowed spatial irreps")
    add_common(p)
    p.add_argument("--verify", choices=("constructive",), default=None)

    p = sub.add_parser("ci", help="configuration-interaction spectrum")
    add_common(p, xi=True, fmt=True, orbitals=True)
    p.add_argument("--ms", default="all", help=_MS_HELP + " (default: all)")

    p = sub.add_parser("compare", help="missing-level experiment")
    add_common(p, xi=True, quanta=True, orbitals=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument(
        "--ms", default=None, help=_MS_HELP + " (default: 1/2 for N=3, 0 for N=4)"
    )

    return parser


_HANDLERS = {
    "table": _cmd_table,
    "spectrum": _cmd_spectrum,
    "irreps": _cmd_irreps,
    "project": _cmd_project,
    "allowed": _cmd_allowed,
    "ci": _cmd_ci,
    "compare": _cmd_compare,
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(**vars(args))
    if config.command == "compare" and config.ms is None:
        # one M_s sector sees every multiplet: S >= 1/2 for odd N, S >= 0 for even
        config = dataclasses.replace(config, ms="1/2" if config.n % 2 else "0")
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if config.tol is not None and not (config.tol > 0):
            raise UsageError("--tol must be positive")
        return _HANDLERS[config.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalIntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

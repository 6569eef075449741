"""Command-line surface: reproducible experiments with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 numerical-integrity error, 3 failed
missing-level verification.  JSON is the canonical format (all floats
printed with 9 significant digits); CSV is a lossy convenience projection
offered where the output is a flat table.
"""

from __future__ import annotations

import os

# set the thread cap first: numpy (and BLAS) runs later, on first use, if at all
_threads = os.environ.get("PERMSYM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import importlib.util
import io
import json
import math
import re
import sys
from typing import Optional, Sequence

from .errors import NumericalIntegrityError


def _lazy(name: str):
    """The package's module ``name``, run on its first attribute access unless
    imported (or blocked) already, and bound on the package as ``import`` does."""
    if (qualname := f"{__package__}.{name}") in sys.modules:
        return sys.modules[qualname]
    spec = importlib.util.find_spec(qualname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[qualname] = importlib.util.module_from_spec(spec)  # before it runs
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# each runs when a handler first touches it, so a command runs only what it calls
cimod = _lazy("ci")
levelsym = _lazy("levelsym")
oscillator = _lazy("oscillator")
spin = _lazy("spin")
symgroup = _lazy("symgroup")

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


#: the run echoed into every artifact, in this order; unset values are left out
_ECHO_KEYS = (
    "command", "n", "xi", "orbitals", "max_quanta", "ms", "tol",
    "n_sym", "n_last", "irrep", "verify", "format", "output",
)


def _echo(args: argparse.Namespace) -> dict:
    """The resolved invocation; commands without --format echo "json"."""
    values = {"format": "json", **vars(args)}
    return {k: values[k] for k in _ECHO_KEYS if values.get(k) is not None}


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


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    payload = {"config": _echo(args), **payload}
    _emit(json.dumps(_round9(payload), indent=2) + "\n", args.output)


def _emit_csv(rows: list[dict], args: argparse.Namespace) -> None:
    import csv

    buf = io.StringIO()
    for key, value in _echo(args).items():
        buf.write(f"# {key}={value}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _round9(v) for k, v in row.items()})
    _emit(buf.getvalue(), args.output)


def _parse_ms(text: str):
    if text == "all":
        return "all"
    num, slash, den = text.partition("/")
    try:
        num, den = float(num), float(den) if slash else 1.0
    except ValueError:
        raise UsageError(f"--ms {text}: not all, a number or a fraction") from None
    if den == 0:
        raise UsageError(f"--ms {text}: zero denominator")
    return num / den


def _level_row(level: oscillator.LevelDescriptor) -> dict:
    row = {"quanta_key": list(level.quanta_key), **level._asdict()}
    if row["irrep_mults"] is None:
        del row["irrep_mults"]
    return row


def _flatten_level_row(row: dict) -> dict:
    flat = {k: v for k, v in row.items() if k not in ("quanta_key", "irrep_mults")}
    for lbl, m in row.get("irrep_mults", {}).items():
        flat[f"mult_{lbl}"] = m
    return flat


# ---------------------------------------------------------------------------
# subcommands


def _cmd_table(args: argparse.Namespace) -> int:
    table = symgroup.character_table(args.n)
    _emit_json({"table": table.to_dict()}, args)
    return EXIT_OK


def _emit_levels(levels, args: argparse.Namespace) -> int:
    rows = [_level_row(lv) for lv in levels]
    if args.format == "csv":
        _emit_csv([_flatten_level_row(r) for r in rows], args)
    else:
        _emit_json({"levels": rows}, args)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    model = oscillator.make_model(args.n, args.xi)
    return _emit_levels(oscillator.enumerate_levels(model, args.max_quanta), args)


def _cmd_irreps(args: argparse.Namespace) -> int:
    model = oscillator.make_model(args.n, args.xi)
    levels = oscillator.enumerate_levels(model, args.max_quanta)
    decorated = [levelsym.attach_multiplicities(model, lv) for lv in levels]
    return _emit_levels(decorated, args)


def _cmd_project(args: argparse.Namespace) -> int:
    model = oscillator.make_model(args.n, args.xi)
    table = symgroup.character_table(args.n)
    dimension = table.dimension(args.irrep)
    level = oscillator.make_level(model, args.n_sym, args.n_last)
    vectors = levelsym.salc(model, level, table, args.irrep)
    _emit_json(
        {
            "irrep": args.irrep,
            "dimension": dimension,
            "copies": len(vectors) // dimension,
            "level": _level_row(level),
            "basis_patterns": [
                list(p) for p in oscillator.level_patterns(args.n, args.n_sym)
            ],
            "vectors": [list(v) for v in vectors],
        },
        args,
    )
    return EXIT_OK


def _cmd_allowed(args: argparse.Namespace) -> int:
    allowed = spin.allowed_spatial_irreps(args.n)
    mtable = spin.multiplet_table(args.n)
    payload = {
        "allowed": {
            label: {
                "allowed": bool(spins),
                "spins": list(spins),
                "multiplets": [spin.multiplet_name(s) for s in spins],
            }
            for label, spins in allowed.items()
        },
        "multiplets": {str(s): c for s, c in sorted(mtable.items())},
    }
    if args.verify == "constructive":
        constructive = spin.constructive_spatial_irreps(args.n)
        payload["constructive"] = {k: list(v) for k, v in constructive.items()}
        payload["routes_agree"] = constructive == allowed
        if not payload["routes_agree"]:
            raise NumericalIntegrityError(
                "character and constructive routes disagree on allowed irreps"
            )
    _emit_json(payload, args)
    return EXIT_OK


def _determinant_basis(args: argparse.Namespace):
    basis = cimod.build_basis(args.n, args.orbitals, ms=_parse_ms(args.ms))
    if not len(basis):
        raise UsageError(
            f"--ms {args.ms}: no determinant of N={args.n} particles in "
            f"{args.orbitals} orbitals has this M_s"
        )
    return basis


def _cmd_ci(args: argparse.Namespace) -> int:
    model = oscillator.make_model(args.n, args.xi)
    basis = _determinant_basis(args)
    rows = cimod.ci_solve(model, basis)
    if args.format == "csv":
        _emit_csv(rows, args)
    else:
        _emit_json({"basis_size": len(basis), "states": rows}, args)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    if not 0 < args.tol < math.inf:
        raise UsageError("--tol must be positive and finite")
    # one M_s sector sees every multiplet: S >= 1/2 for odd N, S >= 0 for even
    args.ms = "1/2" if args.n % 2 else "0"
    model = oscillator.make_model(args.n, args.xi)
    q = args.max_quanta
    oscillator.check_cutoff(q)
    allowed = spin.allowed_spatial_irreps(args.n)
    if all(
        spin.first_level_with_irrep(args.n, ir) > q for ir, s in allowed.items() if s
    ):
        raise UsageError(
            f"no level up to --max-quanta {q} holds an allowed "
            "irrep, so nothing can be verified: raise --max-quanta"
        )
    basis = _determinant_basis(args)
    states = cimod.ci_solve(model, basis)
    report = cimod.compare(model, states, q, allowed, args.tol)
    if not report.matched:
        # an unconverged block draws the horizon at its level; otherwise it is
        # the clip at tol below the first level past the cutoff
        keys = [(a, b) for a in range(q + 1) for b in range(q + 1 - a)]
        drawn = report.horizon in {oscillator.level_energy(model, *k) for k in keys}
        knob = "larger --tol" if drawn else "smaller --tol, or a larger --max-quanta"
        raise UsageError(
            f"no allowed exact state lies below the horizon {report.horizon:.9g}, "
            f"so nothing is verified: use more --orbitals or a {knob}"
        )
    _emit_json(report._asdict(), args)
    return EXIT_OK if report.ok else EXIT_VERIFICATION


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
    p.set_defaults(handler=_cmd_table)
    add_common(p)

    p = sub.add_parser("spectrum", help="exact level table")
    p.set_defaults(handler=_cmd_spectrum)
    add_common(p, xi=True, quanta=True, fmt=True)

    p = sub.add_parser("irreps", help="level table with irrep multiplicities")
    p.set_defaults(handler=_cmd_irreps)
    add_common(p, xi=True, quanta=True, fmt=True)

    p = sub.add_parser("project", help="symmetry-adapted combination vectors")
    p.set_defaults(handler=_cmd_project)
    add_common(p)
    p.add_argument("--xi", type=float, default=0.1)
    p.add_argument("--nsym", dest="n_sym", type=int, required=True)
    p.add_argument("--nlast", dest="n_last", type=int, default=0)
    p.add_argument("--irrep", required=True)

    p = sub.add_parser("allowed", help="Pauli-allowed spatial irreps")
    p.set_defaults(handler=_cmd_allowed)
    add_common(p)
    p.add_argument("--verify", choices=("constructive",), default=None)

    p = sub.add_parser("ci", help="configuration-interaction spectrum")
    p.set_defaults(handler=_cmd_ci)
    add_common(p, xi=True, fmt=True, orbitals=True)
    p.add_argument("--ms", default="all", help="M_s sector: all, or a number like -1/2")

    p = sub.add_parser("compare", help="missing-level experiment")
    p.set_defaults(handler=_cmd_compare)
    add_common(p, xi=True, quanta=True, orbitals=True)
    p.add_argument("--tol", type=float, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalIntegrityError as exc:
        print(f"numerical integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

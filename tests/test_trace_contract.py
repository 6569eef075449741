"""The benchmark's per-layer tracer still understands the package.

``perfbench/tracer.py`` wraps package functions by name and reads their
arguments (the basis of ``ci_solve`` and ``hamiltonian_matrix`` by its
length).  A package change that renames a traced function or changes what
it takes would break the per-layer report without failing any test of the
package itself, so this runs ``perfbench/traced_cli.py`` the way the
benchmark does and feeds its span dumps to ``tracer.pass_metrics``.
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import permsym

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

#: small invocations of every traced layer, with their CI basis sizes
OPERATIONS = [
    (
        ["compare", "--n", "3", "--xi", "0.1", "--orbitals", "6",
         "--max-quanta", "3", "--tol", "1e-3"],
        math.comb(6, 2) * 6,  # M_s = 1/2
    ),
    (
        ["ci", "--n", "3", "--xi", "0.1", "--orbitals", "5", "--ms", "all"],
        math.comb(10, 3),
    ),
    (["allowed", "--n", "3", "--verify", "constructive"], 0),
    # integer-only: numpy is first loaded by the tracer, not the command
    (["irreps", "--n", "3", "--xi", "0.1", "--max-quanta", "6"], 0),
    # the only operation that runs salc (and its character projectors)
    (["project", "--n", "3", "--nsym", "3", "--irrep", "E"], 0),
]


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pass_metrics_accepts_traced_cli_dumps(tmp_path):
    src = str(pathlib.Path(permsym.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    dumps, output_bytes = [], 0
    for index, (argv, _) in enumerate(OPERATIONS):
        spans = tmp_path / f"op{index}.spans"
        run = subprocess.run(
            [sys.executable, str(BENCH / "traced_cli.py"), str(spans), str(index),
             "--", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr.decode()
        output_bytes += len(run.stdout)
        dumps.append(json.loads(spans.read_text()))

    tracer = _tracer()
    metrics = tracer.pass_metrics(dumps, output_bytes)
    assert list(metrics) == [m for m in tracer.PER_LAYER if m != "trace.overhead_s"]
    assert metrics["ci.basis_dim"] == sum(dim for _, dim in OPERATIONS)
    assert metrics["cli.output_bytes"] == output_bytes
    # ci_solve scatters each CSF block from sparse H entries and never calls
    # hamiltonian_matrix, the function the tracer wraps, so its time, block
    # count and nonzeros read 0 until the benchmark wraps the entry builder
    # (ROADMAP item 7)
    for name in ["ci.hamiltonian_matrix_s", "ci.blocks", "ci.h_nnz"]:
        assert metrics[name] == 0, name
    for name in [
        "ci.build_basis_s", "ci.label_s",
        "ci.ci_solve_s", "ci.compare_s",
        "ci.states_matched", "levelsym.attach_multiplicities_s",
        "spin.allowed_spatial_irreps_s", "spin.constructive_s",
        "spin.antisymmetrize_calls",
        "symgroup.character_table_s", "cli.main_s",
    ]:
        assert metrics[name] > 0, name

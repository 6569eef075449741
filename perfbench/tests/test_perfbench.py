"""Tests of the benchmark itself: seeds, output checks, metric names,
the reference job and span bookkeeping.

    python3 -m pytest perfbench/tests -q

Genuine artifacts come from running the CLI in-process on small inputs;
each check must accept them and reject a tampered copy.
"""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_STRATA, SWEEP_WINDOWS, WINDOWS, WORKLOADS, Operation, sweep_couplings,
)


# ---------------------------------------------------------------------------
# seeds


@pytest.mark.parametrize("n", [3, 4])
def test_seed_gives_same_couplings_strictly_inside_window(n):
    lo, hi = SWEEP_WINDOWS[n]
    assert WINDOWS[n][0] <= lo < hi <= WINDOWS[n][1]
    width = (hi - lo) / SWEEP_STRATA
    for seed in range(20):
        first = sweep_couplings(seed, n)
        assert first == sweep_couplings(seed, n)
        assert len(first) == SWEEP_STRATA
        for i, xi in enumerate(first):
            assert lo < xi < hi
            assert lo + i * width <= xi <= lo + (i + 1) * width
    assert sweep_couplings(1, n) != sweep_couplings(2, n)


def test_only_window_sweep_depends_on_seed():
    for name, workload in WORKLOADS.items():
        same = workload.operations(1) == workload.operations(2)
        assert same == (name != "window-sweep")


# ---------------------------------------------------------------------------
# output checks


def _artifact(tmp_path, op: Operation) -> dict:
    from permsym.cli import main

    path = tmp_path / f"{op.command}.json"
    assert main(op.argv() + ["--output", str(path)]) == 0
    return json.loads(path.read_text())


COMPARE = Operation("compare", 3, xi=0.1, orbitals=8, max_quanta=3, tol=1e-4)
IRREPS = Operation("irreps", 4, xi=0.1, max_quanta=6)
ALLOWED = Operation("allowed", 4)
CI = Operation("ci", 3, xi=0.1, orbitals=5)


def _shift_matched_energy(out):
    out["matched"][0]["ci_energy"] += 1e-3


def _drop_allowed_level(out):
    out["missing"].append({
        "quanta_key": [1, 0],
        "energy": checks.exact_energy(3, 0.1, 1, 0),
        "irrep_mults": {"A1": 0, "A2": 0, "E": 1},
    })


def _bump_multiplicity(out):
    out["levels"][-1]["irrep_mults"]["A1"] += 1


def _swap_low_content(out):
    level = next(lv for lv in out["levels"] if lv["quanta_key"] == [3, 0])
    level["irrep_mults"].update(T1=0, A2=1)


def _drop_a2_at_six(out):
    for lv in out["levels"]:
        if lv["n_sym"] == 6:
            lv["irrep_mults"]["A1"] += lv["irrep_mults"]["A2"]
            lv["irrep_mults"]["A2"] = 0


def _allow_t2(out):
    out["allowed"]["T2"]["spins"] = [1.0]


def _routes_disagree(out):
    out["routes_agree"] = False


def _drop_state(out):
    out["states"].pop()


def _bad_spin(out):
    out["states"][3]["S"] = 1.0


def _below_floor(out):
    out["states"][0]["energy"] = checks.exact_energy(3, 0.1, 0, 0)


@pytest.mark.parametrize("op, tamper", [
    (COMPARE, _shift_matched_energy),
    (COMPARE, _drop_allowed_level),
    (IRREPS, _bump_multiplicity),
    (IRREPS, _swap_low_content),
    (IRREPS, _drop_a2_at_six),
    (ALLOWED, _allow_t2),
    (ALLOWED, _routes_disagree),
    (CI, _drop_state),
    (CI, _bad_spin),
    (CI, _below_floor),
], ids=lambda v: getattr(v, "__name__", None) or getattr(v, "command", None))
def test_check_accepts_genuine_and_rejects_tampered(tmp_path, op, tamper):
    genuine = _artifact(tmp_path, op)
    check = checks.CHECKS[op.command]
    assert check(op, genuine) == []
    tampered = copy.deepcopy(genuine)
    tamper(tampered)
    assert check(op, tampered)


def test_irreps_content_matches_paper_at_n3(tmp_path):
    op = Operation("irreps", 3, xi=-0.2, max_quanta=5)
    assert checks.check_irreps(op, _artifact(tmp_path, op)) == []


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_names_match(spec):
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def test_end_to_end_names_match(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_workloads_match(spec):
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


# ---------------------------------------------------------------------------
# reference job


def test_reference_job_runs_once_enough_operation_time_passed(monkeypatch):
    spawned = []
    monkeypatch.setattr(run, "timed_runs",
                        lambda cmd, env, deadline, count: spawned.append(cmd) or [0.5])
    gauge = run.Gauge({}, 0.0)
    for seconds in (0.5, 1.0, 0.6, 3.0, 0.1):
        gauge.after_op(seconds)
    assert spawned == [run.REFERENCE_CMD] * 2
    assert gauge.samples == [0.5, 0.5]


def test_reference_job_succeeds():
    [seconds] = run.timed_runs(run.REFERENCE_CMD, run.child_env(),
                               time.perf_counter() + 60, 1)
    assert seconds > 0


# ---------------------------------------------------------------------------
# span bookkeeping


def _dump(*spans):
    return {"op": 0, "spans": [list(s) for s in spans], "counters": {}}


def test_ci_self_times_add_up():
    dump = _dump(
        ("cli.main", -1, 0.0, 10.0, {}),
        ("ci.ci_solve", 0, 1.0, 9.0, {"dim": 4}),
        ("ci.hamiltonian_matrix", 1, 1.5, 3.0, {"dim": 4, "nnz": 6}),
        ("ci.eigensolve", 1, 3.0, 4.0, {}),
        ("ci.s_squared_matrix", 1, 4.5, 5.0, {}),
    )
    m = tracer.pass_metrics([dump], output_bytes=7)
    assert m["ci.label_s"] == pytest.approx(5.0)
    parts = sum(m[k] for k in ("ci.hamiltonian_matrix_s", "ci.eigensolve_s",
                               "ci.s_squared_matrix_s", "ci.label_s"))
    assert parts == pytest.approx(m["ci.ci_solve_s"])
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["ci.h_density"] == pytest.approx(6 / 16)
    assert set(m) | {"trace.overhead_s"} == set(tracer.PER_LAYER)


def test_overlapping_spans_are_refused():
    dump = _dump(
        ("ci.ci_solve", -1, 0.0, 10.0, {"dim": 4}),
        ("ci.hamiltonian_matrix", 0, 1.0, 5.0, {"dim": 4, "nnz": 6}),
        ("ci.eigensolve", 0, 4.0, 6.0, {}),
    )
    with pytest.raises(RuntimeError):
        tracer.pass_metrics([dump], output_bytes=0)

#!/usr/bin/env python3
"""permsym benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one ``permsym``
CLI invocation in a fresh interpreter with PERMSYM_THREADS=1, run one at a
time.  A pass runs every operation of the workload once; passes repeat
while another fits in ``--seconds`` (at least one runs).  Between
operations, a fixed job (reference.py) gauges the machine's speed.  Every
output is checked against facts from the paper (checks.py).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of tracer.PER_LAYER, taken
from traced passes that follow one untraced pass.  Lines before the last
are for people: environment, sizes, every operation and a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from checks import CHECKS
from workloads import WORKLOADS, Operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

END_TO_END = {"wall_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
#: fresh interpreters timed before the passes, and after them
SETUP_SAMPLES = (5, 4)
#: reference.py runs between operations once they have run this long since
#: its last run, so that it takes about a quarter of the run
REFERENCE_EVERY_S = 2.0
#: every process is killed by then, so the run ends within 180 s
HARD_LIMIT_S = 170.0
CLI_MAIN = "import sys; from permsym.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_CMD = [sys.executable, "-c", "import permsym.cli"]
REFERENCE_CMD = [sys.executable, str(HERE / "reference.py")]
NUMPY_PROBE = """
import json, importlib.metadata as md, numpy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
try:
    scipy = md.version("scipy")
except md.PackageNotFoundError:
    scipy = None
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy,
                  "blas": f"{blas['name']} {blas['version']}"}))
"""


@dataclass
class OpResult:
    op: Operation
    returncode: int
    seconds: float
    peak_rss_mb: float
    output_bytes: int
    problems: list[str] = field(default_factory=list)
    note: str = ""
    sizes: str = ""

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.problems)


@dataclass
class PassResult:
    wall_s: float  # the sum of its operations' wall times
    ops: list[OpResult]
    layers: dict | None = None  # per-layer metrics of a traced pass
    ci_blocks: list | None = None

    @property
    def peak_rss_mb(self) -> float:
        return max(r.peak_rss_mb for r in self.ops)


def child_env() -> dict:
    env = dict(os.environ, PERMSYM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _spawn(cmd: list[str], env: dict, stdout, stderr, deadline: float):
    """Run cmd to completion; returns (exit code, seconds, peak RSS in MiB).
    The process is killed at ``deadline`` (a perf_counter value).

    Linux counts the spawning process's peak RSS into the child's, so this
    process stays small: it never imports numpy and reduces span dumps to
    metrics pass by pass.  Its own peak is reported as a floor."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def timed_runs(cmd: list[str], env: dict, deadline: float, count: int) -> list[float]:
    """Wall times of ``count`` runs of cmd, each a fresh interpreter."""
    samples = []
    for _ in range(count):
        code, seconds, _ = _spawn(cmd, env, subprocess.DEVNULL, subprocess.DEVNULL, deadline)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd[1:])} failed with exit code {code}")
        samples.append(seconds)
    return samples


class Gauge:
    """Runs of reference.py spread through a run, see end_to_end."""

    def __init__(self, env: dict, deadline: float):
        self.env, self.deadline = env, deadline
        self.samples: list[float] = []
        self.due = 0.0

    def run(self) -> None:
        self.samples += timed_runs(REFERENCE_CMD, self.env, self.deadline, 1)
        self.due = 0.0

    def after_op(self, seconds: float) -> None:
        self.due += seconds
        if self.due >= REFERENCE_EVERY_S:
            self.run()


def _sizes(command: str, data: dict) -> str:
    if command == "irreps":
        return f"{len(data['levels'])} levels"
    if command == "compare":
        return (f"{len(data['matched'])} matched, {len(data['missing'])} missing, "
                f"{len(data['spurious'])} spurious")
    if command == "ci":
        return f"{len(data['states'])} states"
    return ""


def run_op(op: Operation, index: int, env: dict, traced: bool, deadline: float):
    """One operation, its output checked; returns (OpResult, span dump)."""
    out_path = WORK / f"op{index}.out"
    err_path = WORK / f"op{index}.err"
    spans_path = WORK / f"op{index}.spans"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
               str(index), "--", *op.argv()]
    else:
        cmd = [sys.executable, "-c", CLI_MAIN, *op.argv()]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, seconds, rss = _spawn(cmd, env, out, err, deadline)
    result = OpResult(op, code, seconds, rss, out_path.stat().st_size)
    # compare writes its report also when it exits 3; checking it then
    # shows which level went missing
    if result.output_bytes:
        try:
            data = json.loads(out_path.read_text())
            result.problems = CHECKS[op.command](op, data)
            result.sizes = _sizes(op.command, data)
        except (ValueError, KeyError, TypeError) as exc:
            result.problems = [f"malformed output: {exc!r}"]
    elif code == 0:
        result.problems = ["exit 0 without output"]
    if code != 0:
        lines = err_path.read_text(errors="replace").strip().splitlines()
        result.note = f"exit {code}" + (f": {lines[-1]}" if lines else "")
    dump = None
    if traced and spans_path.exists():
        dump = json.loads(spans_path.read_text())
    return result, dump


def run_pass(ops: list[Operation], env: dict, traced: bool, deadline: float,
             gauge: Gauge | None = None) -> PassResult:
    results, dumps = [], []
    for index, op in enumerate(ops):
        result, dump = run_op(op, index, env, traced, deadline)
        results.append(result)
        if dump is not None:
            dumps.append(dump)
        if gauge:
            gauge.after_op(result.seconds)
    out = PassResult(sum(r.seconds for r in results), results)
    if traced:
        out.layers = tracer.pass_metrics(dumps, sum(r.output_bytes for r in results))
        out.ci_blocks = tracer.ci_blocks(dumps)
    return out


def environment(env: dict) -> dict:
    """Machine and library versions; numpy reports in a child process."""
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "thread_cap": "PERMSYM_THREADS=1",
        "loadavg_at_start": os.getloadavg(),
    }


def timed_passes(ops, env, traced: bool, end: float, deadline: float, gauge: Gauge):
    """Passes while the next one, as long as the last, ends before ``end``."""
    passes = []
    last = 0.0
    while not passes or time.perf_counter() + last <= end:
        start = time.perf_counter()
        passes.append(run_pass(ops, env, traced, deadline, gauge))
        last = time.perf_counter() - start
    return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the set-up time, the passes (traced ones
    when ``trace``) and, when tracing, the untraced pass they follow."""
    ops = WORKLOADS[name].operations(seed)
    env = child_env()
    machine = environment(env)
    deadline = time.perf_counter() + HARD_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # set-up is timed on both sides of the passes, so that its median
        # spans the machine's speed over the whole run
        setup = timed_runs(SETUP_CMD, env, deadline, SETUP_SAMPLES[0])
        baseline = run_pass(ops, env, False, deadline) if trace else None
        end = min(time.perf_counter() + seconds, deadline)
        gauge = Gauge(env, deadline)
        gauge.run()
        passes = timed_passes(ops, env, trace, end, deadline, gauge)
        # what is left of --seconds goes to the reference job
        while time.perf_counter() + gauge.samples[-1] <= end:
            gauge.run()
        setup += timed_runs(SETUP_CMD, env, deadline, SETUP_SAMPLES[1])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    results = [r for p in ([baseline] if baseline else []) + passes for r in p.ops]
    return {
        "environment": machine,
        "ops": ops,
        "setup_s": statistics.median(setup),
        "reference_s": gauge.samples,
        "baseline": baseline,
        "passes": passes,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        # a failure the program reports is counted in "failed"; an output
        # that the program calls a success and the checks reject is wrong
        "correct": not any(r.returncode == 0 and r.problems for r in results),
    }


def end_to_end(run: dict) -> dict[str, float]:
    """wall_per_ref is the median pass time over the median time of the
    reference job.  The wall time itself is printed, but not a gated
    metric: a shared machine's speed drifts by tens of percent over
    minutes, and the ratio cancels much of that (README, "Bounds and
    noise")."""
    passes = run["passes"]
    return {
        "wall_per_ref": statistics.median(p.wall_s for p in passes)
        / statistics.median(run["reference_s"]),
        "setup_s": run["setup_s"],
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def per_layer(run: dict) -> dict[str, float]:
    by_pass = [p.layers for p in run["passes"]]
    out = {name: statistics.median(m[name] for m in by_pass) for name in by_pass[0]}
    out["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in run["passes"]) - run["baseline"].wall_s
    )
    return out


def own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(name: str, seed: int, run: dict, metrics: dict[str, float], units: dict) -> None:
    """The lines for people, printed before the result line."""
    print(f"environment: {json.dumps(run['environment'])}")
    print(f"workload {name}, seed {seed}: {len(run['ops'])} operations, "
          f"{len(run['passes'])} pass(es)" + (" traced" if run["baseline"] else ""))
    for op, result in zip(run["ops"], run["passes"][0].ops):
        verdict = "; ".join(filter(None, [result.note, *result.problems])) or "ok"
        facts = [f"{result.seconds:.3f} s", f"{result.peak_rss_mb:.0f} MiB",
                 f"{result.output_bytes} output bytes"]
        facts += [f"block dims {op.block_dims()}"] if op.block_dims() else []
        facts += [result.sizes] if result.sizes else []
        print(f"  permsym {' '.join(op.argv())}\n    {', '.join(facts)}: {verdict}")
    walls = [p.wall_s for p in run["passes"]]
    print(f"pass wall times (s), {len(walls)} passes: "
          + ", ".join(f"{w:.3f}" for w in walls)
          + f"; fastest {min(walls):.3f}, median {statistics.median(walls):.3f}, "
          f"slowest {max(walls):.3f}")
    print("reference job (s): " + ", ".join(f"{r:.3f}" for r in run["reference_s"]))
    print(f"wall_s {statistics.median(walls):.6g} s (median pass; not gated)")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(f"benchmark process peak RSS {own_rss_mb():.1f} MiB (a floor under each "
          "operation's figure)")
    print(f"fail_ratio {run['failed'] / run['attempted']:.4g} "
          f"({run['failed']}/{run['attempted']} operations)")
    if run["baseline"] and metrics["ci.ci_solve_s"]:
        print(f"ci blocks (dim, nnz): {run['passes'][0].ci_blocks}")
        parts = ("ci.hamiltonian_matrix_s", "ci.s_squared_matrix_s",
                 "ci.eigensolve_s", "ci.label_s")
        print(f"ci self times: {' + '.join(parts)} = "
              f"{sum(metrics[p] for p in parts):.6f} s of ci.ci_solve_s "
              f"{metrics['ci.ci_solve_s']:.6f} s")


def _stop(signum, frame):
    # unwinds through _spawn and run_workload, which end the child and
    # remove the scratch directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permsym" / "cli.py").is_file():
        print(f"error: no permsym sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, units = per_layer(run), tracer.PER_LAYER
    else:
        metrics, units = end_to_end(run), END_TO_END
    report(args.workload, args.seed, run, metrics, units)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

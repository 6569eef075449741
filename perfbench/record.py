#!/usr/bin/env python3
"""Write a results file: every workload untraced and traced, at one seed,
plus one traced ``compare`` at N=4, M=12 (dim 4356, about 100 s).  Prints
the report of every run, as run.py does, on the way.

    python3 perfbench/record.py --seed 1 --seconds 30 --output perfbench/results/baseline.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import tracer
from workloads import WORKLOADS, Operation

ONE_OFF = Operation("compare", 4, xi=0.1, orbitals=12, max_quanta=4, tol=1e-4)
ONE_OFF_LIMIT_S = 900.0


def _ops(passes) -> list[dict]:
    return [
        {
            "argv": r.op.argv(),
            "exit": r.returncode,
            "seconds": r.seconds,
            "peak_rss_mb": r.peak_rss_mb,
            "output_bytes": r.output_bytes,
            "block_dims": r.op.block_dims(),
            "sizes": r.sizes,
            "problems": r.problems,
            "note": r.note,
        }
        for p in passes
        for r in p.ops
    ]


def _record(name: str, seed: int, seconds: float) -> dict:
    plain = run.run_workload(name, seed, seconds, trace=False)
    totals = run.end_to_end(plain)
    run.report(name, seed, plain, totals, run.END_TO_END)
    traced = run.run_workload(name, seed, seconds, trace=True)
    layers = run.per_layer(traced)
    run.report(name, seed, traced, layers, tracer.PER_LAYER)
    return {
        "why": WORKLOADS[name].why,
        "environment": plain["environment"],
        "end_to_end": {
            key: {"value": value, "unit": run.END_TO_END[key]}
            for key, value in totals.items()
        },
        "pass_wall_s": [p.wall_s for p in plain["passes"]],
        "reference_s": plain["reference_s"],
        "fail_ratio": {
            "value": plain["failed"] / plain["attempted"],
            "failed": plain["failed"],
            "attempted": plain["attempted"],
        },
        "correct": plain["correct"] and traced["correct"],
        "operations": _ops(plain["passes"][:1]),
        "per_layer": {
            key: {"value": value, "unit": tracer.PER_LAYER[key]}
            for key, value in layers.items()
        },
        "traced_environment": traced["environment"],
        "ci_blocks_dim_nnz": traced["passes"][0].ci_blocks,
    }


def _one_off() -> dict:
    env = run.child_env()
    machine = run.environment(env)
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    try:
        deadline = time.perf_counter() + ONE_OFF_LIMIT_S
        traced = run.run_pass([ONE_OFF], env, True, deadline)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return {
        "environment": machine,
        "operations": _ops([traced]),
        "traced_wall_s": traced.wall_s,
        "per_layer": {
            key: {"value": value, "unit": tracer.PER_LAYER[key]}
            for key, value in traced.layers.items()
        },
        "ci_blocks_dim_nnz": traced.ci_blocks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        out["workloads"][name] = _record(name, args.seed, args.seconds)
    out["one_off_n4_m12"] = _one_off()
    print(f"one-off {' '.join(ONE_OFF.argv())}: traced "
          f"{out['one_off_n4_m12']['traced_wall_s']:.1f} s")
    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

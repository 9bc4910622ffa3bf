"""Run the benchmark over several seeds and summarize every workload.

Usage (from the repository root):
    python3 bench/sweep.py [--runs 10] [--first-seed 1]
                           [--workload NAME ...] [--out FILE]

For each workload, runs bench/run.py with --trace 0 once per seed, then
once with --trace 1 on the first seed, for BENCHMARK.json's run_seconds.
For each end-to-end metric, and for the ungated op latency percentiles
and throughput, it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
quartile distance as a share of the median, next to any bound.
The traced run's per-layer metrics and the map from each layer to the
end-to-end metrics it should move are included.  Writes JSON to --out,
or to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import tracer
import workloads
from workloads import ROOT


def _run(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


UNGATED = ("op_p10_ms", "op_p50_ms", "op_p90_ms", "throughput_ops_s",
           "op_cpu_p50_ms", "ref_mean_ms", "setup_cpu_s", "setup_wall_s")
META_FIELDS = UNGATED + ("timed_ops", "ops_outside_p10_p90", "error_rate",
                         "wall_s")


def _quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def summarize(name: str, seeds: list[int], spec: dict) -> dict:
    seconds = spec["run_seconds"]
    runs = []
    for seed in seeds:
        meta, result = _run(name, seed, seconds, 0)
        runs.append({"seed": seed, **{k: meta[k] for k in META_FIELDS},
                     **result})
        print(f"{name} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    end_to_end = {}
    for metric in spec["end_to_end"]:
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "bound": metric["bound"],
            **_quartiles([r["metrics"][metric["name"]]["value"]
                          for r in runs])}
    ungated = {name: _quartiles([r[name] for r in runs])
               for name in UNGATED}
    meta, traced = _run(name, seeds[0], seconds, 1)
    return {
        "end_to_end": end_to_end,
        "ungated": ungated,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "traced_ops": meta["traced_ops"],
        "all_correct": (all(r["correct"] for r in runs)
                        and traced["correct"]),
        "runs": runs,
        "meta": {k: meta[k] for k in ("git_sha", "src_sha256", "src_lines",
                                      "src_files", "python", "nproc")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=workloads.WORKLOADS)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "layer_map": {name: {"workloads": list(where), "moves": list(moves)}
                      for name, where, moves
                      in tracer.LAYERS + tracer.COUNTED},
        "workloads": {},
    }
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in args.workload or workloads.WORKLOADS:
        summary["workloads"][name] = {
            "why": why[name],
            "op_unit": workloads.make(name, seeds[0]).op_unit,
            **summarize(name, seeds, spec)}
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

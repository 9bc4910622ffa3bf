"""Run one benchmark workload once and print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; tcanon is imported from ./src.  The seed
makes the inputs; the program only receives the generated inputs.

--trace 0 runs S seconds of ops in one process and reports three gated
end-to-end metrics: the median set-up CPU time of SETUP_PROBES fresh
processes, started at even intervals of the timed ops, each scaled to
nominal host speed by the reference loop timed around it; this
process's peak resident size; and the mean op time in units of a fixed
reference loop (bench/reference.py) timed between every two ops.  On a
2-vCPU Xeon VM whose other tenants slow its CPU by up to 1.7x for
spells of under a second to minutes, op times in milliseconds spread by
up to 0.35 (quartile distance over median) over 10 seeds, as the share
of a run spent in slow spells varies; the reference loop slows in the
same spells, so the ratio of the two means cancels them.  The op
latency percentiles in milliseconds, throughput, the unscaled set-up
times and the reference loop's own times go into the metadata, ungated.
--trace 1 runs one fixed list of ops four times: to warm up, untraced,
traced and counted.  It reports per-layer calls and self times, scalar
counts and the tracing overhead.  Spans go to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the
run's metadata.  A copy of both goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference
import tracer
import workloads
from workloads import HERE, ROOT, SRC, Recorder

SETUP_PROBES = 9
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_mean_refs": "refs",
}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def metadata(args) -> dict:
    """Recorded with every result, not gated."""
    sources = sorted((SRC / "tcanon").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(sources),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _percentile(times: list[float], q: int) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def _setup_probe(args, index: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload,
         str(args.seed), str(index)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _latencies(times: list[float]) -> dict:
    p10, p90 = _percentile(times, 10), _percentile(times, 90)
    return {
        "op_p10_ms": 1e3 * p10,
        "op_p50_ms": 1e3 * _percentile(times, 50),
        "op_p90_ms": 1e3 * p90,
        "ops_outside_p10_p90": min(sum(1 for t in times if t < p10),
                                   sum(1 for t in times if t > p90)),
        "throughput_ops_s": len(times) / sum(times),
    }


def end_to_end(wl, args) -> tuple[dict, list[Recorder], dict]:
    wl.load()
    cold = Recorder(max_ops=1)
    wl.run(cold, 0)
    # set-up probes are spread over the timed pass, so that their median
    # is not that of one short spell of a busy or an idle host; each cold
    # starts with another op, so that it is not that of one input either
    probes: list[dict | None] = []
    timed = Recorder(seconds=args.seconds,
                     pause=lambda: probes.append(
                         _setup_probe(args, len(probes))),
                     pauses=SETUP_PROBES, reference=True)
    wl.run(timed, 1)
    while len(probes) < SETUP_PROBES:
        probes.append(_setup_probe(args, len(probes)))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.finish([cold, timed])
    good = [p for p in probes if p is not None]
    latencies = _latencies(timed.times)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] / p["ref_s"]
                                      for p in good) * reference.NOMINAL_S
                    if good else None),
        "peak_rss_mib": peak_kib / 1024,
        "op_mean_refs": (statistics.fmean(timed.times)
                         / statistics.fmean(timed.ref_times)),
    }
    extra = {
        "op_unit": wl.op_unit,
        "timed_ops": len(timed.times),
        **latencies,
        "ref_mean_ms": 1e3 * statistics.fmean(timed.ref_times),
        "ref_p50_ms": 1e3 * statistics.median(timed.ref_times),
        "ref_loops": len(timed.ref_times),
        "op_cpu_p50_ms": 1e3 * _percentile(timed.cpu_times, 50),
        "error_rate": len(timed.failed) / len(timed.times),
        "setup_cpu_s": (statistics.median(p["setup_s"] for p in good)
                        if good else None),
        "setup_wall_s": (statistics.median(p["setup_wall_s"] for p in good)
                         if good else None),
        "setup_probes": good,
        "setup_probes_ok": (len(good) == SETUP_PROBES
                            and all(p["ok"] for p in good)),
    }
    return metrics, [cold, timed], extra


def per_layer(wl, args) -> tuple[dict, list[Recorder], dict]:
    wl.load()
    ops = wl.trace_ops(args.seconds)
    # the first pass fills lazy tables, so the untraced and the traced
    # pass do the same work
    warm = Recorder(max_ops=ops)
    wl.run(warm, 1)
    plain = Recorder(max_ops=ops)
    wl.run(plain, 1)

    spans = tracer.Tracer()
    traced = Recorder(max_ops=ops, tracer=spans)
    spans.calibrate()
    spans.install()
    try:
        wl.run(traced, 1)
    finally:
        spans.uninstall()
    spans.calibrate()

    counter = tracer.ScalarCounter()
    counted = Recorder(max_ops=ops, tracer=counter)
    counter.install()
    try:
        wl.run(counted, 1)
    finally:
        counter.uninstall()

    recs = [warm, plain, traced, counted]
    wl.finish(recs)
    metrics = spans.metrics()
    metrics.update(counter.metrics())
    untraced_s, traced_s = sum(plain.times), sum(traced.times)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    span_file = OUT / f"spans-{args.workload}.tsv"
    spans.write(span_file)
    extra = {
        "op_unit": wl.op_unit,
        "traced_ops": ops,
        "spans": len(spans.start),
        "span_file": str(span_file.relative_to(ROOT)),
        "trace_overhead_share": (traced_s - untraced_s) / untraced_s,
        "span_cost_ns": {"own": spans.own_ns, "parent": spans.parent_ns},
        # what tracing cost beyond the calibrated cost per span, as a share
        # of the untraced time: the error left in the self times, give or
        # take the host's change of speed between the two passes
        "uncalibrated_overhead_share":
            (traced_s - untraced_s - len(spans.start)
             * (spans.own_ns + spans.parent_ns) * 1e-9) / untraced_s,
        "bench_sink_s": spans.self_times().get(tracer.SINK_SPAN, (0, 0.0))[1]
        / 1e9,
    }
    return metrics, recs, extra


def main(argv=None) -> int:
    args = _args(argv)
    try:
        workloads.ensure_src_on_path()
    except FileNotFoundError as e:
        print(f"error: {e}; run from the repository root", file=sys.stderr)
        return 2
    meta = metadata(args)
    wl = workloads.make(args.workload, args.seed)
    started = time.perf_counter()
    if args.trace:
        metrics, recs, extra = per_layer(wl, args)
        units = tracer.metric_units()
        correct = True
    else:
        metrics, recs, extra = end_to_end(wl, args)
        units = END_TO_END_UNITS
        correct = extra["setup_probes_ok"] and metrics["setup_s"] is not None
    attempted = sum(len(rec.times) for rec in recs)
    failed = sum(len(rec.failed) for rec in recs)
    meta.update(extra)
    meta["wall_s"] = time.perf_counter() - started
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1)
                      + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time one cold start of a workload in this fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED INDEX

Builds the workload's inputs (not timed), then times from before
`import tcanon` to the end of op INDEX, the first this process runs,
and prints one JSON line:
{"setup_s": <CPU seconds>, "setup_wall_s": <seconds>, "ref_s": <seconds>,
"ok": <whether the op passed its check>}.  The CPU time is that of this
thread, the only one the probe runs; it leaves out the time the probe
waits while other processes run.  `ref_s` is the median time of
REF_LOOPS reference loops run just before and REF_LOOPS just after the
timed part, the host's speed around it.  The checks deferred to a
workload's `finish` run in the main process.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import workloads
from reference import timed_reference

REF_LOOPS = 4


def main() -> int:
    name, seed, index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    wl = workloads.make(name, seed)
    if "tcanon" in sys.modules:
        raise RuntimeError("tcanon was imported before the timer started")
    refs = [timed_reference() for _ in range(REF_LOOPS)]
    cpu_start = time.thread_time()
    start = time.perf_counter()
    wl.load()
    rec = workloads.Recorder(max_ops=1)
    wl.run(rec, index)
    refs += [timed_reference() for _ in range(REF_LOOPS)]
    print(json.dumps({"setup_s": rec.first_cpu_end - cpu_start,
                      "setup_wall_s": rec.first_end - start,
                      "ref_s": statistics.median(refs),
                      "ok": len(rec.times) == 1 and not rec.failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

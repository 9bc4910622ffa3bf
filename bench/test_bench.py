"""Tests of the benchmark itself: inputs, spans, checks and its contract.

Run with: PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Recorder  # noqa: E402

workloads.ensure_src_on_path()

# ops per workload in the short traced passes below
SHORT = {"enumerate": 1, "verify": 1, "oracle": 1, "canonicalize": 2}


# the enumerate stream takes no seed
@pytest.mark.parametrize("name", ["verify", "oracle", "canonicalize"])
def test_a_seed_reproduces_identical_inputs(name, tmp_path):
    first = workloads.make(name, 7, tmp_path / "a")
    again = workloads.make(name, 7, tmp_path / "b")
    other = workloads.make(name, 8, tmp_path / "c")

    def inputs(wl):
        return [wl.op_input(i) for i in range(30)]
    assert inputs(first) == inputs(again)
    assert inputs(first) != inputs(other) or name == "canonicalize"
    if name == "canonicalize":
        assert first.texts == again.texts
        assert first.check_order == again.check_order
        assert first.texts != other.texts
        assert ((tmp_path / "a" / "circuit000.txt").read_text()
                == (tmp_path / "b" / "circuit000.txt").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_named_span_fires_on_its_workload(name, tmp_path):
    wl = workloads.make(name, 3, tmp_path)
    wl.load()
    bound_before = sys.modules["tcanon.cli"].main

    spans = tracer.Tracer()
    rec = Recorder(max_ops=SHORT[name], tracer=spans)
    spans.install()
    try:
        wl.run(rec, 0)
    finally:
        spans.uninstall()
    counter = tracer.ScalarCounter()
    counted = Recorder(max_ops=SHORT[name], tracer=counter)
    counter.install()
    try:
        wl.run(counted, 0)
    finally:
        counter.uninstall()

    assert sys.modules["tcanon.cli"].main is bound_before
    assert not rec.failed and not counted.failed
    fired = spans.metrics()
    fired.update(counter.metrics())
    silent = [layer for layer, where, _ in tracer.LAYERS + tracer.COUNTED
              if name in where and not fired[f"{layer}.calls"]]
    assert silent == []


def test_tracer_cost_is_taken_off_self_times():
    def leaf():
        pass

    def loop(fn, calls):
        for _ in range(calls):
            fn()

    def attempt():
        spans = tracer.Tracer()
        spans.calibrate()
        outer = spans._spanner("outer")
        start = time.perf_counter_ns()
        loop(leaf, calls)
        bare = time.perf_counter_ns() - start
        outer(loop, tracer._wrap(leaf, spans._spanner("leaf")), calls)
        times = spans.self_times()
        assert times["leaf"][0] == calls
        raw = spans.end[0] - spans.start[0]
        return bare, raw, times["outer"][1]

    calls = 20000
    # the host can change speed between calibration and the loop; a
    # calibration that holds shows on one of a few attempts
    for _ in range(5):
        bare, raw, outer_self = attempt()
        if raw > 3 * bare and outer_self < bare + (raw - bare) / 4:
            break
    # uncalibrated, the parent's self time holds most of the tracer's cost
    assert raw > 3 * bare
    assert outer_self < bare + (raw - bare) / 4


def _corrupting_main(real_main, line_number: int):
    """cli.main with one output line changed, counted across calls."""
    seen = [0]

    class Corrupt(io.TextIOBase):
        def __init__(self, out):
            self.out = out

        def write(self, text):
            for line in text.splitlines(keepends=True):
                seen[0] += 1
                if seen[0] == line_number:
                    line = line.replace("+", "-", 1)
                self.out.write(line)
            return len(text)

    def main(argv):
        with contextlib.redirect_stdout(Corrupt(sys.stdout)):
            return real_main(argv)
    return main


def test_a_corrupted_enumerate_line_fails_its_op(tmp_path, monkeypatch):
    wl = workloads.make("enumerate", 0, tmp_path)
    wl.load()
    monkeypatch.setattr(wl._cli, "main", _corrupting_main(wl._cli.main, 1500))
    rec = Recorder(max_ops=3)
    wl.run(rec, 0)
    assert rec.failed == {1}


def test_a_corrupted_canonical_form_fails_its_op(tmp_path, monkeypatch):
    wl = workloads.make("canonicalize", 0, tmp_path)
    wl.load()
    # line 12 is the second op's first layer line
    monkeypatch.setattr(wl._cli, "main", _corrupting_main(wl._cli.main, 12))
    rec = Recorder(max_ops=3)
    wl.run(rec, 0)
    wl.finish([rec])
    assert rec.failed == {1}


def test_a_sign_error_in_the_tail_fails_the_channel_check(tmp_path,
                                                          monkeypatch):
    wl = workloads.make("canonicalize", 0, tmp_path)
    wl.load()
    wl.check_order = [0]
    # a flipped image sign still parses; only the exact channel differs
    lines = wl.DEPTH + 2
    monkeypatch.setattr(wl._cli, "main",
                        _corrupting_main(wl._cli.main, lines - 1))
    rec = Recorder(max_ops=1)
    wl.run(rec, 0)
    assert rec.failed == set()
    wl.finish([rec])
    assert rec.failed == {0}


@pytest.mark.parametrize("name, check", [("verify", "verify_unit_rows"),
                                         ("oracle", "verify_oracle")])
def test_a_report_with_other_counts_fails_its_op(name, check, tmp_path,
                                                 monkeypatch):
    wl = workloads.make(name, 0, tmp_path)
    wl.load()
    census = wl._census
    monkeypatch.setattr(
        census, check,
        lambda n, trials, seed: census.VerificationReport(
            check, counts={"trials": trials - 1}))
    rec = Recorder(max_ops=2)
    wl.run(rec, 0)
    assert rec.failed == {0, 1}


def test_the_reference_loop_is_timed_around_every_op(tmp_path):
    wl = workloads.make("canonicalize", 0, tmp_path)
    wl.load()
    rec = Recorder(max_ops=3, reference=True)
    wl.run(rec, 0)
    assert len(rec.ref_times) == len(rec.times) + 1
    assert all(t > 0 for t in rec.ref_times)
    untimed = Recorder(max_ops=1)
    wl.run(untimed, 0)
    assert untimed.ref_times == []


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracer.metric_units())


def test_every_layer_moves_figures_benchmark_json_lists():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for _, _, moves in tracer.LAYERS + tracer.COUNTED:
        assert set(moves) <= listed


def test_the_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""End-to-end command tests driven through main().

Two subprocess tests cover the console script: one runs the ``tcanon`` entry
point registered in pyproject.toml with no install, the other runs the
``tcanon`` executable on PATH when one exists.  A third runs ``python -m
tcanon`` into a pipe its reader closes early.
"""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import tcanon
from tcanon import census, cli, clifford
from tcanon.census import emit_table
from tcanon.cli import _report_out, main
from tcanon.verify import VerificationReport

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "check": {"type": "string"},
        "passed": {"type": "boolean"},
        "counts": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "failures": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": ["integer", "null"]},
        "mode": {"type": ["string", "null"]},
        "elapsed_seconds": {"type": "number"},
    },
    "required": ["check", "passed", "counts", "failures", "seed", "mode",
                 "elapsed_seconds"],
    "additionalProperties": False,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_matches_the_library_output(capsys):
    code, out, err = run_cli(capsys, "table", "--max-qubits", "4")
    assert code == 0
    assert err == ""
    assert out == emit_table(4)


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "census.tsv"
    code, out, _ = run_cli(capsys, "table", "--max-qubits", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == emit_table(2)


def test_count_all_tcounts_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--qubits", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert "n\t2" in lines
    assert "clifford_order\t11520" in lines
    assert "tcount_1\t15" in lines
    assert "tcount_2\t45" in lines
    assert "total_classes\t60" in lines
    assert "total_unitaries\t691200" in lines


def test_count_single_tcount_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--qubits", "3", "--tcount", "2",
                           "--json")
    assert code == 0
    row = json.loads(out)
    assert row == {"n": 3, "m": 2, "tuples": 1890, "sets": 945,
                   "clifford_order": 92897280,
                   "unitaries": 945 * 92897280}


@pytest.mark.parametrize("argv, tuples, orders", [
    (["--qubits", "5"], 5, 1),
    (["--qubits", "5", "--json"], 5, 1),
    (["--qubits", "5", "--tcount", "3"], 1, 1),
    (["--qubits", "5", "--tcount", "3", "--json"], 1, 1),
], ids=["all", "all-json", "tcount", "tcount-json"])
def test_count_computes_each_value_once(capsys, monkeypatch, argv, tuples,
                                        orders):
    # each name is patched in every module that binds it, so calls made
    # through count_sets or count_tdepth_one are counted too
    calls = {"count_tuples": 0, "group_order": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, home in (("count_tuples", census), ("group_order", clifford)):
        wrapper = counted(name, getattr(home, name))
        for mod in (census, cli, clifford):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapper)
    code, _, _ = run_cli(capsys, "count", *argv)
    assert code == 0
    assert calls == {"count_tuples": tuples, "group_order": orders}


def test_count_table_and_growth_print_one_count(capsys):
    # count, the table's rows and count_tdepth_one (growth's and c10's
    # totals) agree at every width, and count --tcount reports
    # count_sets and count_tuples
    code, table, _ = run_cli(capsys, "table", "--max-qubits", "8")
    assert code == 0
    rows = [line.split("\t") for line in table.splitlines()[1:]]
    for n in range(1, 9):
        code, out, _ = run_cli(capsys, "count", "--qubits", str(n), "--json")
        assert code == 0
        row = json.loads(out)
        totals = (row["total_classes"], row["total_unitaries"])
        assert totals == census.count_tdepth_one(n)
        assert rows[n - 1][0] == str(n)
        assert tuple(map(int, rows[n - 1][-2:])) == totals
        for m in range(1, n + 1):
            code, out, _ = run_cli(capsys, "count", "--qubits", str(n),
                                   "--tcount", str(m), "--json")
            assert code == 0
            row = json.loads(out)
            assert row["sets"] == census.count_sets(n, m)
            assert row["tuples"] == census.count_tuples(n, m)


# sha256 of the widest outputs whose counts CPython still prints
WIDEST_PRINTABLE = [
    (["count", "--qubits", "64"],
     "44e46679cbbd44c079d640abc113d6b7b1beb332d11fa6166fc6c6d5ebcbd325"),
    (["table", "--max-qubits", "64"],
     "5ddd5c1c5a5115ce3093c0f17a3f2dce535caa2ade2d94d72d5f2ac12b425acc"),
]


@pytest.mark.parametrize("argv, digest", WIDEST_PRINTABLE,
                         ids=["count", "table"])
def test_widest_printable_counts_are_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DIGITS = ": the counts exceed Python's limit of"
# enumerate's hard cap comes before its soft one, whose refusal prints the
# set count, so no refusal of a wide enumerate builds that count
HARD_CAP = ("enumeration capped at 7 qubits, with or without --allow-large "
            "(allow_large=True in Python), got n=")


@pytest.mark.parametrize("argv, head", [
    (["count", "--qubits", "65"], "--qubits 65" + DIGITS),
    (["count", "--qubits", "80", "--tcount", "80"], "--qubits 80" + DIGITS),
    (["count", "--qubits", "65", "--json"], "--qubits 65" + DIGITS),
    (["table", "--max-qubits", "65"], "--max-qubits 65" + DIGITS),
    (["enumerate", "--qubits", "100", "--tcount", "100"], HARD_CAP + "100"),
    # refused from a lower bound on the bit length, before the number is
    # built: building it took 7 s at 1,500 qubits and minutes beyond
    (["count", "--qubits", "1500"], "--qubits 1500" + DIGITS),
    (["count", "--qubits", "3000"], "--qubits 3000" + DIGITS),
    (["count", "--qubits", "20000", "--tcount", "20000"],
     "--qubits 20000" + DIGITS),
    (["enumerate", "--qubits", "20000", "--tcount", "20000"],
     HARD_CAP + "20000"),
    # without --allow-large too: the soft cap's advice would not help
    (["enumerate", "--qubits", "8", "--tcount", "1"], HARD_CAP + "8\n"),
], ids=["count", "count-tcount", "count-json", "table", "enumerate",
        "count-1500", "count-3000", "count-tcount-20000", "enumerate-20000",
        "enumerate-8"])
def test_counts_too_long_to_print_fail_before_any_output(capsys, argv, head):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {head}")
    assert "to force" not in err


def _table_refusal(n):
    return (f"error: --max-qubits {n}: the counts exceed Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for printing an "
            "integer\n")


# 130 is the widest table CPython itself refuses to print; from 131 on the
# refusal comes before any row is built, with the same message
@pytest.mark.parametrize("n", [130, 131])
def test_table_refuses_either_side_of_the_up_front_check_alike(capsys, n):
    code, out, err = run_cli(capsys, "table", "--max-qubits", str(n))
    assert (code, out, err) == (2, "", _table_refusal(n))


def test_a_far_too_wide_table_is_refused_before_it_is_built(capsys):
    # building this table's header and first rows before refusing took
    # 26 s and 453 MiB traced on a 2-vCPU host
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "table", "--max-qubits", "2000000")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", _table_refusal(2000000))
    assert elapsed < 2.0
    assert peak < 5 << 20


def test_enumerate_streams_one_line_per_set(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--qubits", "1",
                           "--tcount", "1")
    assert code == 0
    assert out == "+Z\n+X\n+Y\n"


# stdout of `enumerate` at the commit before sets were stored as labels
ENUMERATE_STREAMS = [
    (3, 1, 63,
     "93745e9a22f632a9aca00891606c5a42db569e4422e9981cb20dad0e7040e7db"),
    (3, 2, 945,
     "736bdabe03a2db4e5dbd73962c606b866aa55821e253b28ba9bf5634bffcacd4"),
    (3, 3, 3780,
     "a7a2d4cbf4d2d2b4389951213daff093817ed0fd147db36184a6a6bb7867a86a"),
    (4, 2, 16065,
     "16db6c39782b3f5c46053b30e27967a5315c8c8732a5df380b3b38b6e8080ea1"),
]


@pytest.mark.parametrize("n, m, lines, digest", ENUMERATE_STREAMS)
def test_enumerate_stream_is_pinned(capsys, n, m, lines, digest):
    code, out, _ = run_cli(capsys, "enumerate", "--qubits", str(n),
                           "--tcount", str(m))
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class _CountingOut(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_enumerate_writes_in_blocks(monkeypatch):
    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate", "--qubits", "3", "--tcount", "3"]) == 0
    assert out.getvalue().count("\n") == 3780
    assert out.writes <= math.ceil(3780 / cli._BLOCK_LINES) + 1


# (1, 1) is shorter than one block
@pytest.mark.parametrize("n, m", [(3, 3), (4, 2), (1, 1)])
def test_enumerate_to_file_holds_the_stdout_bytes(tmp_path, capsys, n, m):
    argv = ["enumerate", "--qubits", str(n), "--tcount", str(m)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "sets.txt"
    code, to_file, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0
    assert to_file == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "sets.txt"
    code, out, _ = run_cli(capsys, "enumerate", "--qubits", "2",
                           "--tcount", "2", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 45
    assert all(", " in line for line in lines)


@pytest.mark.parametrize("args", [("5", "1"), ("2", "3"),
                                  ("40", "1", "--allow-large")],
                         ids=["width", "tcount", "allow-large"])
def test_a_refused_enumerate_leaves_its_out_file_alone(tmp_path, capsys,
                                                       args):
    target = tmp_path / "kept.txt"
    target.write_bytes(b"keep\n")
    code, out, err = run_cli(capsys, "enumerate", "--qubits", args[0],
                             "--tcount", *args[1:], "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert target.read_bytes() == b"keep\n"


def test_enumerate_width_guard_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--qubits", "5",
                             "--tcount", "1")
    assert code == 2
    assert "error:" in err
    assert "--allow-large" in err
    # from 8 qubits on the walk's commutation table alone would take
    # 512 MiB and more, so the override stops at 7
    for n in ("40", "8"):
        code, out, err = run_cli(capsys, "enumerate", "--qubits", n,
                                 "--tcount", "1", "--allow-large")
        assert code == 2
        assert out == ""
        assert "capped at 7 qubits" in err and "--allow-large" in err


@pytest.mark.parametrize("check", ["spectrum", "distinctness", "unit-rows"])
def test_sampled_checks_refuse_six_qubits(capsys, check):
    code, out, err = run_cli(capsys, "verify", check, "--qubits", "6",
                             "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: sampled {check} capped at 5 qubits, got 6\n"


def test_verify_json_report_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "unit-rows", "--qubits", "1",
                           "--trials", "5", "--seed", "7", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["check"] == "unit-rows"
    assert report["passed"] is True
    assert report["seed"] == 7


def test_verify_exhaustive_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "distinctness", "--qubits", "1",
                           "--exhaustive", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["mode"] == "exhaustive"
    assert report["counts"]["pairs"] == 3


def test_verify_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "spectrum", "--qubits", "1",
                           "--exhaustive")
    assert code == 0
    assert out.startswith("spectrum: pass [forms=3]")


@pytest.mark.parametrize("argv", [
    ("oracle", "--qubits", "1", "--trials", "-3"),
    ("unit-rows", "--qubits", "1", "--trials", "-1"),
    ("spectrum", "--qubits", "0"),
    ("distinctness", "--qubits", "0"),
    ("oracle", "--qubits", "-2"),
    ("hamming-weight", "--qubits", "0"),
    ("hamming-weight", "--qubits", "-1"),
    ("spectrum", "--qubits", "2", "--trials", "0"),
    ("unit-rows", "--qubits", "2", "--trials", "0"),
    ("distinctness", "--qubits", "2", "--trials", "0"),
    # trial 0 is always the empty set, so one trial samples no set
    ("unit-rows", "--qubits", "2", "--trials", "1"),
])
def test_verify_rejects_bad_width_or_trials(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need ")
    assert "randrange" not in err


@pytest.mark.parametrize("argv, flag", [
    (("oracle", "--qubits", "1", "--exhaustive"), "--exhaustive"),
    (("unit-rows", "--qubits", "1", "--exhaustive"), "--exhaustive"),
    (("hamming-weight", "--qubits", "1", "--exhaustive"), "--exhaustive"),
    (("spectrum", "--qubits", "1", "--exhaustive", "--trials", "5"),
     "--trials"),
    (("distinctness", "--qubits", "1", "--exhaustive", "--seed", "4"),
     "--seed"),
    (("hamming-weight", "--qubits", "2", "--trials", "7", "--seed", "3"),
     "--trials"),
    (("hamming-weight", "--qubits", "2", "--seed", "random"), "--seed"),
    (("distinctness", "--qubits", "1", "--exhaustive", "--trials", "5"),
     "--trials"),
    (("spectrum", "--qubits", "1", "--exhaustive", "--seed", "4"), "--seed"),
])
def test_verify_refuses_flags_its_check_does_not_read(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("check", list(cli._VERIFIERS))
def test_each_verify_row_reads_the_flags_its_function_takes(check):
    # --exhaustive becomes the mode argument; --trials and --seed are
    # passed on by name, so a new check cannot drift from the table
    from tcanon import verify
    function, reads = cli._VERIFIERS[check]
    takes = inspect.signature(getattr(verify, function)).parameters
    assert ("exhaustive" in reads) == ("mode" in takes)
    for flag in ("trials", "seed"):
        assert (flag in reads) == (flag in takes)
    assert set(reads) <= {"exhaustive", "trials", "seed"}


def test_enumerate_has_no_workers_flag():
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--qubits", "2", "--tcount", "1", "--workers", "2"])
    assert info.value.code == 2


def test_verify_rejects_bad_seed():
    with pytest.raises(SystemExit) as info:
        main(["verify", "oracle", "--qubits", "1", "--seed", "abc"])
    assert info.value.code == 2


def test_verify_refuses_a_negative_seed(capsys):
    # random.Random(-5) would run seed 5's stream and report seed -5
    with pytest.raises(SystemExit) as info:
        main(["verify", "unit-rows", "--qubits", "2", "--seed", "-5"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: need a seed >= 0, got -5" in captured.err


def test_verify_has_no_kmax_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "hamming-weight", "--qubits", "2", "--kmax", "1"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("check", ["spectrum", "distinctness"])
def test_exhaustive_checks_refuse_three_qubits(capsys, check):
    code, out, err = run_cli(capsys, "verify", check, "--qubits", "3",
                             "--exhaustive")
    assert code == 2
    assert out == ""
    assert err == f"error: exhaustive {check} capped at 2 qubits, got 3\n"


# int() would read "1_0" as 10, "+1" as 1 and Arabic-Indic two as 2
_FLAG_ARGV = {
    "--qubits": ("count", "--qubits", "{}"),
    "--tcount": ("count", "--qubits", "2", "--tcount", "{}"),
    "--max-qubits": ("table", "--max-qubits", "{}"),
    "--trials": ("verify", "oracle", "--qubits", "1", "--trials", "{}"),
    "--seed": ("verify", "oracle", "--qubits", "1", "--seed", "{}"),
}


@pytest.mark.parametrize("value", ["1_0", "+1", "\u0662"])
@pytest.mark.parametrize("flag", sorted(_FLAG_ARGV))
def test_integer_flags_refuse_what_int_would_misread(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main([arg.format(value) for arg in _FLAG_ARGV[flag]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err
    assert repr(value) in captured.err


def test_verify_draws_a_seed_for_the_word_random(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--qubits", "1",
                           "--trials", "1", "--seed", "random", "--json")
    assert code == 0
    assert isinstance(json.loads(out)["seed"], int)


def test_verify_rejects_unknown_check():
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense", "--qubits", "1"])
    assert info.value.code == 2


def test_failing_report_exits_one(capsys):
    bad = VerificationReport(check="demo")
    bad.failures.append("it broke")
    assert _report_out(bad, as_json=False) == 1
    out = capsys.readouterr().out
    assert "counterexample: it broke" in out


def test_growth_json(capsys):
    code, out, _ = run_cli(capsys, "growth", "--max-qubits", "12", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["passed"] is True


def test_canonicalize_single_t_from_stdin(capsys, monkeypatch):
    text = "QUBITS: 1\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "canonicalize")
    assert code == 0
    assert out == "P: +Z | C: +Y, +Z\ntcount: 1\n"


def test_canonicalize_depth_zero(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("QUBITS: 1\nCLIFFORD: H 0\n"))
    code, out, _ = run_cli(capsys, "canonicalize")
    assert code == 0
    assert out == "P: - | C: +Z, +X\ntcount: 0\n"


def test_canonicalize_file_round_trip(tmp_path, capsys):
    src = tmp_path / "circ.txt"
    dst = tmp_path / "form.txt"
    src.write_text("QUBITS: 2\nCLIFFORD: H 0\nTLAYER: t=0 tdg=1\nCLIFFORD: CX 0 1\n")
    code, out, _ = run_cli(capsys, "canonicalize", "--in", str(src),
                           "--out", str(dst))
    assert code == 0
    assert out == ""
    body = dst.read_text()
    assert body.startswith("P: ")
    assert body.strip().endswith("tcount: 2")


def test_canonicalize_deep_circuit_layout(capsys, monkeypatch):
    text = ("QUBITS: 1\n"
            "CLIFFORD:\nTLAYER: t=0\nCLIFFORD: H 0\nTLAYER: tdg=0\nCLIFFORD:\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "canonicalize")
    assert code == 0
    # T gives +Z and folds an S into the prefix; H then S' maps Z to +Y
    assert out == "layer 1: +Z\nlayer 2: +Y\nC: +Z, +Y\ntgates: 2\n"


def test_canonicalize_at_the_width_cap(tmp_path, capsys):
    # a ceiling: this file took 2.8-5.5 s while commutation was tested
    # label by label and text was rendered one letter at a time
    n = 1024
    word = "; ".join([f"H {q}" for q in range(n)]
                     + [f"CX {q} {q + 1}" for q in range(0, n, 2)])
    layer = (f"TLAYER: t={','.join(map(str, range(0, n, 2)))} "
             f"tdg={','.join(map(str, range(1, n, 2)))}\n")
    src = tmp_path / "wide.txt"
    src.write_text(f"QUBITS: {n}\n" + layer.join([f"CLIFFORD: {word}\n"] * 3))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "canonicalize", "--in", str(src))
    assert time.perf_counter() - start < 2.5
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "31f950f0e82d3814f2f740ef45c9f23a2177faa19c5cddc4311842a3d266518b")


def test_canonicalize_parse_error_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("BOGUS LINE\n"))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("layer", ["t=0,0", "tdg=1,1", "t=0 t=0"])
def test_canonicalize_rejects_a_repeated_qubit_in_a_layer(capsys, monkeypatch,
                                                          layer):
    text = f"QUBITS: 2\nCLIFFORD:\nTLAYER: {layer}\nCLIFFORD:\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert out == ""
    assert "marked twice" in err
    assert f"(at offset {text.index('TLAYER')})" in err


# each dropped an item or an empty field and canonicalized what was left
@pytest.mark.parametrize("header", ["QUBITS: 2\n", ""],
                         ids=["declared", "inferred"])
@pytest.mark.parametrize("layer", ["tdg t=0", "t=0 tdg=", "t=0,,1", "t=0,"])
def test_canonicalize_rejects_a_layer_item_without_indices(
        capsys, monkeypatch, header, layer):
    text = f"{header}CLIFFORD: H 1\nTLAYER: {layer}\nCLIFFORD:\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty qubit index in T layer item ")
    assert f"(at offset {text.index('TLAYER')})" in err


# "+1", "1_0" and Arabic-Indic one are widths int() would misread
@pytest.mark.parametrize("width", ["0", "-2", "+1", "1_0", "\u0661"])
def test_canonicalize_rejects_a_width_below_one(capsys, monkeypatch, width):
    text = f"# header\nQUBITS: {width}\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert out == ""
    assert "QUBITS" in err
    assert f"(at offset {text.index('QUBITS')})" in err


@pytest.mark.parametrize("text, line", [
    ("QUBITS: 100000\nCLIFFORD:\n", "QUBITS"),
    ("QUBITS: 1025\nCLIFFORD:\n", "QUBITS"),
    ("CLIFFORD:\nTLAYER: t=0,1024\nCLIFFORD:\n", "TLAYER"),
], ids=["declared-100000", "declared-1025", "inferred-1025"])
def test_canonicalize_refuses_a_width_above_1024(capsys, monkeypatch, text,
                                                 line):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert out == ""
    assert "1024" in err
    assert f"(at offset {text.index(line)})" in err


@pytest.mark.parametrize("text, message, line", [
    ("CLIFFORD: H -1\n", "qubit -1 out of range", "CLIFFORD: H -1"),
    ("# no width\nCLIFFORD: H 0\nTLAYER: t=0\nCLIFFORD: CX 1 -1\n",
     "qubit -1 out of range", "CLIFFORD: CX 1 -1"),
    ("CLIFFORD: H 2\nTLAYER: t=0 tdg=-2\nCLIFFORD:\n",
     "qubit -2 out of range", "TLAYER: t=0 tdg=-2"),
    ("CLIFFORD:\nTLAYER: t=-3\nCLIFFORD:\n", "qubit -3 out of range",
     "TLAYER: t=-3"),
    ("CLIFFORD:\nTLAYER: t=1_0\nCLIFFORD:\n", "bad qubit index '1_0'",
     "TLAYER"),
    ("CLIFFORD: H +1\n", "bad qubit index '+1'", "CLIFFORD"),
    ("CLIFFORD: H 0\nTLAYER: t=\u0661\nCLIFFORD:\n",
     "bad qubit index '\u0661'", "TLAYER"),
    ("QUBITS: 2\nCLIFFORD: CX 0 +1\n", "bad qubit index", "CLIFFORD"),
    ("QUBITS: 2\nCLIFFORD:\nTLAYER: tdg=1_0\nCLIFFORD:\n",
     "bad qubit index '1_0'", "TLAYER"),
    ("QUBITS: 2\nQUBITS: 1\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:\n",
     "repeated QUBITS line", "QUBITS: 1"),
], ids=["only-index", "gate-line", "layer-line", "only-layer-index",
        "layer-underscore", "gate-plus", "layer-non-ascii",
        "declared-gate-plus", "declared-layer-underscore", "repeated-qubits"])
def test_canonicalize_names_a_negative_index_when_inferring_width(
        capsys, monkeypatch, text, message, line):
    # and, inferred or declared, an index int() would misread ("1_0" as
    # 10, "+1" as 1), or a second QUBITS line that would override the first
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert out == ""
    assert message in err
    assert f"(at offset {text.index(line)})" in err


# the gate error comes first, then the two bad lines swap places; a
# line-structure error neither hides an earlier bad gate nor is hidden by
# a later one
@pytest.mark.parametrize("body, message, line", [
    ("CLIFFORD: FOO 0\nTLAYER: t=-3\nCLIFFORD:\n", "unknown gate 'FOO'",
     "CLIFFORD: FOO"),
    ("CLIFFORD:\nTLAYER: t=-3\nCLIFFORD: FOO 0\n", "qubit -3 out of range",
     "TLAYER"),
    ("CLIFFORD: FOO 0\nCLIFFORD:\n", "unknown gate 'FOO'", "CLIFFORD: FOO"),
    ("CLIFFORD: FOO 0\nTLAYER: t=0\n", "unknown gate 'FOO'", "CLIFFORD: FOO"),
    ("CLIFFORD: FOO 0\nHELLO\n", "unknown gate 'FOO'", "CLIFFORD: FOO"),
    ("CLIFFORD: H 0\nHELLO\nCLIFFORD: FOO 0\n", "unrecognized line 'HELLO'",
     "HELLO"),
    ("CLIFFORD: H 0\nCLIFFORD: FOO 0\n",
     "CLIFFORD and TLAYER lines must alternate", "CLIFFORD: FOO"),
    # the same error whether the width is declared or inferred; a bad
    # trailing layer names its own error before the missing CLIFFORD line
    ("CLIFFORD: CX 0 x\n", "bad qubit index 'x' in 'CX 0 x'", "CLIFFORD"),
    ("CLIFFORD:\nTLAYER: t=0 foo=x\nCLIFFORD:\n", "bad T layer key 'foo'",
     "TLAYER"),
    ("CLIFFORD: h\n", "gate H expects 1 qubit(s): 'h'", "CLIFFORD"),
    ("CLIFFORD:\nTLAYER: t=0,0\n",
     "qubit marked twice in one layer: [0, 0]", "TLAYER"),
], ids=["gate-first", "index-first", "gate-before-alternation",
        "gate-before-trailing-layer", "gate-before-unknown-line",
        "unknown-line-first", "alternation-first", "bad-gate-index",
        "bad-layer-key", "gate-without-index", "bad-trailing-layer"])
@pytest.mark.parametrize("header", ["QUBITS: 1\n", ""],
                         ids=["declared", "inferred"])
def test_canonicalize_reports_the_first_bad_line_of_the_file(
        capsys, monkeypatch, header, body, message, line):
    text = header + body
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "canonicalize")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert f"(at offset {text.index(line)})" in err


@pytest.mark.parametrize("width", ["0", "-3"])
def test_growth_rejects_widths_below_one(capsys, width):
    code, out, err = run_cli(capsys, "growth", "--max-qubits", width)
    assert code == 2
    assert out == ""
    assert err.startswith("error: need ")


@pytest.mark.parametrize("width", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("count", "--qubits"),
    ("enumerate", "--tcount", "1", "--qubits"),
    *(("verify", check, "--qubits") for check in (
        "distinctness", "unit-rows", "hamming-weight", "spectrum", "oracle")),
    # the width is refused before the flags the check would not read
    ("verify", "oracle", "--exhaustive", "--trials", "3", "--qubits"),
    ("table", "--max-qubits"),
    ("growth", "--max-qubits"),
])
def test_a_width_below_one_is_refused_by_its_flag(capsys, argv, width):
    code, out, err = run_cli(capsys, *argv, width)
    assert (code, out) == (2, "")
    assert err == f"error: need {argv[-1]} >= 1, got {width}\n"


def test_missing_input_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "canonicalize", "--in",
                             "/nonexistent/circuit.txt")
    assert code == 2
    assert "error:" in err


def _main_in_this_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _main_in_a_fresh_process(argv):
    package_root = str(Path(tcanon.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tcanon.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root})
    return proc.returncode, proc.stdout, proc.stderr


def _without_elapsed(result):
    code, out, err = result
    if out.startswith("{"):
        report = json.loads(out)
        report.pop("elapsed_seconds")
        out = report
    return code, out, err


def test_calls_in_one_process_read_and_report_as_fresh_processes(
        capsys, tmp_path):
    """The parser is built once per process; no call's flags, defaults or
    errors may carry over into the next call."""
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("CLIFFORD: H 0; CX 0 1\nTLAYER: t=0 tdg=1\n"
                       "CLIFFORD: S 1\n", encoding="utf-8")
    calls = [
        ["count", "--qubits", "two"],
        ["count", "--qubits", "2"],
        ["verify", "spectrum", "--qubits", "2", "--seed", "5", "--json"],
        ["verify", "spectrum", "--qubits", "2", "--json"],
        ["canonicalize", "--in", str(circuit)],
        ["canonicalize", "--in", str(circuit)],
    ]
    here = [_main_in_this_process(capsys, argv) for argv in calls]
    assert [r[0] for r in here] == [2, 0, 0, 0, 0, 0]
    assert "usage: tcanon count" in here[0][2]
    assert [json.loads(here[k][1])["seed"] for k in (2, 3)] == [5, 1729]
    assert here[4] == here[5]
    for argv, result in zip(calls, here):
        assert (_without_elapsed(result)
                == _without_elapsed(_main_in_a_fresh_process(argv))), argv


# The exit-code contract over the whole CLI: every run exits 0 or 2, or 1
# for a verify run that found a counterexample, and no run dies with a
# traceback.  Input bound, so that every run finishes or is refused in
# well under a second: integers are -1..3, where every command finishes,
# or 65, 100 and 1,500, where every command that reads them as a width is
# refused for size; --trials stays at most 3, since a sampled check is
# never refused for its trial count; --allow-large comes only with a
# width of at most 3 or a huge one, since at 4 to 7 qubits it runs a real
# enumeration.
_SMALL = st.integers(-1, 3).map(str)
_INT = st.one_of(_SMALL, st.sampled_from(["65", "100", "1500"]))
_JUNK = st.sampled_from(["", "x", "-", "1_0", "+1", "\u0663", "1e3",
                         "--bogus", "random"])
_CIRCUIT = "CLIFFORD: H 0; CX 0 1\nTLAYER: t=0 tdg=1\nCLIFFORD: S 1\n"


def _command_lines(root: Path):
    """Argument lists: a command, some of its flags in any order, each
    with a value, and perhaps a junk token anywhere."""
    (root / "circuit.txt").write_text(_CIRCUIT, encoding="utf-8")
    (root / "junk.txt").write_text("CLIFFORD: H 9\nTLAYER:\n", encoding="utf-8")
    ins = st.sampled_from([str(root / name) for name in
                           ("circuit.txt", "junk.txt", "missing.txt", "")])
    outs = st.sampled_from([str(root / "out.txt"), str(root),
                            str(root / "missing" / "out.txt")])
    switch = st.just(None)
    flags = {
        "count": {"--qubits": _INT, "--tcount": _INT, "--json": switch},
        "table": {"--max-qubits": _INT, "--out": outs},
        "enumerate": {"--qubits": _INT, "--tcount": _INT, "--out": outs},
        "verify": {"--qubits": _INT, "--trials": _SMALL,
                   "--seed": st.one_of(_INT, st.just("random")),
                   "--exhaustive": switch, "--json": switch},
        "growth": {"--max-qubits": _INT, "--json": switch},
        "canonicalize": {"--in": ins, "--out": outs},
    }
    required = {"--qubits", "--max-qubits", "--tcount"}
    # a required flag is left out, another flag put in, and a junk token
    # put in, each once in four
    often = st.sampled_from([True, True, True, False])
    rarely = st.sampled_from([False, False, False, True])

    @st.composite
    def lines(draw):
        command = draw(st.sampled_from(sorted(flags)))
        own = dict(flags[command])
        groups = []
        if command == "verify":
            groups.append([draw(st.sampled_from(
                ["distinctness", "unit-rows", "hamming-weight", "spectrum",
                 "oracle", "bogus"]))])
        if command == "enumerate" and draw(st.booleans()):
            groups.append(["--allow-large"])
            own["--qubits"] = _INT
        for flag, values in own.items():
            if draw(often if flag in required else rarely):
                value = draw(values)
                groups.append([flag] if value is None else [flag, value])
        argv = [token for group in draw(st.permutations(groups))
                for token in group]
        if draw(rarely):
            argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
        return [command, *argv]
    return lines()


def _exit_and_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(_CIRCUIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse's usage errors and --help
        code = e.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def command_lines(tmp_path_factory):
    return _command_lines(tmp_path_factory.mktemp("cli"))


def test_every_command_line_exits_zero_one_or_two(command_lines):
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(command_lines)
    def check(argv):
        # an exception other than SystemExit leaves main: a traceback
        code, out, err = _exit_and_streams(argv)
        assert "Traceback" not in err
        if code == 1:
            assert argv[0] == "verify" and "counterexample" in out
        else:
            assert code in (0, 2), (code, err)
    check()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TCANON_EXECUTABLE = shutil.which("tcanon")
TABLE_ARGS = ["table", "--max-qubits", "1"]


def _assert_prints_table(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == emit_table(1)


def test_console_script_runs(tmp_path):
    """Run the registered ``tcanon`` entry point as its console script would.

    The child imports the same source tree as this process, from another
    working directory, so no install is needed.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "tcanon" in scripts
    match = re.fullmatch(r"([\w.]+):(\w+)", scripts["tcanon"])
    assert match, f"not of the form module:function: {scripts['tcanon']!r}"
    module, function = match.groups()

    package_root = str(Path(tcanon.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    launcher = ("import importlib, sys; sys.argv[0] = 'tcanon'; "
                f"sys.exit(getattr(importlib.import_module({module!r}), "
                f"{function!r})())")
    proc = subprocess.run([sys.executable, "-c", launcher, *TABLE_ARGS],
                          capture_output=True, text=True, timeout=60,
                          cwd=tmp_path, env=env)
    _assert_prints_table(proc)


@pytest.mark.skipif(TCANON_EXECUTABLE is None,
                    reason="no tcanon executable on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run([TCANON_EXECUTABLE, *TABLE_ARGS],
                          capture_output=True, text=True, timeout=60)
    _assert_prints_table(proc)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_a_reader_closing_the_pipe_ends_the_process_by_sigpipe():
    # a reader that stops early is not bad input: no message, no exit 2
    package_root = str(Path(tcanon.__file__).resolve().parent.parent)
    with subprocess.Popen(
            [sys.executable, "-m", "tcanon", "enumerate", "--qubits", "4",
             "--tcount", "4"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": package_root}) as proc:
        assert proc.stdout.readline() == b"+IIIZ, +IIZI, +IZII, +ZIII\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert stderr == b""

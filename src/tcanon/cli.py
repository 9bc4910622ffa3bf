"""Command-line surface: counting, enumeration, verification, canonicalization.

Exit codes: 0 all checks pass, 1 a verification found a counterexample,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
from typing import TYPE_CHECKING, Iterable

from .pauli import LabelNames, parse_index

if TYPE_CHECKING:
    from .verify import VerificationReport

# enumerate writes this many lines at a time: few enough that a reader
# sees the stream move, enough that the per-write cost stays small
_BLOCK_LINES = 64


def _int_arg(value: str) -> int:
    """An integer flag in ASCII decimal digits, read as parse_index reads
    a qubit index: "1_0", "+1" and non-ASCII digits are refused, and a
    negative value is left to the command's own range check."""
    try:
        return parse_index(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need an ASCII decimal integer, got {value!r}") from None


def _seed_arg(value: str) -> int:
    """Integer seed >= 0, or the literal word "random" for a fresh one.  A
    negative seed is refused: random.Random(-5) seeds as Random(5) does."""
    if value == "random":
        import random
        return random.SystemRandom().randrange(1 << 31)
    try:
        seed = parse_index(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer or 'random', got {value!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a seed >= 0, got {seed}")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args returns a fresh namespace each
    call, and prog is fixed rather than read from sys.argv."""
    top = argparse.ArgumentParser(
        prog="tcanon",
        description="Exact census and canonical forms of T-depth-one "
                    "Clifford+T unitaries.")
    sub = top.add_subparsers(dest="command", required=True)

    # each command names its handler and the dest of its width flag, which
    # main refuses below 1; canonicalize has none
    p = sub.add_parser("count", help="counting formulas for one (n, m) or all m")
    p.set_defaults(run=_cmd_count, width="qubits")
    p.add_argument("--qubits", type=_int_arg, required=True)
    p.add_argument("--tcount", type=_int_arg, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="per-size census table (TSV)")
    p.set_defaults(run=_cmd_count, width="max_qubits")
    p.add_argument("--max-qubits", type=_int_arg, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("enumerate", help="stream every set, one per line")
    p.set_defaults(run=_cmd_enumerate, width="qubits")
    p.add_argument("--qubits", type=_int_arg, required=True)
    p.add_argument("--tcount", type=_int_arg, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("verify", help="machine-check one of the lemmas")
    p.set_defaults(run=_cmd_verify, width="qubits")
    p.add_argument("check", choices=_VERIFIERS)
    p.add_argument("--qubits", type=_int_arg, required=True)
    p.add_argument("--trials", type=_int_arg, default=None)
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("growth", help="witness the 2^(n^2) lower bound")
    p.set_defaults(run=_cmd_growth, width="max_qubits")
    p.add_argument("--max-qubits", type=_int_arg, default=16)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("canonicalize", help="normalize a layered circuit file")
    p.set_defaults(run=_cmd_canonicalize, width=None)
    p.add_argument("--in", dest="infile", default=None,
                   help="circuit file (default: stdin)")
    p.add_argument("--out", default=None)
    return top


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk with one write, to the file out or to stdout."""
    with (open(out, "w", encoding="utf-8") if out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        for chunk in chunks:
            fh.write(chunk)


def _cmd_count(args) -> int:
    """Write the whole output of count (census.count_row as text or JSON)
    or of table, built before any of it is written.  A width whose counts
    CPython could not print is refused with one text: before any value is
    built if it could not print the Clifford order, which both print and
    which is at least 2^(n^2 + 2n), as 4 * limit bits are over limit
    digits (a limit of 0 is none); else where CPython refuses, from 65
    qubits up to the 130 let through at the default limit."""
    n = getattr(args, args.width)
    limit = sys.get_int_max_str_digits()
    refusal = (f"--{args.width.replace('_', '-')} {n}: the counts exceed "
               f"Python's limit of {limit} digits for printing an integer")
    if limit and n * n + 2 * n >= 4 * limit:
        raise ValueError(refusal)
    from . import census
    try:
        if args.command == "table":
            text = census.emit_table(n)
        elif args.json:
            import json
            text = json.dumps(census.count_row(n, args.tcount), indent=2)
            text += "\n"
        else:
            text = "".join(
                "".join(f"tcount_{j}\t{c}\n" for j, c in v.items())
                if isinstance(v, dict) else f"{k}\t{v}\n"
                for k, v in census.count_row(n, args.tcount).items())
    except ValueError as e:
        if "integer string conversion" not in str(e):
            raise
        raise ValueError(refusal) from None
    _write([text], getattr(args, "out", None))
    return 0


def _cmd_enumerate(args) -> int:
    from .census import enumerate_sets
    stream = enumerate_sets(args.qubits, args.tcount,
                            allow_large=args.allow_large)
    # one memo for the whole stream: each distinct label is rendered once
    lines = map(LabelNames(args.qubits).render, stream)
    blocks = iter(lambda: list(itertools.islice(lines, _BLOCK_LINES)), [])
    _write(("\n".join(block) + "\n" for block in blocks), args.out)
    return 0


def _report_out(report: VerificationReport, as_json: bool) -> int:
    if as_json:
        import json
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.summary())
        for f in report.failures:
            print(f"  counterexample: {f}")
    return 0 if report.passed else 1


# each check's verify function, by name, and the flags it reads; one that
# reads --exhaustive runs sampled without it, and reads no other flag with
# it.  verify is imported only to run a check
_VERIFIERS = {
    "distinctness": ("verify_distinctness", ("exhaustive", "trials", "seed")),
    "unit-rows": ("verify_unit_rows", ("trials", "seed")),
    "hamming-weight": ("verify_hamming_weight", ()),
    "spectrum": ("verify_spectrum", ("exhaustive", "trials", "seed")),
    "oracle": ("verify_oracle", ("trials", "seed")),
}


def _cmd_verify(args) -> int:
    """Run one check.  A flag the check would not read is refused, not
    ignored, and only the flags given are passed on, so the defaults for
    trials and seed live in verify."""
    check = args.check
    function, reads = _VERIFIERS[check]
    if args.exhaustive and "exhaustive" not in reads:
        modal = " and ".join(c for c, (_, flags) in _VERIFIERS.items()
                             if "exhaustive" in flags)
        raise ValueError(f"--exhaustive applies to {modal}, not {check}")
    given = {name: value for name, value in (("trials", args.trials),
             ("seed", args.seed)) if value is not None}
    for name in given:
        if args.exhaustive or name not in reads:
            run = f"exhaustive {check}" if args.exhaustive else check
            raise ValueError(f"--{name} is not read by {run}")
    if "exhaustive" in reads:
        given["mode"] = "exhaustive" if args.exhaustive else "sampled"
    from . import verify
    return _report_out(getattr(verify, function)(args.qubits, **given),
                       args.json)


def _cmd_growth(args) -> int:
    from .verify import growth_check
    return _report_out(growth_check(args.max_qubits), args.json)


def _cmd_canonicalize(args) -> int:
    from . import canonical
    if args.infile is None:
        text = sys.stdin.read()
    else:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    circ = canonical.parse_circuit(text)
    _write([canonical.render_canonical(*canonical.canonicalize_depth_d(circ))],
           args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        n = getattr(args, args.width) if args.width else 1
        if n < 1:
            raise ValueError(
                f"need --{args.width.replace('_', '-')} >= 1, got {n}")
        return args.run(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    """The console script's entry: a reader that closes the pipe early
    ends the process by SIGPIPE, silently, as it ends other filters."""
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())

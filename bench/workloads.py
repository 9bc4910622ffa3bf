"""The benchmark's four workloads: inputs from a seed, timed ops, checks.

Each workload drives tcanon through its public functions, one op at a
time, in a closed loop with a single caller.  Inputs are made with the
standard library only, so building them never imports tcanon; `load`
does the import, and the set-up probe times it together with the first,
cold op.  Output checks run between ops and are never inside an op's
time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import time
import traceback
from pathlib import Path

from reference import timed_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

QUBITS = 4


def ensure_src_on_path() -> None:
    """Make `import tcanon` resolve to this checkout's source tree."""
    if not (SRC / "tcanon" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tcanon sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Stop(BaseException):
    """Raised from inside a streaming op once the recorder has enough ops.

    A BaseException, so that no `except Exception` on the way out of the
    program can swallow it.
    """


class Recorder:
    """Op times and failures of one pass; says when the pass is done.

    A pass ends after `max_ops` ops or once `seconds` have elapsed,
    whichever is set.  Each op has a wall time and the CPU time of this
    thread.  `tracer`, when given, is paused while checks run.  `pause`,
    when given, is called `pauses` times at even intervals of a timed
    pass, between ops; the time it takes is added to the deadline.
    With `reference`, the reference loop is timed between every two ops,
    and before the first and after the last, into `ref_times`.
    """

    def __init__(self, max_ops: int | None = None,
                 seconds: float | None = None, tracer=None,
                 pause=None, pauses: int = 0, reference: bool = False):
        self.max_ops = max_ops
        now = time.perf_counter()
        self.deadline = None if seconds is None else now + seconds
        self.tracer = tracer
        self.times: list[float] = []
        self.cpu_times: list[float] = []
        self.reference = reference
        self.ref_times: list[float] = []
        self.inputs: list = []
        self.failed: set[int] = set()
        self.first_end: float | None = None
        self.first_cpu_end: float | None = None
        self._reported = False
        self._pause = pause
        self._pauses_left = pauses if pause is not None else 0
        self._interval = seconds / pauses if self._pauses_left else 0.0
        self._next_pause = now

    def add(self, start: float, end: float, cpu_start: float,
            cpu_end: float, ok: bool, op_input=None) -> None:
        if not ok:
            self.failed.add(len(self.times))
        if self.first_end is None:
            self.first_end = end
            self.first_cpu_end = cpu_end
        self.times.append(end - start)
        self.cpu_times.append(cpu_end - cpu_start)
        self.inputs.append(op_input)

    def fail(self, index: int) -> None:
        self.failed.add(index)

    def done(self) -> bool:
        if self.reference:
            self.ref_times.append(timed_reference())
        if self.max_ops is not None and len(self.times) >= self.max_ops:
            return True
        if self.deadline is None:
            return False
        now = time.perf_counter()
        if self._pauses_left and now >= self._next_pause:
            self._pauses_left -= 1
            self._pause()
            paused = time.perf_counter() - now
            self.deadline += paused
            self._next_pause = now + paused + self._interval
            now = time.perf_counter()
        return now >= self.deadline

    def checking(self):
        """Context for check code: outside every span and count."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.excluded()

    def report_exception(self) -> None:
        """Print the exception being handled, once per pass."""
        if not self._reported:
            self._reported = True
            traceback.print_exc(file=sys.stderr)


class _Calls:
    """A workload whose op is one call into tcanon returning a value."""

    op_unit = ""

    def op_input(self, index: int):
        raise NotImplementedError

    def call(self, op_input):
        raise NotImplementedError

    def check(self, op_input, out) -> bool:
        raise NotImplementedError

    def run(self, rec: Recorder, first: int = 0) -> None:
        """Run ops first, first + 1, ... until the recorder is done."""
        index = first
        while not rec.done():
            op_input = self.op_input(index)
            cpu_start = time.thread_time()
            start = time.perf_counter()
            try:
                out = self.call(op_input)
                raised = False
            except Exception:
                raised = True
            end = time.perf_counter()
            cpu_end = time.thread_time()
            with rec.checking():
                if raised:
                    rec.report_exception()
                    ok = False
                else:
                    ok = self.check(op_input, out)
            rec.add(start, end, cpu_start, cpu_end, ok, op_input)
            index += 1

    def finish(self, recs: list[Recorder]) -> None:
        """Deferred checks, run after the timed passes; none by default."""


class _CensusCheck(_Calls):
    """A workload whose op is a census check, seeded from the workload
    seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seeds: list[int] = []

    def load(self) -> None:
        ensure_src_on_path()
        from tcanon import census
        self._census = census

    def op_input(self, index: int) -> int:
        while len(self._seeds) <= index:
            self._seeds.append(self._rng.randrange(1 << 31))
        return self._seeds[index]


class Verify(_CensusCheck):
    """Sampled channel checks at the largest supported width, n = 4.

    An op is one round of the three sampled checks, each with the op's
    seed, so that every op does the same mix of work.
    """

    op_unit = "round of verify_spectrum, verify_unit_rows, verify_distinctness"
    # trial 0 of verify_unit_rows is always the empty set, so it needs
    # more than one trial to sample any set at all
    UNIT_ROW_TRIALS = 3
    DISTINCT_PAIRS = 200
    EXPECTED = ({"forms": 1}, {"trials": UNIT_ROW_TRIALS},
                {"pairs": DISTINCT_PAIRS})

    def call(self, seed):
        census = self._census
        return (census.verify_spectrum(QUBITS, "sampled", trials=1,
                                       seed=seed),
                census.verify_unit_rows(QUBITS, trials=self.UNIT_ROW_TRIALS,
                                        seed=seed),
                census.verify_distinctness(QUBITS, "sampled",
                                           trials=self.DISTINCT_PAIRS,
                                           seed=seed))

    def check(self, seed, reports) -> bool:
        return all(report.passed and report.counts == expected
                   for report, expected in zip(reports, self.EXPECTED))

    def trace_ops(self, seconds: int) -> int:
        return max(1, round(seconds / 2))


class Oracle(_CensusCheck):
    """Dense-oracle agreement at n = 2: an op is one verify_oracle call.

    Every call checks the 27 generators (12 gate words and 15 single-Pauli
    exponentials) against their brute-force channels, as every `verify
    oracle` command does, then FORMS random forms drawn from the op's seed.
    """

    op_unit = "verify_oracle(2, trials=1) call"
    ORACLE_QUBITS = 2
    FORMS = 1
    EXPECTED = {"generators": 27, "forms": FORMS}

    def call(self, seed):
        return self._census.verify_oracle(self.ORACLE_QUBITS,
                                          trials=self.FORMS, seed=seed)

    def check(self, seed, report) -> bool:
        return report.passed and report.counts == self.EXPECTED

    def trace_ops(self, seconds: int) -> int:
        return max(1, round(seconds / 4))


_GATES_1 = ("H", "S", "X", "Z")
_GATES_2 = ("CX", "CZ", "SWAP")


def random_gate_word(n: int, rng: random.Random, length: int) -> str:
    tokens = []
    pool = _GATES_1 + _GATES_2
    for _ in range(length):
        name = pool[rng.randrange(len(pool))]
        if name in _GATES_2:
            a, b = rng.sample(range(n), 2)
            tokens.append(f"{name} {a} {b}")
        else:
            tokens.append(f"{name} {rng.randrange(n)}")
    return "; ".join(tokens)


def random_layer(n: int, rng: random.Random) -> tuple[list, list]:
    """(t qubits, tdg qubits): each qubit marked with probability 1/2,
    at least one marked, each mark T or Tdg with equal odds."""
    marked = [q for q in range(n) if rng.getrandbits(1)]
    if not marked:
        marked = [rng.randrange(n)]
    t, tdg = [], []
    for q in marked:
        (tdg if rng.getrandbits(1) else t).append(q)
    return t, tdg


def circuit_text(n: int, words: list, layers: list) -> str:
    lines = [f"QUBITS: {n}"]
    for k, word in enumerate(words):
        lines.append(f"CLIFFORD: {word}")
        if k < len(layers):
            t, tdg = layers[k]
            marks = []
            if t:
                marks.append("t=" + ",".join(map(str, t)))
            if tdg:
                marks.append("tdg=" + ",".join(map(str, tdg)))
            lines.append("TLAYER: " + " ".join(marks))
    return "\n".join(lines) + "\n"


class Canonicalize(_Calls):
    """`tcanon canonicalize` on depth-8, n = 4 circuit files."""

    op_unit = "circuit"
    DEPTH = 8
    WORD_LENGTH = 24
    FILES = 480  # enough that the run median hardly depends on the seed
    CHANNEL_CHECKS = 3  # per run; each builds two dense n = 4 channels

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.circuits = []
        for _ in range(self.FILES):
            words = [random_gate_word(QUBITS, rng, self.WORD_LENGTH)
                     for _ in range(self.DEPTH + 1)]
            layers = [random_layer(QUBITS, rng) for _ in range(self.DEPTH)]
            self.circuits.append((words, layers))
        self.texts = [circuit_text(QUBITS, w, l) for w, l in self.circuits]
        # files in the order their outputs get the exact channel check
        self.check_order = rng.sample(range(self.FILES), self.FILES)
        self.paths = []
        workdir.mkdir(parents=True, exist_ok=True)
        for k, text in enumerate(self.texts):
            path = workdir / f"circuit{k:03d}.txt"
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
        self._first: dict[int, str] = {}
        self._verdicts: dict[int, bool] = {}

    def load(self) -> None:
        ensure_src_on_path()
        from tcanon import canonical, cli, clifford, pauli
        self._cli = cli
        self._canonical = canonical
        self._clifford = clifford
        self._pauli = pauli

    def op_input(self, index: int) -> int:
        return index % self.FILES

    def call(self, k: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self._cli.main(["canonicalize", "--in", self.paths[k]])
        return code, buf.getvalue()

    def check(self, k: int, out) -> bool:
        code, text = out
        if code != 0:
            return False
        first = self._first.get(k)
        if first is not None:
            return text == first
        self._first[k] = text
        try:
            ok = self._decomposition(k, text) is not None
        except ValueError:
            ok = False
        if not ok:
            self._verdicts[k] = False
        return ok

    def _decomposition(self, k: int, text: str):
        """Parse an output back into (sets, tail); None if it is malformed
        or its T count differs from the input's."""
        pauli, clifford = self._pauli, self._clifford
        lines = text.splitlines()
        if len(lines) != self.DEPTH + 2:
            return None
        sets = []
        for d, line in enumerate(lines[:self.DEPTH], start=1):
            head, _, body = line.partition(": ")
            s = pauli.validate_set(
                pauli.parse_pauli(p) for p in body.split(", "))
            # a set renders sorted and positive, as validate_set leaves it
            if (head != f"layer {d}"
                    or ", ".join(p.to_string() for p in s) != body):
                return None
            sets.append(s)
        head, _, body = lines[-2].partition(": ")
        identity = clifford.CliffordTableau.identity(QUBITS)
        tail = (identity if body == "id"
                else clifford.CliffordTableau.from_strings(body.split(", ")))
        rendered = "id" if tail == identity else ", ".join(tail.to_strings())
        if head != "C" or rendered != body:
            return None
        marks = sum(len(t) + len(tdg) for t, tdg in self.circuits[k][1])
        tgates = sum(len(s) for s in sets)
        if lines[-1] != f"tgates: {tgates}" or tgates != marks:
            return None
        return sets, tail

    def _channel_verdict(self, k: int) -> bool:
        """The output's decomposition has the input circuit's exact channel,
        as the c08 acceptance test checks."""
        canonical, clifford = self._canonical, self._clifford
        decomposition = self._decomposition(k, self._first[k])
        if decomposition is None:
            return False
        words, layers = self.circuits[k]
        circ = canonical.TLayerCircuit(
            [clifford.from_gate_word(w, QUBITS) for w in words],
            [canonical.TLayer(QUBITS, t=t, tdg=tdg) for t, tdg in layers])
        return (canonical.channel_of_decomposition(*decomposition)
                == canonical.channel_of_circuit(circ))

    def finish(self, recs: list[Recorder]) -> None:
        """Channel-check the first CHANNEL_CHECKS files in check_order that
        have run, then fail every op on a file whose output is wrong."""
        ran = [k for k in self.check_order if k in self._first]
        for k in ran[:self.CHANNEL_CHECKS]:
            if k not in self._verdicts:
                self._verdicts[k] = self._channel_verdict(k)
        for rec in recs:
            for index, k in enumerate(rec.inputs):
                if not self._verdicts.get(k, True):
                    rec.fail(index)

    def trace_ops(self, seconds: int) -> int:
        return max(1, 5 * seconds)


class Enumerate:
    """`tcanon enumerate --qubits 4 --tcount 3` into an in-memory sink.

    An op is one block of BLOCK consecutive lines of one stream, timed
    at the sink.  The stream's last, shorter block is checked but not
    timed.  A stream that reaches its end starts over.
    """

    op_unit = "block of 1000 lines"
    BLOCK = 1000
    TCOUNT = 3
    ARGV = ["enumerate", "--qubits", str(QUBITS), "--tcount", str(TCOUNT)]
    DIGESTS = HERE / "enumerate_q4_t3.digests"

    def __init__(self, seed: int, workdir: Path):
        # the stream does not depend on the seed
        self.digests = [line.split()[0] for line in
                        self.DIGESTS.read_text(encoding="ascii").splitlines()
                        if line and not line.startswith("#")]

    def load(self) -> None:
        ensure_src_on_path()
        from tcanon import census, cli
        self._cli = cli
        self.total = census.count_sets(QUBITS, self.TCOUNT)

    def run(self, rec: Recorder, first: int = 0) -> None:
        while not rec.done():
            sink = _BlockSink(self, rec)
            try:
                with contextlib.redirect_stdout(sink):
                    sink.begin()
                    code = self._cli.main(list(self.ARGV))
            except Stop:
                return
            except Exception:
                code = None
                with rec.checking():
                    rec.report_exception()
            sink.end_of_stream(code)

    def finish(self, recs: list[Recorder]) -> None:
        """Every check already ran at the sink."""

    def trace_ops(self, seconds: int) -> int:
        return max(1, 4 * seconds)


def block_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class _BlockSink:
    """File-like stdout replacement that cuts the stream into blocks."""

    def __init__(self, workload: Enumerate, rec: Recorder):
        self.workload = workload
        self.rec = rec
        self.parts: list[str] = []
        self.lines = 0
        self.block = 0
        self.start = self.cpu_start = 0.0
        # when traced, the sink's own time is a span of its own, so that
        # it does not count as self time of the CLI function that prints
        span = getattr(rec.tracer, "sink_span", None)
        if span is not None:
            write = self.write
            self.write = lambda text: span(write, text)

    def begin(self) -> None:
        """Start timing the next block."""
        self.cpu_start = time.thread_time()
        self.start = time.perf_counter()

    def write(self, text: str) -> int:
        # the CLI writes one line per call; a longer write is cut into
        # blocks at line ends all the same
        count = text.count("\n")
        if self.lines + count < self.workload.BLOCK:
            self.parts.append(text)
            self.lines += count
            return len(text)
        for line in text.splitlines(keepends=True):
            self.parts.append(line)
            if line.endswith("\n"):
                self.lines += 1
                if self.lines == self.workload.BLOCK:
                    self._end_block(time.perf_counter(), time.thread_time())
        return len(text)

    def flush(self) -> None:
        pass

    def _end_block(self, end: float, cpu_end: float) -> None:
        rec = self.rec
        with rec.checking():
            text = "".join(self.parts)
            self.parts = []
            self.lines = 0
            digests = self.workload.digests
            ok = (self.block < len(digests)
                  and block_digest(text) == digests[self.block])
        rec.add(self.start, end, self.cpu_start, cpu_end, ok, self.block)
        self.block += 1
        if rec.done():
            raise Stop
        self.begin()

    def end_of_stream(self, code) -> None:
        """Check the stream's tail and length; a bad stream fails its last
        op, or counts as one failed op when it produced no block."""
        rec = self.rec
        with rec.checking():
            wl = self.workload
            tail = "".join(self.parts)
            ok = (code == 0
                  and self.block * wl.BLOCK + self.lines == wl.total
                  and self.block == len(wl.digests) - 1
                  and block_digest(tail) == wl.digests[-1])
        if ok:
            return
        if self.block:
            rec.fail(len(rec.times) - 1)
        else:
            rec.add(self.start, time.perf_counter(), self.cpu_start,
                    time.thread_time(), False, None)


WORKLOADS = ("enumerate", "verify", "oracle", "canonicalize")


def make(name: str, seed: int, workdir: Path | None = None):
    """Build a workload's inputs from the seed; imports nothing of tcanon."""
    if workdir is None:
        workdir = ROOT / ".bench_work" / name
    if name == "enumerate":
        return Enumerate(seed, workdir)
    if name == "verify":
        return Verify(seed)
    if name == "oracle":
        return Oracle(seed)
    if name == "canonicalize":
        return Canonicalize(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

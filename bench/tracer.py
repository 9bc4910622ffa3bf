"""Per-layer spans and counts, patched onto tcanon from outside.

Each traced function is replaced at every binding its callers use: the
attribute of its class, or every module of the tcanon package that holds
the function object, so a function imported by name is wrapped too.  A
span has a name, a start, an end and a parent, and is kept in memory in
flat arrays until the run writes them out.  A span's self time is its
duration minus the time its child spans cover, less the tracer's own
cost: each span's bookkeeping, measured by `calibrate` on an empty
function, is taken off the span and off its parent.

Scalar constructions are counted in a separate pass, with no spans, so
that counting does not inflate the span times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from pathlib import Path

# the gated op time of --trace 0
LATENCY = "op_mean_refs"

# (span name, workloads it fires on, BENCHMARK.json figures it should
# move there).  Layers with no figure should move none: they check that
# sampling stays cheap.
LAYERS = (
    ("census.enumerate_sets", ("enumerate",), (LATENCY,)),
    ("pauli.PauliSet.from_labels", ("enumerate", "verify", "oracle"),
     (LATENCY,)),
    ("pauli.PauliOperator.to_string", ("enumerate", "canonicalize"),
     (LATENCY,)),
    ("cli.main", ("enumerate", "canonicalize"), (LATENCY,)),
    ("clifford.from_gate_word", ("canonicalize", "oracle"), (LATENCY,)),
    ("clifford.CliffordTableau.compose", ("canonicalize", "oracle"),
     (LATENCY,)),
    ("clifford.CliffordTableau.conjugate_pauli",
     ("canonicalize", "verify", "oracle"), (LATENCY,)),
    ("canonical.parse_circuit", ("canonicalize",), (LATENCY,)),
    ("canonical.canonicalize_depth_d", ("canonicalize",), (LATENCY,)),
    ("channel.channel_of_canonical", ("verify", "oracle"),
     (LATENCY, "peak_rss_mib")),
    ("channel.channel_of_clifford", ("verify", "oracle"),
     (LATENCY, "peak_rss_mib")),
    ("channel.ChannelRep.pauli_spectrum", ("verify",), (LATENCY,)),
    ("channel.infer_t_count", ("verify",), (LATENCY,)),
    ("channel.ChannelRep.unit_rows", ("verify",), (LATENCY,)),
    ("channel.exponential_transfer_is_signed_permutation", ("verify",),
     (LATENCY,)),
    ("channel.ChannelRep.__eq__", ("oracle",), (LATENCY,)),
    ("channel.channel_of_exponential", ("oracle",), (LATENCY,)),
    ("oracle.channel_bruteforce", ("oracle",), (LATENCY,)),
    ("oracle.dense_of_gate_word", ("oracle",), (LATENCY,)),
    ("oracle.dense_of_exponential", ("oracle",), (LATENCY,)),
    ("oracle.DenseUnitary.multiply", ("oracle",), (LATENCY,)),
    ("census.random_pauli_set", ("verify", "oracle"), ()),
    ("clifford.random_clifford", ("verify",), ()),
    ("gf2.nullspace", ("verify",), ()),
    ("gf2.solve_affine", ("verify",), ()),
    ("gf2.rank", ("canonicalize",), ()),
)

# constructor counts, from the counting pass
COUNTED = (
    ("exactnum.DyadicSqrt2Scalar.new", ("verify", "oracle"),
     (LATENCY, "peak_rss_mib")),
    ("exactnum.Cyclotomic16Scalar.new", ("oracle",), (LATENCY,)),
)

CHECK_SPAN = "bench.check"
SINK_SPAN = "bench.sink"


def modules() -> list[str]:
    """Modules that own traced spans, in first-use order."""
    out: list[str] = []
    for name, _, _ in LAYERS:
        module = name.split(".", 1)[0]
        if module not in out:
            out.append(module)
    return out


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in modules():
        units[f"{module}.self_s"] = "s"
    for name, _, _ in COUNTED:
        units[f"{name}.calls"] = "count"
    for part in ("untraced_s", "traced_s", "overhead_s"):
        units[f"trace.{part}"] = "s"
    return units


def _resolve(name: str):
    """(owner, attribute) for "module.func" or "module.Class.method"."""
    module, _, rest = name.partition(".")
    owner = importlib.import_module(f"tcanon.{module}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class _Patches:
    """Attribute replacements on tcanon, undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def replace(self, name: str, make):
        """Replace the object `name` resolves to, by `make(original)`.

        A method is replaced on its class.  A module-level function is
        replaced in every tcanon module that binds it, under any name.
        """
        owner, attr = _resolve(name)
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._set(owner, attr, new)
            return
        original = getattr(owner, attr)
        new = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tcanon"
                                   or mod_name.startswith("tcanon.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, new)

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class _SpanIterator:
    """Iterator proxy that times each `next` of a wrapped generator."""

    __slots__ = ("_next", "_span")

    def __init__(self, it, span):
        self._next = it.__next__
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._next)


def _wrap(fn, span):
    """fn, with each call (or each `next` of a generator) in `span`."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            return _SpanIterator(fn(*args, **kwargs), span)
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return span(fn, *args, **kwargs)
    return traced


def _empty(arg):
    pass


def _call_empty(fn, calls: int) -> None:
    for _ in range(calls):
        fn(calls)


class Tracer:
    """Records spans around LAYERS while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._paused = 0
        self._patches = _Patches()
        # spans the benchmark's own stdout sink, when it is traced
        self.sink_span = self._spanner(SINK_SPAN)
        # tracer cost per span (ns): inside the span, and in its parent
        self.own_ns = 0.0
        self.parent_ns = 0.0
        self._own_samples: list[float] = []
        self._parent_samples: list[float] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _spanner(self, name: str):
        """A function that runs fn() inside a span called `name`."""
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.name.append, self.parent.append
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        def span(fn, *args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            i = len(starts)
            names(nid)
            parents(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def install(self) -> None:
        for name, _, _ in LAYERS:
            span = self._spanner(name)
            self._patches.replace(
                name, lambda fn, span=span: _wrap(fn, span))

    def calibrate(self, calls: int = 2000, rounds: int = 9) -> None:
        """Measure the tracer's cost per span on an empty one-argument
        function, as most traced calls are methods.

        `own_ns` is the time a span of the empty function lasts;
        `parent_ns` is what each child span adds to its parent's self
        time, beyond the call it wraps.  Each is the median of all rounds
        of every call so far, so that calibrating before and after a
        traced pass covers the host's speed during it.
        """
        clock = time.perf_counter_ns
        for _ in range(rounds):
            probe = Tracer()
            outer = probe._spanner("outer")
            inner = _wrap(_empty, probe._spanner("inner"))
            start = clock()
            _call_empty(_empty, calls)
            bare = clock() - start
            outer(_call_empty, inner, calls)
            inside = sum(e - s for s, e in zip(probe.start[1:],
                                               probe.end[1:]))
            outer_ns = probe.end[0] - probe.start[0]
            self._own_samples.append(inside / calls)
            self._parent_samples.append((outer_ns - inside - bare) / calls)
        self.own_ns = statistics.median(self._own_samples)
        self.parent_ns = statistics.median(self._parent_samples)

    def uninstall(self) -> None:
        self._patches.restore()

    @contextlib.contextmanager
    def excluded(self):
        """A span for check code: no span opens inside it, and its time
        is subtracted from the self time of the span it sits in."""
        i = len(self.start)
        self.name.append(self._name_id(CHECK_SPAN))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self ns) per span name, less the calibrated tracer cost."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        own, per_child = self.own_ns, self.parent_ns
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i] + per_child
        calls = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        name = self.name
        for i in range(n):
            nid = name[i]
            calls[nid] += 1
            self_ns[nid] += end[i] - start[i] - child[i] - own
        return {span: (calls[nid], max(0.0, self_ns[nid]))
                for nid, span in enumerate(self.names)}

    def metrics(self) -> dict[str, float | int]:
        """calls and self_s per layer, and self_s per module."""
        times = self.self_times()
        out: dict[str, float | int] = {}
        module_ns = {module: 0.0 for module in modules()}
        for layer, _, _ in LAYERS:
            calls, ns = times.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = ns / 1e9
            module_ns[layer.split(".", 1)[0]] += ns
        for module, ns in module_ns.items():
            out[f"{module}.self_s"] = ns / 1e9
        return out

    def write(self, path: Path) -> None:
        """All spans as TSV: id, parent id, name, start and end in ns from
        the first span's start."""
        base = self.start[0] if len(self.start) else 0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent,
                                                   self.start, self.end)):
                fh.write(f"{i}\t{p}\t{names[nid]}\t{s - base}\t{e - base}\n")


class ScalarCounter:
    """Counts scalar constructions while installed."""

    def __init__(self):
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self._paused = 0
        self._patches = _Patches()

    def install(self) -> None:
        for name, _, _ in COUNTED:
            cls_name = name.rsplit(".", 1)[0]  # drop the ".new" suffix

            def make(init, name=name):
                counts = self.counts

                @functools.wraps(init)
                def counted(obj, *args, **kwargs):
                    if not self._paused:
                        counts[name] += 1
                    init(obj, *args, **kwargs)
                return counted

            self._patches.replace(f"{cls_name}.__init__", make)

    def uninstall(self) -> None:
        self._patches.restore()

    @contextlib.contextmanager
    def excluded(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def metrics(self) -> dict[str, int]:
        return {f"{name}.calls": count for name, count in self.counts.items()}

"""Canonical forms for circuits whose T gates sit in parallel layers.

A T-depth-one circuit C1 * (layer of T / Tdg gates) * C2 equals, up to
global phase, a product exp(i*pi*P_1/8) ... exp(i*pi*P_m/8) * C with the
P_j a commuting independent set of positive Paulis and C Clifford.  Up to
phase T is exp(-i*pi*Z/8) and Tdg is exp(+i*pi*Z/8); conjugating each
factor through the left Clifford and flipping any negative exponents with
the Clifford identity exp(-i*pi*P/8) = exp(-i*pi*P/4) * exp(i*pi*P/8)
yields the form constructively.  canonicalize_depth_d is the one
canonicalizer: it sweeps the layers with an accumulated Clifford prefix
and returns (sets, tail), one set per layer and the trailing Clifford, so
depth one is its d = 1 case.  That pair is the only result shape:
render_canonical writes it as the canonicalize command's text at every
depth, and parse_form reads a depth <= 1 line of that text back into it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .clifford import (CliffordTableau, check_index, from_gate_word,
                       parse_gate_word, quarter_exponential)
from .pauli import (LabelNames, PauliSet, parse_index, parse_pauli,
                    validate_labels, validate_set)

if TYPE_CHECKING:
    from .channel import ChannelRep


# the widest circuit file read: the identity tableau alone holds 2n labels
# of 2n bits, and one dense Clifford line prints 2.1 MB at n = 1024
MAX_QUBITS = 1024


class WidthMismatchError(ValueError):
    pass


class ParseError(ValueError):
    """Bad canonical-form or circuit text; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class TLayer:
    """One parallel layer of T and Tdg gates; at least one qubit is marked,
    and none twice.  n=None, a width still to be inferred, runs every
    check but the upper end of the index range."""

    __slots__ = ("n", "marked")

    def __init__(self, n: int | None, t: Iterable[int] = (),
                 tdg: Iterable[int] = ()):
        t = list(t)
        tdg = list(tdg)
        for marks in (t, tdg):
            if len(set(marks)) != len(marks):
                raise ValueError(f"qubit marked twice in one layer: {sorted(marks)}")
        t_set = frozenset(t)
        tdg_set = frozenset(tdg)
        for q in t_set | tdg_set:
            check_index(q, n)
        if t_set & tdg_set:
            raise ValueError(f"qubits marked both t and tdg: {sorted(t_set & tdg_set)}")
        if not (t_set or tdg_set):
            raise ValueError("a T layer needs at least one marked qubit")
        self.n = n
        # (qubit, is_tdg) pairs, ascending by qubit
        self.marked = sorted([(q, False) for q in t] + [(q, True) for q in tdg])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLayer):
            return NotImplemented
        return self.n == other.n and self.marked == other.marked

    def __repr__(self):
        t = [q for q, is_tdg in self.marked if not is_tdg]
        tdg = [q for q, is_tdg in self.marked if is_tdg]
        return f"<TLayer n={self.n} t={t} tdg={tdg}>"


class TLayerCircuit:
    """Alternating word C_0, L_1, C_1, ..., L_d, C_d of uniform width."""

    __slots__ = ("cliffords", "layers")

    def __init__(self, cliffords: Sequence[CliffordTableau],
                 layers: Sequence[TLayer]):
        cliffords = tuple(cliffords)
        layers = tuple(layers)
        if len(cliffords) != len(layers) + 1:
            raise ValueError("need exactly one more Clifford than T layers")
        n = cliffords[0].n
        for c in cliffords:
            if c.n != n:
                raise WidthMismatchError(f"Clifford width {c.n} != {n}")
        for l in layers:
            if l.n != n:
                raise WidthMismatchError(f"T layer width {l.n} != {n}")
        self.cliffords = cliffords
        self.layers = layers

    @property
    def n(self) -> int:
        return self.cliffords[0].n

    @property
    def depth(self) -> int:
        return len(self.layers)


def canonicalize_depth_d(circ: TLayerCircuit) -> tuple[tuple[PauliSet, ...], CliffordTableau]:
    """One Pauli set per layer plus a trailing Clifford; depth one is the
    d = 1 case and depth zero passes the Clifford through.

    Each layer's Z factors are conjugated through the accumulated prefix
    (initial Cliffords and any sign-flip corrections absorbed so far), so
    the result multiplies back to the input up to global phase.
    """
    prefix = circ.cliffords[0]
    n = prefix.n
    sets = []
    for layer, tail in zip(circ.layers, circ.cliffords[1:]):
        factors = []
        for qubit, is_tdg in layer.marked:
            # T contributes exp(-i*pi*Z/8), Tdg exp(+i*pi*Z/8), up to phase;
            # a negative image of Z flips the exponent's sign.  A layer's
            # factors commute, so a correction fixes the images still to come
            label, phase = prefix.zim[qubit]  # the image of Z_qubit
            factors.append(label)
            if (phase == 2) == is_tdg:
                prefix = quarter_exponential(label, prefix)
        sets.append(validate_labels(n, factors))
        prefix = prefix.compose(tail)
    return tuple(sets), prefix


def render_canonical(sets: Sequence[PauliSet], tail: CliffordTableau) -> str:
    """The canonicalize output for canonicalize_depth_d's (sets, tail).  At
    depth <= 1 it is "P: +ZZ | C: id", an empty set written "-", then
    "tcount: m"; deeper, one "layer k:" line per set, then "C:" and
    "tgates:".  The Clifford is "id" or its 2n image strings."""
    names = LabelNames(tail.n)
    count = sum(len(s) for s in sets)
    if len(sets) <= 1:
        left = names.render(sets[0]) if sets else "-"
        return f"P: {left} | C: {tail.render()}\ntcount: {count}\n"
    layers = "".join(f"layer {k}: {names.render(s)}\n"
                     for k, s in enumerate(sets, start=1))
    return f"{layers}C: {tail.render()}\ntgates: {count}\n"


def channel_of_decomposition(sets: Sequence[PauliSet],
                             tail: CliffordTableau) -> ChannelRep:
    """Channel of (exp factors of set 1) ... (exp factors of set d) * tail,
    the product canonicalize_depth_d decomposes a circuit into: channel(tail)
    left-multiplied by each set's closed-form channel."""
    from .channel import channel_of_canonical, channel_of_clifford
    ident = CliffordTableau.identity(tail.n)
    rep = channel_of_clifford(tail)
    for s in reversed(list(sets)):
        rep = channel_of_canonical(s, ident).multiply(rep)
    return rep


def channel_of_circuit(circ: TLayerCircuit) -> ChannelRep:
    """Exact channel of the alternating word, built right to left.  Up to
    phase Tdg is exp(i*pi*Z/8), and T its inverse, whose channel is the
    transpose."""
    from .channel import channel_of_clifford, channel_of_exponential
    n = circ.n
    rep = channel_of_clifford(circ.cliffords[-1])
    for k in range(circ.depth - 1, -1, -1):
        for qubit, is_tdg in circ.layers[k].marked:
            z = channel_of_exponential(n, 1 << (n - 1 - qubit))
            rep = (z if is_tdg else z.transpose()).multiply(rep)
        rep = channel_of_clifford(circ.cliffords[k]).multiply(rep)
    return rep


def _split_top(text: str):
    bar = text.find("|")
    if bar < 0:
        raise ParseError("missing '|' separator", len(text))
    left = text[:bar]
    right = text[bar + 1:]
    lp = left.find("P:")
    if lp < 0:
        raise ParseError("missing 'P:' section", 0)
    rp = right.find("C:")
    if rp < 0:
        raise ParseError("missing 'C:' section", bar + 1)
    return left[lp + 2:], lp + 2, right[rp + 2:], bar + 1 + rp + 2


def parse_form(text: str) -> tuple[tuple[PauliSet, ...], CliffordTableau]:
    """The (sets, tail) of a depth <= 1 line render_canonical writes: ()
    for "P: -", else one set.  Raises ParseError with an offset."""
    set_text, set_off, cl_text, cl_off = _split_top(text)
    elems = []
    if set_text.strip() not in ("-", ""):
        pos = 0
        for piece in set_text.split(","):
            stripped = piece.strip()
            at = set_off + pos + piece.find(stripped[:1]) if stripped else set_off + pos
            if not stripped:
                raise ParseError("empty set element", at)
            try:
                elems.append(parse_pauli(stripped))
            except ValueError as e:
                raise ParseError(str(e), at) from None
            pos += len(piece) + 1
    cl_body = cl_text.strip()
    if cl_body == "id":
        if not elems:
            raise ParseError("cannot infer width of an identity Clifford "
                             "from an empty set", cl_off)
        tableau = CliffordTableau.identity(elems[0].n)
    else:
        strings = [s.strip() for s in cl_text.split(",")]
        try:
            tableau = CliffordTableau.from_strings(strings)
        except ValueError as e:
            raise ParseError(str(e), cl_off) from None
    if not elems:
        return (), tableau
    try:
        pset = validate_set(elems)
    except ValueError as e:
        raise ParseError(str(e), set_off) from None
    if pset.n != tableau.n:
        raise ParseError(f"set width {pset.n} != Clifford width {tableau.n}",
                         set_off)
    return (pset,), tableau


def parse_circuit(text: str) -> TLayerCircuit:
    """Parse the line-oriented circuit format.

    Lines (after stripping '#' comments) alternate strictly:

        QUBITS: 2            optional first line; otherwise the width is
                             inferred from the largest index used; either
                             way at most MAX_QUBITS
        CLIFFORD: H 0; CX 0 1
        TLAYER: t=0 tdg=1
        CLIFFORD:

    The word starts and ends with a CLIFFORD line; an empty gate word is
    the identity.  Each line is checked as it is read, by the same
    tokenizer whether or not the width is declared, so the first bad
    line raises.  A declared width builds each line as it is read; an
    inferred one builds them all once the largest index is known.
    """
    n = None
    payloads = []  # (payload, offset) of each CLIFFORD and TLAYER line
    built = []  # their tableaux and layers, once n is known
    top = -1  # the largest index, while n is not known
    ends = "circuit must start and end with CLIFFORD lines"
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        at = offset + line.find(stripped[:1]) if stripped else offset
        offset += len(raw)
        if not stripped:
            continue
        head = stripped.upper()
        if head.startswith("QUBITS:"):
            if payloads:
                raise ParseError("QUBITS must come first", at)
            if n is not None:
                raise ParseError("repeated QUBITS line", at)
            try:
                n = parse_index(stripped.split(":", 1)[1].strip())
            except ValueError:
                raise ParseError("bad QUBITS value", at) from None
            if n < 1:
                raise ParseError(f"need QUBITS >= 1, got {n}", at)
            if n > MAX_QUBITS:
                raise ParseError(f"need QUBITS <= {MAX_QUBITS}, got {n}", at)
            continue
        is_layer = head.startswith("TLAYER:")
        if not (is_layer or head.startswith("CLIFFORD:")):
            raise ParseError(f"unrecognized line {stripped!r}", at)
        if is_layer != len(payloads) & 1:
            raise ParseError("CLIFFORD and TLAYER lines must alternate"
                             if payloads else ends, at)
        payload = stripped.split(":", 1)[1]
        try:
            if n is not None:
                built.append(_parse_tlayer(payload, n) if is_layer
                             else from_gate_word(payload, n))
            elif is_layer:
                layer = _parse_tlayer(payload, None)
                top = max(top, layer.marked[-1][0])
            else:
                for _, qubits in parse_gate_word(payload, None):
                    top = max(top, *qubits)
            if top >= MAX_QUBITS:
                raise ValueError(f"qubit {top} out of range; widths are "
                                 f"capped at {MAX_QUBITS} qubits")
        except ValueError as e:
            raise ParseError(str(e), at) from None
        payloads.append((payload, at))
    if not payloads:
        raise ParseError("empty circuit", 0)
    if not len(payloads) & 1:  # a TLAYER line last
        raise ParseError(ends, payloads[-1][1])
    if n is None:
        if top < 0:
            raise ParseError("cannot infer width; add a QUBITS line", 0)
        built = [_parse_tlayer(payload, top + 1) if k & 1
                 else from_gate_word(payload, top + 1)
                 for k, (payload, _) in enumerate(payloads)]
    return TLayerCircuit(built[0::2], built[1::2])


def _parse_tlayer(payload: str, n: int | None) -> TLayer:
    """The layer of a TLAYER payload of key=i,j,... items, each key t or
    tdg; n=None is a width still to be inferred."""
    marks = {"t": [], "tdg": []}
    for item in payload.split():
        key, _, val = item.partition("=")
        key = key.lower()
        if key not in marks:
            raise ValueError(f"bad T layer key {key!r}")
        fields = val.split(",")
        if "" in fields:
            raise ValueError(f"empty qubit index in T layer item {item!r}")
        marks[key] += map(parse_index, fields)
    return TLayer(n, marks["t"], marks["tdg"])

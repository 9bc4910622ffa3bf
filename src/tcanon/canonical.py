"""Canonical forms for circuits whose T gates sit in parallel layers.

A T-depth-one circuit C1 * (layer of T / Tdg gates) * C2 equals, up to
global phase, a product exp(i*pi*P_1/8) ... exp(i*pi*P_m/8) * C with the
P_j a commuting independent set of positive Paulis and C Clifford.  Up to
phase T is exp(-i*pi*Z/8) and Tdg is exp(+i*pi*Z/8); conjugating each
factor through the left Clifford and flipping any negative exponents with
the Clifford identity exp(-i*pi*P/8) = exp(-i*pi*P/4) * exp(i*pi*P/8)
yields the form constructively.  Deeper circuits get one set per layer by
the same sweep with an accumulated Clifford prefix.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .channel import ChannelRep, _rotate_columns, channel_of_clifford
from .clifford import (GATE_ARITY, CliffordTableau, from_gate_word,
                       parse_index, quarter_exponential_tableau)
from .pauli import (LabelNames, PauliOperator, PauliSet, parse_pauli,
                    validate_labels, validate_set)


class WidthMismatchError(ValueError):
    pass


class ParseError(ValueError):
    """Bad canonical-form or circuit text; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class TLayer:
    """One parallel layer of T and Tdg gates; at least one qubit is marked,
    and none twice."""

    __slots__ = ("n", "t_qubits", "tdg_qubits")

    def __init__(self, n: int, t: Iterable[int] = (), tdg: Iterable[int] = ()):
        t = list(t)
        tdg = list(tdg)
        for marks in (t, tdg):
            if len(set(marks)) != len(marks):
                raise ValueError(f"qubit marked twice in one layer: {sorted(marks)}")
        t_set = frozenset(t)
        tdg_set = frozenset(tdg)
        for q in t_set | tdg_set:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for n={n}")
        if t_set & tdg_set:
            raise ValueError(f"qubits marked both t and tdg: {sorted(t_set & tdg_set)}")
        if not (t_set or tdg_set):
            raise ValueError("a T layer needs at least one marked qubit")
        self.n = n
        self.t_qubits = t_set
        self.tdg_qubits = tdg_set

    @property
    def marked(self) -> list[tuple[int, bool]]:
        """(qubit, is_tdg) pairs, ascending by qubit."""
        out = [(q, False) for q in self.t_qubits]
        out += [(q, True) for q in self.tdg_qubits]
        out.sort()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLayer):
            return NotImplemented
        return (self.n == other.n and self.t_qubits == other.t_qubits
                and self.tdg_qubits == other.tdg_qubits)

    def __repr__(self):
        return (f"<TLayer n={self.n} t={sorted(self.t_qubits)} "
                f"tdg={sorted(self.tdg_qubits)}>")


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


class CanonicalForm:
    """A PauliSet of exponential factors and a trailing Clifford."""

    __slots__ = ("paulis", "clifford")

    def __init__(self, paulis: PauliSet, clifford: CliffordTableau):
        if paulis.n != clifford.n:
            raise WidthMismatchError(
                f"set width {paulis.n} != Clifford width {clifford.n}")
        self.paulis = paulis
        self.clifford = clifford

    @property
    def n(self) -> int:
        return self.clifford.n

    @property
    def m(self) -> int:
        return len(self.paulis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.paulis == other.paulis and self.clifford == other.clifford

    def __hash__(self):
        return hash((self.paulis, self.clifford))

    def render(self) -> str:
        """Text form "P: +ZZ | C: id"; an empty set renders as "-" and the
        Clifford as its 2n image strings unless it is the identity."""
        if len(self.paulis):
            left = LabelNames(self.n).render(self.paulis)
        else:
            left = "-"
        return f"P: {left} | C: {self.clifford.render()}"

    def __repr__(self):
        return f"<CanonicalForm {self.render()}>"


def _sweep(cliffords: Sequence[CliffordTableau],
           layers: Sequence[TLayer]) -> tuple[tuple[PauliSet, ...], CliffordTableau]:
    prefix = cliffords[0]
    n = prefix.n
    sets = []
    for layer, tail in zip(layers, cliffords[1:]):
        factors = []
        corrections = []
        for qubit, is_tdg in layer.marked:
            # T contributes exp(-i*pi*Z/8), Tdg exp(+i*pi*Z/8), up to phase;
            # a negative image of Z flips the exponent's sign
            label, phase = prefix.conjugate_pauli(1 << (n - 1 - qubit))
            factors.append(label)
            if (phase == 2) == is_tdg:
                corrections.append(label)
        sets.append(validate_labels(n, factors))
        for label in corrections:
            prefix = quarter_exponential_tableau(label, n).compose(prefix)
        prefix = prefix.compose(tail)
    return tuple(sets), prefix


def canonicalize_depth_one(c1: CliffordTableau, layer: TLayer,
                           c2: CliffordTableau) -> CanonicalForm:
    """Canonical form of C1 * layer * C2, exact up to global phase."""
    if not (c1.n == layer.n == c2.n):
        raise WidthMismatchError(
            f"widths differ: {c1.n}, {layer.n}, {c2.n}")
    sets, tail = _sweep((c1, c2), (layer,))
    return CanonicalForm(sets[0], tail)


def canonicalize_depth_d(circ: TLayerCircuit) -> tuple[tuple[PauliSet, ...], CliffordTableau]:
    """One Pauli set per layer plus a trailing Clifford.

    Each layer's Z factors are conjugated through the accumulated prefix
    (initial Cliffords and any sign-flip corrections absorbed so far), so
    the result multiplies back to the input up to global phase.
    """
    return _sweep(circ.cliffords, circ.layers)


def channel_of_decomposition(sets: Sequence[PauliSet],
                             tail: CliffordTableau) -> ChannelRep:
    """Channel of (exp factors of set 1) ... (exp factors of set d) * tail,
    the product canonicalize_depth_d decomposes a circuit into."""
    rep = channel_of_clifford(tail)
    for s in reversed(list(sets)):
        rep = _rotate_columns(rep, s.labels)
    return rep


def channel_of_circuit(circ: TLayerCircuit) -> ChannelRep:
    """Exact channel of the alternating word, built right to left."""
    n = circ.n
    rep = channel_of_clifford(circ.cliffords[-1])
    for k in range(circ.depth - 1, -1, -1):
        for qubit, is_tdg in circ.layers[k].marked:
            z = PauliOperator.single(n, qubit, "Z").label
            rep = _rotate_columns(rep, [z], inverse=not is_tdg)
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


def parse_form(text: str) -> CanonicalForm:
    """Inverse of CanonicalForm.render; raises ParseError with an offset."""
    set_text, set_off, cl_text, cl_off = _split_top(text)
    body = set_text.strip()
    if body == "-" or body == "":
        elems = []
    else:
        elems = []
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
    if elems:
        try:
            pset = validate_set(elems)
        except ValueError as e:
            raise ParseError(str(e), set_off) from None
    else:
        pset = PauliSet.empty(tableau.n)
    try:
        return CanonicalForm(pset, tableau)
    except WidthMismatchError as e:
        raise ParseError(str(e), set_off) from None


def parse_circuit(text: str) -> TLayerCircuit:
    """Parse the line-oriented circuit format.

    Lines (after stripping '#' comments) alternate strictly:

        QUBITS: 2            optional first line; otherwise the width is
                             inferred from the largest index used
        CLIFFORD: H 0; CX 0 1
        TLAYER: t=0 tdg=1
        CLIFFORD:

    The word starts and ends with a CLIFFORD line; an empty gate word is
    the identity.
    """
    entries = []  # (kind, payload, offset)
    declared = None
    seen_qubits = False
    error = None  # the first structural error; the lines before it go first
    ends = "circuit must start and end with CLIFFORD lines"
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        at = offset + line.find(stripped[:1]) if stripped else offset
        offset += len(raw)
        if not stripped:
            continue
        if stripped.upper().startswith("QUBITS:"):
            if entries:
                error = ParseError("QUBITS must come first", at)
                break
            if seen_qubits:
                raise ParseError("repeated QUBITS line", at)
            seen_qubits = True
            try:
                declared = parse_index(stripped.split(":", 1)[1].strip())
            except ValueError:
                raise ParseError("bad QUBITS value", at) from None
            if declared < 1:
                raise ParseError(f"need QUBITS >= 1, got {declared}", at)
            continue
        if stripped.upper().startswith("CLIFFORD:"):
            kind = "c"
        elif stripped.upper().startswith("TLAYER:"):
            kind = "t"
        else:
            error = ParseError(f"unrecognized line {stripped!r}", at)
            break
        if kind != "ct"[len(entries) & 1]:
            error = ParseError("CLIFFORD and TLAYER lines must alternate"
                               if entries else ends, at)
            break
        entries.append((kind, stripped.split(":", 1)[1], at))
    if error is None and entries and not len(entries) & 1:  # TLAYER last
        error = ParseError(ends, entries.pop()[2])
    if not entries:
        raise error or ParseError("empty circuit", 0)

    stop = len(entries)
    if declared is None:
        declared, stop, error = _infer_width(entries, error)

    cliffords = []
    layers = []
    for kind, payload, at in entries[:stop]:
        if kind == "c":
            try:
                cliffords.append(from_gate_word(payload, declared))
            except ValueError as e:
                raise ParseError(str(e), at) from None
        else:
            try:
                layers.append(_parse_tlayer(payload, declared))
            except ValueError as e:
                raise ParseError(str(e), at) from None
    if error is not None:
        raise error
    return TLayerCircuit(cliffords, layers)


def _layer_items(payload: str):
    """(key, index fields) of each key=i,j,... item of a TLAYER line.  A
    t or tdg item with an empty field, as in "tdg", "t=" or "t=0,,1", is
    refused; any other key is left to the caller."""
    for item in payload.split():
        key, _, val = item.partition("=")
        key = key.lower()
        fields = val.split(",")
        if key in ("t", "tdg") and "" in fields:
            raise ValueError(f"empty qubit index in T layer item {item!r}")
        yield key, fields


def _parse_tlayer(payload: str, n: int) -> TLayer:
    t: list[int] = []
    tdg: list[int] = []
    for key, fields in _layer_items(payload):
        if key not in ("t", "tdg"):
            raise ValueError(f"bad T layer key {key!r}")
        (t if key == "t" else tdg).extend(map(parse_index, fields))
    return TLayer(n, t=t, tdg=tdg)


def _infer_width(entries, error) -> tuple:
    """(width, stop, error) for a circuit without a QUBITS line.  error is
    the ParseError of the first line with a bad index and stop its
    position, so the lines before it are parsed first, at one more than
    their largest index (or 1); with none, stop is past the last line,
    the structural error given is kept, or, if there is none, a circuit
    that names no qubit cannot be sized."""
    top = -1
    for pos, (kind, payload, at) in enumerate(entries):
        try:
            fields = []
            if kind == "c":
                for tok in payload.replace("\n", ";").split(";"):
                    parts = tok.split()
                    if len(parts) > 1 and parts[0].upper() in GATE_ARITY:
                        fields += parts[1:]
            else:
                for _, item_fields in _layer_items(payload):
                    fields += item_fields
            for field in fields:
                if not field:  # only under a bad key, which the parse reports
                    continue
                q = parse_index(field)
                if q < 0:
                    raise ValueError(
                        f"qubit {q} out of range; indices start at 0")
                top = max(top, q)
        except ValueError as e:
            return max(top, 0) + 1, pos, ParseError(str(e), at)
    if top < 0 and error is None:
        raise ParseError("cannot infer width; add a QUBITS line", 0)
    return max(top, 0) + 1, len(entries), error

"""Layer sweep, canonical forms, and the two text formats."""

import random
import re

import pytest
from conftest import conjugate, dense_of
from dense_reference import (dagger, dense_of_pauli,
                             dense_of_quarter_exponential)
from hypothesis import given, settings, strategies as st

from tcanon.canonical import (
    ParseError,
    TLayer,
    TLayerCircuit,
    WidthMismatchError,
    canonicalize_depth_d,
    channel_of_circuit,
    channel_of_decomposition,
    parse_circuit,
    parse_form,
    render_canonical,
)
from tcanon.channel import channel_of_canonical
from tcanon.clifford import (CliffordTableau, from_gate_word,
                             quarter_exponential)
from tcanon.pauli import (PauliOperator, parse_pauli, validate_labels,
                          validate_set)
from tcanon.verify import random_gate_word

ID1 = CliffordTableau.identity(1)
ID2 = CliffordTableau.identity(2)


def random_circuit(n, depth, rng, length=24):
    cliffords = [from_gate_word(random_gate_word(n, rng, length), n)
                 for _ in range(depth + 1)]
    layers = []
    for _ in range(depth):
        qubits = [q for q in range(n) if rng.random() < 0.7] or [rng.randrange(n)]
        tdg = [q for q in qubits if rng.random() < 0.5]
        t = [q for q in qubits if q not in tdg]
        layers.append(TLayer(n, t=t, tdg=tdg))
    return TLayerCircuit(cliffords, layers)


class TestLayerAndCircuitValidation:
    def test_tlayer_marked_is_sorted(self):
        layer = TLayer(3, t=[2, 0], tdg=[1])
        assert layer.marked == [(0, False), (1, True), (2, False)]
        assert layer.n == 3

    def test_tlayer_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TLayer(2, t=[2])
        with pytest.raises(ValueError):
            TLayer(2, t=[0], tdg=[0])
        with pytest.raises(ValueError):
            TLayer(2, t=[0, 0])
        with pytest.raises(ValueError):
            TLayer(2)

    def test_circuit_needs_one_more_clifford(self):
        with pytest.raises(ValueError):
            TLayerCircuit([ID1], [TLayer(1, t=[0])])
        circ = TLayerCircuit([ID1, ID1], [TLayer(1, t=[0])])
        assert circ.depth == 1
        assert circ.n == 1

    def test_circuit_rejects_mixed_widths(self):
        with pytest.raises(WidthMismatchError):
            TLayerCircuit([ID1, ID2], [TLayer(1, t=[0])])
        with pytest.raises(WidthMismatchError):
            TLayerCircuit([ID2, ID2], [TLayer(1, t=[0])])

    def test_form_rejects_mixed_widths(self):
        with pytest.raises(ParseError,
                           match="set width 2 != Clifford width 1") as info:
            parse_form("P: +ZZ | C: +Y, +Z")
        assert info.value.position == 2


def _form_of(circ):
    """A depth-one circuit's form: the sweep's one set and its tail."""
    (paulis,), tail = canonicalize_depth_d(circ)
    return paulis, tail


class TestDepthOne:
    def test_single_t_gives_z_and_s(self):
        paulis, tail = _form_of(TLayerCircuit([ID1, ID1], [TLayer(1, t=[0])]))
        assert len(paulis) == 1
        assert tuple(paulis) == (parse_pauli("Z"),)
        assert tail == from_gate_word("S 0", 1)
        assert (render_canonical((paulis,), tail)
                == "P: +Z | C: +Y, +Z\ntcount: 1\n")

    def test_single_tdg_gives_z_and_identity(self):
        paulis, tail = _form_of(TLayerCircuit([ID1, ID1], [TLayer(1, tdg=[0])]))
        assert tuple(paulis) == (parse_pauli("Z"),)
        assert tail == ID1
        assert render_canonical((paulis,), tail) == "P: +Z | C: id\ntcount: 1\n"

    def test_left_clifford_conjugates_the_factors(self):
        h = from_gate_word("H 0", 1)
        paulis, tail = _form_of(TLayerCircuit([h, ID1], [TLayer(1, tdg=[0])]))
        # H Z H' = X, positive, so the set is {X} and the tail is just H
        assert tuple(paulis) == (parse_pauli("X"),)
        assert tail == h

    def test_negative_image_gets_folded_into_the_tail(self):
        x = from_gate_word("X 0", 1)
        # X Z X' = -Z, so a Tdg behind X needs a quarter correction
        paulis, tail = _form_of(TLayerCircuit([x, ID1], [TLayer(1, tdg=[0])]))
        assert tuple(paulis) == (parse_pauli("Z"),)
        assert (channel_of_canonical(paulis, tail)
                == channel_of_circuit(
                    TLayerCircuit([x, ID1], [TLayer(1, tdg=[0])])))

    def test_width_mismatch_raises(self):
        with pytest.raises(WidthMismatchError):
            canonicalize_depth_d(
                TLayerCircuit([ID1, ID2], [TLayer(2, t=[0])]))

    def test_channel_equality_on_random_circuits(self):
        rng = random.Random(8001)
        for _ in range(15):
            circ = random_circuit(2, 1, rng)
            paulis, tail = _form_of(circ)
            assert len(paulis) == len(circ.layers[0].marked)
            assert (channel_of_canonical(paulis, tail)
                    == channel_of_circuit(circ))


class TestDepthD:
    def test_depth_zero_passes_the_clifford_through(self):
        c = from_gate_word("H 0; S 0", 1)
        sets, tail = canonicalize_depth_d(TLayerCircuit([c], []))
        assert sets == ()
        assert tail == c

    def test_depth_three_channel_equality(self):
        rng = random.Random(8002)
        for _ in range(8):
            circ = random_circuit(2, 3, rng)
            sets, tail = canonicalize_depth_d(circ)
            assert len(sets) == 3
            for s, layer in zip(sets, circ.layers):
                assert len(s) == len(layer.marked)
                validate_set(list(s))  # positive, commuting, independent
            assert channel_of_decomposition(sets, tail) == channel_of_circuit(circ)

    def test_single_set_decomposition_matches_canonical_channel(self):
        rng = random.Random(8003)
        circ = random_circuit(2, 1, rng)
        sets, tail = canonicalize_depth_d(circ)
        assert (channel_of_decomposition(sets, tail)
                == channel_of_canonical(sets[0], tail))


def test_quarter_exponential_matches_dense_conjugation():
    for n in (1, 2):
        for label in range(1, 1 << (2 * n)):
            tab = quarter_exponential(label, CliffordTableau.identity(n))
            u = dense_of_quarter_exponential(n, label, sign=-1)
            udag = dagger(u)
            for glabel in range(1, 1 << (2 * n)):
                g = PauliOperator.from_label(n, glabel)
                got = dense_of(conjugate(tab, g))
                assert got == u.multiply(dense_of_pauli(n, glabel)).multiply(
                    udag)


def test_quarter_exponential_rejects_bad_input_with_value_error():
    # the identity label and labels outside the width
    for label, n in ((0, 2), (16, 2), (-1, 1)):
        with pytest.raises(ValueError):
            quarter_exponential(label, CliffordTableau.identity(n))


def _sweep_by_products(cliffords, layers):
    """The layer sweep with the sign corrections made after the whole
    layer is read, each built as a whole quarter-exponential tableau and
    composed into the prefix."""
    prefix = cliffords[0]
    n = prefix.n
    ident = CliffordTableau.identity(n)
    sets = []
    for layer, tail in zip(layers, cliffords[1:]):
        factors = []
        corrections = []
        for qubit, is_tdg in layer.marked:
            label, phase = prefix.conjugate_pauli(1 << (n - 1 - qubit))
            factors.append(label)
            if (phase == 2) == is_tdg:
                corrections.append(label)
        for label in corrections:
            prefix = quarter_exponential(label, ident).compose(prefix)
        sets.append(validate_labels(n, factors))
        prefix = prefix.compose(tail)
    return tuple(sets), prefix


def test_sweep_matches_composed_quarter_tableaux_at_64_qubits():
    rng = random.Random(8010)
    for depth in (1, 2, 3):
        for _ in range(2):
            circ = random_circuit(64, depth, rng, length=400)
            want = _sweep_by_products(circ.cliffords, circ.layers)
            assert canonicalize_depth_d(circ) == want


class TestFormText:
    def test_round_trip(self):
        rng = random.Random(8004)
        for depth in (1, 0):
            for _ in range(10):
                sets, tail = canonicalize_depth_d(random_circuit(2, depth, rng))
                assert len(sets) == depth
                line = render_canonical(sets, tail).split("\n")[0]
                assert parse_form(line) == (sets, tail)

    def test_identity_clifford_spelling(self):
        (paulis,), tail = parse_form("P: +Z | C: id")
        assert tail == ID1
        assert len(paulis) == 1

    def test_empty_set_renders_as_dash(self):
        h = from_gate_word("H 0", 1)
        assert render_canonical((), h) == "P: - | C: +Z, +X\ntcount: 0\n"
        assert parse_form("P: - | C: +Z, +X") == ((), h)

    @pytest.mark.parametrize(
        "text",
        [
            "P: +Z  C: id",           # missing separator
            "+Z | C: id",             # missing P:
            "P: +Z | id",             # missing C:
            "P: +Q | C: id",          # bad letter
            "P: +X, +Z | C: id",      # anticommuting set
            "P: +ZI, +IZ, +ZZ | C: id",  # dependent set
            "P: +iZ | C: id",         # non-Hermitian factor
            "P: - | C: id",           # width cannot be inferred
            "P: +ZZ | C: +Y, +Z",     # width mismatch
            "P: , | C: id",           # empty element
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_form(text)

    def test_error_carries_an_offset(self):
        text = "P: +Z, +Q | C: id"
        with pytest.raises(ParseError) as info:
            parse_form(text)
        assert info.value.position == text.index("+Q")
        assert "offset" in str(info.value)


class TestCircuitText:
    def test_parse_with_comments_and_widths(self):
        text = """
        # one T sandwiched between Cliffords
        QUBITS: 2
        CLIFFORD: H 0
        TLAYER: t=0 tdg=1
        CLIFFORD:   # identity tail
        """
        circ = parse_circuit(text)
        assert circ.n == 2
        assert circ.depth == 1
        assert circ.cliffords[0] == from_gate_word("H 0", 2)
        assert circ.layers[0] == TLayer(2, t=[0], tdg=[1])
        assert circ.cliffords[1] == ID2

    def test_width_inference_uses_the_largest_index(self):
        circ = parse_circuit("CLIFFORD: CX 0 2\nTLAYER: t=1\nCLIFFORD:")
        assert circ.n == 3

    def test_qubits_line_wins_over_inference(self):
        circ = parse_circuit("QUBITS: 3\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:")
        assert circ.n == 3

    def test_comma_lists_in_layers(self):
        circ = parse_circuit("CLIFFORD:\nTLAYER: t=0,2 tdg=1\nCLIFFORD:")
        assert circ.layers[0] == TLayer(3, t=[0, 2], tdg=[1])

    @pytest.mark.parametrize(
        "text",
        [
            "",                                          # empty
            "TLAYER: t=0",                               # must start with CLIFFORD
            "CLIFFORD:\nTLAYER: t=0",                    # must end with CLIFFORD
            "CLIFFORD:\nCLIFFORD:",                      # no alternation
            "CLIFFORD:\nTLAYER: t=0\nTLAYER: t=0\nCLIFFORD:",
            "CLIFFORD:\nQUBITS: 2\nTLAYER: t=0\nCLIFFORD:",  # QUBITS not first
            "QUBITS: two\nCLIFFORD:",                    # bad width value
            "HELLO: 1",                                  # unknown line
            "CLIFFORD: Q 0\nTLAYER: t=0\nCLIFFORD:",     # bad gate
            "CLIFFORD:\nTLAYER: s=0\nCLIFFORD:",         # bad layer key
            "CLIFFORD:\nTLAYER: t=0 tdg=0\nCLIFFORD:",   # doubly marked qubit
            "CLIFFORD:\nTLAYER:\nCLIFFORD:",             # empty layer
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_circuit(text)

    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_width_below_one_is_a_parse_error_at_the_qubits_line(self, width):
        text = f"\n  QUBITS: {width}\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:"
        with pytest.raises(ParseError) as info:
            parse_circuit(text)
        assert info.value.position == text.index("QUBITS")

    @pytest.mark.parametrize("header", ["QUBITS: 1024\n", ""],
                             ids=["declared", "inferred"])
    def test_a_width_of_1024_qubits_is_read(self, header):
        circ = parse_circuit(header + "CLIFFORD:\nTLAYER: t=1023\nCLIFFORD:")
        assert circ.n == 1024

    @pytest.mark.parametrize("text, line", [
        ("QUBITS: 1025\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:", "QUBITS"),
        ("CLIFFORD: H 0\nTLAYER: t=1024\nCLIFFORD:", "TLAYER"),
        ("CLIFFORD: H 3\nTLAYER: t=0\nCLIFFORD: CX 1024 0", "CLIFFORD: CX"),
    ], ids=["declared", "inferred-layer", "inferred-gate"])
    def test_a_width_above_1024_qubits_is_refused_at_its_line(self, text,
                                                              line):
        with pytest.raises(ParseError, match="1024") as info:
            parse_circuit(text)
        assert info.value.position == text.index(line)

    def test_depth_zero_line(self):
        circ = parse_circuit("QUBITS: 1\nCLIFFORD: S 0; S 0")
        assert circ.depth == 0
        assert circ.cliffords[0] == from_gate_word("S 0; S 0", 1)

    def test_channel_of_parsed_circuit(self):
        text = "QUBITS: 1\nCLIFFORD:\nTLAYER: t=0\nCLIFFORD:"
        circ = parse_circuit(text)
        paulis, tail = _form_of(circ)
        assert (channel_of_canonical(paulis, tail)
                == channel_of_circuit(circ))


# Circuit text with indices below 4, good and bad, mostly alternating
# CLIFFORD and TLAYER lines; shrinking leads to the alternating form.
INDEX_FIELDS = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "x", "+1",
                                "1_0", ""])
GATE_TOKENS = st.builds(lambda name, fields: " ".join([name, *fields]),
                        st.sampled_from(["H", "s", "CX", "cz", "SWAP", "FOO"]),
                        st.lists(INDEX_FIELDS, max_size=3))
LAYER_ITEMS = st.builds(lambda key, fields: f"{key}={','.join(fields)}",
                        st.sampled_from(["t", "tdg", "T", "foo"]),
                        st.lists(INDEX_FIELDS, min_size=1, max_size=3))


@st.composite
def circuit_texts(draw):
    lines = []
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["ct"[k & 1]] * 4 + ["c", "t", "other"]))
        if kind == "c":
            tokens = draw(st.lists(GATE_TOKENS, max_size=3))
            lines.append("CLIFFORD: " + "; ".join(tokens))
        elif kind == "t":
            items = draw(st.lists(LAYER_ITEMS, max_size=3))
            lines.append("TLAYER: " + " ".join(items))
        else:
            lines.append(draw(st.sampled_from(["HELLO", "# note", "  "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True,
                             database=None, deadline=None)


def _parsed(text):
    """(n, cliffords, layers) of a circuit, or its ParseError."""
    try:
        circ = parse_circuit(text)
    except ParseError as e:
        return e
    return circ.n, circ.cliffords, circ.layers


@PROPERTY_SETTINGS
@given(st.one_of(
    st.text(max_size=60),
    circuit_texts(),
    st.builds(lambda w, text: f"QUBITS: {w}\n{text}",
              st.sampled_from(["1", "2", "4", "0", "-1", "x", ""]),
              circuit_texts()),
    st.builds(str.__add__, circuit_texts(), st.text(max_size=20))))
def test_circuit_text_raises_nothing_but_parse_error(text):
    _parsed(text)


@PROPERTY_SETTINGS
@given(circuit_texts())
def test_a_declared_width_changes_nothing_but_the_range_check(text):
    header = "QUBITS: 4\n"
    inferred = _parsed(text)
    declared = _parsed(header + text)
    if not isinstance(inferred, ParseError):
        assert not isinstance(declared, ParseError)
        assert inferred == _parsed(f"QUBITS: {inferred[0]}\n{text}")
        return
    message = str(inferred).rsplit(" (at offset", 1)[0]
    if message == "cannot infer width; add a QUBITS line":
        assert not isinstance(declared, ParseError)  # no qubit named
        return
    assert isinstance(declared, ParseError)

    def wording(error):
        return re.sub(r"out of range( for n=\d+|; indices start at 0)",
                      "out of range", str(error).rsplit(" (at offset", 1)[0])

    assert wording(declared) == wording(inferred)
    shift = 0 if message == "empty circuit" else len(header)
    assert declared.position == inferred.position + shift


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
def test_depth_d_decomposition_keeps_the_channel(n, depth, rng):
    circ = random_circuit(n, depth, rng)
    sets, tail = canonicalize_depth_d(circ)
    assert channel_of_decomposition(sets, tail) == channel_of_circuit(circ)


@st.composite
def shallow_circuit_texts(draw):
    """A declared-width circuit of depth 0 or 1 on 1-3 qubits: random gate
    words, the empty word among them, and a layer marking some qubits."""
    n = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    words = [random_gate_word(n, rng, draw(st.integers(0, 24)))
             for _ in range(2)]
    lines = [f"QUBITS: {n}", f"CLIFFORD: {words[0]}"]
    if draw(st.integers(0, 3)):  # mostly depth one
        keys = draw(st.lists(st.sampled_from([None, "t", "tdg"]),
                             min_size=n, max_size=n).filter(any))
        items = [f"{key}={q}" for q, key in enumerate(keys) if key]
        lines += ["TLAYER: " + " ".join(items), f"CLIFFORD: {words[1]}"]
    return "\n".join(lines) + "\n"


@PROPERTY_SETTINGS
@given(shallow_circuit_texts())
def test_a_depth_one_form_reads_back_from_its_text(text):
    circ = parse_circuit(text)
    sets, tail = canonicalize_depth_d(circ)
    if not sets and tail == CliffordTableau.identity(circ.n):
        return  # "P: - | C: id" names no width
    line = render_canonical(sets, tail).splitlines()[0]
    assert parse_form(line) == (sets, tail)


def test_an_empty_form_with_an_identity_tail_does_not_read_back():
    # the one depth <= 1 text parse_form refuses: neither side names a width
    sets, tail = canonicalize_depth_d(parse_circuit("QUBITS: 2\nCLIFFORD:\n"))
    line = render_canonical(sets, tail).splitlines()[0]
    assert line == "P: - | C: id"
    with pytest.raises(ParseError) as info:
        parse_form(line)
    assert str(info.value) == ("cannot infer width of an identity Clifford "
                               "from an empty set (at offset 9)")
    assert info.value.position == 9

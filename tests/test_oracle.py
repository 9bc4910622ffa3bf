"""Dense-matrix reference implementation: small, slow, and independent."""

import ast
import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from conftest import dense_of
from dense_reference import (CYC_I, CYC_INV_SQRT2, CYC_ONE, CYC_ZERO,
                             cyc_add, cyc_mul, cyc_neg, dagger,
                             dense_of_pauli, dense_of_quarter_exponential,
                             identity_plus, pauli_product, signed_exponential,
                             to_dyadic, zeta_power)
from tcanon.canonical import TLayer, channel_of_circuit, parse_circuit
from tcanon.exactnum import Cyclotomic16Scalar, cyclotomic_dot
from tcanon import oracle
from tcanon.oracle import (
    DenseUnitary,
    NonRealEntryError,
    SizeRefusalError,
    channel_bruteforce,
    dense_of_exponential,
    dense_of_gate_word,
    dense_of_t_layer,
)
from tcanon.verify import _generator_words, random_gate_word, random_pauli_set
from tcanon.channel import (ChannelRep, channel_of_clifford,
                            channel_of_exponential)
from tcanon.cli import main
from tcanon.clifford import GATE_ARITY, from_gate_word
from tcanon.pauli import PauliOperator, parse_pauli

C = Cyclotomic16Scalar
Z1 = 0b01  # the label of Z on one qubit


def test_identity_and_pauli_matrices():
    assert len(DenseUnitary.identity(2).mat) == 4
    x = dense_of(parse_pauli("X"))
    assert x.mat == [[CYC_ZERO, CYC_ONE], [CYC_ONE, CYC_ZERO]]
    z = dense_of_pauli(1, Z1)
    minus_one, i = cyc_neg(CYC_ONE), zeta_power(4)
    assert z.mat == [[CYC_ONE, CYC_ZERO], [CYC_ZERO, minus_one]]
    y = dense_of(parse_pauli("Y"))
    assert y.mat == [[CYC_ZERO, cyc_neg(i)], [i, CYC_ZERO]]
    assert dense_of(parse_pauli("-X")).mat == [[CYC_ZERO, minus_one],
                                               [minus_one, CYC_ZERO]]
    assert dense_of(parse_pauli("+iX")).mat == [[CYC_ZERO, i],
                                                [i, CYC_ZERO]]


def test_pauli_matrices_are_unitary_and_multiplicative():
    for a, b in itertools.product(range(1, 16), repeat=2):
        pa = PauliOperator.from_label(2, a)
        pb = PauliOperator.from_label(2, b)
        u = dense_of_pauli(2, a)
        assert u.multiply(dagger(u)) == DenseUnitary.identity(2)
        assert (dense_of_pauli(2, a).multiply(dense_of_pauli(2, b))
                == dense_of(pauli_product(pa, pb)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_builder_is_its_scalar_reference_entry_by_entry(n):
    # a channel forgets a global phase, so a builder off by one (say
    # -exp(i*pi*P/8)) passes every channel check; entries pin the phase.
    # (zeta - zeta^7)/2 = cos(pi/8) and (zeta + zeta^7)/2 = i sin(pi/8)
    cos = C((0, 1, 0, 0, 0, 0, 0, -1), 1)
    i_sin = C((0, 1, 0, 0, 0, 0, 0, 1), 1)
    for label in range(1, 1 << (2 * n)):
        assert (dense_of_exponential(n, label).mat
                == identity_plus(n, label, cos, i_sin).mat), label
    dim = 1 << n
    for marks in itertools.product((None, "t", "tdg"), repeat=n):
        if not any(marks):
            continue
        want = [[CYC_ZERO] * dim for _ in range(dim)]
        for b in range(dim):
            want[b][b] = CYC_ONE
            for q, mark in enumerate(marks):
                if mark and b >> (n - 1 - q) & 1:
                    want[b][b] = cyc_mul(
                        want[b][b], zeta_power(2 if mark == "t" else -2))
        layer = TLayer(n, t=[q for q, m in enumerate(marks) if m == "t"],
                       tdg=[q for q, m in enumerate(marks) if m == "tdg"])
        assert dense_of_t_layer(layer).mat == want, marks
    assert DenseUnitary.identity(n).mat == [
        [CYC_ONE if r == c else CYC_ZERO for c in range(dim)]
        for r in range(dim)]


def test_t_gate_is_the_minus_exponential_up_to_phase():
    # channels are faithful up to global phase, so equal channels mean
    # equal unitaries up to phase
    t = dense_of_t_layer(TLayer(1, t=[0]))
    assert t.mat[0][0] == CYC_ONE and t.mat[1][1] == zeta_power(2)
    minus = channel_bruteforce(dagger(dense_of_exponential(1, Z1)))
    plus = channel_bruteforce(dense_of_exponential(1, Z1))
    assert minus != plus
    assert channel_bruteforce(t) == minus
    assert minus == channel_of_exponential(1, Z1).transpose()
    tdg = channel_bruteforce(dense_of_t_layer(TLayer(1, tdg=[0])))
    assert tdg == plus
    assert plus == channel_of_exponential(1, Z1)
    # channel_of_circuit takes T as the transpose, Tdg as the exponential
    layer = channel_bruteforce(dense_of_t_layer(TLayer(2, t=[0], tdg=[1])))
    assert layer == channel_of_circuit(
        parse_circuit("CLIFFORD:\nTLAYER: t=0 tdg=1\nCLIFFORD:\n"))


def test_t_squared_is_s_exactly():
    t = dense_of_t_layer(TLayer(1, t=[0]))
    assert t.multiply(t) == dense_of_gate_word("S 0", 1)


def test_t_layer_tensor_structure():
    tl = dense_of_t_layer(TLayer(2, t=[0], tdg=[1]))
    diag = [tl.mat[i][i] for i in range(4)]
    assert diag == [CYC_ONE, zeta_power(-2), zeta_power(2), CYC_ONE]
    for i, j in itertools.product(range(4), repeat=2):
        if i != j:
            assert tl.mat[i][j].is_zero()


def test_exponentials_are_unitary():
    for label in range(1, 16):
        for u in (dense_of_exponential(2, label),
                  dagger(dense_of_exponential(2, label)),
                  dense_of_quarter_exponential(2, label, sign=1)):
            assert u.multiply(dagger(u)) == DenseUnitary.identity(2)


def test_exponential_inverse_pairs():
    for label in range(1, 4):
        prod = dense_of_exponential(1, label).multiply(
            dagger(dense_of_exponential(1, label)))
        assert prod == DenseUnitary.identity(1)


def test_negative_exponent_splits_into_quarter_times_positive():
    # exp(-i*pi*P/8) = exp(-i*pi*P/4) * exp(+i*pi*P/8), an exact identity
    for n, labels in ((1, range(1, 4)), (2, range(1, 16))):
        for label in labels:
            lhs = dagger(dense_of_exponential(n, label))
            rhs = dense_of_quarter_exponential(n, label, sign=-1).multiply(
                dense_of_exponential(n, label))
            assert lhs == rhs


def test_gate_words_multiply_left_to_right():
    hs = dense_of_gate_word("H 0; S 0", 1)
    assert hs == dense_of_gate_word("H 0", 1).multiply(dense_of_gate_word("S 0", 1))
    assert hs.multiply(dagger(hs)) == DenseUnitary.identity(1)
    assert dense_of_gate_word("", 2) == DenseUnitary.identity(2)


def _gate_on_basis(name, qubits, bits):
    """(amplitude, bits') pairs of G|bits>, bits[q] the value of qubit q."""
    a = qubits[0]
    out = list(bits)
    if name == "H":
        low, high = list(bits), list(bits)
        low[a], high[a] = 0, 1
        return [(CYC_INV_SQRT2, low),
                (cyc_neg(CYC_INV_SQRT2) if bits[a] else CYC_INV_SQRT2, high)]
    if name == "S":
        return [(CYC_I if bits[a] else CYC_ONE, out)]
    if name == "Z":
        return [(cyc_neg(CYC_ONE) if bits[a] else CYC_ONE, out)]
    if name == "CZ":
        both = bits[a] and bits[qubits[1]]
        return [(cyc_neg(CYC_ONE) if both else CYC_ONE, out)]
    if name == "X":
        out[a] ^= 1
    elif name == "CX":
        out[qubits[1]] ^= bits[a]
    else:
        assert name == "SWAP"
        b = qubits[1]
        out[a], out[b] = bits[b], bits[a]
    return [(CYC_ONE, out)]


def _matrix_from_basis_action(token, n):
    # column c holds G|c>; qubit 0 is the most significant bit of c
    name, *qubits = token.split()
    qubits = tuple(int(q) for q in qubits)
    dim = 1 << n
    mat = [[CYC_ZERO] * dim for _ in range(dim)]
    for c in range(dim):
        bits = [c >> (n - 1 - q) & 1 for q in range(n)]
        for amplitude, out in _gate_on_basis(name, qubits, bits):
            r = int("".join(map(str, out)), 2)
            mat[r][c] = cyc_add(mat[r][c], amplitude)
    return mat


def test_every_gate_matrix_is_the_gate_on_basis_states():
    for n in (1, 2, 3):
        for token in _generator_words(n):
            assert (dense_of_gate_word(token, n).mat
                    == _matrix_from_basis_action(token, n)), token


@pytest.mark.parametrize("n", [2, 3])
def test_the_generator_sweep_covers_every_gate(n):
    # a gate added to the alphabet must join the oracle's sweep; at n = 2
    # the sweep is 12 words, 27 with the 15 exponentials
    words = _generator_words(n)
    assert {w.split()[0] for w in words} == set(GATE_ARITY)
    if n == 2:
        assert len(words) == 12


def test_a_word_matrix_is_the_product_of_its_gate_matrices():
    rng = random.Random(1531)
    for i in range(30):
        n = 1 + i % 3
        word = random_gate_word(n, rng, length=rng.randint(0, 30))
        product = DenseUnitary.identity(n)
        for token in filter(None, (t.strip() for t in word.split(";"))):
            product = product.multiply(dense_of_gate_word(token, n))
        assert dense_of_gate_word(word, n) == product, word


def test_size_guard():
    z4 = parse_pauli("ZIII").label
    with pytest.raises(SizeRefusalError):
        dense_of_pauli(4, z4)
    with pytest.raises(SizeRefusalError):
        dense_of_gate_word("H 0", 4)
    with pytest.raises(SizeRefusalError):
        dense_of_exponential(4, z4)
    with pytest.raises(SizeRefusalError):
        dense_of_quarter_exponential(4, z4)
    with pytest.raises(SizeRefusalError):
        dense_of_t_layer(TLayer(4, t=[0]))
    with pytest.raises(SizeRefusalError):
        DenseUnitary.identity(4)
    with pytest.raises(SizeRefusalError):
        channel_bruteforce(DenseUnitary(4, []))


def test_oracle_imports_only_the_tokenizer_and_containers():
    # c07 is evidence only while the oracle shares no arithmetic with the
    # tableau and channel code it checks
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    # an import under `if TYPE_CHECKING:` names a type and never runs
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.If)
                         and ast.unparse(node.test) == "TYPE_CHECKING")]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "tcanon" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "tcanon":
                continue
            assert node.level <= 1
            module = module.removeprefix("tcanon").lstrip(".")
            imported |= {(module, a.name) for a in node.names}
    restricted = {("channel", "ChannelRep"), ("clifford", "parse_gate_word")}
    free = {(mod, name) for mod, name in imported if mod == "exactnum"}
    assert imported - free == restricted


def test_channel_bruteforce_matches_structured_channels():
    for word in ["H 0", "S 0", "H 0; S 0; H 0"]:
        got = channel_bruteforce(dense_of_gate_word(word, 1))
        assert got == channel_of_clifford(from_gate_word(word, 1))
    for label in range(1, 4):
        got = channel_bruteforce(dense_of_exponential(1, label))
        assert got == channel_of_exponential(1, label)


def _z_family_unitary(n, rng):
    # c05's E: the product of exp(i*pi*Z^a/8) over distinct Z-type
    # labels a, independent as there are at most n of them and n <= 2
    e = DenseUnitary.identity(n)
    for a in rng.sample(range(1, 1 << n), rng.randint(1, n)):
        e = e.multiply(dense_of_exponential(n, a))
    return e


def test_channel_bruteforce_columns_match_two_product_conjugation():
    # channel_bruteforce reads every trace off one transform per pair of
    # X-parts; the scalar expansion of the plain U Q U' must give the
    # same, and c05 reads its supports off these columns
    rng = random.Random(2207)
    for n in (1, 2):
        for _ in range(3):
            p = rng.randrange(1, 1 << (2 * n))
            word = dense_of_gate_word(random_gate_word(n, rng), n)
            for u in (word, signed_exponential(n, p, rng.choice((1, -1))),
                      dense_of_exponential(n, p).multiply(word),
                      _z_family_unitary(n, rng)):
                rep = channel_bruteforce(u)
                for q in range(1 << (2 * n)):
                    pq = dense_of_pauli(n, q)
                    m = u.multiply(pq).multiply(dagger(u))
                    want = {label: to_dyadic(v)
                            for label, v in _reference_expand(m).items()}
                    assert rep.cols[q] == want


@pytest.mark.parametrize("label, sign", [
    (0b1001, 0), (0b1001, 2),  # XZ with a sign other than +-1
    (0, 1), (16, 1), (-1, 1),  # the identity, past 4^n, no label at all
])
def test_exponential_rejects_a_bad_sign_or_label(label, sign):
    # the oracle's exponential takes no sign: a bad sign reaches it only
    # through the test-local signed builders
    with pytest.raises(ValueError):
        signed_exponential(2, label, sign)
    with pytest.raises(ValueError):
        dense_of_quarter_exponential(2, label, sign)
    if sign == 1:
        with pytest.raises(ValueError):
            dense_of_exponential(2, label)


@pytest.mark.parametrize("n, label", [(1, -1), (1, 4), (2, 16), (2, -1)])
def test_pauli_rejects_a_label_outside_zero_to_4n(n, label):
    # -1 would wrap the column index into the matrix of Y, and 4^n would
    # run off the matrix
    with pytest.raises(ValueError, match=f"label {label} out of range"):
        dense_of_pauli(n, label)


def test_channel_bruteforce_rejects_values_outside_the_ring():
    # the message names the entry and shows its trace as a scalar
    u = DenseUnitary(1, [[CYC_ONE, zeta_power(1)], [CYC_ZERO, CYC_ONE]])
    with pytest.raises(NonRealEntryError,
                       match=r"entry \(\d+, \d+\) .*Cyclotomic16Scalar\(\("):
        channel_bruteforce(u)


def test_channel_bruteforce_names_the_first_non_real_trace_in_scan_order():
    # four traces are not real dyadic: (2, 2) = zeta - zeta^7, (2, 1) and
    # (3, 2) both zeta^5 - zeta^3, and (3, 1); the kernel scans the X-part
    # of P, then the Z-parts of P and Q, then the X-part of Q, so it names
    # (2, 2) before the lower label pair (2, 1)
    z = zeta_power
    u = DenseUnitary(1, [[z(9), z(5)], [z(4), z(8)]])
    with pytest.raises(NonRealEntryError) as info:
        channel_bruteforce(u)
    assert str(info.value) == (
        "entry (2, 2) is not real dyadic: "
        "Cyclotomic16Scalar((0, 1, 0, 0, 0, 0, 0, -1), 0)")


def test_equal_up_to_phase():
    # the channel forgets a global phase and nothing else
    h = dense_of_gate_word("H 0", 1)
    for k in range(16):
        phase = zeta_power(k)
        scaled = DenseUnitary(1, [[cyc_mul(phase, v) for v in row]
                                  for row in h.mat])
        assert channel_bruteforce(scaled) == channel_bruteforce(h)
    assert (channel_bruteforce(dense_of_pauli(1, parse_pauli("X").label))
            != channel_bruteforce(dense_of_pauli(1, Z1)))
    assert channel_bruteforce(h) != channel_bruteforce(
        dense_of_gate_word("S 0", 1))


def test_dagger_inverts_unitaries():
    u = dense_of_gate_word("H 0; CX 0 1; S 1", 2)
    assert u.multiply(dagger(u)) == DenseUnitary.identity(2)


# Reference construction on scalar objects: every trace is one
# cyclotomic_dot over dense_of_pauli entries, and every column one
# DenseUnitary product.  The oracle's integer-row loops must agree with it.

def _reference_traces(m, dense):
    n = m.n
    out = {}
    for x in range(1 << n):
        terms = [(r, v) for r in range(1 << n)
                 if not (v := m.mat[r ^ x][r]).is_zero()]
        if not terms:
            continue
        for label in range(x << n, (x + 1) << n):
            ph = dense[label].mat
            acc = cyclotomic_dot((ph[r][r ^ x], v) for r, v in terms)
            if not acc.is_zero():
                out[label] = C(acc.c, acc.k + n)
    return out


def _reference_dense_paulis(n):
    return [dense_of_pauli(n, label) for label in range(1 << (2 * n))]


def _reference_expand(u):
    return _reference_traces(u, _reference_dense_paulis(u.n))


def _reference_channel(u):
    n = u.n
    ud = dagger(u)
    dense = _reference_dense_paulis(n)
    cols = []
    for q, pq in enumerate(dense):
        x = q >> n
        uq = DenseUnitary(n, [[cyc_mul(row[c ^ x], pq.mat[c ^ x][c])
                               for c in range(1 << n)] for row in u.mat])
        cols.append({p: to_dyadic(trace) for p, trace
                     in _reference_traces(uq.multiply(ud), dense).items()})
    return ChannelRep(n, cols)


def _random_form(n, rng):
    s = random_pauli_set(n, rng.randint(1, n), rng)
    dense = dense_of_gate_word(random_gate_word(n, rng), n)
    for label in reversed(s.labels):
        dense = dense_of_exponential(n, label).multiply(dense)
    return dense


def _assert_matches_reference(u):
    assert channel_bruteforce(u) == _reference_channel(u)


def test_integer_rows_match_the_scalar_construction_on_generators():
    for n in (1, 2):
        for word in _generator_words(n):
            _assert_matches_reference(dense_of_gate_word(word, n))
        for label in range(1, 1 << (2 * n)):
            for sign in (1, -1):
                _assert_matches_reference(
                    signed_exponential(n, label, sign))


def test_integer_rows_match_the_scalar_construction_on_forms():
    rng = random.Random(3301)
    for n, count in ((2, 40), (3, 6)):
        for _ in range(count):
            _assert_matches_reference(_random_form(n, rng))


def test_the_kernel_phase_rule_rebuilds_every_pauli_matrix():
    # the Walsh-Hadamard kernel's units i^(3|xp&zp| + |xq&zq|) rest on
    # P[r][r ^ x] = i^|x&z| (-1)^(z.(r ^ x)) for every positive P = (x, z)
    for n in (1, 2, 3):
        dim = 1 << n
        for label in range(1 << (2 * n)):
            x, z = label >> n, label & (dim - 1)
            mat = [[CYC_ZERO] * dim for _ in range(dim)]
            for r in range(dim):
                t = bin(x & z).count("1") + 2 * bin(z & (r ^ x)).count("1")
                mat[r][r ^ x] = zeta_power(4 * t)
            assert dense_of_pauli(n, label).mat == mat


def test_channel_bruteforce_matches_the_scalar_construction_on_scaled_forms():
    # a form times zeta^j (a + b i + (c + d i) sqrt2) / 2^k: most products
    # pair several coefficients and wrap past zeta^8, while the squared
    # modulus keeps each trace in the real dyadic sqrt2 ring
    rng = random.Random(4410)
    for n, count in ((1, 10), (2, 10), (3, 2)):
        for _ in range(count):
            b = [rng.randint(-5, 5) if j % 2 == 0 else 0 for j in range(8)]
            if not any(b):
                b[0] = 1
            scale = cyc_mul(zeta_power(rng.randrange(16)),
                            C(b, rng.randint(0, 3)))
            form = _random_form(n, rng)
            u = DenseUnitary(n, [[cyc_mul(scale, v) for v in row]
                                 for row in form.mat])
            assert channel_bruteforce(u) == _reference_channel(u)


def test_channel_bruteforce_lifts_entries_to_one_power_of_two():
    # diag(I, W), W = exp(+-i*pi*P/4) with P off the diagonal, holds
    # entries over 2^0 and over 2^1, so packing must bring every entry
    # over the larger 2^k; a controlled Clifford keeps every trace real
    rng = random.Random(4413)
    for n, count in ((2, 6), (3, 2)):
        half = 1 << (n - 1)
        for _ in range(count):
            p = rng.randrange(half, 1 << (2 * n - 2))
            w = dense_of_quarter_exponential(n - 1, p, rng.choice((1, -1)))
            mat = [[CYC_ONE if r == c else CYC_ZERO for c in range(half)]
                   + [CYC_ZERO] * half for r in range(half)]
            mat += [[CYC_ZERO] * half + row for row in w.mat]
            u = DenseUnitary(n, mat)
            assert len({v.k for row in mat for v in row
                        if not v.is_zero()}) > 1
            assert channel_bruteforce(u) == _reference_channel(u)


def _wide_coefficients(rng):
    # even powers of zeta only, up to +-2^40 each, far past any fixed
    # digit width
    return [rng.randint(-(1 << 40), 1 << 40) if j % 2 == 0 else 0
            for j in range(8)]


def test_packed_digit_widths_follow_the_input():
    # channel_bruteforce sizes its digits from the entries: coefficients
    # up to +-2^40 over 2^k up to 2^20 must still read back exactly; the
    # scale's squared modulus keeps each trace real
    rng = random.Random(4412)
    for n, count in ((1, 8), (2, 4), (3, 1)):
        for _ in range(count):
            scale = cyc_mul(zeta_power(rng.randrange(16)),
                            C(_wide_coefficients(rng), rng.randint(0, 20)))
            form = _random_form(n, rng)
            u = DenseUnitary(n, [[cyc_mul(scale, v) for v in row]
                                 for row in form.mat])
            assert channel_bruteforce(u) == _reference_channel(u)


# sha256 of `verify oracle --json` and `verify hamming-weight --json` at
# n = 1-3, each report with its elapsed_seconds masked: a standing pin on
# what the dense oracle's checks report
VERIFY_RUNS = ([["oracle", "--qubits", str(n), "--trials", "3",
                 "--seed", str(seed)]
                for n, seeds in ((1, range(1, 6)), (2, range(1, 6)),
                                 (3, (1, 2)))
                for seed in seeds]
               + [["hamming-weight", "--qubits", str(n)] for n in (1, 2, 3)])
VERIFY_DIGEST = ("07d133ad5ad194ce5ba1c7603e2b9ea8"
                 "362cb75ca8236218833e8767eac6f581")


def test_the_dense_checks_report_pinned_json(capsys):
    text = ""
    for argv in VERIFY_RUNS:
        assert main(["verify", *argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["passed"]
        text += re.sub(r'"elapsed_seconds": [^\n]*', '"elapsed_seconds": -',
                       out)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGEST

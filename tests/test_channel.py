"""Exact Pauli-transfer matrices and the spectrum-based T-count reader."""

import functools
import itertools
import random
from collections import Counter

import pytest
from conftest import inverse_word
from dense_reference import is_identity, is_orthogonal, signed_exponential

from tcanon import channel as channel_mod
from tcanon.canonical import channel_of_decomposition
from tcanon.channel import (
    ChannelRep,
    SpectrumMismatchError,
    _form_signs,
    _prepared,
    channel_of_canonical,
    channel_of_clifford,
    channel_of_exponential,
    exponential_transfer_is_signed_permutation,
    infer_t_count,
    reference_spectrum,
)
from tcanon.clifford import CliffordTableau, from_gate_word, random_clifford
from tcanon.census import _all_sets
from tcanon.exactnum import DYADIC_ONE, DYADIC_ZERO, DyadicSqrt2Scalar
from tcanon.oracle import channel_bruteforce, dense_of_exponential, dense_of_gate_word
from tcanon.pauli import (PauliSet, commutant, parse_pauli, validate_labels,
                          validate_set)
from tcanon.verify import random_gate_word, random_pauli_set

R = DyadicSqrt2Scalar(0, 1, 1)  # 1/sqrt2
ONE = DYADIC_ONE
ZERO = DYADIC_ZERO


def entries(rep):
    return [[rep.cols[j].get(i, ZERO) for j in range(rep.dim)]
            for i in range(rep.dim)]


def test_identity_channel():
    rep = channel_of_clifford(CliffordTableau.identity(1))
    assert is_identity(rep)
    assert is_orthogonal(rep)
    assert rep.is_signed_permutation()
    assert rep.unit_rows() == [0, 1, 2, 3]


@pytest.mark.parametrize("column, accepted", [
    ({1: ONE}, True), ({1: -ONE}, True), ({1: R}, False),
    ({1: DyadicSqrt2Scalar(1, 0, 1)}, False),
    ({1: DyadicSqrt2Scalar(2)}, False),
    ({1: DyadicSqrt2Scalar(1, 1)}, False), ({2: ONE}, False),
], ids=["1", "-1", "1/sqrt2", "1/2", "2", "1+sqrt2", "repeated-row"])
def test_a_signed_permutation_holds_one_plus_or_minus_one_per_row(column,
                                                                  accepted):
    # every column holds one entry; only column 1 varies, and at row 2 it
    # repeats column 2's row
    rep = ChannelRep(1, [{0: ONE}, column, {2: ONE}, {3: -ONE}])
    assert rep.is_signed_permutation() is accepted


def test_hadamard_channel_fixture():
    # label order I, Z, X, Y; H swaps X and Z and negates Y
    rep = channel_of_clifford(from_gate_word("H 0", 1))
    want = [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, -ONE],
    ]
    assert entries(rep) == want
    assert rep.is_signed_permutation()


def test_exponential_channel_fixture():
    # exp(+i*pi*Z/8): X -> (X - Y)/sqrt2, Y -> (X + Y)/sqrt2
    rep = channel_of_exponential(1, parse_pauli("Z").label)
    want = [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, R, R],
        [ZERO, ZERO, -R, R],
    ]
    assert entries(rep) == want
    assert is_orthogonal(rep)
    assert not rep.is_signed_permutation()


@pytest.mark.parametrize("n, label", [(2, 0), (2, 16), (1, 0), (1, 4),
                                      (2, -1)])
def test_exponential_channel_rejects_a_label_outside_one_to_4n(n, label):
    # 0 is the identity, 4^n the first label past the width, and a
    # negative int names no Pauli
    with pytest.raises(ValueError, match=f"label {label} out of range"):
        channel_of_exponential(n, label)


def test_inverse_exponential_is_the_transpose():
    p = parse_pauli("XY").label
    fwd = channel_of_exponential(2, p)
    bck = fwd.transpose()
    assert bck == channel_bruteforce(signed_exponential(2, p, -1))
    assert is_identity(fwd.multiply(bck))


def test_clifford_channel_functoriality():
    rng = random.Random(52)
    for _ in range(10):
        wa = random_gate_word(2, rng)
        wb = random_gate_word(2, rng)
        a = from_gate_word(wa, 2)
        b = from_gate_word(wb, 2)
        lhs = channel_of_clifford(a.compose(b))
        rhs = channel_of_clifford(a).multiply(channel_of_clifford(b))
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clifford_channel_columns_are_the_conjugated_labels(n):
    # the channel multiplies the images of X^x and Z^z; its column Q must
    # still be the tableau's image of Q itself
    rng = random.Random(54 + n)
    for _ in range(5):
        c = random_clifford(n, random.Random(rng.randrange(1 << 30)))
        for q, col in enumerate(channel_of_clifford(c).cols):
            label, phase = c.conjugate_pauli(q)
            assert col == {label: -ONE if phase else ONE}


def test_clifford_channel_transpose_is_inverse():
    rng = random.Random(53)
    for _ in range(10):
        word = random_gate_word(2, rng)
        rep = channel_of_clifford(from_gate_word(word, 2))
        inv = from_gate_word(inverse_word(word, 2), 2)
        assert rep.transpose() == channel_of_clifford(inv)
        assert rep.is_signed_permutation()
        assert is_orthogonal(rep)


def test_channel_of_canonical_splits_into_factors():
    s = validate_set([parse_pauli("ZI"), parse_pauli("IZ")])
    c = from_gate_word("H 0; CX 0 1", 2)
    rep = channel_of_canonical(s, c)
    acc = channel_of_clifford(c)
    for label in reversed(s.labels):
        acc = channel_of_exponential(2, label).multiply(acc)
    assert rep == acc


def test_channel_of_canonical_refuses_a_width_mismatch():
    s = validate_set([parse_pauli("ZI")])
    with pytest.raises(ValueError, match="qubit counts differ: 2 vs 1"):
        channel_of_canonical(s, CliffordTableau.identity(1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commuting_columns_are_the_clifford_channels_own(n):
    rng = random.Random(62 + n)
    for _ in range(5):
        c = random_clifford(n, rng)
        cliff = channel_of_clifford(c)
        assert channel_of_canonical(PauliSet.empty(n), c) == cliff
        s = random_pauli_set(n, rng.randint(1, n), rng)
        rep = channel_of_canonical(s, c)
        commuting = set(commutant(s))
        kept = [q for q, col in enumerate(cliff.cols) if col.keys() <= commuting]
        assert len(kept) == len(commuting)
        for q in kept:
            assert rep.cols[q] == cliff.cols[q]


def test_unit_rows_equal_commutant_labels():
    s = validate_set([parse_pauli("Z")])
    rep = channel_of_canonical(s, CliffordTableau.identity(1))
    assert rep.unit_rows() == [0, 1]
    assert rep.unit_rows() == commutant(s)

    rng = random.Random(54)
    s = random_pauli_set(3, 2, rng)
    rep = channel_of_canonical(s, CliffordTableau.identity(3))
    assert rep.unit_rows() == commutant(s)
    assert len(rep.unit_rows()) == 1 << (2 * 3 - 2)


def test_pauli_spectrum_counts_magnitudes():
    rep = channel_of_exponential(1, parse_pauli("Z").label)
    spec = rep.pauli_spectrum()
    assert spec[ONE] == 2
    assert spec[ZERO] == 10
    assert spec[R] == 4
    assert reference_spectrum(1, 1) == spec


# the readers as first defined, one scalar comparison or abs per entry
def _unit_rows_by_definition(rep):
    return sorted({r for col in rep.cols for r, v in col.items()
                   if v == ONE or v == -ONE})


def _spectrum_by_definition(rep):
    spec = Counter(abs(v) for col in rep.cols for v in col.values())
    zeros = rep.dim * rep.dim - sum(spec.values())
    if zeros:
        spec[ZERO] = zeros
    return spec


# (1 - sqrt2)/2 < 0 and its negation fold to one magnitude; +-2, +-sqrt2,
# 1/2, 3/4 and +-(1 + sqrt2) are no units; 2/2 and -4/4 normalize to +-1
# as fresh objects
_READER_VALUES = [DyadicSqrt2Scalar(*t) for t in (
    (1, -1, 1), (-1, 1, 1), (1, 1), (2,), (-2,), (0, 1), (0, -1), (1, 0, 1),
    (-1, -1), (3, 0, 2), (2, 0, 1), (-4, 0, 2), (1,), (-1,))]


def test_readers_match_their_definitions_on_hand_built_matrices():
    h = DyadicSqrt2Scalar(1, -1, 1)
    assert h.sign() < 0
    rep = ChannelRep(1, [
        {0: DyadicSqrt2Scalar(2, 0, 1), 1: h, 3: -h},  # +1 beside others
        {1: -h, 2: DyadicSqrt2Scalar(1, 1)},
        {3: DyadicSqrt2Scalar(2)},
        {2: -ONE, 3: h},
    ])
    assert rep.unit_rows() == _unit_rows_by_definition(rep) == [0, 2]
    assert rep.pauli_spectrum() == _spectrum_by_definition(rep) == Counter({
        -h: 4, ONE: 2, DyadicSqrt2Scalar(1, 1): 1, DyadicSqrt2Scalar(2): 1,
        ZERO: 8})
    rng = random.Random(61)
    for n in (1, 2):
        for _ in range(100):
            rep = ChannelRep(n, [
                {r: rng.choice(_READER_VALUES)
                 for r in rng.sample(range(4 ** n), rng.randint(0, 4))}
                for _ in range(4 ** n)])
            assert rep.unit_rows() == _unit_rows_by_definition(rep)
            assert rep.pauli_spectrum() == _spectrum_by_definition(rep)


def test_reference_spectrum_rejects_m_outside_zero_to_n():
    for n, m in ((2, 3), (2, -1)):
        with pytest.raises(ValueError):
            reference_spectrum(n, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reference_spectrum_is_the_spectrum_of_the_factor_product(n):
    # reference_spectrum counts; the form's channel is built here as the
    # product of its m one-factor channels
    ident = channel_of_clifford(CliffordTableau.identity(n))
    for m in range(n + 1):
        labels = [1 << (n - 1 - j) for j in range(m)]
        assert (reference_spectrum(n, m)
                == _by_factors(labels, ident).pauli_spectrum())


def test_infer_t_count_on_reference_forms():
    for n in (1, 2, 3):
        for m in range(n + 1):
            s = (PauliSet.empty(n) if m == 0 else
                 validate_labels(n, [1 << (n - 1 - j) for j in range(m)]))
            rep = channel_of_canonical(s, CliffordTableau.identity(n))
            assert infer_t_count(rep) == m


def test_infer_t_count_ignores_the_clifford_tail():
    rng = random.Random(55)
    s = random_pauli_set(2, 2, rng)
    c = from_gate_word(random_gate_word(2, rng), 2)
    rep = channel_of_canonical(s, c)
    assert infer_t_count(rep) == 2


def test_infer_t_count_rejects_foreign_spectra():
    # all-zero matrix
    dim = 4
    with pytest.raises(SpectrumMismatchError):
        infer_t_count(ChannelRep(1, [{} for _ in range(dim)]))
    # a lone 1/2 entry is not a power of 1/sqrt2 times anything reachable
    half = DyadicSqrt2Scalar(1, 0, 1)
    cols = [{} for _ in range(dim)]
    cols[0][0] = half
    with pytest.raises(SpectrumMismatchError):
        infer_t_count(ChannelRep(1, cols))
    # right minimum magnitude, wrong multiset
    cols = [{i: R} for i in range(dim)]
    with pytest.raises(SpectrumMismatchError):
        infer_t_count(ChannelRep(1, cols))


@pytest.mark.parametrize("n", [1, 2])
def test_sparse_columns_store_no_zeros(n):
    rng = random.Random(57)
    reps = []
    for label in range(1, 1 << (2 * n)):
        reps.append(channel_of_exponential(n, label))
        reps.append(channel_bruteforce(dense_of_exponential(n, label)))
    for m in range(1, n + 1):
        word = random_gate_word(n, rng)
        s = random_pauli_set(n, m, rng)
        reps.append(channel_of_canonical(s, from_gate_word(word, n)))
        reps.append(channel_bruteforce(dense_of_gate_word(word, n)))
        # each factor applied twice is a Clifford: multiply cancels half
        # the entries of the product
        reps.append(channel_of_decomposition([s] * 2,
                                             CliffordTableau.identity(n)))
    dim = 1 << (2 * n)
    for rep in reps:
        assert len(rep.cols) == dim
        for col in rep.cols:
            assert not any(v.is_zero() for v in col.values())
            assert all(0 <= r < dim for r in col)
        assert sum(rep.pauli_spectrum().values()) == 16 ** n


def test_transfer_signed_permutation_on_equal_sets():
    for labels in [("Z",), ("X",), ("Y",), ("XX", "ZZ")]:
        s = validate_set([parse_pauli(t) for t in labels])
        assert exponential_transfer_is_signed_permutation(s, s)


def test_transfer_not_signed_permutation_on_distinct_sets():
    a = validate_set([parse_pauli("X")])
    b = validate_set([parse_pauli("Z")])
    assert not exponential_transfer_is_signed_permutation(a, b)


def test_transfer_agrees_with_dense_product_on_one_qubit():
    for la, lb in itertools.product(["X", "Y", "Z"], repeat=2):
        a = validate_set([parse_pauli(la)])
        b = validate_set([parse_pauli(lb)])
        dense = channel_of_exponential(1, a.labels[0]).transpose().multiply(
            channel_of_exponential(1, b.labels[0]))
        got = exponential_transfer_is_signed_permutation(a, b)
        assert got == dense.is_signed_permutation()
        assert got == (la == lb)


def test_transfer_agrees_with_dense_product_on_two_qubits():
    rng = random.Random(56)
    for _ in range(10):
        a = random_pauli_set(2, rng.randint(1, 2), rng)
        b = random_pauli_set(2, rng.randint(1, 2), rng)
        ident = CliffordTableau.identity(2)
        dense = channel_of_canonical(a, ident).transpose().multiply(
            channel_of_canonical(b, ident))
        assert (exponential_transfer_is_signed_permutation(a, b)
                == dense.is_signed_permutation())


@pytest.mark.parametrize("fake, expected", [
    # row YI has 4 entries in channel(A); flipping it in every column keeps
    # every support, and A^T B = I - 2 a a^T is no signed permutation
    ("flip_row_YI", False),
    # B = A times a column swap, so A^T B is that swap; B's column XI
    # matches A's column IX only, so the scan must reach q' != q
    ("swap_columns_XI_IX", True),
])
def test_transfer_reads_signs_and_scans_other_columns(monkeypatch, fake, expected):
    n = 2
    a = validate_set([parse_pauli("ZZ"), parse_pauli("XX")])
    b = PauliSet.from_labels(n, list(a.labels))  # equal labels, own tuple
    assert b.labels == a.labels and b.labels is not a.labels
    yi, xi, ix = (parse_pauli(t).label for t in ("YI", "XI", "IX"))
    rep_a = channel_of_canonical(a, CliffordTableau.identity(n))
    assert len([col for col in rep_a.cols if yi in col]) == 4
    real, real_prepared = channel_mod._form_signs, channel_mod._prepared

    class PreparedB(list):  # b's prepared labels, told apart from a's
        pass

    def fake_prepared(labels, n):
        prepared = real_prepared(labels, n)
        return PreparedB(prepared) if labels is b.labels else prepared

    if fake == "flip_row_YI":
        def fake_signs(q, positive, prepared, n):
            signs = real(q, positive, prepared, n)
            if isinstance(prepared, PreparedB) and yi in signs:
                signs[yi] = not signs[yi]
            return signs
        cols_b = [{r: -v if r == yi else v for r, v in col.items()}
                  for col in rep_a.cols]
    else:
        swap = {xi: ix, ix: xi}

        def fake_signs(q, positive, prepared, n):
            if isinstance(prepared, PreparedB):
                q = swap.get(q, q)
            return real(q, positive, prepared, n)
        cols_b = [rep_a.cols[swap.get(q, q)] for q in range(len(rep_a.cols))]
    monkeypatch.setattr(channel_mod, "_prepared", fake_prepared)
    monkeypatch.setattr(channel_mod, "_form_signs", fake_signs)
    prep_b = fake_prepared(b.labels, n)
    for q, col in enumerate(cols_b):
        assert fake_signs(q, True, prep_b, n) == {
            r: v.sign() > 0 for r, v in col.items()}
    product = rep_a.transpose().multiply(ChannelRep(n, cols_b))
    assert product.is_signed_permutation() == expected
    assert exponential_transfer_is_signed_permutation(a, b) == expected


def test_transfer_rejects_a_column_by_its_rows_before_its_signs(monkeypatch):
    # a seeded n = 4 pair whose scan fails at q = 1, the first column it
    # reads: no row of B's column there starts a column of A on the same
    # rows, so A's signs are never needed
    n = 4
    rng = random.Random(9)
    a = random_pauli_set(n, rng.randint(1, n), rng)
    b = random_pauli_set(n, rng.randint(1, n), rng)
    assert len(_product(a).transpose().multiply(_product(b)).cols[1]) > 1
    assert len(_form_signs(1, True, _prepared(b.labels, n), n)) > 1
    real, real_prepared = channel_mod._form_signs, channel_mod._prepared

    class PreparedB(list):  # b's prepared labels, told apart from a's
        pass

    def fake_prepared(labels, n):
        prepared = real_prepared(labels, n)
        return PreparedB(prepared) if labels is b.labels else prepared

    calls = []

    def fake_signs(q, positive, prepared, n):
        calls.append((q, "b" if isinstance(prepared, PreparedB) else "a"))
        return real(q, positive, prepared, n)

    monkeypatch.setattr(channel_mod, "_prepared", fake_prepared)
    monkeypatch.setattr(channel_mod, "_form_signs", fake_signs)
    assert not exponential_transfer_is_signed_permutation(a, b)
    assert calls == [(1, "b")]


@functools.lru_cache(maxsize=None)
def _factor(n, label):
    return channel_of_exponential(n, label)


def _by_factors(labels, rep):
    """channel(exp(i*pi*P_1/8)) ... channel(exp(i*pi*P_m/8)) * rep, one
    multiply per factor.  c07 checks every one-factor channel up to three
    qubits against the dense oracle, so this checks the m-factor closed
    form by another route."""
    for p in reversed(labels):
        rep = _factor(rep.n, p).multiply(rep)
    return rep


def _product(s):
    """channel(exp(i*pi*P_1/8) ... exp(i*pi*P_m/8)) as a product of
    one-factor channels, for a nonempty set."""
    *rest, last = s.labels
    return _by_factors(rest, _factor(s.n, last))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_form_columns_match_the_product_of_one_factor_channels(n):
    # every set (4,788 at n = 3) and every start row: started at +1
    # through channel_of_canonical, at -1 against the negated column
    ident = CliffordTableau.identity(n)
    for s in _all_sets(n):
        product = _product(s)
        assert channel_of_canonical(s, ident) == product
        prepared = _prepared(s.labels, n)
        for q, col in enumerate(product.cols):
            assert _form_signs(q, False, prepared, n) == {
                r: v.sign() < 0 for r, v in col.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_form_channel_matches_the_rotated_clifford_channel(n):
    rng = random.Random(58 + n)
    for _ in range(20):
        s = random_pauli_set(n, rng.randint(1, n), rng)
        c = random_clifford(n, rng)
        assert (channel_of_canonical(s, c)
                == _by_factors(s.labels, channel_of_clifford(c)))


def _transfer_by_products(a, b):
    return _product(a).transpose().multiply(_product(b)).is_signed_permutation()


def test_transfer_matches_the_rotated_product_on_every_pair_up_to_two_qubits():
    pairs = 0
    for n in (1, 2):
        sets = _all_sets(n)
        for a, b in itertools.product(sets, repeat=2):
            pairs += 1
            assert (exponential_transfer_is_signed_permutation(a, b)
                    == _transfer_by_products(a, b)), (a, b)
    assert pairs == 3 ** 2 + 60 ** 2


def test_transfer_matches_the_rotated_product_on_sampled_three_qubit_pairs():
    # one pair in three is a self-pair; only equal sets reconcile
    rng = random.Random(59)
    for k in range(150):
        a = random_pauli_set(3, rng.randint(1, 3), rng)
        b = a if k % 3 == 0 else random_pauli_set(3, rng.randint(1, 3), rng)
        got = exponential_transfer_is_signed_permutation(a, b)
        assert got == _transfer_by_products(a, b) == (a == b), (a, b)

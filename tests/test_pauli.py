"""Signed Pauli algebra on int-encoded (x, z) bit pairs.

PauliOperator has no product: label_product_phase is the package's one
product rule, and _rule_product applies it to two operators.  Products
are checked on it and on dense_reference.pauli_product, the letter by
letter reference."""

import itertools
import random
import time

import pytest
from conftest import commutes as label_pair_commutes, dense_of, pauli_of
from dense_reference import dense_of_pauli, pauli_product

from tcanon.census import enumerate_sets
from tcanon.pauli import (
    DependentSetError,
    LabelNames,
    NonCommutingSetError,
    NonHermitianInputError,
    PauliOperator,
    PauliSet,
    commutant,
    label_product_phase,
    parse_pauli,
    validate_set,
)
from tcanon.verify import random_pauli_set


def P(text):
    return parse_pauli(text)


def _rule_product(p, q):
    """p * q with its phase from label_product_phase."""
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, p.phase + q.phase
                         + label_product_phase(p.label, q.label, p.n))


PRODUCTS = (_rule_product, pauli_product)


# full single-qubit multiplication table, phases included
SINGLE_QUBIT_PRODUCTS = [
    ("X", "Z", "-iY"),
    ("Z", "X", "+iY"),
    ("X", "Y", "+iZ"),
    ("Y", "X", "-iZ"),
    ("Y", "Z", "+iX"),
    ("Z", "Y", "-iX"),
    ("X", "X", "+I"),
    ("Y", "Y", "+I"),
    ("Z", "Z", "+I"),
    ("I", "X", "+X"),
    ("Y", "I", "+Y"),
]


@pytest.mark.parametrize("a, b, want", SINGLE_QUBIT_PRODUCTS)
def test_single_qubit_products(a, b, want):
    for product in PRODUCTS:
        assert product(P(a), P(b)) == P(want)


def test_signs_propagate_through_products():
    for product in PRODUCTS:
        assert product(P("-X"), P("Z")) == P("+iY")
        assert product(P("-X"), P("-Z")) == P("-iY")


def test_multiqubit_products_factor_per_qubit():
    # (X@Z)(Z@X) = (XZ)@(ZX) = (-iY)@(iY) = Y@Y
    for product in PRODUCTS:
        assert product(P("XZ"), P("ZX")) == P("YY")
        assert product(P("XX"), P("ZZ")) == P("-YY")


def test_parse_and_render_round_trip():
    for text in ["+X", "-Z", "+iY", "-iX", "+XIZ", "-YZX", "+IIII"]:
        assert parse_pauli(text).to_string() == text
    # bare sign defaults
    assert parse_pauli("X").to_string() == "+X"
    assert parse_pauli(" ZI ").to_string() == "+ZI"


def _text_letter_by_letter(p):
    """to_string's reference: one letter per qubit, qubit 0 first."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[p.phase]
    return sign + "".join(letters[p.x >> k & 1, p.z >> k & 1]
                          for k in reversed(range(p.n)))


def test_rendering_agrees_with_a_letter_by_letter_reference():
    rng = random.Random(808)
    for n in [*range(1, 71), 1024]:
        full = (1 << n) - 1
        pairs = [(0, 0), (full, 0), (0, full), (full, full),
                 (1, 1 << (n - 1))]
        pairs += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(4)]
        for (x, z), phase in itertools.product(pairs, range(4)):
            p = PauliOperator(n, x, z, phase)
            assert p.to_string() == _text_letter_by_letter(p), (n, x, z)


def test_rendering_is_linear_in_the_width():
    # a ceiling: 1,024 labels at 8,192 qubits took 6.9 s with one mask
    # per letter and about 0.12 s in one linear pass
    n = 8192
    rng = random.Random(809)
    labels = [rng.getrandbits(2 * n) for _ in range(1024)]
    names = LabelNames(n)
    start = time.perf_counter()
    texts = [names[label] for label in labels]
    assert time.perf_counter() - start < 1.5
    for label, text in zip(labels[:2], texts):
        p = PauliOperator.from_label(n, label)
        assert text == _text_letter_by_letter(p)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pauli("+")
    with pytest.raises(ValueError):
        parse_pauli("XQ")
    with pytest.raises(ValueError):
        parse_pauli("")


def test_qubit_zero_is_the_leftmost_letter():
    p = PauliOperator.from_label(3, 0b100 << 3)
    assert p.to_string() == "+XII"
    assert p.x == 0b100
    q = PauliOperator.from_label(3, 0b001)
    assert q.to_string() == "+IIZ"
    assert q.z == 0b001


def test_label_packs_x_over_z():
    p = P("XZ")  # x = 10, z = 01
    assert p.label == 0b1001
    assert PauliOperator.from_label(2, 0b1001) == p
    for label in range(16):
        assert PauliOperator.from_label(2, label).label == label


def commutes(a, b):
    return label_pair_commutes(P(a).label, P(b).label, len(a))


def test_commutation_rules():
    assert not commutes("X", "Z")
    assert commutes("XX", "ZZ")
    assert commutes("XI", "IZ")
    assert not commutes("XY", "XZ")


def test_swap_halves_parity_agrees_with_operator_commutes():
    # the operators commute as matrices exactly when the parity of one
    # label against the other's dual label is even
    for n in (1, 2):
        for a, b in itertools.product(range(1 << (2 * n)), repeat=2):
            ma = dense_of_pauli(n, a)
            mb = dense_of_pauli(n, b)
            assert label_pair_commutes(a, b, n) == (ma.multiply(mb)
                                                    == mb.multiply(ma))


def _letterwise_product(a, b, n):
    """The reference product of the positive Paulis of two labels."""
    return pauli_product(pauli_of(n, (a, 0)), pauli_of(n, (b, 0)))


def test_label_product_phase_agrees_with_operator_product():
    for n in (1, 2, 3):
        for a, b in itertools.product(range(1 << (2 * n)), repeat=2):
            prod = _letterwise_product(a, b, n)
            assert prod.label == a ^ b
            assert label_product_phase(a, b, n) == prod.phase
    # the rule shifts whole labels across the x/z half boundary; past
    # n = 3 it is checked letter by letter on random pairs
    rng = random.Random(153)
    for n in [*range(4, 71), 1024]:
        for _ in range(20):
            a, b = rng.getrandbits(2 * n), rng.getrandbits(2 * n)
            assert (label_product_phase(a, b, n)
                    == _letterwise_product(a, b, n).phase), (n, a, b)


def test_constructors_reject_out_of_range_input():
    with pytest.raises(ValueError):
        PauliOperator.from_label(1, 4)
    with pytest.raises(ValueError):
        PauliOperator.from_label(2, -1)


def test_hermiticity_and_sign():
    assert P("Y").is_hermitian()
    assert not P("+iY").is_hermitian()
    assert P("-Z").phase == 2
    assert P("Z").phase == 0
    assert P("-Z").label == P("Z").label


def test_validate_set_sorts_and_positivizes():
    s = validate_set([P("-Z")])
    assert s.labels == (P("Z").label,)
    assert tuple(s) == (P("Z"),)
    s = validate_set([P("XX"), P("-ZZ")])
    assert [p.to_string() for p in s] == ["+ZZ", "+XX"]


def test_validate_set_rejections():
    with pytest.raises(NonCommutingSetError):
        validate_set([P("X"), P("Z")])
    with pytest.raises(DependentSetError):
        validate_set([P("IZ"), P("ZI"), P("ZZ")])
    with pytest.raises(DependentSetError):
        validate_set([P("Z"), P("-Z")])
    with pytest.raises(NonHermitianInputError):
        validate_set([P("+iZ")])
    with pytest.raises(ValueError):
        validate_set([P("II")])
    with pytest.raises(ValueError):
        validate_set([])


def test_pauli_set_basics():
    s = validate_set([P("ZZ"), P("XX")])
    assert len(s) == 2
    assert s.n == 2
    assert s == PauliSet.from_labels(2, sorted(s.labels))
    assert tuple(PauliSet.empty(3)) == ()
    assert len(PauliSet.empty(3)) == 0


def _sets_to_check():
    """Every set at n <= 2 (the empty ones too) and 200 seeded random sets
    at each of n = 3 and n = 4."""
    for n in (1, 2):
        yield PauliSet.empty(n)
        for m in range(1, n + 1):
            yield from enumerate_sets(n, m)
    rng = random.Random(707)
    for n in (3, 4):
        for _ in range(200):
            yield random_pauli_set(n, rng.randint(1, n), rng)


def test_label_storage_agrees_with_the_elements():
    count = 0
    for s in _sets_to_check():
        count += 1
        n = s.n
        elements = tuple(s)
        assert s.labels == tuple(sorted(s.labels))
        assert s.labels == tuple(p.label for p in elements)
        assert all(p.n == n and p.phase == 0 for p in elements)
        assert tuple(s) == elements  # each iteration starts afresh
        assert len(s) == len(elements)
        text = ", ".join(p.to_string() for p in elements)
        assert repr(s) == f"<PauliSet n={n} {{{text}}}>"
        assert LabelNames(n).render(s) == text
        if not len(s):
            continue
        again = validate_set(list(s))
        assert again == s and hash(again) == hash(s)
        assert again.labels == s.labels
        assert PauliSet.from_labels(n + 1, s.labels) != s
    assert count == 2 + 3 + 15 + 45 + 400


def test_label_names_hold_only_the_labels_rendered():
    names = LabelNames(4)
    s = validate_set([P("XXII"), P("ZZII")])
    assert names.render(s) == "+ZZII, +XXII"
    assert names.render(s) == "+ZZII, +XXII"
    assert sorted(names) == list(s.labels)


def test_commutant_of_z_is_diagonal():
    s = validate_set([P("Z")])
    assert commutant(s) == [0b00, 0b01]  # I and Z


def test_commutant_size_is_two_to_the_2n_minus_m():
    cases = [
        ([P("Z")], 1),
        ([P("ZI"), P("IZ")], 2),
        ([P("XX")], 2),
        ([P("ZZI"), P("IZZ"), P("XXX")], 3),
    ]
    for elems, n in cases:
        s = validate_set(elems)
        assert len(commutant(s)) == 1 << (2 * n - len(s))


def test_commutant_members_commute_with_every_generator():
    s = validate_set([P("ZZI"), P("IZZ")])
    for label in commutant(s):
        for p in s.labels:
            assert label_pair_commutes(p, label, 3)


def test_products_agree_with_dense_matrices():
    for a, b in itertools.product(range(1, 16), repeat=2):
        pa = PauliOperator.from_label(2, a)
        pb = PauliOperator.from_label(2, b)
        right = dense_of_pauli(2, a).multiply(dense_of_pauli(2, b))
        for product in PRODUCTS:
            assert dense_of(product(pa, pb)) == right

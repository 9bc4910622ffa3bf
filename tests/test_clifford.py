"""Tableau Cliffords: gate words, conjugation, random sampling."""

import itertools
import random

import pytest
from conftest import commutes, conjugate, dense_of, inverse_word, pauli_of
from dense_reference import dagger, dense_of_pauli, pauli_product

from tcanon.clifford import (
    BadTokenError,
    CliffordTableau,
    IndexOutOfRangeError,
    _parse_token,
    from_gate_word,
    group_order,
    parse_gate_word,
    random_clifford,
)
from tcanon.canonical import ParseError, parse_circuit
from tcanon.oracle import dense_of_gate_word
from tcanon.pauli import PauliOperator, parse_pauli
from tcanon.verify import random_gate_word, random_pauli_set


def test_group_order_small_values():
    assert group_order(1) == 24
    assert group_order(2) == 11520
    assert group_order(3) == 92897280
    assert group_order(4) == 12128668876800


@pytest.mark.parametrize("n", [0, -2])
def test_widths_below_one_raise_value_error(n):
    with pytest.raises(ValueError):
        group_order(n)
    with pytest.raises(ValueError):
        CliffordTableau.identity(n)
    with pytest.raises(ValueError):
        from_gate_word("", n)
    with pytest.raises(ValueError):
        random_clifford(n, random.Random(1))


def test_identity_tableau():
    c = CliffordTableau.identity(2)
    assert c.to_strings() == ["+XI", "+IX", "+ZI", "+IZ"]
    p = parse_pauli("-YX")
    assert c.conjugate_pauli(p.label, p.phase) == (p.label, 2)
    assert conjugate(c, p) == p


def test_gate_word_fixtures():
    assert from_gate_word("", 1) == CliffordTableau.identity(1)
    assert from_gate_word("H 0", 1).to_strings() == ["+Z", "+X"]
    assert from_gate_word("S 0", 1).to_strings() == ["+Y", "+Z"]
    # S X S' = Y, S Y S' = -X, S Z S' = Z
    s = from_gate_word("S 0", 1)
    assert conjugate(s, parse_pauli("Y")) == parse_pauli("-X")
    # X and Z only flip signs
    x = from_gate_word("X 0", 1)
    assert conjugate(x, parse_pauli("Z")) == parse_pauli("-Z")
    assert conjugate(x, parse_pauli("X")) == parse_pauli("X")


def test_cx_action():
    cx = from_gate_word("CX 0 1", 2)
    assert conjugate(cx, parse_pauli("XI")) == parse_pauli("XX")
    assert conjugate(cx, parse_pauli("IZ")) == parse_pauli("ZZ")
    assert conjugate(cx, parse_pauli("IX")) == parse_pauli("IX")
    assert conjugate(cx, parse_pauli("ZI")) == parse_pauli("ZI")


def test_leftmost_factor_applies_last():
    lhs = from_gate_word("H 0; S 0", 1)
    rhs = from_gate_word("H 0", 1).compose(from_gate_word("S 0", 1))
    assert lhs == rhs
    assert lhs != from_gate_word("S 0", 1).compose(from_gate_word("H 0", 1))


def test_parse_gate_word_token_structure():
    toks = parse_gate_word("h 0 ; CX 1 0\nswap 0 1", 2)
    assert toks == [("H", (0,)), ("CX", (1, 0)), ("SWAP", (0, 1))]
    assert parse_gate_word("   ", 3) == []


@pytest.mark.parametrize(
    "word, err",
    [
        ("Q 0", BadTokenError),
        ("H", BadTokenError),
        ("H 0 1", BadTokenError),
        ("H x", BadTokenError),
        ("CX 0 0", BadTokenError),
        ("H 5", IndexOutOfRangeError),
        ("CX 0 2", IndexOutOfRangeError),
    ],
)
def test_parse_gate_word_rejects(word, err):
    # a refused token is parsed afresh each time, with the same message
    messages = []
    for _ in range(2):
        with pytest.raises(err) as info:
            parse_gate_word(word, 2)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_parse_gate_word_memo_hands_out_fresh_lists_per_width():
    word = "H 1; CX 0 1"
    first = parse_gate_word(word, 2)
    first[0] = ("Z", (0,))
    first.append(("X", (1,)))
    assert parse_gate_word(word, 2) == [("H", (1,)), ("CX", (0, 1))]
    with pytest.raises(IndexOutOfRangeError):
        parse_gate_word(word, 1)
    maxsize = _parse_token.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


@pytest.mark.parametrize("bad", ["CX 1 1", "H 7", "FOO 0"])
def test_a_refused_token_gives_the_same_parse_error_each_parse(bad):
    text = f"QUBITS: 2\nCLIFFORD: H 0\nTLAYER: t=0\nCLIFFORD: H 0; {bad}\n"
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse_circuit(text)
        errors.append((str(info.value), info.value.position))
    assert errors[0] == errors[1]
    assert errors[0][1] == text.index(f"CLIFFORD: H 0; {bad}")


def test_compose_inverse_round_trip():
    rng = random.Random(404)
    assert from_gate_word(inverse_word("S 0", 1), 1) == from_gate_word(
        "S 0; S 0; S 0", 1)
    for _ in range(25):
        word = random_gate_word(3, rng)
        c = from_gate_word(word, 3)
        inv = from_gate_word(inverse_word(word, 3), 3)
        assert c.compose(inv) == CliffordTableau.identity(3)
        assert inv.compose(c) == CliffordTableau.identity(3)


def test_conjugation_is_an_automorphism():
    rng = random.Random(405)
    for _ in range(25):
        c = from_gate_word(random_gate_word(3, rng), 3)
        p = PauliOperator.from_label(3, rng.randrange(1, 64))
        q = PauliOperator.from_label(3, rng.randrange(1, 64))
        assert (conjugate(c, pauli_product(p, q))
                == pauli_product(conjugate(c, p), conjugate(c, q)))


def test_conjugation_preserves_commutation():
    rng = random.Random(406)
    for _ in range(25):
        c = random_clifford(2, random.Random(rng.randrange(1 << 30)))
        p = PauliOperator.from_label(2, rng.randrange(1, 16))
        q = PauliOperator.from_label(2, rng.randrange(1, 16))
        (a, _), (b, _) = c.conjugate_pauli(p.label), c.conjugate_pauli(q.label)
        assert commutes(a, b, 2) == commutes(p.label, q.label, 2)


def _conjugate_by_products(c, p):
    """conjugate_pauli written as a fold of the reference pauli_product
    over the generator images that p's X and Z bits pick out."""
    n = c.n
    acc = PauliOperator(n, 0, 0, p.phase + (p.x & p.z).bit_count())
    for bits, images in ((p.x, c.xim), (p.z, c.zim)):
        for j in range(n):
            if bits >> (n - 1 - j) & 1:
                acc = pauli_product(acc, pauli_of(n, images[j]))
    return acc


def _compose_by_conjugation(c, other):
    """compose from its definition: c's image of each of other's images."""
    return CliffordTableau(c.n,
                           tuple(c.conjugate_pauli(*p) for p in other.xim),
                           tuple(c.conjugate_pauli(*p) for p in other.zim))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_pauli_equals_the_product_fold_on_every_pauli(n):
    rng = random.Random(600 + n)
    for _ in range(8):
        c = random_clifford(n, random.Random(rng.randrange(1 << 30)))
        for label in range(1 << (2 * n)):
            for phase in range(4):
                p = PauliOperator(n, label >> n, label & ((1 << n) - 1), phase)
                assert conjugate(c, p) == _conjugate_by_products(c, p)


def test_conjugate_pauli_equals_the_product_fold_on_sampled_paulis():
    rng = random.Random(604)
    for _ in range(200):
        c = random_clifford(4, random.Random(rng.randrange(1 << 30)))
        p = PauliOperator(4, rng.randrange(16), rng.randrange(16),
                          rng.randrange(4))
        assert conjugate(c, p) == _conjugate_by_products(c, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_from_gate_word_equals_the_reversed_fold(n):
    rng = random.Random(610 + n)
    for length in (0, 1, 2, 5) + (24,) * 3:
        word = random_gate_word(n, rng, length)
        want = CliffordTableau.identity(n)
        for token in reversed(word.split(";")):
            want = from_gate_word(token, n).compose(want)
        assert from_gate_word(word, n) == want, word


def test_from_gate_word_composes_no_tableau(monkeypatch):
    def refuse(self, other):
        raise AssertionError("compose called")

    word = random_gate_word(4, random.Random(615))
    want = from_gate_word(word, 4)
    monkeypatch.setattr(CliffordTableau, "compose", refuse)
    assert len(parse_gate_word(word, 4)) == 24
    assert from_gate_word(word, 4) == want


def _gate_tableau_by_products(name, qubits, n):
    """A two-qubit gate's tableau with CX and CZ images built as products
    of generators, as the images were once made."""
    ident = CliffordTableau.identity(n)
    xim = [pauli_of(n, g) for g in ident.xim]
    zim = [pauli_of(n, g) for g in ident.zim]
    if name == "CX":
        c, t = qubits
        xim[c] = pauli_product(xim[c], xim[t])
        zim[t] = pauli_product(zim[c], zim[t])
    elif name == "CZ":
        a, b = qubits
        xim[a] = pauli_product(xim[a], zim[b])
        xim[b] = pauli_product(zim[a], xim[b])
    else:  # SWAP
        a, b = qubits
        xim[a], xim[b] = xim[b], xim[a]
        zim[a], zim[b] = zim[b], zim[a]
    return CliffordTableau.from_images(xim, zim)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_qubit_gate_images_equal_the_product_construction(n):
    for a, b in itertools.permutations(range(n), 2):
        for name in ("CX", "CZ", "SWAP"):
            got = from_gate_word(f"{name} {a} {b}", n)
            assert got == _gate_tableau_by_products(name, (a, b), n), (name, a, b)
            assert all(phase == 0 for _, phase in got.xim + got.zim)


def _mixed_images(rng, gens, dense):
    """Per qubit: its generator with any of the four phases, or the image
    `dense` gives it."""
    out = []
    for (g, _), d in zip(gens, dense):
        pick = rng.randrange(5)
        out.append(d if pick == 4 else (g, pick))
    return tuple(out)


def test_compose_equals_conjugating_each_image():
    rng = random.Random(620)
    for n in (1, 2, 3, 4):
        ident = CliffordTableau.identity(n)
        for _ in range(30):
            c = random_clifford(n, random.Random(rng.randrange(1 << 30)))
            r = random_clifford(n, random.Random(rng.randrange(1 << 30)))
            # images need not form a valid tableau for the definition to hold
            other = CliffordTableau(n, _mixed_images(rng, ident.xim, r.xim),
                                    _mixed_images(rng, ident.zim, r.zim))
            assert c.compose(other) == _compose_by_conjugation(c, other)
        # valid tableaux that fix some generators and negate others
        for word in ("", "Z 0", "X 0", "X 0; Z 0", f"Z {n - 1}; H 0",
                     random_gate_word(n, rng, 3)):
            other = from_gate_word(word, n)
            c = random_clifford(n, random.Random(rng.randrange(1 << 30)))
            assert c.compose(other) == _compose_by_conjugation(c, other)


GENERATOR_WORDS_2Q = ["H 0", "H 1", "S 0", "S 1", "X 0", "X 1", "Z 0", "Z 1",
                      "CX 0 1", "CX 1 0", "CZ 0 1", "SWAP 0 1"]


def test_tableau_conjugation_matches_dense_conjugation():
    for word in GENERATOR_WORDS_2Q:
        c = from_gate_word(word, 2)
        u = dense_of_gate_word(word, 2)
        udag = dagger(u)
        for label in range(1, 16):
            p = PauliOperator.from_label(2, label)
            got = dense_of(conjugate(c, p))
            want = u.multiply(dense_of_pauli(2, label)).multiply(udag)
            assert got == want, (word, p.to_string())


def test_from_images_validates_symplectic_relations():
    c = from_gate_word("CX 0 1; S 0", 2)
    assert CliffordTableau.from_strings(c.to_strings()) == c
    with pytest.raises(ValueError):
        # X image commutes with its own Z partner
        CliffordTableau.from_images([parse_pauli("X")], [parse_pauli("X")])
    with pytest.raises(ValueError):
        CliffordTableau.from_images([parse_pauli("+iX")], [parse_pauli("Z")])


@pytest.mark.parametrize("xim, zim", [
    # the X_1 image anticommutes with the X_0 image, which it must not
    (["XI", "ZX"], ["ZI", "IZ"]),
    # the Z_1 image commutes with the X_1 image, which it must not
    (["XI", "IX"], ["ZI", "IX"]),
], ids=["should-commute", "x-z-pair-commutes"])
def test_from_images_rejects_one_broken_relation(xim, zim):
    # every other relation holds, so the one named is what is refused
    imgs = [parse_pauli(t) for t in xim + zim]
    broken = [(i, j) for i in range(4) for j in range(i + 1, 4)
              if commutes(imgs[i].label, imgs[j].label, 2) == (j == i + 2)]
    assert len(broken) == 1
    with pytest.raises(ValueError, match="symplectic relations"):
        CliffordTableau.from_images(imgs[:2], imgs[2:])


def test_random_clifford_is_valid_and_deterministic():
    for n in (1, 2, 3):
        c = random_clifford(n, random.Random(99))
        assert CliffordTableau.from_strings(c.to_strings()) == c
        assert random_clifford(n, random.Random(99)) == c
    assert random_clifford(2, random.Random(1)) != random_clifford(2, random.Random(2))


def test_seeded_streams_keep_their_values():
    # a change to how random_clifford or random_pauli_set consume their
    # generator would move these
    assert random_clifford(3, random.Random(99)).to_strings() == [
        "+IXY", "+IZZ", "-YYX", "-ZXX", "-ZXI", "-ZII"]
    want = {1: (146,), 2: (146, 201), 3: (146, 196, 201),
            4: (117, 146, 196, 201)}
    for m, labels in want.items():
        assert random_pauli_set(4, m, random.Random(7)).labels == labels


def test_random_clifford_uniform_on_one_qubit():
    # chi^2 over the 24 single-qubit Cliffords; threshold is the 5 sigma
    # bound mean + 5*sqrt(2*dof) for dof = 23
    draws = 12000
    rng = random.Random(31337)
    counts = {}
    for _ in range(draws):
        c = random_clifford(1, random.Random(rng.randrange(1 << 48)))
        key = tuple(c.to_strings())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
    assert chi2 < 56.9, chi2


def test_is_z_diagonal():
    # a Clifford diagonal in the Z basis maps every Z_j to +Z_j
    def z_diagonal(word, n):
        return (from_gate_word(word, n).zim
                == CliffordTableau.identity(n).zim)

    assert z_diagonal("", 2)
    assert z_diagonal("S 0; S 1", 2)
    assert z_diagonal("CZ 0 1", 2)
    assert not z_diagonal("H 0", 2)
    assert not z_diagonal("X 0", 1)

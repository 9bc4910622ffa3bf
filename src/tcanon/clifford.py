"""Clifford group elements as stabilizer tableaux with exact signs.

A tableau stores the images of the generators X_1..X_n and Z_1..Z_n under
conjugation, each a (label, phase) pair of ints: the unsigned label
(x << n) | z of pauli.py and the exponent of i, 0 or 2 for the Hermitian
images of a Clifford (the integer tableau of Aaronson and Gottesman,
quant-ph/0406196).  PauliOperator objects appear only where images are
parsed or rendered: from_images, from_strings and to_strings.  Two
unitaries equal up to global phase give the same tableau, so tableau
equality is equality in the quotient group.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from . import gf2
from .pauli import (PauliOperator, _swap_halves, label_product_phase,
                    parse_index, parse_pauli)


class GateWordError(ValueError):
    pass


class BadTokenError(GateWordError):
    pass


class IndexOutOfRangeError(GateWordError):
    pass


def group_order(n: int) -> int:
    """Number of tableaux on n qubits: 2^(n^2 + 2n) * prod_j (4^j - 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r = 1 << (n * n + 2 * n)
    for j in range(1, n + 1):
        r *= (1 << (2 * j)) - 1
    return r


class CliffordTableau:
    __slots__ = ("n", "xim", "zim")

    def __init__(self, n: int, xim: tuple, zim: tuple):
        # trusted constructor; go through from_images for validation
        self.n = n
        self.xim = xim
        self.zim = zim

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return cls(n, *_generators(n))

    @classmethod
    def from_images(cls, xim: Sequence[PauliOperator],
                    zim: Sequence[PauliOperator]) -> "CliffordTableau":
        """Validated constructor: images must satisfy the generator
        commutation pattern and be Hermitian."""
        n = len(xim)
        if len(zim) != n or n == 0:
            raise ValueError("need n X-images and n Z-images")
        imgs = list(xim) + list(zim)
        for p in imgs:
            if p.n != n:
                raise ValueError(f"qubit counts differ: {p.n} vs {n}")
            if not p.is_hermitian():
                raise ValueError(f"non-Hermitian image {p!r}")
        for i in range(2 * n):
            swapped = _swap_halves(imgs[i].label, n)
            for j in range(i + 1, 2 * n):
                anti = (j == i + n)
                if ((imgs[j].label & swapped).bit_count() & 1) != anti:
                    raise ValueError("images do not satisfy the symplectic relations")
        pairs = tuple((p.label, p.phase) for p in imgs)
        return cls(n, pairs[:n], pairs[n:])

    def conjugate_pauli(self, label: int, phase: int = 0) -> tuple[int, int]:
        """(label, phase) of the image of i^phase * P_label under
        conjugation, with the exact sign.

        P_label = i^|x&z| * prod_j X_j^{x_j} * prod_j Z_j^{z_j}; each
        factor is replaced by its generator image and the images are
        multiplied left to right.
        """
        n = self.n
        if not 0 <= label < 1 << (2 * n):
            raise ValueError(f"label {label} out of range for n={n}")
        x, z = label >> n, label & ((1 << n) - 1)
        t = phase + (x & z).bit_count()
        acc = 0
        for images, bits in ((self.xim, x), (self.zim, z)):
            while bits:
                top = bits.bit_length()
                bits ^= 1 << (top - 1)
                g, ph = images[n - top]
                t += ph + label_product_phase(acc, g, n)
                acc ^= g
        return acc, t & 3

    def compose(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of self times other (self applied after other): self's
        image of each of other's images."""
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        conjugate = self.conjugate_pauli
        return CliffordTableau(self.n,
                               tuple(conjugate(*p) for p in other.xim),
                               tuple(conjugate(*p) for p in other.zim))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.n == other.n and self.xim == other.xim and self.zim == other.zim

    def __hash__(self):
        return hash((self.n, self.xim, self.zim))

    def to_strings(self) -> list[str]:
        """2n signed Pauli strings: X_1..X_n images then Z_1..Z_n images."""
        n = self.n
        mask = (1 << n) - 1
        return [PauliOperator(n, label >> n, label & mask, phase).to_string()
                for label, phase in self.xim + self.zim]

    def render(self) -> str:
        """"id" for the identity, else the 2n image strings, comma
        separated."""
        if self == CliffordTableau.identity(self.n):
            return "id"
        return ", ".join(self.to_strings())

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "CliffordTableau":
        imgs = [parse_pauli(s) for s in strings]
        if len(imgs) % 2:
            raise ValueError("need an even number of image strings")
        n = len(imgs) // 2
        return cls.from_images(imgs[:n], imgs[n:])

    def __repr__(self):
        return f"<CliffordTableau n={self.n} {self.to_strings()}>"


@functools.cache
def _generators(n: int) -> tuple[tuple, tuple]:
    """The identity's images, (label, 0) for +X_1..+X_n and for
    +Z_1..+Z_n, built once per width."""
    bits = [1 << (n - 1 - j) for j in range(n)]
    return (tuple((b << n, 0) for b in bits), tuple((b, 0) for b in bits))


GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CX": 2, "CZ": 2, "SWAP": 2}


def quarter_exponential(p: int, c: CliffordTableau) -> CliffordTableau:
    """Tableau of exp(-i*pi*P/4) * c for the positive Pauli P of a
    non-identity label p; c the identity gives the exponential's own.

    Conjugation fixes commuting Paulis and sends an anticommuting Q to
    -i * P * Q, so each of c's images is mapped on its own.
    """
    n = c.n
    if not 0 < p < 1 << (2 * n):
        raise ValueError(f"need a non-identity label, got {p} for n={n}")
    swapped = _swap_halves(p, n)

    def images(ims: tuple) -> tuple:
        # i^3 = -i
        return tuple(g if not (g[0] & swapped).bit_count() & 1
                     else (p ^ g[0],
                           (g[1] + label_product_phase(p, g[0], n) + 3) & 3)
                     for g in ims)

    return CliffordTableau(n, images(c.xim), images(c.zim))


def check_index(q: int, n: int | None) -> None:
    """Refuse a qubit index outside 0..n-1; n=None, a width still to be
    inferred, refuses only a negative one."""
    if q < 0 or n is not None and q >= n:
        raise IndexOutOfRangeError(
            f"qubit {q} out of range for n={n}" if n is not None
            else f"qubit {q} out of range; indices start at 0")


def parse_gate_word(text: str, n: int | None) -> list[tuple[str, tuple]]:
    """Tokenize a gate word: tokens split on ';' or newlines, each a gate
    name followed by qubit indices, e.g. "H 0; CX 0 1".  Empty text is the
    identity word.  n=None runs every check but the upper end of the
    index range."""
    tokens = [raw.strip() for raw in text.replace("\n", ";").split(";")]
    return [_parse_token(token, n) for token in tokens if token]


@functools.lru_cache(maxsize=4096)
def _parse_token(token: str, n: int | None) -> tuple[str, tuple]:
    """(name, qubits) of one stripped gate token; words reuse a few
    tokens, so each distinct (token, n) is parsed once.  A refused token
    raises afresh on every call: lru_cache keeps no exceptions."""
    parts = token.split()
    name = parts[0].upper()
    if name not in GATE_ARITY:
        raise BadTokenError(f"unknown gate {parts[0]!r}")
    arity = GATE_ARITY[name]
    if len(parts) - 1 != arity:
        raise BadTokenError(f"gate {name} expects {arity} qubit(s): {token!r}")
    try:
        qubits = tuple(map(parse_index, parts[1:]))
    except ValueError as e:
        raise BadTokenError(f"{e} in {token!r}") from None
    for q in qubits:
        check_index(q, n)
    if arity == 2 and qubits[0] == qubits[1]:
        raise BadTokenError(f"repeated qubit in {token!r}")
    return name, qubits


def from_gate_word(text: str, n: int) -> CliffordTableau:
    """Tableau of a gate word; the leftmost factor is applied last.

    Each gate G right-multiplies the running images in place: the new
    image of a generator g is the old image of G g G^dagger, a product
    of at most two old images.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    xim, zim = map(list, _generators(n))

    def product(a: tuple, b: tuple, k: int = 0) -> tuple:
        # i^k times image a times image b
        return (a[0] ^ b[0],
                (k + a[1] + b[1] + label_product_phase(a[0], b[0], n)) & 3)

    for name, qubits in parse_gate_word(text, n):
        a, b = qubits[0], qubits[-1]
        if name == "H":
            xim[a], zim[a] = zim[a], xim[a]
        elif name == "S":  # X -> Y = iXZ
            xim[a] = product(xim[a], zim[a], 1)
        elif name == "X":  # Z -> -Z
            zim[a] = zim[a][0], (zim[a][1] + 2) & 3
        elif name == "Z":  # X -> -X
            xim[a] = xim[a][0], (xim[a][1] + 2) & 3
        elif name == "CX":  # X_c -> X_c X_t and Z_t -> Z_c Z_t
            xim[a] = product(xim[a], xim[b])
            zim[b] = product(zim[a], zim[b])
        elif name == "CZ":  # X_a -> X_a Z_b and X_b -> Z_a X_b
            xim[a] = product(xim[a], zim[b])
            xim[b] = product(zim[a], xim[b])
        elif name == "SWAP":
            xim[a], xim[b] = xim[b], xim[a]
            zim[a], zim[b] = zim[b], zim[a]
        else:
            raise BadTokenError(f"unknown gate {name!r}")
    return CliffordTableau(n, tuple(xim), tuple(zim))


def random_clifford(n: int, rng) -> CliffordTableau:
    """Uniformly random tableau, drawn from the random.Random rng.

    Symplectic pairs are drawn one at a time: the j-th X-image uniformly
    from the nonzero vectors commuting with all earlier pairs, the j-th
    Z-image uniformly from the affine set anticommuting with it; all 2n
    signs are then independent fair bits.  The choice counts multiply to
    group_order(n), so the draw is exactly uniform.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # the labels commuting with every pair so far, in gf2's echelon form
    basis = [1 << f for f in range(2 * n)]
    chosen: list[int] = []  # alternating p_1, q_1, p_2, q_2, ...
    for _ in range(n):
        p = 0
        while not p:
            p = gf2.combine(basis, rng.getrandbits(len(basis)))
        # the removed vector anticommutes with p: it represents the coset
        # of labels that do, within the commutant of the earlier pairs
        q = gf2.add_constraint(basis, _swap_halves(p, n))
        q ^= gf2.combine(basis, rng.getrandbits(len(basis)))
        gf2.add_constraint(basis, _swap_halves(q, n))
        chosen += (p, q)
    signed = [(lab, 2 * rng.getrandbits(1)) for lab in chosen]
    return CliffordTableau(n, tuple(signed[0::2]), tuple(signed[1::2]))

"""Clifford group elements as stabilizer tableaux with exact signs.

A tableau stores the images of the generators X_1..X_n and Z_1..Z_n under
conjugation, each a Hermitian PauliOperator (phase 0 or 2).  Two unitaries
equal up to global phase give the same tableau, so tableau equality is
equality in the quotient group.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Sequence

from . import gf2
from .pauli import PauliOperator, _swap_halves, parse_pauli


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
            for j in range(i + 1, 2 * n):
                anti = (j == i + n)
                if imgs[i].commutes_with(imgs[j]) == anti:
                    raise ValueError("images do not satisfy the symplectic relations")
        return cls(n, tuple(xim), tuple(zim))

    def conjugate_pauli(self, p: PauliOperator) -> PauliOperator:
        """Image of p under conjugation, with the exact sign.

        Uses p = i^(phase + |x&z|) * prod_j X_j^{x_j} * prod_j Z_j^{z_j}
        and substitutes generator images factor by factor.  The running
        product is kept as i^t * X^ax * Z^az: a factor i^ph * X^gx * Z^gz
        with gx&gz set on its Y qubits adds ph + |gx&gz| to t, and moving
        its X^gx left past Z^az adds 2|az&gx|.
        """
        if p.n != self.n:
            raise ValueError(f"qubit counts differ: {p.n} vs {self.n}")
        n = self.n
        t = p.phase + (p.x & p.z).bit_count()
        ax = az = 0
        for images, bits in ((self.xim, p.x), (self.zim, p.z)):
            while bits:
                top = bits.bit_length()
                bits ^= 1 << (top - 1)
                g = images[n - top]
                gx = g.x
                t += g.phase + (gx & g.z).bit_count() + 2 * (az & gx).bit_count()
                ax ^= gx
                az ^= g.z
        return PauliOperator(n, ax, az, t - (ax & az).bit_count())

    def compose(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of self times other (self applied after other).

        Where other fixes a generator (+X_j or +Z_j), the product's image
        of it is self's image, taken as is.
        """
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        xgen, zgen = _generators(self.n)
        return CliffordTableau(self.n, self._images(other.xim, xgen, self.xim),
                               self._images(other.zim, zgen, self.zim))

    def _images(self, ps, gens, own) -> tuple:
        """self's image of each p in ps; own[j] where ps[j] == gens[j].
        The identity test skips __eq__ on the shared generator objects."""
        return tuple(s if p is g or p == g else self.conjugate_pauli(p)
                     for p, g, s in zip(ps, gens, own))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.n == other.n and self.xim == other.xim and self.zim == other.zim

    def __hash__(self):
        return hash((self.n, self.xim, self.zim))

    def to_strings(self) -> list[str]:
        """2n signed Pauli strings: X_1..X_n images then Z_1..Z_n images."""
        return [p.to_string() for p in self.xim + self.zim]

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
    """(+X_1..+X_n, +Z_1..+Z_n), built once per width."""
    return (tuple(PauliOperator.single(n, j, "X") for j in range(n)),
            tuple(PauliOperator.single(n, j, "Z") for j in range(n)))


GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CX": 2, "CZ": 2, "SWAP": 2}


def _gate_tableau(name: str, qubits: tuple, n: int) -> CliffordTableau:
    t = CliffordTableau.identity(n)
    xim = list(t.xim)
    zim = list(t.zim)
    if name == "H":
        q = qubits[0]
        xim[q] = PauliOperator.single(n, q, "Z")
        zim[q] = PauliOperator.single(n, q, "X")
    elif name == "S":
        q = qubits[0]
        xim[q] = PauliOperator.single(n, q, "Y")
    elif name == "X":
        q = qubits[0]
        zim[q] = -zim[q]
    elif name == "Z":
        q = qubits[0]
        xim[q] = -xim[q]
    elif name == "CX":
        # X_c -> X_c X_t and Z_t -> Z_c Z_t
        c, tq = qubits
        both = (1 << (n - 1 - c)) | (1 << (n - 1 - tq))
        xim[c] = PauliOperator(n, both, 0)
        zim[tq] = PauliOperator(n, 0, both)
    elif name == "CZ":
        # X_a -> X_a Z_b and X_b -> Z_a X_b
        a, b = qubits
        bit_a, bit_b = 1 << (n - 1 - a), 1 << (n - 1 - b)
        xim[a] = PauliOperator(n, bit_a, bit_b)
        xim[b] = PauliOperator(n, bit_b, bit_a)
    elif name == "SWAP":
        a, b = qubits
        xim[a], xim[b] = xim[b], xim[a]
        zim[a], zim[b] = zim[b], zim[a]
    else:
        raise BadTokenError(f"unknown gate {name!r}")
    return CliffordTableau(n, tuple(xim), tuple(zim))


def parse_index(text: str) -> int:
    """A qubit index or width in ASCII decimal digits.  int() alone would
    also read "+1", "1_0" and non-ASCII digits; a leading '-' is kept so
    a negative index is reported as out of range."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad qubit index {text!r}")
    return int(text)


def parse_gate_word(text: str, n: int) -> list[tuple[str, tuple]]:
    """Tokenize a gate word: tokens split on ';' or newlines, each a gate
    name followed by qubit indices, e.g. "H 0; CX 0 1".  Empty text is the
    identity word."""
    tokens = []
    for raw in text.replace("\n", ";").split(";"):
        parts = raw.split()
        if not parts:
            continue
        name = parts[0].upper()
        if name not in GATE_ARITY:
            raise BadTokenError(f"unknown gate {parts[0]!r}")
        arity = GATE_ARITY[name]
        if len(parts) - 1 != arity:
            raise BadTokenError(f"gate {name} expects {arity} qubit(s): {raw.strip()!r}")
        try:
            qubits = tuple(parse_index(p) for p in parts[1:])
        except ValueError:
            raise BadTokenError(f"bad qubit index in {raw.strip()!r}") from None
        for q in qubits:
            if not 0 <= q < n:
                raise IndexOutOfRangeError(f"qubit {q} out of range for n={n}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise BadTokenError(f"repeated qubit in {raw.strip()!r}")
        tokens.append((name, qubits))
    return tokens


def from_gate_word(text: str, n: int) -> CliffordTableau:
    """Tableau of a gate word; the leftmost factor is applied last.
    CliffordTableau.identity raises ValueError for n < 1."""
    c = CliffordTableau.identity(n)
    for name, qubits in parse_gate_word(text, n):
        c = c.compose(_gate_tableau(name, qubits, n))
    return c


def random_clifford(n: int, seed=None) -> CliffordTableau:
    """Uniformly random tableau.

    Symplectic pairs are drawn one at a time: the j-th X-image uniformly
    from the nonzero vectors commuting with all earlier pairs, the j-th
    Z-image uniformly from the affine set anticommuting with it; all 2n
    signs are then independent fair bits.  The choice counts multiply to
    group_order(n), so the draw is exactly uniform.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    dim = 2 * n
    mask = (1 << n) - 1
    chosen: list[int] = []  # alternating p_1, q_1, p_2, q_2, ...

    def sample_solution(target: int | None) -> int:
        # constraints: commute with every chosen label, and if target is
        # given, anticommute with it
        eqs = [(_swap_halves(lab, n), 0) for lab in chosen]
        if target is not None:
            eqs.append((_swap_halves(target, n), 1))
        solved = gf2.solve_affine(eqs, dim)
        assert solved is not None
        part, basis = solved
        while True:
            v = part
            bits = rng.getrandbits(len(basis)) if basis else 0
            i = 0
            while bits:
                if bits & 1:
                    v ^= basis[i]
                bits >>= 1
                i += 1
            if target is not None or v:
                return v

    pairs = []
    for _ in range(n):
        p = sample_solution(None)
        q = sample_solution(p)
        chosen.append(p)
        chosen.append(q)
        pairs.append((p, q))

    xim = []
    zim = []
    for p, q in pairs:
        xim.append(PauliOperator(n, p >> n, p & mask, 2 * rng.getrandbits(1)))
        zim.append(PauliOperator(n, q >> n, q & mask, 2 * rng.getrandbits(1)))
    return CliffordTableau(n, tuple(xim), tuple(zim))

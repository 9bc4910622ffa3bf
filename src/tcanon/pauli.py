"""Signed n-qubit Pauli operators and commuting independent sets.

Encoding: an operator is i^phase * W_1 (x) ... (x) W_n where W_j is picked
by the qubit's (x, z) bit pair: (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y, with
the convention Y = i*X*Z.  x and z are packed into machine ints with qubit
0 at the highest bit of the n-bit field, so the unsigned label
(x << n) | z sorts the way the string form reads.  That label is the
package's one Pauli representation; PauliOperator objects are made only
where text is parsed or rendered, and have no arithmetic.
label_product_phase is the one Pauli product rule.
"""

from __future__ import annotations

from typing import Iterable


class DependentSetError(ValueError):
    pass


class NonCommutingSetError(ValueError):
    pass


class NonHermitianInputError(ValueError):
    pass


_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTERS = str.maketrans("0123", "IZXY")  # hex digit 2x + z -> letter
_SIGN_OF_PHASE = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PHASE_OF_SIGN = {v: k for k, v in _SIGN_OF_PHASE.items()}


class PauliOperator:
    """One signed Pauli at the parse and render edges; immutable.  phase
    is the exponent of i, mod 4."""

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: int, z: int, phase: int = 0):
        self.n = n
        self.x = x
        self.z = z
        self.phase = phase & 3

    @classmethod
    def from_label(cls, n: int, label: int) -> "PauliOperator":
        if not 0 <= label < 1 << (2 * n):
            raise ValueError(f"label {label} out of range for n={n}")
        return cls(n, label >> n, label & ((1 << n) - 1), 0)

    @property
    def label(self) -> int:
        """Unsigned label (x << n) | z; ignores the phase."""
        return (self.x << self.n) | self.z

    def is_hermitian(self) -> bool:
        return not self.phase & 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self.n == other.n and self.x == other.x
                and self.z == other.z and self.phase == other.phase)

    def __hash__(self):
        return hash((self.n, self.x, self.z, self.phase))

    def to_string(self) -> str:
        # x and z read as hex strings of 0s and 1s: 2x + z has one digit
        # 2x_j + z_j per qubit and no carries, so this is linear in n
        digits = 2 * int(bin(self.x)[2:], 16) + int(bin(self.z)[2:], 16)
        return (_SIGN_OF_PHASE[self.phase]
                + ("%0*x" % (self.n, digits)).translate(_LETTERS))

    def __repr__(self):
        return f"<Pauli {self.to_string()}>"


def parse_pauli(text: str) -> PauliOperator:
    """Parse "+ZIZ" style text: optional +, -, +i, -i then I/X/Y/Z letters."""
    s = text.strip()
    phase = 0
    for prefix in ("+i", "-i", "+", "-"):
        if s.startswith(prefix):
            phase = _PHASE_OF_SIGN[prefix]
            s = s[len(prefix):]
            break
    if not s:
        raise ValueError(f"empty Pauli body in {text!r}")
    n = len(s)
    x = z = 0
    for ch in s:
        if ch not in _BITS:
            raise ValueError(f"bad Pauli letter {ch!r} in {text!r}")
        xb, zb = _BITS[ch]
        x = (x << 1) | xb
        z = (z << 1) | zb
    return PauliOperator(n, x, z, phase)


def parse_index(text: str) -> int:
    """A qubit index or width in ASCII decimal digits.  int() alone would
    also read "+1", "1_0" and non-ASCII digits; a leading '-' is kept so
    a negative index is reported as out of range."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad qubit index {text!r}")
    return int(text)


def label_product_phase(a: int, b: int, n: int) -> int:
    """k with P_a * P_b = i^k P_(a ^ b) for the positive Paulis of two
    unsigned labels.  Each factor is i^|x&z| X^x Z^z; moving X^x2 left
    past Z^z1 adds 2|z1&x2|.  The counts are read off whole labels: b >> n
    is x2 with nothing above its n bits, so a & b >> n keeps only a's low
    half, z1, against it and is z1 & x2; likewise a & a >> n is x1 & z1.
    The one Pauli product rule of the package: every product phase in
    tableaux and channels is taken from it."""
    c = a ^ b
    return ((a & a >> n).bit_count() + (b & b >> n).bit_count()
            + 2 * (a & b >> n).bit_count() - (c & c >> n).bit_count()) & 3


def _swap_halves(label: int, n: int) -> int:
    """The dual label of the symplectic form, the package's only one: P_a
    and P_b anticommute exactly when (a & _swap_halves(b, n)).bit_count()
    is odd.  Callers swap a fixed operand once."""
    mask = (1 << n) - 1
    return ((label & mask) << n) | (label >> n)


class LabelNames(dict):
    """Memo from unsigned label to its "+XZ" text at one width.

    Filled on first use, so it holds only the labels actually rendered;
    make one per command rather than per set.  It also keeps the text of
    the last set's labels but its last, so a run of sets that differ only
    in their last label, as the enumeration walk yields them, renders
    that head once.
    """

    __slots__ = ("n", "head", "head_text")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.head = None
        self.head_text = ""

    def __missing__(self, label: int) -> str:
        text = self[label] = PauliOperator.from_label(self.n, label).to_string()
        return text

    def render(self, s: "PauliSet") -> str:
        """A set's elements as text, comma separated, in label order."""
        labels = s.labels
        head = labels[:-1]
        if head != self.head:
            self.head = head
            self.head_text = "".join([self[a] + ", " for a in head])
        return self.head_text + self[labels[-1]] if labels else ""


class PauliSet:
    """Commuting, independent, positive Paulis sorted ascending by label.

    Stored as the sorted tuple of unsigned labels; iterating builds the
    PauliOperator elements, for rendering.  Construct through
    validate_set; the raw constructor and from_labels trust their input.
    The empty set is allowed here (a canonical form may carry no
    exponential factors) even though validate_set requires at least one
    candidate.
    """

    __slots__ = ("n", "labels")

    def __init__(self, n: int, labels: tuple):
        self.n = n
        self.labels = labels

    @classmethod
    def empty(cls, n: int) -> "PauliSet":
        return cls(n, ())

    @classmethod
    def from_labels(cls, n: int, labels) -> "PauliSet":
        """Fast trusted path used by the enumerator; labels must already be
        sorted, commuting and independent."""
        return cls(n, tuple(labels))

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return (PauliOperator.from_label(self.n, l) for l in self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSet):
            return NotImplemented
        return self.n == other.n and self.labels == other.labels

    def __hash__(self):
        return hash((self.n, self.labels))

    def __repr__(self):
        return f"<PauliSet n={self.n} {{{LabelNames(self.n).render(self)}}}>"


def validate_set(candidates: Iterable[PauliOperator]) -> PauliSet:
    """Check and normalize a generating family.

    Accepts Hermitian inputs (signs are stripped; they belong to the
    Clifford part upstream) and returns validate_labels of their labels.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("empty candidate family")
    n = cands[0].n
    for p in cands:
        if p.n != n:
            raise ValueError(f"qubit counts differ: {p.n} vs {n}")
        if not p.is_hermitian():
            raise NonHermitianInputError(f"non-Hermitian candidate {p!r}")
    return validate_labels(n, [p.label for p in cands])


def validate_labels(n: int, labels: list[int]) -> PauliSet:
    """The sorted set of the positive Paulis of labels, which must commute
    pairwise and be independent over GF(2)."""
    # imported here so that enumerate never loads gf2; canonicalize calls
    # this once per layer, and the absolute form costs half what a
    # relative import's per-call package lookup does
    import tcanon.gf2 as gf2
    for i, a in enumerate(labels):
        swapped = _swap_halves(a, n)
        for b in labels[i + 1:]:
            if (b & swapped).bit_count() & 1:
                raise NonCommutingSetError(
                    f"{PauliOperator.from_label(n, a)!r} and "
                    f"{PauliOperator.from_label(n, b)!r} anticommute")
    if gf2.rank(labels) != len(labels):
        raise DependentSetError("candidates are dependent over GF(2)")
    return PauliSet(n, tuple(sorted(labels)))


def commutant(s: PauliSet) -> list[int]:
    """Unsigned labels commuting with every set element, ascending.

    The result always has exactly 2^(2n - m) labels: the constraints are
    independent linear functionals on the 2n-dimensional label space.
    """
    import tcanon.gf2 as gf2  # as in validate_labels
    n = s.n
    dim = 2 * n
    basis = gf2.nullspace((_swap_halves(l, n) for l in s.labels), dim)
    return sorted(gf2.combine(basis, bits) for bits in range(1 << len(basis)))

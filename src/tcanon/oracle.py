"""Brute-force oracle over dense exact matrices.

Everything here recomputes unitaries as full 2^n x 2^n matrices with
entries in Z[zeta, 1/2], zeta = exp(i*pi/8), sharing nothing with the
tableau or channel machinery beyond the gate-word tokenizer.  That makes
it slow and size-limited but trustworthy: agreement between a structured
channel and channel_bruteforce checks the fast path end to end.  A
Pauli comes in as its unsigned label (x << n) | z, read bit by bit here.
Every builder writes 8-int zeta-coefficient columns over one 2^k and ends
in one wrap, _dense; a gate word's are built in place, gate by gate.

channel_bruteforce is the one trace kernel: its column Q is the Pauli
expansion of U Q U', which is also where the Hamming-weight check reads
its supports.  It packs every entry, over one 2^k shared by the matrix,
into one integer sum_j c_j 2^(w j) (Kronecker substitution), so Python's
big-int product and add do the negacyclic 8 x 8 convolutions and the
Walsh-Hadamard butterflies.  The digit width comes from the input: with
A a bound on every |c_j| over 2^k, w = bitlen(32 A^2 4^n) + 2.  A digit
of a product sums at most 8 terms, the transform adds 4^n of those, and
each of the two folds by zeta^8 = -1 at most doubles it, so every digit
stays under 2^(w-2); every packed value therefore splits back into its
balanced digits, each in [-2^(w-1), 2^(w-1)), exactly.  All X-parts of
the second Pauli ride in slots of one int, laid out once per call from
one table of XOR permutations, so a channel costs one integer product
per grid cell and one transform per X-part of the first.  A zero
transform output is skipped before any slot work.  Each distinct pair
(nonzero trace, unit i^t) is read once per call: times its unit, checked
real, and made into one DyadicSqrt2Scalar that every repeat shares, as a
unitary's channel holds a few values (+-1, +-1/sqrt2, ...) in 16^n cells.

Matrices above three qubits are refused with SizeRefusalError; a channel
costs 8^n products of 2^n-slot ints and 16^n transform outputs, which
stops being interactive from four qubits on.
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import add, attrgetter, lshift, mul, sub
from typing import TYPE_CHECKING

from .channel import ChannelRep
from .clifford import parse_gate_word
from .exactnum import Cyclotomic16Scalar, DyadicSqrt2Scalar, cyclotomic_dot

if TYPE_CHECKING:
    from .canonical import TLayer


class SizeRefusalError(ValueError):
    pass


class NonRealEntryError(ValueError):
    pass


SIZE_CAP = 3

def _guard(n: int) -> None:
    if n > SIZE_CAP:
        raise SizeRefusalError(
            f"dense oracle capped at {SIZE_CAP} qubits, got n={n}")


class DenseUnitary:
    """Row-major 2^n x 2^n matrix of Cyclotomic16Scalar."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: list):
        self.n = n
        self.mat = mat

    @classmethod
    def identity(cls, n: int) -> "DenseUnitary":
        _guard(n)
        return _dense(n, _diagonal([[1] + [0] * 7] * (1 << n)), 0)

    def multiply(self, other: "DenseUnitary") -> "DenseUnitary":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        rows = [[(k, a) for k, a in enumerate(row) if not a.is_zero()]
                for row in self.mat]
        cols = [{k: b for k, b in enumerate(col) if not b.is_zero()}
                for col in zip(*other.mat)]
        return DenseUnitary(self.n, [
            [cyclotomic_dot((a, col[k]) for k, a in row if k in col)
             for col in cols] for row in rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseUnitary):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __repr__(self):
        return f"<DenseUnitary n={self.n}>"


def dense_of_exponential(n: int, label: int) -> DenseUnitary:
    """exp(i*pi*P/8) = cos(pi/8) I + i sin(pi/8) P, 0 < label < 4^n, over
    2^1: zeta - zeta^7 = 2 cos(pi/8) on the diagonal, and column c adds
    (zeta + zeta^7) P[c ^ x][c] = 2 i sin(pi/8) i^(|x&z| + 2|z&c|)."""
    if not 0 < label < 1 << (2 * n):
        raise ValueError(f"label {label} out of range for n={n}")
    _guard(n)
    x, z = divmod(label, 1 << n)
    cols = _diagonal([[0, 1, 0, 0, 0, 0, 0, -1]] * (1 << n))
    for c, col in enumerate(cols):
        t = (x & z).bit_count() + 2 * (z & c).bit_count()
        col[c ^ x] = [*map(add, col[c ^ x],
                           _times_zeta([0, 1, 0, 0, 0, 0, 0, 1], 4 * t))]
    return _dense(n, cols, 1)


def _qubit_mask(n: int, q: int) -> int:
    return 1 << (n - 1 - q)


def _apply_gate(cols: list, name: str, qubits: tuple, n: int) -> None:
    """cols <- cols * G for one gate G, on the running matrix's columns of
    8-int entries; H is applied as sqrt2 * H, all integer."""
    dim = 1 << n
    m = _qubit_mask(n, qubits[0])
    if name == "H":
        for c in range(dim):
            if not c & m:
                lo, hi = cols[c], cols[c | m]
                cols[c] = [[*map(add, a, b)] for a, b in zip(lo, hi)]
                cols[c | m] = [[*map(sub, a, b)] for a, b in zip(lo, hi)]
    elif name in ("S", "Z", "CZ"):
        if name == "CZ":
            m |= _qubit_mask(n, qubits[1])
        for c in range(dim):
            if c & m == m:
                cols[c] = [_times_zeta(v, 4 if name == "S" else 8)
                           for v in cols[c]]
    else:
        # a permutation gate has G[src][c] = 1: new column c is column src
        b = _qubit_mask(n, qubits[-1])
        if name == "X":
            src = [c ^ m for c in range(dim)]
        elif name == "CX":
            src = [c ^ b if c & m else c for c in range(dim)]
        elif name == "SWAP":
            src = [c ^ m ^ b if bool(c & m) != bool(c & b) else c
                   for c in range(dim)]
        else:
            raise AssertionError(f"unhandled gate {name}")
        cols[:] = [cols[c] for c in src]


def dense_of_gate_word(text: str, n: int) -> DenseUnitary:
    """Matrix of a gate word, leftmost factor applied last (product order).

    Each gate multiplies the running matrix from the right, in place: H
    mixes pairs of columns, S, Z and CZ phase columns, and X, CX and SWAP
    permute them, all on 8-int entries.  The 1/sqrt2 of each of the h H
    gates comes in at the end, as 2^-(h // 2) and one more 1/sqrt2 if h
    is odd.
    """
    _guard(n)
    cols = _diagonal([[1] + [0] * 7] * (1 << n))
    h = 0
    for name, qubits in parse_gate_word(text, n):
        _apply_gate(cols, name, qubits, n)
        h += name == "H"
    if h & 1:  # sqrt2 = zeta^2 - zeta^6, and 1/sqrt2 = sqrt2 / 2
        cols = [[[c2 - c6, c3 - c7, c0 + c4, c1 + c5, c2 + c6, c3 + c7,
                  c4 - c0, c5 - c1] for c0, c1, c2, c3, c4, c5, c6, c7 in col]
                for col in cols]
    return _dense(n, cols, (h + 1) // 2)


def dense_of_t_layer(layer: TLayer) -> DenseUnitary:
    """Diagonal matrix of a parallel T / Tdg layer (true gates, with phase)."""
    n = layer.n
    _guard(n)
    return _dense(n, _diagonal([_times_zeta([1] + [0] * 7, sum(
        -2 if is_tdg else 2 for q, is_tdg in layer.marked
        if b & _qubit_mask(n, q))) for b in range(1 << n)]), 0)


def _diagonal(entries: list) -> list:
    """The columns of the diagonal matrix with these 8-int entries."""
    return [[v if r == c else [0] * 8 for r in range(len(entries))]
            for c, v in enumerate(entries)]


def _dense(n: int, cols: list, k: int) -> DenseUnitary:
    """The DenseUnitary of 8-int columns, every entry over 2^k."""
    return DenseUnitary(n, [[Cyclotomic16Scalar(v, k) for v in row]
                            for row in zip(*cols)])


def _times_zeta(c: list, j: int) -> list:
    """zeta^j * c on 8 coefficients, using zeta^8 = -1."""
    j %= 16
    if j >= 8:
        c, j = [-v for v in c], j - 8
    return [-v for v in c[8 - j:]] + c[:8 - j]


def _pack(u: DenseUnitary) -> tuple:
    """(k, w, rows, conj_rows): every entry of u and of its conjugate over
    one 2^k, as one int each; a zero entry packs as 0.

    c_j zeta^j packs as c_j 2^(w j).  As conj zeta^j = -zeta^(8-j), the
    conjugate packs as -sum_j c_j 2^(w (8 - j)), in digits 1 to 8; the
    fold after the product brings digit 8 back to 0.  w is the digit width
    of the module docstring, for A = (largest |c_j|) * 2^(k - smallest k)
    over the nonzero entries, a bound on every |c_j| over 2^k.
    """
    dim = 1 << u.n
    entries = [*chain.from_iterable(u.mat)]
    at = [*compress(count(), map(any, map(attrgetter("c"), entries)))]
    nonzero = [*map(entries.__getitem__, at)]
    ks = [*map(attrgetter("k"), nonzero)]
    cs = [*chain.from_iterable(map(attrgetter("c"), nonzero))]
    k = max(ks, default=0)
    a = (max(max(cs, default=0), -min(cs, default=0))
         << (k - min(ks, default=0)))
    w = (32 * a * a << 2 * u.n).bit_length() + 2
    digits, conj_digits = range(0, 8 * w, w), range(8 * w, 0, -w)
    rows, conj_rows = [0] * (dim * dim), [0] * (dim * dim)
    for i, v in zip(at, nonzero):
        rows[i] = sum(map(lshift, v.c, digits)) << (k - v.k)
        conj_rows[i] = -sum(map(lshift, v.c, conj_digits)) << (k - v.k)
    starts = range(0, dim * dim, dim)
    return (k, w, [rows[i:i + dim] for i in starts],
            [conj_rows[i:i + dim] for i in starts])


def _digits(v: int, w: int) -> list:
    """The 8 balanced w-bit digits of a packed v: adding 2^(w-1) to every
    digit makes them plain base-2^w digits, with no carries."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    v += half * ((1 << 8 * w) - 1) // mask
    return [(v >> s & mask) - half for s in range(0, 8 * w, w)]


def _butterflies(v: list, bits: int) -> list:
    """out[j] = sum_i (-1)^|i & j| v[i] over a list of 2^bits ints.

    A stage pairs the entries that differ in the lowest index bit and
    writes sums then differences, which rotates the index bits, so after
    `bits` stages every index is back in place.
    """
    for _ in range(bits):
        lo, hi = v[0::2], v[1::2]
        v = [*map(add, lo, hi), *map(sub, lo, hi)]
    return v


def channel_bruteforce(u: DenseUnitary) -> ChannelRep:
    """Channel matrix by raw traces: entry[P, Q] = Tr(P U Q U') / 2^n.

    For X-parts (xp, xq), the transform of the grid
    A[r][c] = U[r ^ xp][c ^ xq] conj(U[r][c]) over the 2n bits of
    r * 2^n + c holds at (zp, zq) the trace for P = (xp, zp), Q = (xq, zq),
    up to the unit i^(3|xp&zp| + |xq&zq|).  With every xq in a 16-digit
    slot of S[a][c] = sum_xq U[a][c ^ xq] 2^(16 w xq), each cell of an xp
    is the one product S[r ^ xp][c] conj(U[r][c]) and one transform serves
    every xq.  Raises NonRealEntryError, naming the first entry in scan
    order (xp, then (zp, zq), then xq), if a trace is not
    d0 + d2 (zeta^2 - zeta^6), that is, not in the real dyadic sqrt2 ring,
    which cannot happen for an actual unitary's channel.
    """
    _guard(u.n)
    n = u.n
    dim = 1 << n
    k, w, rows, conj_rows = _pack(u)
    slot = 16 * w
    perms = [[c ^ x for x in range(dim)] for c in range(dim)]
    shifts = range(0, slot * dim, slot)
    s = [[sum(map(lshift, map(row.__getitem__, perm), shifts))
          for perm in perms] for row in rows]
    # low = ((v + half) & mask) - half splits off v's balanced low digit
    half, mask = 1 << (slot - 1), (1 << slot) - 1
    half8, mask8 = 1 << (8 * w - 1), (1 << 8 * w) - 1
    half1, mask1 = 1 << (w - 1), (1 << w) - 1
    real = (1 << 2 * w) - (1 << 6 * w)  # zeta^2 - zeta^6 = sqrt2
    den = 2 * k + n
    read = {}  # (folded trace, unit exponent) -> its scalar
    cols = [{} for _ in range(dim * dim)]
    for xp in range(dim):
        grid = [g for r, conj_row in enumerate(conj_rows)
                for g in map(mul, s[r ^ xp], conj_row)]
        for j, v in enumerate(_butterflies(grid, 2 * n)):
            if not v:
                continue
            zp, zq = j >> n, j & (dim - 1)
            p, up = xp << n | zp, 3 * (xp & zp).bit_count()
            xq = 0
            while v:  # slot xq, then the rest
                t = ((v + half) & mask) - half
                v = (v - t) >> slot
                low = ((t + half8) & mask8) - half8  # fold zeta^8 = -1
                t = low - ((t - low) >> 8 * w)
                if t:
                    q, e = xq << n | zq, (up + (xq & zq).bit_count()) & 3
                    key = t, e
                    value = read.get(key)
                    if value is None:
                        if e & 1:  # i = zeta^4: up 4 digits and one fold
                            t <<= 4 * w
                            low = ((t + half8) & mask8) - half8
                            t = low - ((t - low) >> 8 * w)
                        if e & 2:
                            t = -t
                        d0 = ((t + half1) & mask1) - half1
                        d2 = ((((t - d0) >> 2 * w) + half1) & mask1) - half1
                        if t != d0 + d2 * real:
                            raise NonRealEntryError(
                                f"entry ({p}, {q}) is not real dyadic: "
                                f"{Cyclotomic16Scalar(_digits(t, w), den)!r}")
                        value = read[key] = DyadicSqrt2Scalar(d0, d2, den)
                    cols[q][p] = value
                xq += 1
    return ChannelRep(n, cols)

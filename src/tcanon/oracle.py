"""Brute-force oracle over dense exact matrices.

Everything here recomputes unitaries as full 2^n x 2^n matrices with
entries in Z[zeta, 1/2], zeta = exp(i*pi/8), sharing nothing with the
tableau or channel machinery beyond the gate-word tokenizer.  That makes
it slow and size-limited but trustworthy: agreement between a structured
channel and channel_bruteforce checks the fast path end to end.
A gate word is built in place, one gate at a time, as an operation on
the running matrix's columns.  pauli_expand and channel_bruteforce run
on raw rows, each entry its nonzero zeta-coefficients over one 2^k
shared by the matrix.  Products go straight into integer coefficient
planes, one per power of zeta and only where one is hit; every Pauli
trace is read off an integer Walsh-Hadamard transform of those planes,
times a unit i^t, and a scalar is built only per nonzero trace.

Matrices above three qubits are refused with SizeRefusalError; a channel
costs 16^n entry products and 16^n transform outputs, which stops being
interactive from four qubits on.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, sub

from .canonical import TLayer
from .channel import ChannelRep
from .clifford import parse_gate_word
from .exactnum import (CYC_I, CYC_INV_SQRT2, CYC_ONE, CYC_ZERO,
                       Cyclotomic16Scalar, cyclotomic_dot)
from .pauli import PauliOperator


class SizeRefusalError(ValueError):
    pass


class NonRealEntryError(ValueError):
    pass


_SIZE_CAP = 3

# (zeta - zeta^7)/2 = cos(pi/8), (zeta + zeta^7)/2 = i*sin(pi/8)
_COS_PI_8 = Cyclotomic16Scalar((0, 1, 0, 0, 0, 0, 0, -1), 1)
_I_SIN_PI_8 = Cyclotomic16Scalar((0, 1, 0, 0, 0, 0, 0, 1), 1)
_ZETA2 = Cyclotomic16Scalar.zeta_power(2)       # exp(+i*pi/4), the T phase
_ZETA2_CONJ = Cyclotomic16Scalar.zeta_power(2).conjugate()
_I_INV_SQRT2 = CYC_I * CYC_INV_SQRT2


def _guard(n: int) -> None:
    if n > _SIZE_CAP:
        raise SizeRefusalError(
            f"dense oracle capped at {_SIZE_CAP} qubits, got n={n}")


class DenseUnitary:
    """Row-major 2^n x 2^n matrix of Cyclotomic16Scalar."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: list):
        self.n = n
        self.mat = mat

    @classmethod
    def identity(cls, n: int) -> "DenseUnitary":
        dim = 1 << n
        mat = [[CYC_ZERO] * dim for _ in range(dim)]
        for i in range(dim):
            mat[i][i] = CYC_ONE
        return cls(n, mat)

    @property
    def dim(self) -> int:
        return 1 << self.n

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

    def dagger(self) -> "DenseUnitary":
        dim = self.dim
        mat = self.mat
        return DenseUnitary(
            self.n,
            [[mat[j][i].conjugate() for j in range(dim)] for i in range(dim)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseUnitary):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __repr__(self):
        return f"<DenseUnitary n={self.n}>"


def dense_of_pauli(p: PauliOperator) -> DenseUnitary:
    """Matrix of i^phase * (Hermitian representative of (x, z))."""
    _guard(p.n)
    n = p.n
    dim = 1 << n
    base = p.phase + bin(p.x & p.z).count("1")
    mat = [[CYC_ZERO] * dim for _ in range(dim)]
    for c in range(dim):
        t = (base + 2 * bin(p.z & c).count("1")) & 3
        mat[c ^ p.x][c] = Cyclotomic16Scalar.zeta_power(4 * t)
    return DenseUnitary(n, mat)


def _identity_plus(p: PauliOperator, a: Cyclotomic16Scalar,
                   b: Cyclotomic16Scalar, sign: int) -> DenseUnitary:
    """a*I + sign*b*P for a positive non-identity P."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    if p.x == 0 and p.z == 0:
        raise ValueError("exponential of the identity label")
    if not p.is_positive():
        raise ValueError(f"need a positive Pauli, got {p!r}")
    b = b if sign > 0 else -b
    mat = [[CYC_ZERO if v.is_zero() else b * v for v in row]
           for row in dense_of_pauli(p).mat]
    for r, row in enumerate(mat):
        row[r] = row[r] + a
    return DenseUnitary(p.n, mat)


def dense_of_exponential(p: PauliOperator, sign: int = 1) -> DenseUnitary:
    """exp(sign * i*pi*P/8) = cos(pi/8) I + sign i sin(pi/8) P."""
    return _identity_plus(p, _COS_PI_8, _I_SIN_PI_8, sign)


def dense_of_quarter_exponential(p: PauliOperator, sign: int = 1) -> DenseUnitary:
    """exp(sign * i*pi*P/4) = (I + sign i P) / sqrt2."""
    return _identity_plus(p, CYC_INV_SQRT2, _I_INV_SQRT2, sign)


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
    dim = 1 << n
    cols = [[[int(r == c)] + [0] * 7 for r in range(dim)] for c in range(dim)]
    h = 0
    for name, qubits in parse_gate_word(text, n):
        _apply_gate(cols, name, qubits, n)
        h += name == "H"
    if h & 1:  # sqrt2 = zeta^2 - zeta^6, and 1/sqrt2 = sqrt2 / 2
        cols = [[[*map(sub, _times_zeta(v, 2), _times_zeta(v, 6))]
                 for v in col] for col in cols]
    return DenseUnitary(n, [[Cyclotomic16Scalar(v, (h + 1) // 2) for v in row]
                            for row in zip(*cols)])


def dense_of_t_layer(layer: TLayer) -> DenseUnitary:
    """Diagonal matrix of a parallel T / Tdg layer (true gates, with phase)."""
    _guard(layer.n)
    n = layer.n
    dim = 1 << n
    mat = [[CYC_ZERO] * dim for _ in range(dim)]
    for b in range(dim):
        v = CYC_ONE
        for q, is_tdg in layer.marked:
            if b & _qubit_mask(n, q):
                v = v * (_ZETA2_CONJ if is_tdg else _ZETA2)
        mat[b][b] = v
    return DenseUnitary(n, mat)


def _times_zeta(c: list, j: int) -> list:
    """zeta^j * c on 8 coefficients, using zeta^8 = -1."""
    j %= 16
    if j >= 8:
        c, j = [-v for v in c], j - 8
    return [-v for v in c[8 - j:]] + c[:8 - j]


def _raw(u: DenseUnitary) -> tuple:
    """(rows, k): every entry of u as its (j, c_j) pairs with c_j != 0,
    over one 2^k shared by the matrix; a zero entry has no pairs."""
    k = max(v.k for row in u.mat for v in row)
    return [[tuple((j, c << (k - v.k)) for j, c in enumerate(v.c) if c)
             for v in row] for row in u.mat], k


def _transform(planes: dict, bits: int):
    """Yield (j, c) for every nonzero out[j] = sum_i (-1)^|i & j| in[i],
    c its 8 coefficients; planes[t] holds coefficient t of every in[i],
    and a missing plane is all zero.

    Each plane runs `bits` integer butterfly stages; a stage pairs the
    entries that differ in the lowest index bit and writes sums then
    differences, which rotates the index bits, so after `bits` stages
    every index is back in place.
    """
    outs = []
    for plane in planes.values():
        for _ in range(bits):
            lo, hi = plane[0::2], plane[1::2]
            plane = [*map(add, lo, hi), *map(sub, lo, hi)]
        outs.append(plane)
    for j, values in enumerate(zip(*outs)):
        if any(values):
            c = [0] * 8
            for t, v in zip(planes, values):
                c[t] = v
            yield j, c


def pauli_expand(u: DenseUnitary) -> dict:
    """Nonzero coefficients of M = sum_P m_P P over positive Pauli labels.

    m_P = Tr(P M) / 2^n, exact in the cyclotomic ring.  P = (x, z) has
    P[r][r ^ x] = i^|x&z| (-1)^(z.(r ^ x)), so Tr(P M) is i^(3|x&z|) times
    the transform of v[r] = M[r ^ x][r] at z.
    """
    n = u.n
    dim = 1 << n
    rows, k = _raw(u)
    out = {}
    for x in range(dim):
        planes = defaultdict(lambda: [0] * dim)
        for r in range(dim):
            for j, c in rows[r ^ x][r]:
                planes[j][r] = c
        for z, v in _transform(planes, n):
            out[x << n | z] = Cyclotomic16Scalar(
                _times_zeta(v, 12 * (x & z).bit_count()), k + n)
    return out


def channel_bruteforce(u: DenseUnitary) -> ChannelRep:
    """Channel matrix by raw traces: entry[P, Q] = Tr(P U Q U') / 2^n.

    For X-parts (xp, xq), A[r][c] = U[r ^ xp][c ^ xq] conj(U[r][c]) is one
    grid, accumulated straight into coefficient planes (zeta^8 = -1, and
    conj zeta^j = -zeta^(8-j)); its transform over the 2n bits of
    r * 2^n + c holds at (zp, zq) the trace for P = (xp, zp),
    Q = (xq, zq), up to the unit i^(3|xp&zp| + |xq&zq|).  Raises
    NonRealEntryError if any trace falls outside the real dyadic sqrt2
    ring, which cannot happen for an actual unitary's channel.
    """
    _guard(u.n)
    n = u.n
    dim = 1 << n
    rows, k = _raw(u)
    conj_rows = [[(c, tuple((8 - j, -v) if j else (0, v) for j, v in e))
                  for c, e in enumerate(row) if e] for row in rows]
    cols = [{} for _ in range(dim * dim)]
    for xp in range(dim):
        for xq in range(dim):
            planes = defaultdict(lambda: [0] * (dim * dim))
            for r, conj_row in enumerate(conj_rows):
                row = rows[r ^ xp]
                for c, b in conj_row:
                    index = r << n | c
                    for i, ai in row[c ^ xq]:
                        for j, bj in b:
                            if i + j < 8:
                                planes[i + j][index] += ai * bj
                            else:
                                planes[i + j - 8][index] -= ai * bj
            for j, v in _transform(planes, 2 * n):
                zp, zq = j >> n, j & (dim - 1)
                p, q = xp << n | zp, xq << n | zq
                trace = Cyclotomic16Scalar(_times_zeta(
                    v, 12 * (xp & zp).bit_count() + 4 * (xq & zq).bit_count()),
                    2 * k + n)
                try:
                    cols[q][p] = trace.to_dyadic()
                except ValueError:
                    raise NonRealEntryError(
                        f"entry ({p}, {q}) is not real dyadic: {trace!r}") from None
    return ChannelRep(n, cols)

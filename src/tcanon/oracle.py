"""Brute-force oracle over dense exact matrices.

Everything here recomputes unitaries as full 2^n x 2^n matrices with
entries in Z[zeta, 1/2], zeta = exp(i*pi/8), sharing nothing with the
tableau or channel machinery beyond the gate-word tokenizer.  That makes
it slow and size-limited but trustworthy: agreement between a structured
channel and channel_bruteforce checks the fast path end to end.
pauli_expand and channel_bruteforce run on raw rows, each entry an 8-int
coefficient list over one 2^k shared by the matrix.  Every Pauli trace
is read off an integer Walsh-Hadamard transform of those entries, times
a unit i^t; a scalar is built only per nonzero trace.

Matrices above three qubits are refused with SizeRefusalError; a channel
costs 16^n entry products and 16^n transform outputs, which stops being
interactive from four qubits on.
"""

from __future__ import annotations

from .canonical import TLayer
from .channel import ChannelRep
from .clifford import parse_gate_word
from .exactnum import (CYC_I, CYC_INV_SQRT2, CYC_ONE, CYC_ZERO,
                       Cyclotomic16Scalar, _convolve_into, cyclotomic_dot)
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


def _dense_gate(name: str, qubits: tuple, n: int) -> DenseUnitary:
    dim = 1 << n
    mat = [[CYC_ZERO] * dim for _ in range(dim)]
    if name == "H":
        m = _qubit_mask(n, qubits[0])
        for c in range(dim):
            mat[c & ~m][c] = CYC_INV_SQRT2
            v = CYC_INV_SQRT2 if not (c & m) else -CYC_INV_SQRT2
            mat[c | m][c] = v
    elif name == "S":
        m = _qubit_mask(n, qubits[0])
        for c in range(dim):
            mat[c][c] = CYC_I if c & m else CYC_ONE
    elif name == "X":
        m = _qubit_mask(n, qubits[0])
        for c in range(dim):
            mat[c ^ m][c] = CYC_ONE
    elif name == "Z":
        m = _qubit_mask(n, qubits[0])
        for c in range(dim):
            mat[c][c] = -CYC_ONE if c & m else CYC_ONE
    elif name == "CX":
        cm = _qubit_mask(n, qubits[0])
        tm = _qubit_mask(n, qubits[1])
        for c in range(dim):
            mat[c ^ tm if c & cm else c][c] = CYC_ONE
    elif name == "CZ":
        am = _qubit_mask(n, qubits[0])
        bm = _qubit_mask(n, qubits[1])
        for c in range(dim):
            neg = (c & am) and (c & bm)
            mat[c][c] = -CYC_ONE if neg else CYC_ONE
    elif name == "SWAP":
        am = _qubit_mask(n, qubits[0])
        bm = _qubit_mask(n, qubits[1])
        for c in range(dim):
            a_bit = 1 if c & am else 0
            b_bit = 1 if c & bm else 0
            r = c
            if a_bit != b_bit:
                r = c ^ am ^ bm
            mat[r][c] = CYC_ONE
    else:
        raise AssertionError(f"unhandled gate {name}")
    return DenseUnitary(n, mat)


def dense_of_gate_word(text: str, n: int) -> DenseUnitary:
    """Matrix of a gate word, leftmost factor applied last (product order)."""
    _guard(n)
    acc = DenseUnitary.identity(n)
    for name, qubits in parse_gate_word(text, n):
        acc = acc.multiply(_dense_gate(name, qubits, n))
    return acc


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


def _rotate(c: list, t: int) -> list:
    """i^t * c on 8 coefficients: i = zeta^4 and zeta^8 = -1."""
    t &= 3
    if t == 0:
        return c
    if t == 2:
        return [-v for v in c]
    if t == 1:
        return [-v for v in c[4:]] + c[:4]
    return c[4:] + [-v for v in c[:4]]


def _raw(u: DenseUnitary) -> tuple:
    """(rows, k): every nonzero entry of u as an 8-int list over one
    shared 2^k, and None for each zero entry so products can skip it."""
    k = max(v.k for row in u.mat for v in row)
    return [[[c << (k - v.k) for c in v.c] if any(v.c) else None
             for v in row] for row in u.mat], k


def _conjugate_raw(rows: list) -> list:
    """Per raw row, (column, conjugate) for each nonzero entry, with the
    complex conjugate taken as zeta^j -> -zeta^(8-j)."""
    return [[(j, [c[0], -c[7], -c[6], -c[5], -c[4], -c[3], -c[2], -c[1]])
             for j, c in enumerate(row) if c is not None] for row in rows]


_ZERO = (0,) * 8


def _popcount(v: int) -> int:
    return bin(v).count("1")


def _walsh_hadamard(entries: list, bits: int) -> list:
    """out[j] = sum_i (-1)^|i & j| entries[i] over 8-int entries.

    Each coefficient plane that is not all zero runs `bits` integer
    butterfly stages; a stage pairs the entries that differ in the lowest
    index bit and writes sums then differences, which rotates the index
    bits, so after `bits` stages every index is back in place.
    """
    planes = []
    for plane in zip(*entries):
        if any(plane):
            for _ in range(bits):
                lo, hi = plane[0::2], plane[1::2]
                plane = ([a + b for a, b in zip(lo, hi)]
                         + [a - b for a, b in zip(lo, hi)])
        planes.append(plane)
    return list(zip(*planes))


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
        diagonal = [rows[r ^ x][r] or _ZERO for r in range(dim)]
        for z, v in enumerate(_walsh_hadamard(diagonal, n)):
            if any(v):
                out[x << n | z] = Cyclotomic16Scalar(
                    _rotate(list(v), 3 * _popcount(x & z)), k + n)
    return out


def channel_bruteforce(u: DenseUnitary) -> ChannelRep:
    """Channel matrix by raw traces: entry[P, Q] = Tr(P U Q U') / 2^n.

    For X-parts (xp, xq), A[r][c] = U[r ^ xp][c ^ xq] conj(U[r][c]) is one
    grid; its transform over the 2n bits of r * 2^n + c holds at
    (zp, zq) the trace for P = (xp, zp), Q = (xq, zq), up to the unit
    i^(3|xp&zp| + |xq&zq|).  Raises NonRealEntryError if any trace falls
    outside the real dyadic sqrt2 ring, which cannot happen for an actual
    unitary's channel.
    """
    _guard(u.n)
    n = u.n
    dim = 1 << n
    rows, k = _raw(u)
    conj_rows = _conjugate_raw(rows)
    cols = [{} for _ in range(dim * dim)]
    for xp in range(dim):
        for xq in range(dim):
            grid = [_ZERO] * (dim * dim)
            for r, conj_row in enumerate(conj_rows):
                row = rows[r ^ xp]
                for c, b in conj_row:
                    if (a := row[c ^ xq]) is not None:
                        acc = grid[r << n | c] = [0] * 8
                        _convolve_into(acc, a, b, 0)
            for j, v in enumerate(_walsh_hadamard(grid, 2 * n)):
                if not any(v):
                    continue
                zp, zq = j >> n, j & (dim - 1)
                p, q = xp << n | zp, xq << n | zq
                trace = Cyclotomic16Scalar(_rotate(
                    list(v), 3 * _popcount(xp & zp) + _popcount(xq & zq)),
                    2 * k + n)
                try:
                    cols[q][p] = trace.to_dyadic()
                except ValueError:
                    raise NonRealEntryError(
                        f"entry ({p}, {q}) is not real dyadic: {trace!r}") from None
    return ChannelRep(n, cols)

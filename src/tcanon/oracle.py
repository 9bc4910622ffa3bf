"""Brute-force oracle over dense exact matrices.

Everything here recomputes unitaries as full 2^n x 2^n matrices with
entries in Z[zeta, 1/2], zeta = exp(i*pi/8), sharing nothing with the
tableau or channel machinery beyond the gate-word tokenizer.  That makes
it slow and size-limited but trustworthy: agreement between a structured
channel and channel_bruteforce checks the fast path end to end.

Matrices above three qubits are refused with SizeRefusalError; at 16
dimensions and beyond the quadratic-in-entries trace loops stop being
interactive.
"""

from __future__ import annotations

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

    def scale(self, s: Cyclotomic16Scalar) -> "DenseUnitary":
        return DenseUnitary(self.n, [[s * v for v in row] for row in self.mat])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseUnitary):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def is_unitary(self) -> bool:
        prod = self.multiply(self.dagger())
        dim = self.dim
        for i in range(dim):
            for j in range(dim):
                v = prod.mat[i][j]
                if i == j:
                    if v != CYC_ONE:
                        return False
                elif not v.is_zero():
                    return False
        return True

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


def _dense_paulis(n: int) -> list:
    """Dense matrices of the positive Paulis, indexed by label."""
    return [dense_of_pauli(PauliOperator.from_label(n, label))
            for label in range(1 << (2 * n))]


def _pauli_traces(m: DenseUnitary, dense: list) -> dict:
    """Nonzero Tr(P M) / 2^n by label, with dense[label] the matrix of P.
    P = (x, z) is a phased permutation, so Tr(P M) pairs P[r][r ^ x] with
    M[r ^ x][r]; every z shares those entries of M."""
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
                out[label] = Cyclotomic16Scalar(acc.c, acc.k + n)
    return out


def pauli_expand(u: DenseUnitary) -> dict:
    """Nonzero coefficients of M = sum_P m_P P over positive Pauli labels.

    m_P = Tr(P M) / 2^n, exact in the cyclotomic ring.
    """
    return _pauli_traces(u, _dense_paulis(u.n))


def channel_bruteforce(u: DenseUnitary) -> ChannelRep:
    """Channel matrix by raw traces: entry[P, Q] = Tr(P U Q U') / 2^n.

    Raises NonRealEntryError if any trace falls outside the real dyadic
    sqrt2 ring, which cannot happen for an actual unitary's channel.
    """
    _guard(u.n)
    n = u.n
    ud = u.dagger()
    dense = _dense_paulis(n)
    cols = []
    for q, pq in enumerate(dense):
        # Q is a phased permutation: (U Q)[i][c] = U[i][c ^ x] Q[c ^ x][c]
        x = q >> n
        uq = DenseUnitary(n, [[row[c ^ x] * pq.mat[c ^ x][c]
                               for c in range(1 << n)] for row in u.mat])
        col = {}
        for p, trace in _pauli_traces(uq.multiply(ud), dense).items():
            try:
                col[p] = trace.to_dyadic()
            except ValueError:
                raise NonRealEntryError(
                    f"entry ({p}, {q}) is not real dyadic: {trace!r}") from None
        cols.append(col)
    return ChannelRep(u.n, cols)


def equal_up_to_phase(u: DenseUnitary, v: DenseUnitary) -> bool:
    """Exact proportionality test; for unitaries the ratio is a phase."""
    if u.n != v.n:
        raise ValueError(f"qubit counts differ: {u.n} vs {v.n}")
    dim = u.dim
    anchor = None
    for r in range(dim):
        for c in range(dim):
            if not u.mat[r][c].is_zero():
                anchor = (r, c)
                break
        if anchor:
            break
    if anchor is None:
        return all(v.mat[r][c].is_zero() for r in range(dim) for c in range(dim))
    ar, ac = anchor
    ua = u.mat[ar][ac]
    va = v.mat[ar][ac]
    if va.is_zero():
        return False
    for r in range(dim):
        for c in range(dim):
            if u.mat[r][c] * va != v.mat[r][c] * ua:
                return False
    return True

"""References the tests check the program against, and no program runs.

cyc_add, cyc_neg and cyc_mul are the ring operations on
Cyclotomic16Scalar values, which the package keeps as plain normalized
values; like pauli_product they share no arithmetic with it.  cyc_mul
multiplies the two zeta polynomials in full and only then folds
zeta^(8+j) onto -zeta^j, where exactnum.cyclotomic_dot wraps each term
as it goes.  pauli_product multiplies signed Paulis letter by letter
with the cyclic rule X*Y = iZ, where the package takes every product
phase from pauli.label_product_phase, which reads whole labels.

The oracle builds its matrices on 8-int zeta coefficients; these build
them one Cyclotomic16Scalar at a time, with cyc_add and cyc_mul.
zeta_power, conjugate, CYC_ZERO and CYC_ONE are that arithmetic's
constants and conjugation.  dense_of_pauli is the matrix of a positive
Pauli, and identity_plus the a*I + b*P builder over it.  dagger is U' in
the U P U' conjugation references; the exponential of -i*pi*P/8 is the
dagger of the oracle's exp(+i*pi*P/8), and the quarter exponentials
exp(+-i*pi*P/4) check clifford.quarter_exponential.  to_dyadic reads a
real cyclotomic trace back into the channel ring.  is_identity and
is_orthogonal are c09's channel predicates.
"""

from tcanon.channel import ChannelRep
from tcanon.exactnum import Cyclotomic16Scalar, DYADIC_ONE, DyadicSqrt2Scalar
from tcanon.oracle import DenseUnitary, _guard, dense_of_exponential
from tcanon.pauli import PauliOperator


def cyc_add(x: Cyclotomic16Scalar, y: Cyclotomic16Scalar) -> Cyclotomic16Scalar:
    """x + y over the larger of the two denominators."""
    k = max(x.k, y.k)
    return Cyclotomic16Scalar(
        [(a << k - x.k) + (b << k - y.k) for a, b in zip(x.c, y.c)], k)


def cyc_neg(x: Cyclotomic16Scalar) -> Cyclotomic16Scalar:
    return Cyclotomic16Scalar([-a for a in x.c], x.k)


def cyc_mul(x: Cyclotomic16Scalar, y: Cyclotomic16Scalar) -> Cyclotomic16Scalar:
    """x * y: the full degree-14 product of the zeta polynomials, then
    zeta^(8+j) = -zeta^j."""
    full = [0] * 15
    for i, a in enumerate(x.c):
        for j, b in enumerate(y.c):
            full[i + j] += a * b
    return Cyclotomic16Scalar(
        [full[j] - full[j + 8] for j in range(7)] + [full[7]], x.k + y.k)


def zeta_power(j: int) -> Cyclotomic16Scalar:
    """zeta^j for any integer j, reduced via zeta^8 = -1."""
    j %= 16
    c = [0] * 8
    if j < 8:
        c[j] = 1
    else:
        c[j - 8] = -1
    return Cyclotomic16Scalar(c)


def conjugate(x: Cyclotomic16Scalar) -> Cyclotomic16Scalar:
    """The complex conjugate: zeta^j -> zeta^(-j) = -zeta^(8-j) for j >= 1,
    and zeta^0 is fixed."""
    c = x.c
    return Cyclotomic16Scalar(
        (c[0], -c[7], -c[6], -c[5], -c[4], -c[3], -c[2], -c[1]), x.k)


CYC_ZERO = Cyclotomic16Scalar((0,) * 8)
CYC_ONE = zeta_power(0)
CYC_I = zeta_power(4)
# sqrt2 = zeta^2 - zeta^6, hence 1/sqrt2 = (zeta^2 - zeta^6)/2
CYC_INV_SQRT2 = Cyclotomic16Scalar((0, 0, 1, 0, 0, 0, -1, 0), 1)
_I_INV_SQRT2 = cyc_mul(CYC_I, CYC_INV_SQRT2)


def dagger(u: DenseUnitary) -> DenseUnitary:
    dim = 1 << u.n
    mat = u.mat
    return DenseUnitary(
        u.n, [[conjugate(mat[j][i]) for j in range(dim)] for i in range(dim)])


def dense_of_pauli(n: int, label: int) -> DenseUnitary:
    """Matrix of the positive Pauli of an unsigned label (x << n) | z in
    0 <= label < 4^n: column c holds i^(|x&z| + 2|z&c|) at row c ^ x.
    It refuses what the oracle refuses, a label outside that range or a
    width above its cap."""
    _guard(n)
    if not 0 <= label < 1 << (2 * n):
        raise ValueError(f"label {label} out of range for n={n}")
    dim = 1 << n
    x, z = label >> n, label & (dim - 1)
    base = bin(x & z).count("1")
    mat = [[CYC_ZERO] * dim for _ in range(dim)]
    for c in range(dim):
        t = (base + 2 * bin(z & c).count("1")) & 3
        mat[c ^ x][c] = zeta_power(4 * t)
    return DenseUnitary(n, mat)


def identity_plus(n: int, label: int, a: Cyclotomic16Scalar,
                  b: Cyclotomic16Scalar) -> DenseUnitary:
    """a*I + b*P for the positive Pauli P of a label in 0 < label < 4^n."""
    if not 0 < label < 1 << (2 * n):
        raise ValueError(f"label {label} out of range for n={n}")
    mat = [[CYC_ZERO if v.is_zero() else cyc_mul(b, v) for v in row]
           for row in dense_of_pauli(n, label).mat]
    for r, row in enumerate(mat):
        row[r] = cyc_add(row[r], a)
    return DenseUnitary(n, mat)


# the letters by their (x, z) bits
_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {letter: bits for bits, letter in _LETTER.items()}


def letter_product(u: str, v: str) -> tuple:
    """(k, w) with u * v = i^k w for one qubit's letters: a letter times I
    or itself is plain, and two distinct letters of X, Y, Z give the
    third, times i in the cyclic order X*Y, Y*Z, Z*X and -i against it."""
    if u == "I" or v == "I":
        return 0, v if u == "I" else u
    if u == v:
        return 0, "I"
    return (1 if u + v in "XYZX" else 3), "XYZ".replace(u, "").replace(v, "")


def pauli_product(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """p * q letter by letter, qubit 0 first, with the two signs and every
    qubit's letter_product phase added up."""
    k, x, z = p.phase + q.phase, 0, 0
    for j in reversed(range(p.n)):
        kj, w = letter_product(_LETTER[p.x >> j & 1, p.z >> j & 1],
                               _LETTER[q.x >> j & 1, q.z >> j & 1])
        xb, zb = _BITS[w]
        k, x, z = k + kj, x << 1 | xb, z << 1 | zb
    return PauliOperator(p.n, x, z, k)


def signed_exponential(n: int, label: int, sign: int) -> DenseUnitary:
    """exp(sign * i*pi*P/8): the oracle's exponential, or its dagger."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    u = dense_of_exponential(n, label)
    return u if sign > 0 else dagger(u)


def dense_of_quarter_exponential(n: int, label: int,
                                 sign: int = 1) -> DenseUnitary:
    """exp(sign * i*pi*P/4) = (I + sign i P) / sqrt2."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    return identity_plus(n, label, CYC_INV_SQRT2,
                         _I_INV_SQRT2 if sign > 0 else cyc_neg(_I_INV_SQRT2))


def to_dyadic(x: Cyclotomic16Scalar) -> DyadicSqrt2Scalar:
    """Inverse of the sqrt2 embedding.

    Real elements of the form (a + b*(zeta^2 - zeta^6))/2^k convert;
    anything else (imaginary parts, or real values outside the dyadic
    sqrt2 ring such as 2*cos(pi/8)) raises ValueError.
    """
    c = x.c
    if c[4] != 0 or c[1] or c[3] or c[5] or c[7]:
        raise ValueError(f"not in the dyadic sqrt2 ring: {x!r}")
    if c[6] != -c[2]:
        raise ValueError(f"not in the dyadic sqrt2 ring: {x!r}")
    return DyadicSqrt2Scalar(c[0], c[2], x.k)


def is_identity(rep: ChannelRep) -> bool:
    return all(col == {q: DYADIC_ONE} for q, col in enumerate(rep.cols))


def is_orthogonal(rep: ChannelRep) -> bool:
    """Exact check of U_hat * U_hat^T = I."""
    return is_identity(rep.multiply(rep.transpose()))

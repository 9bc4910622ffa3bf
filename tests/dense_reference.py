"""References the tests check the program against, and no program runs.

dagger is U' in the U P U' conjugation references; the exponential of
-i*pi*P/8 is the dagger of the oracle's exp(+i*pi*P/8), and the quarter
exponentials exp(+-i*pi*P/4) check clifford.quarter_exponential.
to_dyadic reads a real cyclotomic trace back into the channel ring.
is_identity and is_orthogonal are c09's channel predicates.
"""

from tcanon.channel import ChannelRep
from tcanon.exactnum import Cyclotomic16Scalar, DYADIC_ONE, DyadicSqrt2Scalar
from tcanon.oracle import DenseUnitary, _identity_plus, dense_of_exponential

CYC_I = Cyclotomic16Scalar.zeta_power(4)
# sqrt2 = zeta^2 - zeta^6, hence 1/sqrt2 = (zeta^2 - zeta^6)/2
CYC_INV_SQRT2 = Cyclotomic16Scalar((0, 0, 1, 0, 0, 0, -1, 0), 1)
_I_INV_SQRT2 = CYC_I * CYC_INV_SQRT2


def dagger(u: DenseUnitary) -> DenseUnitary:
    dim = 1 << u.n
    mat = u.mat
    return DenseUnitary(
        u.n, [[mat[j][i].conjugate() for j in range(dim)] for i in range(dim)])


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
    return _identity_plus(n, label, CYC_INV_SQRT2,
                          _I_INV_SQRT2 if sign > 0 else -_I_INV_SQRT2)


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

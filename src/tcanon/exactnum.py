"""Exact scalar arithmetic underneath every matrix in this package.

Two rings cover all values that ever appear:

* ``DyadicSqrt2Scalar`` holds real numbers (a + b*sqrt2) / 2^k with integer
  a, b and k >= 0.  Channel (Pauli-transfer) matrices have all entries here,
  so orthogonality, spectra and signed-permutation tests are exact.

* ``Cyclotomic16Scalar`` holds sums of powers of zeta = exp(i*pi/8)
  (zeta^8 = -1) divided by 2^k: the dense oracle's normalized entry
  value, with no arithmetic of its own.  The oracle builds on 8-int
  coefficient lists and multiplies through cyclotomic_dot; the ring's
  sums and products are the tests' reference, in tests/dense_reference.py.
  sqrt2 embeds as zeta^2 - zeta^6.

There is no floating point anywhere in the arithmetic.
"""

from __future__ import annotations


class DyadicSqrt2Scalar:
    """(a + b*sqrt2) / 2^k, normalized so k = 0 or a, b are not both even.

    Zero is the unique triple (0, 0, 0).  Instances are immutable value
    objects; all operations return new instances.
    """

    __slots__ = ("a", "b", "k")

    def __init__(self, a: int, b: int = 0, k: int = 0):
        if k < 0:
            a <<= -k
            b <<= -k
            k = 0
        while k and not ((a | b) & 1):
            a >>= 1
            b >>= 1
            k -= 1
        self.a = a
        self.b = b
        self.k = k

    def __add__(self, other: "DyadicSqrt2Scalar") -> "DyadicSqrt2Scalar":
        ka, kb = self.k, other.k
        if ka >= kb:
            s = ka - kb
            return DyadicSqrt2Scalar(self.a + (other.a << s), self.b + (other.b << s), ka)
        s = kb - ka
        return DyadicSqrt2Scalar((self.a << s) + other.a, (self.b << s) + other.b, kb)

    def __neg__(self) -> "DyadicSqrt2Scalar":
        return DyadicSqrt2Scalar(-self.a, -self.b, self.k)

    def __mul__(self, other: "DyadicSqrt2Scalar") -> "DyadicSqrt2Scalar":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return DyadicSqrt2Scalar(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2, self.k + other.k)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign of the real value, decided by integer arithmetic only."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 against 2*b^2 (sqrt2 is irrational, so
        # equality with nonzero parts cannot happen)
        lhs, rhs = a * a, 2 * b * b
        assert lhs != rhs
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __abs__(self) -> "DyadicSqrt2Scalar":
        return -self if self.sign() < 0 else self

    def times_inv_sqrt2(self) -> "DyadicSqrt2Scalar":
        """Divide by sqrt2 exactly: (a + b*sqrt2)/2^k -> (2b + a*sqrt2)/2^(k+1)."""
        return DyadicSqrt2Scalar(2 * self.b, self.a, self.k + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicSqrt2Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.k == other.k

    def __hash__(self):
        return hash((self.a, self.b, self.k))

    def __repr__(self):
        return f"DyadicSqrt2Scalar({self.a}, {self.b}, {self.k})"


DYADIC_ZERO = DyadicSqrt2Scalar(0)
DYADIC_ONE = DyadicSqrt2Scalar(1)
DYADIC_MINUS_ONE = DyadicSqrt2Scalar(-1)


class Cyclotomic16Scalar:
    """sum_j c_j * zeta^j / 2^k with zeta = exp(i*pi/8), zeta^8 = -1.

    Coefficients are an 8-tuple of integers; k = 0 or not all c_j even.
    """

    __slots__ = ("c", "k")

    def __init__(self, c, k: int = 0):
        c = list(c)
        if len(c) != 8:
            raise ValueError(f"need 8 coefficients, got {len(c)}")
        if k < 0:
            c = [v << -k for v in c]
            k = 0
        acc = 0
        for v in c:
            acc |= v
        while k and not (acc & 1):
            c = [v >> 1 for v in c]
            acc >>= 1
            k -= 1
        self.c = tuple(c)
        self.k = k

    def is_zero(self) -> bool:
        return not any(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclotomic16Scalar):
            return NotImplemented
        return self.c == other.c and self.k == other.k

    def __hash__(self):
        return hash((self.c, self.k))

    def __repr__(self):
        return f"Cyclotomic16Scalar({self.c}, {self.k})"


def cyclotomic_dot(pairs) -> Cyclotomic16Scalar:
    """Sum of a*b over (a, b) pairs, summed raw over the largest 2^k and
    normalized once: the package's one zeta product outside the packed
    trace kernel, with zeta^(i+j) = -zeta^(i+j-8) for i + j >= 8."""
    out, k = [0] * 8, 0
    for a, b in pairs:
        kab = a.k + b.k
        if kab > k:
            out = [v << (kab - k) for v in out]
            k = kab
        shift = k - kab
        for i, ai in enumerate(a.c):
            if ai:
                ai <<= shift
                for j, bj in enumerate(b.c):
                    if bj:
                        if i + j < 8:
                            out[i + j] += ai * bj
                        else:
                            out[i + j - 8] -= ai * bj
    return Cyclotomic16Scalar(out, k)

"""Ring arithmetic in Z[sqrt2, 1/2] and Z[zeta, 1/2] with zeta = exp(i*pi/8).

Cyclotomic16Scalar has no operators: its ring laws are checked on the
tests' own cyc_add, cyc_neg and cyc_mul, which cyclotomic_dot, the
package's product, is then checked against."""

import cmath
import math

import pytest
from dense_reference import (CYC_I, CYC_INV_SQRT2, CYC_ONE, CYC_ZERO,
                             conjugate, cyc_add, cyc_mul, cyc_neg, to_dyadic,
                             zeta_power)
from hypothesis import given, strategies as st

from tcanon.exactnum import (
    Cyclotomic16Scalar,
    DYADIC_MINUS_ONE,
    DYADIC_ONE,
    DYADIC_ZERO,
    DyadicSqrt2Scalar,
    cyclotomic_dot,
)

D = DyadicSqrt2Scalar
C = Cyclotomic16Scalar

DYADIC_SQRT2 = D(0, 1)
DYADIC_INV_SQRT2 = D(0, 1, 1)
CYC_SQRT2 = C((0, 0, 1, 0, 0, 0, -1, 0))  # zeta^2 - zeta^6


def to_float(x):
    """Float reference for a DyadicSqrt2Scalar."""
    return (x.a + x.b * math.sqrt(2.0)) / (1 << x.k)


def to_complex(x):
    """Complex reference for a Cyclotomic16Scalar."""
    return sum(v * cmath.exp(1j * math.pi * j / 8)
               for j, v in enumerate(x.c)) / (1 << x.k)


def embed(x):
    """The ring embedding of a DyadicSqrt2Scalar, sqrt2 -> zeta^2 - zeta^6."""
    return C((x.a, 0, x.b, 0, 0, 0, -x.b, 0), x.k)


def dyadics(max_mag=50, max_k=6):
    ints = st.integers(min_value=-max_mag, max_value=max_mag)
    return st.builds(D, ints, ints, st.integers(min_value=0, max_value=max_k))


def cyclotomics(max_mag=20, max_k=5):
    ints = st.integers(min_value=-max_mag, max_value=max_mag)
    coeffs = st.tuples(*([ints] * 8))
    return st.builds(C, coeffs, st.integers(min_value=0, max_value=max_k))


class TestDyadic:
    def test_normalization_collapses_common_powers_of_two(self):
        assert D(2, 0, 1) == D(1)
        assert D(4, 8, 2) == D(1, 2)
        x = D(6, 2, 3)
        assert x.a == 3 and x.b == 1 and x.k == 2

    def test_negative_k_means_multiplication_by_powers_of_two(self):
        assert D(1, 0, -2) == D(4)
        assert D(3, 1, -1) == D(6, 2)

    def test_zero_is_unique(self):
        assert D(0, 0, 5) == DYADIC_ZERO
        assert D(0, 0, 5).k == 0
        assert D(0).is_zero()
        assert not DYADIC_ONE.is_zero()

    def test_complex_conjugation_fixes_the_real_ring(self):
        for x in [DYADIC_ONE + DYADIC_SQRT2, D(3, -5, 4), DYADIC_ZERO]:
            assert conjugate(embed(x)) == embed(x)

    def test_sqrt2_satisfies_its_minimal_polynomial(self):
        # (1 + sqrt2)(1 - sqrt2) = -1
        assert (DYADIC_ONE + DYADIC_SQRT2) * (DYADIC_ONE + -DYADIC_SQRT2) \
            == DYADIC_MINUS_ONE

    def test_sqrt2_squares_to_two(self):
        assert DYADIC_SQRT2 * DYADIC_SQRT2 == D(2)
        assert DYADIC_INV_SQRT2 * DYADIC_INV_SQRT2 == D(1, 0, 1)
        assert DYADIC_SQRT2 * DYADIC_INV_SQRT2 == DYADIC_ONE

    def test_times_inv_sqrt2_matches_multiplication(self):
        for x in [D(3), D(0, 1), D(5, -7, 2), DYADIC_ZERO]:
            assert x.times_inv_sqrt2() == x * DYADIC_INV_SQRT2

    def test_sign_handles_cancellation_between_parts(self):
        # 3 - 2*sqrt2 = (sqrt2 - 1)^2 > 0 although b < 0
        assert D(3, -2).sign() == 1
        assert D(-3, 2).sign() == -1
        # 7 - 5*sqrt2 < 0 since 49 < 50
        assert D(7, -5).sign() == -1
        assert DYADIC_ZERO.sign() == 0

    def test_abs(self):
        assert abs(D(3, -3)) == D(3, -3) * DYADIC_MINUS_ONE
        assert abs(D(1, 1)) == D(1, 1)

    def test_to_float(self):
        assert math.isclose(to_float(D(1, 1, 1)), (1 + math.sqrt(2)) / 2)
        assert to_float(D(5)) == 5.0

    @given(dyadics(), dyadics(), dyadics())
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + DYADIC_ZERO == x
        assert x * DYADIC_ONE == x
        assert x + -x == DYADIC_ZERO

    @given(dyadics())
    def test_times_inv_sqrt2_round_trips(self, x):
        assert x.times_inv_sqrt2() * DYADIC_SQRT2 == x
        assert x.times_inv_sqrt2().times_inv_sqrt2() * DyadicSqrt2Scalar(2) == x

    @given(dyadics())
    def test_sign_agrees_with_float(self, x):
        f = to_float(x)
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)


class TestCyclotomic:
    def test_zeta_eighth_power_is_minus_one(self):
        z = zeta_power(1)
        acc = CYC_ONE
        for _ in range(8):
            acc = cyc_mul(acc, z)
        assert acc == cyc_neg(CYC_ONE)
        assert zeta_power(8) == cyc_neg(CYC_ONE)
        assert zeta_power(16) == CYC_ONE
        assert zeta_power(-1) == zeta_power(15)

    def test_i_squares_to_minus_one(self):
        assert cyc_mul(CYC_I, CYC_I) == cyc_neg(CYC_ONE)

    def test_sqrt2_in_the_cyclotomic_ring(self):
        # zeta^2 - zeta^6 = sqrt2
        assert cyc_mul(CYC_SQRT2, CYC_SQRT2) == C((2,) + (0,) * 7)
        assert cyc_mul(CYC_INV_SQRT2, CYC_SQRT2) == CYC_ONE

    def test_conjugate_gives_unit_modulus_on_powers(self):
        for j in range(16):
            z = zeta_power(j)
            assert cyc_mul(z, conjugate(z)) == CYC_ONE

    def test_is_real(self):
        # real exactly when fixed by complex conjugation
        def is_real(x):
            return conjugate(x) == x

        assert is_real(CYC_ONE)
        assert is_real(CYC_SQRT2)
        assert not is_real(CYC_I)
        assert not is_real(zeta_power(1))
        assert is_real(cyc_add(zeta_power(1), zeta_power(-1)))

    def test_to_dyadic_round_trip(self):
        for x in [DYADIC_ONE, DYADIC_SQRT2, D(3, -5, 4), DYADIC_ZERO]:
            assert to_dyadic(embed(x)) == x

    def test_to_dyadic_rejects_non_real(self):
        with pytest.raises(ValueError):
            to_dyadic(CYC_I)
        with pytest.raises(ValueError):
            to_dyadic(zeta_power(1))

    def test_to_complex_matches_the_embedding(self):
        for j in range(16):
            got = to_complex(zeta_power(j))
            want = complex(math.cos(math.pi * j / 8), math.sin(math.pi * j / 8))
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("coeffs", [(1, 2, 3), (0,) * 9, ()])
    def test_rejects_a_coefficient_count_other_than_eight(self, coeffs):
        # a raised error, not an assert, so the check also holds under
        # python -O; a short tuple would be truncated by a sum through zip
        with pytest.raises(ValueError, match="need 8 coefficients"):
            C(coeffs)

    def test_normalization(self):
        assert C((2, 0, 0, 0, 0, 0, 0, 0), 1) == CYC_ONE
        assert C((0,) * 8, 7) == CYC_ZERO
        assert C((0,) * 8, 7).k == 0

    @given(cyclotomics(), cyclotomics(), cyclotomics())
    def test_ring_axioms(self, x, y, z):
        add, mul = cyc_add, cyc_mul
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
        assert mul(x, mul(y, z)) == mul(mul(x, y), z)
        assert add(x, cyc_neg(x)) == CYC_ZERO
        assert mul(x, CYC_ONE) == x

    @given(st.lists(st.tuples(cyclotomics(), cyclotomics()), max_size=6),
           st.booleans())
    def test_dot_equals_the_left_fold(self, pairs, cancel):
        if cancel:
            # append the negation of every product so the sum is zero
            pairs = pairs + [(cyc_neg(a), b) for a, b in pairs]
        fold = CYC_ZERO
        for a, b in pairs:
            fold = cyc_add(fold, cyc_mul(a, b))
        got = cyclotomic_dot(pairs)
        assert got == fold
        assert (got.c, got.k) == (fold.c, fold.k)
        if cancel:
            assert got == CYC_ZERO

    def test_dot_of_no_pairs_is_zero(self):
        assert cyclotomic_dot([]) == CYC_ZERO
        assert cyclotomic_dot(iter(())) == CYC_ZERO

    def test_dot_is_normalized_over_mixed_denominators(self):
        # 1/2 * 1 + 1/4 * 2 = 1, summed over 2^2 and then reduced to k = 0
        pairs = [(C((1,) + (0,) * 7, 1), CYC_ONE),
                 (C((1,) + (0,) * 7, 2), C((2,) + (0,) * 7))]
        got = cyclotomic_dot(pairs)
        assert (got.c, got.k) == (CYC_ONE.c, 0)
        assert cyclotomic_dot([(CYC_INV_SQRT2, CYC_SQRT2)]) == CYC_ONE

    @given(cyclotomics(), cyclotomics())
    def test_to_complex_is_multiplicative(self, x, y):
        want = to_complex(x) * to_complex(y)
        for product in (cyc_mul(x, y), cyclotomic_dot([(x, y)])):
            got = to_complex(product)
            assert abs(got - want) <= 1e-6 * (1 + abs(want))

    @given(cyclotomics())
    def test_conjugate_matches_complex_conjugation(self, x):
        assert abs(to_complex(conjugate(x)) - to_complex(x).conjugate()) < 1e-6

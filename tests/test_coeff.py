import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncrewrite.coeff import (
    Coefficient,
    CoefficientError,
    FieldDescriptor,
    FieldMismatchError,
    PRIMALITY_BOUND,
    RATIONALS,
    ZeroInversionError,
    _is_prime,
)

F7 = FieldDescriptor(7)


def q(value):
    return RATIONALS.coeff(value)


def test_rational_add():
    assert q(Fraction(1, 2)) + q(Fraction(1, 3)) == q(Fraction(5, 6))


def test_prime_field_mul_wraps():
    assert F7.coeff(3) * F7.coeff(5) == F7.coeff(1)


def test_additive_inverse():
    a = q(Fraction(7, 3))
    assert not (a + (-a))


def test_inv_rational():
    assert q(Fraction(3, 4)).inv() == q(Fraction(4, 3))


def test_inv_prime_field():
    inv = F7.coeff(3).inv()
    assert inv == F7.coeff(5)
    assert F7.coeff(3) * inv == F7.one()


def test_inv_one():
    for field in (RATIONALS, F7):
        assert field.one().inv() == field.one()


def test_inv_zero_raises():
    with pytest.raises(ZeroInversionError):
        RATIONALS.zero().inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        q(1) + F7.coeff(1)


def test_nonprime_modulus_rejected():
    with pytest.raises(CoefficientError):
        FieldDescriptor(6)
    with pytest.raises(CoefficientError):
        FieldDescriptor(1)


def test_primality_matches_trial_division():
    for n in range(3000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1)))


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    assert FieldDescriptor(10**18 + 3).modulus == 10**18 + 3
    assert time.perf_counter() - start < 0.5  # trial division did not finish


@pytest.mark.parametrize("carmichael", [561, 41041])
def test_carmichael_modulus_rejected(carmichael):
    with pytest.raises(CoefficientError, match="not prime"):
        FieldDescriptor(carmichael)


def test_modulus_beyond_primality_bound_rejected():
    with pytest.raises(CoefficientError, match=str(PRIMALITY_BOUND)):
        FieldDescriptor(10**25 + 13)


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4).map(q)
residues = st.integers(0, 6).map(F7.coeff)


@given(st.one_of(
    st.tuples(rationals, rationals, rationals),
    st.tuples(residues, residues, residues)))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == a.field.zero()


@given(st.one_of(rationals, residues))
def test_double_inverse(a):
    if a:
        assert a.inv().inv() == a

import time
from decimal import Decimal
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

from conftest import add, div, inv, mul, neg, sub

F7 = FieldDescriptor(7)


def q(value):
    return RATIONALS.coeff(value)


# The scalar arithmetic is the tests' reference (conftest); ncrewrite's
# Coefficient carries none.

def test_rational_add():
    assert add(q(Fraction(1, 2)), q(Fraction(1, 3))) == q(Fraction(5, 6))


def test_prime_field_mul_wraps():
    assert mul(F7.coeff(3), F7.coeff(5)) == F7.coeff(1)


def test_additive_inverse():
    a = q(Fraction(7, 3))
    assert not add(a, neg(a))


def test_inv_rational():
    assert inv(q(Fraction(3, 4))) == q(Fraction(4, 3))


def test_inv_prime_field():
    inverse = inv(F7.coeff(3))
    assert inverse == F7.coeff(5)
    assert mul(F7.coeff(3), inverse) == F7.one()


def test_inv_one():
    for field in (RATIONALS, F7):
        assert inv(field.one()) == field.one()


def test_inv_zero_raises():
    with pytest.raises(ZeroInversionError):
        inv(RATIONALS.zero())


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        add(q(1), F7.coeff(1))


def test_coefficient_has_no_arithmetic():
    a = F7.coeff(3)
    for op in (lambda: a + a, lambda: a * a, lambda: a - a, lambda: -a, lambda: a / a,
               lambda: 3 * a):
        with pytest.raises(TypeError):
            op()
    assert not hasattr(a, "inv")


@pytest.mark.parametrize("n,d", [(1, 2), (3, 4), (-5, 3), (6, 1), (0, 5), (10, 3), (-1, 6)])
def test_prime_field_fraction_is_numerator_over_denominator(n, d):
    assert F7.coeff(Fraction(n, d)) == div(F7.coeff(n), F7.coeff(d))
    assert 0 <= F7.coeff(Fraction(n, d)).value < 7


def test_prime_field_fraction_over_a_multiple_of_p_raises():
    with pytest.raises(ZeroInversionError):
        FieldDescriptor(7).coeff(Fraction(1, 7))
    with pytest.raises(ZeroInversionError):
        F7.coeff(Fraction(3, 14))


def test_nonprime_modulus_rejected():
    with pytest.raises(CoefficientError):
        FieldDescriptor(6)
    with pytest.raises(CoefficientError):
        FieldDescriptor(1)


@pytest.mark.parametrize("modulus", [7.0, Fraction(7), "7"])
def test_modulus_that_is_not_an_int_rejected(modulus):
    with pytest.raises(CoefficientError, match="is not an int"):
        FieldDescriptor(modulus)


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
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert sub(a, a) == a.field.zero()


@given(st.one_of(rationals, residues))
def test_double_inverse(a):
    if a:
        assert inv(inv(a)) == a


@pytest.mark.parametrize("field", [RATIONALS, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("value", [2.5, 0.1, 2.0, float("nan")])
def test_float_coefficient_rejected(field, value):
    # 2.5 would truncate to 2 in F_7, and 0.1 be 3602879701896397/2**55 over Q
    with pytest.raises(CoefficientError, match="is a float"):
        field.coeff(value)


# each number with its element of Q and of F 7: every kind of value reaches
# a field as Fraction(value), over F_p as numerator * denominator^-1 mod p
NUMBERS = [
    (3, Fraction(3), 3),
    (-10, Fraction(-10), 4),
    (Fraction(3, 4), Fraction(3, 4), 6),
    (Fraction(-1, 2), Fraction(-1, 2), 3),
    (Decimal("2.5"), Fraction(5, 2), 6),
    (Decimal("-0.2"), Fraction(-1, 5), 4),
    ("1/2", Fraction(1, 2), 4),
    ("-3", Fraction(-3), 4),
]


@pytest.mark.parametrize("value,over_q,over_f7", NUMBERS, ids=repr)
def test_every_number_reaches_a_field_one_way(value, over_q, over_f7):
    assert RATIONALS.coeff(value) == Coefficient(RATIONALS, over_q)
    assert type(RATIONALS.coeff(value).value) is Fraction
    assert F7.coeff(value) == Coefficient(F7, over_f7)
    assert type(F7.coeff(value).value) is int
    # the same number as a float is still refused
    with pytest.raises(CoefficientError, match="is a float"):
        F7.coeff(float(over_q))


@pytest.mark.parametrize("value", ["5/7", "-3/14", "1/49"])
def test_denominator_divisible_by_p_raises_for_a_string_too(value):
    with pytest.raises(ZeroInversionError):
        F7.coeff(value)
    assert RATIONALS.coeff(value) == Coefficient(RATIONALS, Fraction(value))

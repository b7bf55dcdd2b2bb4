"""Exact coefficient arithmetic: arbitrary-precision rationals and prime fields.

Every scalar carries its field descriptor; mixing fields raises rather
than coercing, so arithmetic bugs surface at the first bad operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class CoefficientError(Exception):
    pass


class FieldMismatchError(CoefficientError):
    pass


class ZeroInversionError(CoefficientError):
    pass


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises CoefficientError at or above
    PRIMALITY_BOUND, where the fixed bases no longer decide primality."""
    if n >= PRIMALITY_BOUND:
        raise CoefficientError(
            f"modulus {n} is too large: primality is decided only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """The ground field: the rationals (modulus None) or F_p for a prime p."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and not _is_prime(self.modulus):
            raise CoefficientError(f"modulus {self.modulus} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.modulus is None

    def coeff(self, value) -> "Coefficient":
        """Canonical field element from an int, Fraction or '1/2'-style string."""
        if self.is_rationals:
            return Coefficient(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator == 1:
                value = value.numerator
            else:
                num = self.coeff(value.numerator)
                return num / self.coeff(value.denominator)
        return Coefficient(self, int(value) % self.modulus)

    def zero(self) -> "Coefficient":
        return self.coeff(0)

    def one(self) -> "Coefficient":
        return self.coeff(1)

    def __str__(self):
        return "Q" if self.is_rationals else f"F {self.modulus}"


RATIONALS = FieldDescriptor()


@dataclass(frozen=True)
class Coefficient:
    """An element of the active field, always in canonical form.

    Rationals are normalized Fractions; prime-field elements are residues
    in [0, p).  Zero tests are ``bool(c)``.
    """

    field: FieldDescriptor
    value: Fraction | int

    def _check(self, other: "Coefficient"):
        if not isinstance(other, Coefficient):
            raise TypeError(f"expected Coefficient, got {type(other).__name__}")
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def _wrap(self, value) -> "Coefficient":
        if self.field.is_rationals:
            return Coefficient(self.field, value)
        return Coefficient(self.field, value % self.field.modulus)

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return self._wrap(self.value * other.value)

    def __neg__(self):
        return self._wrap(-self.value)

    def inv(self) -> "Coefficient":
        if not self:
            raise ZeroInversionError("cannot invert zero")
        if self.field.is_rationals:
            return Coefficient(self.field, 1 / self.value)
        return Coefficient(self.field, pow(self.value, -1, self.field.modulus))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self):
        return str(self.value)

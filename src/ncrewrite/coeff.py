"""The ground field, Q or F_p, its canonical elements, and Value, the
immutable base of ncrewrite's value types.  A Coefficient has no
arithmetic: ncrewrite computes on the raw values it carries.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


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


_set = object.__setattr__  # how a value's __init__ sets each of its slots, once


class Value:
    """Immutable base of the value types.  A subclass names its fields in
    _fields and sets them, and its derived slots, in __init__ through _set.
    As for a frozen dataclass, a value equals only a value of its own class
    with equal fields, hashes as the tuple of its fields, and refuses
    assignment and deletion with AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):  # _key(value): the tuple of its fields, at C speed
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a value through __init__
        return type(self), self._key(self)

    def _immutable(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} is read-only")

    __setattr__ = __delattr__ = _immutable


class FieldDescriptor(Value):
    """The ground field: the rationals (modulus None) or F_p for a prime p."""

    __slots__ = _fields = ("modulus",)

    def __init__(self, modulus: int | None = None):
        if modulus is not None and type(modulus) is not int:
            raise CoefficientError(f"modulus {modulus!r} is not an int")
        if modulus is not None and not _is_prime(modulus):
            raise CoefficientError(f"modulus {modulus} is not prime")
        _set(self, "modulus", modulus)

    @property
    def is_rationals(self) -> bool:
        return self.modulus is None

    def coeff(self, value) -> "Coefficient":
        """Canonical field element of Fraction(value): from an int, a
        Fraction, a Decimal or a '1/2' string; over F_p the numerator times
        the denominator's inverse mod p, ZeroInversionError if p divides the
        denominator.  A float is refused: it is seldom the number it was
        written as (0.1 is 3602879701896397/36028797018963968)."""
        if isinstance(value, float):
            raise CoefficientError(f"coefficient {value!r} is a float, not an int or Fraction")
        value, p = Fraction(value), self.modulus
        if p is None:
            return Coefficient(self, value)
        if not value.denominator % p:
            raise ZeroInversionError(f"cannot invert {value.denominator} in {self}")
        return Coefficient(self, value.numerator * pow(value.denominator, -1, p) % p)

    def zero(self) -> "Coefficient":
        return self.coeff(0)

    def one(self) -> "Coefficient":
        return self.coeff(1)

    def __str__(self):
        return "Q" if self.is_rationals else f"F {self.modulus}"


RATIONALS = FieldDescriptor()


class Coefficient(Value):
    """An element of the active field; FieldDescriptor.coeff builds it in
    canonical form: a normalized Fraction over Q, a residue in [0, p) over
    F_p.  Zero tests are ``bool(c)``."""

    __slots__ = _fields = ("field", "value")

    def __init__(self, field: FieldDescriptor, value: Fraction | int):
        _set(self, "field", field)
        _set(self, "value", value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self):
        return str(self.value)


def _canonical(c: Coefficient):
    """c's value, which the kernel relies on being canonical: an int or a
    Fraction over Q, an int in [0, p) over F_p; else CoefficientError."""
    value, p = c.value, c.field.modulus
    if type(value) not in ((int,) if p else (int, Fraction)) or p and not 0 <= value < p:
        raise CoefficientError(f"{value!r} is not a canonical element of {c.field}")
    return value

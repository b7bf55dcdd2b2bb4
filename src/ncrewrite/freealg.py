"""Words of the free semigroup on an alphabet and sparse polynomials over them.

Words are tuples of letter indices into an Alphabet; the empty word is
the semigroup identity.  A polynomial maps words to nonzero scalars and is
stored as the reduction kernel's raw {letters: value} dict (Fractions over
Q, residues in [0, p) over F_p), so the kernel and the arithmetic here share
one accumulate loop, add_scaled.  Words and Coefficients are built only at
the API boundary (items, words, coefficient).  Polynomials are immutable
values, so they hash and compare structurally.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .coeff import Coefficient, FieldDescriptor, FieldMismatchError, Value, _canonical, _set


class FreeAlgebraError(Exception):
    pass


class AlphabetMismatchError(FreeAlgebraError):
    pass


class Alphabet(Value):
    """Ordered generator names with positive integer weights (default 1)."""

    __slots__ = _fields = ("symbols", "weights")

    def __init__(self, symbols: tuple[str, ...], weights: tuple[int, ...] = ()):
        symbols = tuple(symbols)
        weights = tuple(weights) or (1,) * len(symbols)
        if len(weights) != len(symbols):
            raise FreeAlgebraError("one weight per symbol required")
        if any(not isinstance(s, str) or not s for s in symbols):
            raise FreeAlgebraError(f"generator names must be non-empty strings: {symbols!r}")
        if len(set(symbols)) != len(symbols):
            raise FreeAlgebraError("duplicate generator names")
        if any(type(w) is not int or w < 1 for w in weights):  # not a bool, not a float
            raise FreeAlgebraError(f"weights must be ints >= 1: {weights!r}")
        _set(self, "symbols", symbols)
        _set(self, "weights", weights)

    def word(self, *names: str) -> "Word":
        try:
            return Word(self, tuple(map(self.symbols.index, names)))
        except ValueError:
            raise FreeAlgebraError(f"unknown generator among {names!r}") from None

    def one(self) -> "Word":
        return Word(self, ())

    def words_up_to_degree(self, max_degree: int):
        """All words of weighted degree <= max_degree, shortest first."""
        for length in range(max_degree + 1):
            if length > 0 and min(self.weights) * length > max_degree:
                break
            for letters in product(range(len(self.symbols)), repeat=length):
                w = Word(self, letters)
                if w.degree() <= max_degree:
                    yield w


class Word(Value):
    """A monomial of the free semigroup; length 0 encodes the identity 1."""

    __slots__ = _fields = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...]):
        _set(self, "alphabet", alphabet)
        _set(self, "letters", letters)

    def _check(self, other: "Word"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("words over different alphabets")

    def __mul__(self, other: "Word") -> "Word":
        self._check(other)
        return Word(self.alphabet, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def degree(self) -> int:
        weights = self.alphabet.weights
        return sum(weights[i] for i in self.letters)

    def is_one(self) -> bool:
        return not self.letters

    def __str__(self):
        return _text(self.letters, self.alphabet.symbols)


def _text(letters: tuple[int, ...], symbols: tuple[str, ...]) -> str:
    """How a word is written: its letters' names joined by '*', or 1."""
    return "*".join(map(symbols.__getitem__, letters)) if letters else "1"


class Occurrence(namedtuple("Occurrence", "prefix rule suffix")):
    """A site A * W_sigma * B inside a scanned word: prefix, rule index, suffix."""

    __slots__ = ()


def add_scaled(into: dict, terms: dict, c, modulus: int | None) -> None:
    """into += c * terms on raw {key: value} dicts, in place, dropping zero
    values; reduced mod p over F_p.  The one accumulate loop of ncrewrite."""
    for u, v in terms.items():
        v = c * v % modulus if modulus else c * v
        if u in into:
            v += into[u]
            if modulus:
                v %= modulus
            if not v:
                del into[u]
                continue
        into[u] = v


class Polynomial:
    """Immutable sparse element of the free associative algebra."""

    __slots__ = ("field", "alphabet", "_terms", "_hash")

    def __init__(self, field: FieldDescriptor, alphabet: Alphabet, terms=None):
        self.field = field
        self.alphabet = alphabet
        self._terms = {}
        self._hash = None
        for w, c in dict(terms or {}).items():
            if w.alphabet != alphabet:
                raise AlphabetMismatchError("a word over another alphabet than the polynomial")
            if c.field != field:
                raise FieldMismatchError("a coefficient over another field than the polynomial")
            value = _canonical(c)
            if value:
                self._terms[w.letters] = value

    @classmethod
    def _raw(cls, field: FieldDescriptor, alphabet: Alphabet, terms: dict) -> "Polynomial":
        """The polynomial of a raw {letters: nonzero value} dict, which it keeps."""
        poly = cls(field, alphabet)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls, field, alphabet) -> "Polynomial":
        return cls._raw(field, alphabet, {})

    @classmethod
    def monomial(cls, word: Word, coeff: Coefficient) -> "Polynomial":
        value = _canonical(coeff)
        return cls._raw(coeff.field, word.alphabet, {word.letters: value} if value else {})

    @classmethod
    def one(cls, field, alphabet) -> "Polynomial":
        return cls._raw(field, alphabet, {(): field.one().value})

    def items(self) -> list[tuple[Word, Coefficient]]:
        field, alphabet = self.field, self.alphabet
        return [(Word(alphabet, w), Coefficient(field, c)) for w, c in self._terms.items()]

    def words(self) -> list[Word]:
        return [Word(self.alphabet, w) for w in self._terms]

    def coefficient(self, word: Word) -> Coefficient:
        """The coefficient of word; zero for a word over another alphabet."""
        value = self._terms.get(word.letters) if word.alphabet == self.alphabet else None
        return self.field.zero() if value is None else Coefficient(self.field, value)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def _check(self, other: "Polynomial"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")
        if self.field != other.field:
            raise FreeAlgebraError("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self._terms)
        add_scaled(terms, other._terms, self.field.one().value, self.field.modulus)
        return Polynomial._raw(self.field, self.alphabet, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self.scale(self.field.coeff(-1))

    def scale(self, coeff: Coefficient) -> "Polynomial":
        if coeff.field != self.field:
            raise FieldMismatchError(f"{coeff.field} vs {self.field}")
        terms, value = {}, _canonical(coeff)
        if value:
            add_scaled(terms, self._terms, value, self.field.modulus)
        return Polynomial._raw(self.field, self.alphabet, terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms, modulus = {}, self.field.modulus
        for u, a in self._terms.items():
            add_scaled(terms, {u + v: b for v, b in other._terms.items()}, a, modulus)
        return Polynomial._raw(self.field, self.alphabet, terms)

    def sandwich(self, left: Word, right: Word) -> "Polynomial":
        """left * self * right, cheaper than lifting the words to polynomials."""
        if (left.alphabet, right.alphabet) != (self.alphabet, self.alphabet):
            raise AlphabetMismatchError("words over another alphabet than the polynomial")
        left, right = left.letters, right.letters
        return Polynomial._raw(self.field, self.alphabet,
                               {left + w + right: c for w, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.alphabet == other.alphabet
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self):
        from .syntax import format_polynomial
        return format_polynomial(self)

"""Words of the free semigroup on an alphabet and sparse polynomials over them.

Words are tuples of letter indices into an Alphabet; the empty word is
the semigroup identity.  Polynomials map words to nonzero coefficients
and are immutable values, so they hash and compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .coeff import Coefficient, FieldDescriptor


class FreeAlgebraError(Exception):
    pass


class AlphabetMismatchError(FreeAlgebraError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names with positive integer weights (default 1)."""

    symbols: tuple[str, ...]
    weights: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.weights:
            object.__setattr__(self, "weights", (1,) * len(self.symbols))
        if len(self.weights) != len(self.symbols):
            raise FreeAlgebraError("one weight per symbol required")
        if len(set(self.symbols)) != len(self.symbols):
            raise FreeAlgebraError("duplicate generator names")
        if any(not s for s in self.symbols):
            raise FreeAlgebraError("empty generator name")
        if any(w < 1 for w in self.weights):
            raise FreeAlgebraError("weights must be >= 1")

    def index(self, name: str) -> int:
        try:
            return self.symbols.index(name)
        except ValueError:
            raise FreeAlgebraError(f"unknown generator {name!r}") from None

    def word(self, *names: str) -> "Word":
        return Word(self, tuple(self.index(n) for n in names))

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


@dataclass(frozen=True)
class Word:
    """A monomial of the free semigroup; length 0 encodes the identity 1."""

    alphabet: Alphabet
    letters: tuple[int, ...]

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
        if not self.letters:
            return "1"
        return "*".join(self.alphabet.symbols[i] for i in self.letters)


@dataclass(frozen=True)
class Occurrence:
    """A site A * W_sigma * B inside a scanned word: prefix, rule index, suffix."""

    prefix: Word
    rule: int
    suffix: Word


class Polynomial:
    """Immutable sparse element of the free associative algebra."""

    __slots__ = ("field", "alphabet", "_terms", "_hash")

    def __init__(self, field: FieldDescriptor, alphabet: Alphabet, terms=None):
        self.field = field
        self.alphabet = alphabet
        self._terms = {w: c for w, c in dict(terms or {}).items() if c}
        self._hash = None

    @classmethod
    def zero(cls, field, alphabet) -> "Polynomial":
        return cls(field, alphabet)

    @classmethod
    def monomial(cls, word: Word, coeff: Coefficient) -> "Polynomial":
        return cls(coeff.field, word.alphabet, {word: coeff})

    @classmethod
    def one(cls, field, alphabet) -> "Polynomial":
        return cls(field, alphabet, {Word(alphabet, ()): field.one()})

    def items(self):
        return self._terms.items()

    def words(self):
        return self._terms.keys()

    def coefficient(self, word: Word) -> Coefficient:
        return self._terms.get(word, self.field.zero())

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
        for w, c in other._terms.items():
            s = terms.get(w)
            terms[w] = c if s is None else s + c
        return Polynomial(self.field, self.alphabet, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, self.alphabet,
                          {w: -c for w, c in self._terms.items()})

    def scale(self, coeff: Coefficient) -> "Polynomial":
        if not coeff:
            return Polynomial.zero(self.field, self.alphabet)
        return Polynomial(self.field, self.alphabet,
                          {w: coeff * c for w, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict[Word, Coefficient] = {}
        for u, a in self._terms.items():
            for v, b in other._terms.items():
                w = u * v
                c = a * b
                s = terms.get(w)
                terms[w] = c if s is None else s + c
        return Polynomial(self.field, self.alphabet, terms)

    def sandwich(self, left: Word, right: Word) -> "Polynomial":
        """left * self * right, cheaper than lifting the words to polynomials."""
        return Polynomial(self.field, self.alphabet,
                          {left * w * right: c for w, c in self._terms.items()})

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


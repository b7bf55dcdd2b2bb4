import pathlib

import pytest

from ncrewrite.cli import Presentation, parse_presentation
from ncrewrite.coeff import Coefficient, FieldMismatchError, ZeroInversionError
from ncrewrite.freealg import AlphabetMismatchError, FreeAlgebraError, Word

PRESENTATIONS = pathlib.Path(__file__).resolve().parent.parent / "presentations"


def load(name: str) -> Presentation:
    return parse_presentation((PRESENTATIONS / name).read_text())


def load_over(name: str, modulus: int | None) -> Presentation:
    """A shipped presentation over Q, read over F_modulus unless that is None."""
    text = (PRESENTATIONS / name).read_text()
    return parse_presentation(text if modulus is None else
                              text.replace("field Q\n", f"field F {modulus}\n"))


def as_reference(poly) -> frozenset:
    """poly as bench/reference.py writes an element: (names, value) pairs."""
    symbols = poly.alphabet.symbols
    return frozenset((tuple(symbols[i] for i in w.letters), c.value) for w, c in poly.items())


# Naive reference matcher: slices the word at every position.  ncrewrite
# finds left sides only with rewrite._sites; tests compare it, and what is
# built on it, with these.

class EmptyPatternError(ValueError):
    pass


def occurrences_of(word: Word, pattern: Word) -> list[tuple[Word, Word]]:
    """All (A, B) with word = A * pattern * B, by increasing len(A)."""
    if pattern.is_one():
        raise EmptyPatternError("empty pattern")
    n, m = len(word.letters), len(pattern.letters)
    return [(Word(word.alphabet, word.letters[:i]),
             Word(word.alphabet, word.letters[i + m:]))
            for i in range(n - m + 1) if word.letters[i:i + m] == pattern.letters]


def contains(word: Word, pattern: Word) -> bool:
    return bool(occurrences_of(word, pattern))


# Reference scalar arithmetic on Coefficients, which carry none: ncrewrite
# computes on raw values.  Both operands must be Coefficients of one field;
# results are canonical.  The naive references below compute with it.

def _field(a, b):
    if not (isinstance(a, Coefficient) and isinstance(b, Coefficient)):
        raise TypeError(f"expected Coefficients, got {type(a).__name__}, {type(b).__name__}")
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    return a.field


def _wrap(field, value):
    return Coefficient(field, value if field.is_rationals else value % field.modulus)


def add(a, b):
    return _wrap(_field(a, b), a.value + b.value)


def sub(a, b):
    return _wrap(_field(a, b), a.value - b.value)


def mul(a, b):
    return _wrap(_field(a, b), a.value * b.value)


def neg(a):
    return _wrap(a.field, -a.value)


def inv(a):
    if not a:
        raise ZeroInversionError("cannot invert zero")
    if a.field.is_rationals:
        return Coefficient(a.field, 1 / a.value)
    return Coefficient(a.field, pow(a.value, -1, a.field.modulus))


def div(a, b):
    return mul(a, inv(b))


# Naive reference polynomial: {Word: Coefficient} with the reference scalar
# arithmetic, as Polynomial was before it kept the kernel's raw
# {letters: value} terms.  Tests compare Polynomial's arithmetic with it.

class NaivePolynomial:
    def __init__(self, field, alphabet, terms=None):
        self.field = field
        self.alphabet = alphabet
        self.terms = {w: c for w, c in dict(terms or {}).items() if c}

    def coefficient(self, word):
        return self.terms.get(word, self.field.zero())

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")
        if self.field != other.field:
            raise FreeAlgebraError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            terms[w] = c if s is None else add(s, c)
        return NaivePolynomial(self.field, self.alphabet, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NaivePolynomial(self.field, self.alphabet,
                               {w: neg(c) for w, c in self.terms.items()})

    def scale(self, coeff):
        if not coeff:
            return NaivePolynomial(self.field, self.alphabet)
        return NaivePolynomial(self.field, self.alphabet,
                               {w: mul(coeff, c) for w, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u * v
                c = mul(a, b)
                s = terms.get(w)
                terms[w] = c if s is None else add(s, c)
        return NaivePolynomial(self.field, self.alphabet, terms)

    def sandwich(self, left, right):
        return NaivePolynomial(self.field, self.alphabet,
                               {left * w * right: c for w, c in self.terms.items()})

    def __eq__(self, other):
        return (self.field == other.field and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


@pytest.fixture(scope="session")
def weyl():
    return load("weyl.pres")


@pytest.fixture(scope="session")
def comm3():
    return load("commuting3.pres")


@pytest.fixture(scope="session")
def comm4():
    return load("commuting4.pres")


@pytest.fixture(scope="session")
def sl2():
    return load("sl2.pres")


@pytest.fixture(scope="session")
def dup_lhs():
    return load("dup_lhs.pres")


@pytest.fixture(scope="session")
def aba():
    return load("aba.pres")

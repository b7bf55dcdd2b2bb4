"""Textual syntax for words and polynomials, shared by the CLI and tests.

Terms look like ``3*x*y*x``, ``-1/2*z`` or ``1``, joined by ``+``/``-``.
``^`` raises a factor to a nonnegative integer power and ``*`` is
mandatory between factors; generator names may be multi-character.
An expression is read in one left-to-right scan: one pattern matches a
whole factor (a generator, or ``n`` or ``n/d``, with an optional ``^k``),
each factor is multiplied into the current term as one monomial (a power
after checking that its coefficient is not too large), and each finished
term is added into one dict: linear time.  The words of one expression hold
at most MAX_POWER_LETTERS letters in all, counted before a factor's letters
are built.  The parser owns every error in its input: an unknown generator,
a denominator that is 0 in the field, an integer over Python's digit limit,
a stray character or too many letters raises ExpressionError with the
column where it occurs, so a caller catches that one error type.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .coeff import FieldDescriptor
from .freealg import Alphabet, AlphabetMismatchError, Polynomial, Word, _text, add_scaled
from .order import OrderingSpec


MAX_POWER_LETTERS = 10 ** 6  # letters in all the words of one expression


class ExpressionError(Exception):
    def __init__(self, message: str, column: int | None = None):
        super().__init__(message if column is None
                         else f"column {column}: {message}")
        self.column = column


GENERATOR = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # every name an expression can read
_OPERATOR = re.compile(r"\s*([-+*]?)\s*")
# a missing d or k matches as empty, so it is reported where it is missing
_FACTOR = re.compile(rf"(?:(?P<name>{GENERATOR.pattern})|(?P<num>\d+)"
                     r"(?:\s*/\s*(?P<den>\d*))?)(?:\s*\^\s*(?P<exp>\d*))?")


def _integer(m: re.Match, group: str) -> int:
    """The digits of a group as an int; no digits read as 0."""
    try:
        return int(m[group] or 0)
    except ValueError:  # more digits than Python converts
        limit = sys.get_int_max_str_digits()
        raise ExpressionError(f"integer exceeds the limit of {limit} digits",
                              m.start(group) + 1) from None


def _power(value, word: tuple, n: int, field: FieldDescriptor, column: int) -> tuple:
    """(value, word)^n of one factor, refused before it is built if its
    coefficient is too large."""
    if not value:
        return (value if n else field.one().value), word
    if field.modulus:
        return pow(value, n, field.modulus), word * n
    # refuse what str() of the numerator or denominator would
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    size = max(abs(value.numerator), value.denominator)
    if limit and n * math.log10(size) >= limit:
        raise ExpressionError(
            f"coefficient of the power exceeds {limit} digits", column)
    return value ** n, word * n


def parse_polynomial(text: str, field: FieldDescriptor,
                     alphabet: Alphabet) -> Polynomial:
    text = text.rstrip()
    if not text:
        raise ExpressionError("empty expression")
    modulus, one = field.modulus, field.one().value
    index = {name: i for i, name in enumerate(alphabet.symbols)}
    terms, sign, value, letters, pos, size = {}, 1, None, [], 0, 0
    while pos < len(text):
        sep = _OPERATOR.match(text, pos)
        op, pos = sep[1], sep.end()
        m = _FACTOR.match(text, pos)
        if m is None:
            if pos == len(text):
                raise ExpressionError("unexpected end of expression")
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos + 1)
        # a '*' before the first factor, or no operator before a later one
        if op == ("*" if value is None else ""):
            raise ExpressionError(f"unexpected {op!r}" if op else
                                  "expected '+', '-' or '*'", sep.start(1) + 1)
        if op != "*":  # a new term starts; the one before it is finished
            if value:
                add_scaled(terms, {tuple(letters): value}, sign, modulus)
            sign, value, letters = (-1 if op == "-" else 1), one, []
        name = m["name"]
        if name is not None:
            if name not in index:
                raise ExpressionError(f"unknown generator {name!r}", pos + 1)
            c, word = one, (index[name],)
        else:
            d = 1 if m["den"] is None else _integer(m, "den")
            if not d:
                raise ExpressionError("expected nonzero integer denominator",
                                      m.start("den") + 1)
            c = Fraction(_integer(m, "num"), d)
            if modulus and not c.denominator % modulus:
                raise ExpressionError(f"denominator is 0 in {field}", m.start("den") + 1)
            c, word = field.coeff(c).value, ()
        if m["exp"] == "":
            raise ExpressionError("expected integer exponent after '^'",
                                  m.start("exp") + 1)
        n = 1 if m["exp"] is None else _integer(m, "exp")
        size += len(word) * n  # letters in all the words so far
        if size > MAX_POWER_LETTERS:
            raise ExpressionError(
                f"expression holds {size} letters, more than {MAX_POWER_LETTERS}", pos + 1)
        if n != 1:
            c, word = _power(c, word, n, field, m.start("exp") + 1)
        value = value * c % modulus if modulus else value * c
        letters += word
        pos = m.end()
    if value:
        add_scaled(terms, {tuple(letters): value}, sign, modulus)
    return Polynomial._raw(field, alphabet, terms)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """A product of generators (with optional powers) and the literal 1."""
    terms = parse_polynomial(text, FieldDescriptor(), alphabet)._terms
    if list(terms.values()) != [1]:
        raise ExpressionError(f"{text!r} is not a plain word")
    return Word(alphabet, next(iter(terms)))


def format_coefficient(value) -> str:
    """str of a raw field value, as ExpressionError past the digit limit."""
    try:
        return str(value)
    except ValueError:  # a numerator or denominator past the digit limit
        limit = sys.get_int_max_str_digits()
        raise ExpressionError(f"coefficient exceeds the limit of {limit} digits "
                              "for integer string conversion") from None


def format_polynomial(poly: Polynomial, spec: OrderingSpec | None = None) -> str:
    """Deterministic rendering, largest term first: descending deglex under
    spec, by default the order that takes the generators as the alphabet
    lists them (weighted degree, then letter indices)."""
    if poly.is_zero():
        return "0"
    if spec is None:
        spec = OrderingSpec(poly.alphabet, poly.alphabet.symbols)
    elif spec.alphabet != poly.alphabet:
        raise AlphabetMismatchError("order over another alphabet than the polynomial")
    terms, symbols = poly._terms, poly.alphabet.symbols
    parts = []
    for letters in sorted(terms, key=spec.letters_key, reverse=True):
        text = format_coefficient(terms[letters])
        negative = text.startswith("-")
        magnitude = text[1:] if negative else text
        if not letters:
            body = magnitude
        elif magnitude == "1":
            body = _text(letters, symbols)
        else:
            body = f"{magnitude}*{_text(letters, symbols)}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)

"""Textual syntax for words and polynomials, shared by the CLI and tests.

Terms look like ``3*x*y*x``, ``-1/2*z`` or ``1``, joined by ``+``/``-``.
``^`` raises a factor to a nonnegative integer power and ``*`` is
mandatory between factors; generator names may be multi-character.
Each term is one monomial, built directly (a power after checking that it
is not too large), and the sum accumulates into one dict: linear time.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .coeff import FieldDescriptor
from .freealg import Alphabet, Polynomial, Word, add_scaled


MAX_POWER_LETTERS = 10 ** 6


class ExpressionError(Exception):
    def __init__(self, message: str, column: int | None = None):
        super().__init__(message if column is None
                         else f"column {column}: {message}")
        self.column = column


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<number>\d+)"
                    r"|(?P<op>[-+*/^]))")


class _Token(NamedTuple):
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExpressionError(f"unexpected character {text[pos]!r}", pos + 1)
            break
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, field: FieldDescriptor, alphabet: Alphabet):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.alphabet = alphabet
        self.one = field.one().value

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ExpressionError(message, tok.column if tok else None)

    def parse_polynomial(self) -> Polynomial:
        terms, modulus = {}, self.field.modulus
        sign = 1
        tok = self.peek()
        while True:  # a sign is optional before the first term only
            if tok and tok.kind == "op" and tok.text in "+-":
                self.next()
                sign = -1 if tok.text == "-" else 1
            value, letters = self.parse_term()
            if value:
                add_scaled(terms, {letters: value}, sign, modulus)
            tok = self.peek()
            if tok is None:
                return Polynomial._raw(self.field, self.alphabet, terms)
            if tok.kind != "op" or tok.text not in "+-":
                self.fail(f"expected '+' or '-', got {tok.text!r}")

    def parse_term(self) -> tuple:
        """A product of monomials as one (raw value, letters)."""
        value, letters = self.parse_factor()
        letters, modulus = list(letters), self.field.modulus
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return value, tuple(letters)
            self.next()
            c, more = self.parse_factor()
            value = value * c % modulus if modulus else value * c
            letters += more

    def parse_factor(self) -> tuple:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok is None or exp_tok.kind != "number":
                self.fail("expected integer exponent after '^'")
            return self.power(base, int(exp_tok.text), exp_tok.column)
        return base

    def power(self, base: tuple, n: int, column: int) -> tuple:
        """base^n of an atom c*w: c^n * w^n, as (raw value, letters)."""
        value, word = base
        if not value:
            return base if n else (self.one, ())
        if len(word) * n > MAX_POWER_LETTERS:
            raise ExpressionError(
                f"power of {len(word) * n} letters exceeds {MAX_POWER_LETTERS}", column)
        if self.field.modulus:
            return pow(value, n, self.field.modulus), word * n
        # refuse what str() of the numerator or denominator would
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        size = max(abs(value.numerator), value.denominator)
        if limit and n * math.log10(size) >= limit:
            raise ExpressionError(
                f"coefficient of the power exceeds {limit} digits", column)
        return value ** n, word * n

    def parse_atom(self) -> tuple:
        """A generator or a number, as (raw value, letters)."""
        tok = self.next()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if tok.kind == "name":  # raises on an unknown generator
            return self.one, (self.alphabet.index(tok.text),)
        if tok.kind == "number":
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.text == "/":
                self.next()
                den = self.next()
                if den is None or den.kind != "number" or int(den.text) == 0:
                    self.fail("expected nonzero integer denominator")
                value /= int(den.text)
            return self.field.coeff(value).value, ()
        raise ExpressionError(f"unexpected {tok.text!r}", tok.column)


def parse_polynomial(text: str, field: FieldDescriptor,
                     alphabet: Alphabet) -> Polynomial:
    parser = _Parser(_tokenize(text), field, alphabet)
    if parser.peek() is None:
        raise ExpressionError("empty expression")
    return parser.parse_polynomial()


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """A product of generators (with optional powers) and the literal 1."""
    field = FieldDescriptor()
    terms = parse_polynomial(text, field, alphabet).items()
    if len(terms) != 1 or terms[0][1] != field.one():
        raise ExpressionError(f"{text!r} is not a plain word")
    return terms[0][0]


def format_coefficient(c) -> str:
    try:
        return str(c.value)
    except ValueError:  # a numerator or denominator past the digit limit
        limit = sys.get_int_max_str_digits()
        raise ExpressionError(f"coefficient exceeds the limit of {limit} digits "
                              "for integer string conversion") from None


def format_polynomial(poly: Polynomial, spec=None) -> str:
    """Deterministic rendering, largest term first.

    With an OrderingSpec the display order is descending deglex; without
    one it falls back to (degree, letters) so output stays stable.
    """
    if poly.is_zero():
        return "0"
    if spec is not None:
        key = spec.sort_key
    else:
        def key(w):
            return (w.degree(), w.letters)
    parts = []
    for word, coeff in sorted(poly.items(), key=lambda term: key(term[0]), reverse=True):
        text = format_coefficient(coeff)
        negative = text.startswith("-")
        magnitude = text[1:] if negative else text
        if word.is_one():
            body = magnitude
        elif magnitude == "1":
            body = str(word)
        else:
            body = f"{magnitude}*{word}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)

"""Textual syntax for words and polynomials, shared by the CLI and tests.

Terms look like ``3*x*y*x``, ``-1/2*z`` or ``1``, joined by ``+``/``-``.
``^`` raises a factor to a nonnegative integer power and ``*`` is
mandatory between factors; generator names may be multi-character.
A power is built directly, after checking that it is not too large.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coeff import FieldDescriptor
from .freealg import Alphabet, Polynomial, Word


MAX_POWER_LETTERS = 10 ** 6


class ExpressionError(Exception):
    def __init__(self, message: str, column: int | None = None):
        super().__init__(message if column is None
                         else f"column {column}: {message}")
        self.column = column


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<number>\d+)"
                    r"|(?P<op>[-+*/^]))")


@dataclass(frozen=True)
class _Token:
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
        result = Polynomial.zero(self.field, self.alphabet)
        sign = 1
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self.next()
            sign = -1 if tok.text == "-" else 1
        while True:
            term = self.parse_term()
            if sign < 0:
                term = -term
            result = result + term
            tok = self.peek()
            if tok is None:
                return result
            if tok.kind != "op" or tok.text not in "+-":
                self.fail(f"expected '+' or '-', got {tok.text!r}")
            self.next()
            sign = -1 if tok.text == "-" else 1

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return result
            self.next()
            result = result * self.parse_factor()

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok is None or exp_tok.kind != "number":
                self.fail("expected integer exponent after '^'")
            return self.power(base, int(exp_tok.text), exp_tok.column)
        return base

    def power(self, base: Polynomial, n: int, column: int) -> Polynomial:
        """base^n of an atom, which is 0 or one term c*w: c^n * w^n."""
        if not base:
            return base if n else Polynomial.one(self.field, self.alphabet)
        [(word, c)] = base.items()
        if len(word) * n > MAX_POWER_LETTERS:
            raise ExpressionError(
                f"power of {len(word) * n} letters exceeds {MAX_POWER_LETTERS}", column)
        value, modulus = c.value, self.field.modulus
        if modulus:
            value = pow(value, n, modulus)
        else:  # refuse what str() of the numerator or denominator would
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            size = max(abs(value.numerator), value.denominator)
            if limit and n * math.log10(size) >= limit:
                raise ExpressionError(
                    f"coefficient of the power exceeds {limit} digits", column)
            value = value ** n
        return Polynomial.monomial(Word(self.alphabet, word.letters * n),
                                   self.field.coeff(value))

    def parse_atom(self) -> Polynomial:
        tok = self.next()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if tok.kind == "name":
            word = self.alphabet.word(tok.text)  # raises on unknown generator
            return Polynomial.monomial(word, self.field.one())
        if tok.kind == "number":
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.text == "/":
                self.next()
                den = self.next()
                if den is None or den.kind != "number" or int(den.text) == 0:
                    self.fail("expected nonzero integer denominator")
                value /= int(den.text)
            coeff = self.field.coeff(value)
            return Polynomial(self.field, self.alphabet,
                              {Word(self.alphabet, ()): coeff})
        raise ExpressionError(f"unexpected {tok.text!r}", tok.column)


def parse_polynomial(text: str, field: FieldDescriptor,
                     alphabet: Alphabet) -> Polynomial:
    parser = _Parser(_tokenize(text), field, alphabet)
    if parser.peek() is None:
        raise ExpressionError("empty expression")
    result = parser.parse_polynomial()
    return result


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """A product of generators (with optional powers) and the literal 1."""
    field = FieldDescriptor()
    poly = parse_polynomial(text, field, alphabet)
    terms = list(poly.items())
    if len(terms) != 1 or terms[0][1] != field.one():
        raise ExpressionError(f"{text!r} is not a plain word")
    return terms[0][0]


def format_coefficient(c) -> str:
    return str(c.value)


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
    for word in sorted(poly.words(), key=key, reverse=True):
        coeff = poly.coefficient(word)
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

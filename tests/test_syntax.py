"""The expression parser: every input error is an ExpressionError with its
column, and valid expressions parse to the polynomial they spell."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncrewrite.coeff import RATIONALS, FieldDescriptor
from ncrewrite.freealg import Alphabet, AlphabetMismatchError, Polynomial, Word
from ncrewrite.order import OrderingSpec
from ncrewrite.syntax import ExpressionError, format_polynomial, parse_polynomial

from conftest import add, mul, neg

ALPHABET = Alphabet(("x", "y", "xy"))
FIELDS = st.sampled_from([RATIONALS, FieldDescriptor(7)])
SPACE = st.sampled_from(["", "", " ", "  ", "\t"])

# names known and unknown, digits, operators, blanks and stray characters
_FRAGMENTS = st.one_of(
    st.sampled_from(["x", "y", "xy", "z", "_a", "0", "1", "2", "3", "7", "10",
                     "+", "-", "*", "/", "^", " ", "&", "("]),
    st.just("9" * 4301))  # past Python's default integer digit limit


@settings(max_examples=500)
@given(st.lists(_FRAGMENTS, max_size=12).map("".join), FIELDS)
def test_parse_raises_only_expression_error(text, field):
    try:
        poly = parse_polynomial(text, field, ALPHABET)
    except ExpressionError:
        return
    assert isinstance(poly, Polynomial)


def _number(field):
    """(n, d or None) with n/d defined in the field."""
    return st.tuples(st.integers(0, 30), st.none() | st.integers(1, 21)).filter(
        lambda nd: field.is_rationals
        or Fraction(nd[0], nd[1] or 1).denominator % field.modulus)


@st.composite
def _expressions(draw):
    """An expression text and the polynomial it spells, computed with
    the reference scalar arithmetic from the same drawn data."""
    field = draw(FIELDS)
    factor = st.tuples(st.sampled_from(ALPHABET.symbols) | _number(field),
                       st.none() | st.integers(0, 3))
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"),
                                    st.lists(factor, min_size=1, max_size=4)),
                          min_size=1, max_size=4))
    text, expected = draw(SPACE), {}
    for i, (sign, factors) in enumerate(terms):
        if i or sign == "-" or draw(st.booleans()):
            text += sign + draw(SPACE)
        coeff, letters, texts = field.one(), (), []
        for atom, k in factors:
            power = 1 if k is None else k
            if isinstance(atom, str):
                part, c = atom, field.one()
                word = (ALPHABET.symbols.index(atom),) * power
            else:
                n, d = atom
                part = str(n) if d is None else f"{n}{draw(SPACE)}/{draw(SPACE)}{d}"
                c, word = field.coeff(Fraction(n, d or 1) ** power), ()
            if k is not None:
                part += f"{draw(SPACE)}^{draw(SPACE)}{k}"
            coeff, letters = mul(coeff, c), letters + word
            texts.append(part)
        text += f"{draw(SPACE)}*{draw(SPACE)}".join(texts) + draw(SPACE)
        if sign == "-":
            coeff = neg(coeff)
        w = Word(ALPHABET, letters)
        expected[w] = add(expected.get(w, field.zero()), coeff)
    return text, field, Polynomial(field, ALPHABET, expected)


@settings(max_examples=500)
@given(_expressions())
def test_parse_valid_expression(case):
    text, field, expected = case
    assert parse_polynomial(text, field, ALPHABET) == expected


@pytest.mark.parametrize("text,field,column", [
    ("x & y", RATIONALS, 3),          # the stray character, not the blank before it
    ("x*z", RATIONALS, 3),            # the unknown generator
    ("1/7", FieldDescriptor(7), 3),   # the denominator that is 0 in F 7
    ("2*" + "9" * 4301, RATIONALS, 3),  # the literal over the digit limit
    ("x^", RATIONALS, 3),             # where the exponent is missing
], ids=["stray", "unknown", "zero-denominator", "digit-limit", "no-exponent"])
def test_error_column(text, field, column):
    with pytest.raises(ExpressionError) as err:
        parse_polynomial(text, field, ALPHABET)
    assert err.value.column == column
    assert str(err.value).startswith(f"column {column}:")


@st.composite
def _weighted_polynomials(draw):
    """A polynomial over 2-3 weighted letters, named in any order, over Q or F 7."""
    field = draw(FIELDS)
    n = draw(st.integers(2, 3))
    names = draw(st.permutations(["x", "y", "zz"]))[:n]
    alphabet = Alphabet(tuple(names), tuple(draw(st.lists(st.integers(1, 3),
                                                          min_size=n, max_size=n))))
    values = (st.fractions(max_denominator=12).filter(bool) if field.is_rationals
              else st.integers(1, 6))
    words = st.lists(st.integers(0, n - 1), max_size=4).map(
        lambda letters: Word(alphabet, tuple(letters)))
    terms = draw(st.dictionaries(words, values, max_size=6))
    return Polynomial(field, alphabet, {w: field.coeff(c) for w, c in terms.items()})


def _reference_rendering(poly):
    """Largest term first by (weighted degree, letter indices), as the
    rendering with no order was first defined."""
    text = ""
    for word, coeff in sorted(poly.items(), reverse=True,
                              key=lambda term: (term[0].degree(), term[0].letters)):
        negative = coeff.value < 0
        magnitude = str(-coeff.value if negative else coeff.value)
        name = "*".join(poly.alphabet.symbols[i] for i in word.letters)
        body = magnitude if not name else name if magnitude == "1" else f"{magnitude}*{name}"
        text += (" - " if negative else " + ") if text else ("-" if negative else "")
        text += body
    return text or "0"


@settings(max_examples=200)
@given(_weighted_polynomials())
def test_default_rendering_sorts_by_degree_then_letters(poly):
    assert str(poly) == format_polynomial(poly) == _reference_rendering(poly)


def test_rendering_refuses_an_order_over_another_alphabet():
    poly = parse_polynomial("x*y + 2", RATIONALS, ALPHABET)
    with pytest.raises(AlphabetMismatchError, match="order over another alphabet"):
        format_polynomial(poly, OrderingSpec(Alphabet(("x", "y")), ("x", "y")))
    assert format_polynomial(poly, OrderingSpec(ALPHABET, ("xy", "y", "x"))) == "x*y + 2"

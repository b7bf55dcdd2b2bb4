from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncrewrite.coeff import (
    RATIONALS,
    Coefficient,
    CoefficientError,
    FieldDescriptor,
    FieldMismatchError,
)
from ncrewrite.freealg import (
    Alphabet,
    AlphabetMismatchError,
    FreeAlgebraError,
    Polynomial,
    Word,
)
from ncrewrite.rewrite import InvalidSystemError, ReductionSystem, Rule, _lhs_table, _sites
from ncrewrite.syntax import parse_polynomial

from conftest import EmptyPatternError, NaivePolynomial, occurrences_of

XY = Alphabet(("x", "y"))
ABC = Alphabet(("a", "b", "c", "d"))


def w(alphabet, text):
    return alphabet.word(*text) if text else alphabet.one()


def p(text, alphabet=XY):
    return parse_polynomial(text, RATIONALS, alphabet)


def test_alphabet_validation():
    with pytest.raises(FreeAlgebraError):
        Alphabet(("x", "x"))
    with pytest.raises(FreeAlgebraError):
        Alphabet(("x",), (0,))
    with pytest.raises(FreeAlgebraError):
        Alphabet(("",))



@pytest.mark.parametrize("symbols,weights", [
    (("x",), (1.5,)), (("x",), (2.0,)), (("x",), (True,)), (("x",), ("2",)),
    ((1, 2), ()), (("x", None), ()), ((["x"],), ())])
def test_alphabet_refuses_a_weight_that_is_not_an_int_or_a_name_that_is_not_a_str(
        symbols, weights):
    with pytest.raises(FreeAlgebraError):
        Alphabet(symbols, weights)

def test_concat():
    assert w(XY, "xy") * w(XY, "y") == w(XY, "xyy")
    assert XY.one() * w(XY, "yx") == w(XY, "yx")
    assert w(XY, "x") * XY.one() == w(XY, "x")


def test_concat_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        w(XY, "x") * w(ABC, "a")


def sites(word, *patterns):
    """rewrite._sites of patterns, taken as left sides, as (A, index, B)."""
    lhss = [pattern.letters for pattern in patterns]
    return [(Word(word.alphabet, word.letters[:i]), idx,
             Word(word.alphabet, word.letters[i + len(lhss[idx]):]))
            for i, idx in _sites(word.letters, _lhs_table(lhss))]


def test_occurrences_overlapping():
    word = w(XY, "xyxyx")
    assert sites(word, w(XY, "xyx")) == [
        (XY.one(), 0, w(XY, "yx")),
        (w(XY, "xy"), 0, XY.one()),
    ]
    # leftmost site first, then the lowest rule index
    assert sites(word, w(XY, "x"), w(XY, "xyx")) == [
        (XY.one(), 0, w(XY, "yxyx")),
        (XY.one(), 1, w(XY, "yx")),
        (w(XY, "xy"), 0, w(XY, "yx")),
        (w(XY, "xy"), 1, XY.one()),
        (w(XY, "xyxy"), 0, XY.one()),
    ]


def test_occurrences_absent():
    assert sites(w(ABC, "abc"), w(ABC, "d")) == []
    assert sites(ABC.one(), w(ABC, "a")) == []


def test_occurrences_self_overlap():
    assert sites(w(ABC, "aaa"), w(ABC, "aa")) == [
        (ABC.one(), 0, w(ABC, "a")),
        (w(ABC, "a"), 0, ABC.one()),
    ]


def test_empty_pattern_rejected():
    # _sites is only ever given a system's left sides, and a system refuses
    # an empty one; the naive reference refuses it too
    with pytest.raises(InvalidSystemError):
        ReductionSystem(XY, RATIONALS, (Rule(XY.one(), p("x")),))
    with pytest.raises(EmptyPatternError):
        occurrences_of(w(XY, "xy"), XY.one())


words = st.lists(st.integers(0, 1), max_size=8).map(
    lambda ls: Word(XY, tuple(ls)))
patterns = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(
    lambda ls: Word(XY, tuple(ls)))


@given(words, st.lists(patterns, min_size=1, max_size=3))
def test_occurrence_count_matches_bruteforce(word, pats):
    found = sites(word, *pats)
    naive = sorted((len(prefix), idx, prefix, suffix)
                   for idx, pattern in enumerate(pats)
                   for prefix, suffix in occurrences_of(word, pattern))
    assert found == [(prefix, idx, suffix) for _, idx, prefix, suffix in naive]
    brute = sorted(
        (i, idx) for idx, pattern in enumerate(pats)
        for i in range(len(word.letters) - len(pattern.letters) + 1)
        if word.letters[i:i + len(pattern.letters)] == pattern.letters)
    assert len(found) == len(brute)
    for (prefix, idx, suffix), (i, j) in zip(found, brute):
        assert prefix * pats[idx] * suffix == word
        assert (len(prefix.letters), idx) == (i, j)


def test_combine_cancellation():
    a = p("2*x*y")
    b = p("-2*x*y")
    assert (a.scale(RATIONALS.one()) + b).is_zero()


def test_combine_scaling():
    assert p("x").scale(RATIONALS.coeff(3)) + p("y") == p("3*x + y")


def test_combine_zero_scalar():
    assert p("x*y*x").scale(RATIONALS.zero()) + p("y") == p("y")


def test_mul_simple():
    assert p("x + y") * p("x") == p("x*x + y*x")


def test_mul_collects_like_terms():
    q = p("x*y + 1")
    assert q * q == p("x*y*x*y + 2*x*y + 1")


def test_mul_unit():
    a = p("3*x*y - 1/2*y")
    assert a * Polynomial.one(RATIONALS, XY) == a


small_polys = st.lists(
    st.tuples(st.lists(st.integers(0, 1), max_size=4),
              st.fractions(min_value=-50, max_value=50, max_denominator=8)),
    max_size=5,
).map(lambda terms: sum(
    (Polynomial.monomial(Word(XY, tuple(ls)), RATIONALS.coeff(c))
     for ls, c in terms),
    Polynomial.zero(RATIONALS, XY)))


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(small_polys, small_polys)
def test_structural_equality_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


FIELDS = (RATIONALS, FieldDescriptor(7))
SCALARS = (0, 1, -1, 2, 3, Fraction(3, 2), Fraction(-1, 2))
# few words, so sums and products cancel and collect often
short_words = st.lists(st.integers(0, 1), max_size=2).map(lambda ls: Word(XY, tuple(ls)))


def term_dicts(field):
    return st.dictionaries(short_words, st.sampled_from(SCALARS).map(field.coeff),
                           max_size=5)


@settings(max_examples=300)
@given(st.sampled_from(FIELDS), st.data())
def test_arithmetic_matches_naive_reference(field, data):
    a_terms, b_terms = data.draw(term_dicts(field)), data.draw(term_dicts(field))
    a, b = Polynomial(field, XY, a_terms), Polynomial(field, XY, b_terms)
    na, nb = NaivePolynomial(field, XY, a_terms), NaivePolynomial(field, XY, b_terms)
    c = field.coeff(data.draw(st.sampled_from(SCALARS)))
    left, right = data.draw(short_words), data.draw(short_words)
    cases = [(a, na), (a + b, na + nb), (a - b, na - nb), (-a, -na), (a * b, na * nb),
             (a.scale(c), na.scale(c)), (a.sandwich(left, right), na.sandwich(left, right))]
    foreign = Word(ABC, (0,) * len(left.letters))  # same letters, another alphabet
    for poly, naive in cases:
        assert (poly.field, poly.alphabet) == (naive.field, naive.alphabet)
        assert dict(poly.items()) == naive.terms
        assert len(poly.items()) == len(naive.terms)
        assert set(poly.words()) == set(naive.terms)
        assert poly.is_zero() == (not naive.terms)
        for word in list(naive.terms) + [left, right, left * right]:
            assert poly.coefficient(word) == naive.coefficient(word)
        assert poly.coefficient(foreign) == field.zero()
        rebuilt = Polynomial(field, XY, dict(poly.items()))
        assert rebuilt == poly and hash(rebuilt) == hash(poly)
    for (p1, n1), (p2, n2) in zip(cases, cases[1:] + cases[:1]):
        assert (p1 == p2) == (n1 == n2)
        if p1 == p2:
            assert hash(p1) == hash(p2)


def test_constructor_refuses_a_coefficient_not_in_canonical_form():
    f7 = FieldDescriptor(7)
    x = w(XY, "x")
    for field, value in [(f7, 9), (f7, -1), (f7, Fraction(2)), (f7, 2.0),
                         (RATIONALS, 0.5), (RATIONALS, 0.0), (RATIONALS, "1/2"), (RATIONALS, True)]:
        with pytest.raises(CoefficientError):
            Polynomial(field, XY, {x: Coefficient(field, value)})
    assert Polynomial(f7, XY, {x: Coefficient(f7, 2)}) == Polynomial(f7, XY, {x: f7.coeff(9)})
    half = Polynomial(RATIONALS, XY, {x: Coefficient(RATIONALS, Fraction(1, 2))})
    assert str(half * half) == "1/4*x*x"
    assert Polynomial(RATIONALS, XY, {x: Coefficient(RATIONALS, 3)}).coefficient(x) == \
        RATIONALS.coeff(3)


def test_monomial_and_scale_refuse_a_coefficient_not_in_canonical_form():
    f7 = FieldDescriptor(7)
    x = w(XY, "x")
    one = Polynomial.monomial(x, RATIONALS.one())
    for field, value in [(f7, 9), (f7, -1), (f7, Fraction(2)), (RATIONALS, 0.5)]:
        with pytest.raises(CoefficientError, match="not a canonical element"):
            Polynomial.monomial(x, Coefficient(field, value))
        with pytest.raises(CoefficientError, match="not a canonical element"):
            Polynomial.monomial(x, field.one()).scale(Coefficient(field, value))
    assert Polynomial.monomial(x, f7.coeff(9)) == Polynomial.monomial(x, Coefficient(f7, 2))
    assert str(one.scale(Coefficient(RATIONALS, Fraction(1, 2)))) == "1/2*x"
    assert str(one.scale(Coefficient(RATIONALS, 3))) == "3*x"
    assert Polynomial.monomial(x, RATIONALS.zero()).is_zero()


def test_arithmetic_refuses_mixed_alphabets_and_fields():
    x = Polynomial.monomial(w(XY, "x"), RATIONALS.one())
    a = Polynomial.monomial(w(ABC, "a"), RATIONALS.one())
    f7 = FieldDescriptor(7)
    x7 = Polynomial.monomial(w(XY, "x"), f7.one())
    for op in (lambda: x + a, lambda: x - a, lambda: x * a,
               lambda: x.sandwich(w(ABC, "a"), XY.one())):
        with pytest.raises(AlphabetMismatchError):
            op()
    for op in (lambda: x + x7, lambda: x * x7):
        with pytest.raises(FreeAlgebraError):
            op()
    with pytest.raises(CoefficientError):
        x.scale(f7.coeff(3))
    # the constructor, too, refuses a word or a coefficient from elsewhere
    with pytest.raises(AlphabetMismatchError):
        Polynomial(RATIONALS, XY, {w(ABC, "a"): RATIONALS.one()})
    with pytest.raises(FieldMismatchError):
        Polynomial(RATIONALS, XY, {w(XY, "x"): f7.coeff(3)})

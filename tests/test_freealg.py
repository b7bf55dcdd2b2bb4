import pytest
from hypothesis import given, settings, strategies as st

from ncrewrite.coeff import RATIONALS
from ncrewrite.freealg import (
    Alphabet,
    AlphabetMismatchError,
    FreeAlgebraError,
    Polynomial,
    Word,
)
from ncrewrite.rewrite import InvalidSystemError, ReductionSystem, Rule, _sites
from ncrewrite.syntax import parse_polynomial

from conftest import EmptyPatternError, occurrences_of

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


def test_concat():
    assert w(XY, "xy") * w(XY, "y") == w(XY, "xyy")
    assert XY.one() * w(XY, "yx") == w(XY, "yx")
    assert w(XY, "x") * XY.one() == w(XY, "x")


def test_concat_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        w(XY, "x") * w(ABC, "a")


def sites(word, *patterns):
    """rewrite._sites of patterns, taken as left sides, as (A, index, B)."""
    rules = [(pattern.letters, ()) for pattern in patterns]
    return [(Word(word.alphabet, word.letters[:i]), idx,
             Word(word.alphabet, word.letters[i + len(rules[idx][0]):]))
            for i, idx in _sites(word.letters, rules)]


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

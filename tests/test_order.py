import itertools

import pytest
from hypothesis import given, strategies as st

from ncrewrite.freealg import Alphabet, Word
from ncrewrite.order import (
    EQ,
    GT,
    LT,
    OrderingError,
    OrderingSpec,
    check_compatibility,
    deglex_compare,
)

XY = Alphabet(("x", "y"))
SPEC = OrderingSpec(XY, ("x", "y"))
WEIGHTED = OrderingSpec(Alphabet(("x", "y"), (1, 2)), ("x", "y"))


def w(text, alphabet=XY):
    return alphabet.word(*text) if text else alphabet.one()


def test_precedence_must_be_permutation():
    with pytest.raises(OrderingError):
        OrderingSpec(XY, ("x", "x"))
    with pytest.raises(OrderingError):
        OrderingSpec(XY, ("x", "y", "z"))


def test_equal_degree_lex():
    assert deglex_compare(w("xy"), w("yx"), SPEC) == LT


def test_degree_dominates():
    assert deglex_compare(w("xx"), w("y"), SPEC) == GT


def test_empty_word_is_minimum():
    assert deglex_compare(w(""), w("x"), SPEC) == LT


def test_eq_iff_equal():
    assert deglex_compare(w("xyx"), w("xyx"), SPEC) == EQ


def test_weights_change_degree():
    # y weighs 2, so y > xx is a lex call at equal degree, and y > x by degree
    assert deglex_compare(WEIGHTED.alphabet.word("y"),
                          WEIGHTED.alphabet.word("x"), WEIGHTED) == GT
    assert deglex_compare(WEIGHTED.alphabet.word("y"),
                          WEIGHTED.alphabet.word("x", "x"), WEIGHTED) == GT


words = st.lists(st.integers(0, 1), max_size=6).map(lambda ls: Word(XY, tuple(ls)))


@given(words, words, words)
def test_strict_total_order(u, v, t):
    # trichotomy
    assert sum([deglex_compare(u, v, SPEC) == r for r in (LT, EQ, GT)]) == 1
    # antisymmetry
    assert deglex_compare(u, v, SPEC) == -deglex_compare(v, u, SPEC)
    # transitivity via the key being a total order key
    if deglex_compare(u, v, SPEC) == LT and deglex_compare(v, t, SPEC) == LT:
        assert deglex_compare(u, t, SPEC) == LT


@given(words, words, words, words)
def test_semigroup_law(u, v, a, b):
    if deglex_compare(u, v, SPEC) == LT:
        assert deglex_compare(a * u * b, a * v * b, SPEC) == LT


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_dcc_finitely_many_below_degree(bound):
    # exhaustive: the number of words of degree <= bound is finite and
    # every word below a degree-bound word lands in that finite set
    below = list(XY.words_up_to_degree(bound))
    assert len(below) == 2 ** (bound + 1) - 1
    top = Word(XY, (1,) * bound)
    smaller = [u for u in below if deglex_compare(u, top, SPEC) == LT]
    assert len(smaller) == len(set(smaller))


def test_compatibility_weyl(weyl):
    report = check_compatibility(weyl.system, weyl.ordering)
    assert report.compatible
    assert report.violations == ()


def test_compatibility_lex_flip():
    from ncrewrite.coeff import RATIONALS
    from ncrewrite.rewrite import ReductionSystem, Rule
    from ncrewrite.freealg import Polynomial

    flipped = OrderingSpec(XY, ("y", "x"))
    rule = Rule(w("yx"), Polynomial.monomial(w("xy"), RATIONALS.one()))
    system = ReductionSystem(XY, RATIONALS, (rule,))
    report = check_compatibility(system, flipped)
    assert not report.compatible
    assert report.violations == ((0, w("xy")),)


def test_compatibility_degree_violation():
    from ncrewrite.coeff import RATIONALS
    from ncrewrite.rewrite import ReductionSystem, Rule
    from ncrewrite.freealg import Polynomial

    rule = Rule(w("x"), Polynomial.monomial(w("xx"), RATIONALS.one()))
    system = ReductionSystem(XY, RATIONALS, (rule,))
    report = check_compatibility(system, SPEC)
    assert report.violations == ((0, w("xx")),)


@pytest.mark.parametrize("with_rule", [False, True])
def test_order_over_another_alphabet_is_refused(with_rule):
    from ncrewrite.ambiguity import ambiguities, check_all, check_resolvable_relative
    from ncrewrite.coeff import RATIONALS
    from ncrewrite.freealg import AlphabetMismatchError, Polynomial
    from ncrewrite.quotient import QuotientRing
    from ncrewrite.rewrite import ReductionSystem, Rule, normal_form

    xx = ReductionSystem(XY, RATIONALS, (Rule(w("xx"), Polynomial.zero(RATIONALS, XY)),))
    system = xx if with_rule else ReductionSystem(XY, RATIONALS, ())
    other = OrderingSpec(Alphabet(("z",)), ("z",))
    poly = Polynomial.monomial(w("xy"), RATIONALS.one())
    (overlap,) = ambiguities(xx)  # x*x*x
    for call in (lambda: check_compatibility(system, other),
                 lambda: normal_form(poly, system, other),
                 lambda: check_all(system, other),
                 lambda: QuotientRing.build(system, other),
                 lambda: check_resolvable_relative(overlap, system, other)):
        with pytest.raises(AlphabetMismatchError, match="order over another alphabet"):
            call()
    assert not system._compatibility  # nothing was remembered for the order
    assert check_all(system, SPEC).confluent

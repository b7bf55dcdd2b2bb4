import itertools

import pytest
from hypothesis import given, strategies as st

from ncrewrite.freealg import Alphabet, Word
from ncrewrite.order import OrderingError, OrderingSpec, check_compatibility

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
    assert SPEC.sort_key(w("xy")) < SPEC.sort_key(w("yx"))


def test_degree_dominates():
    assert SPEC.sort_key(w("xx")) > SPEC.sort_key(w("y"))


def test_empty_word_is_minimum():
    assert SPEC.sort_key(w("")) < SPEC.sort_key(w("x"))


def test_eq_iff_equal():
    assert SPEC.sort_key(w("xyx")) == SPEC.sort_key(w("xyx"))


def test_weights_change_degree():
    # y weighs 2, so y > xx is a lex call at equal degree, and y > x by degree
    y, x = WEIGHTED.alphabet.word("y"), WEIGHTED.alphabet.word("x")
    assert WEIGHTED.sort_key(y) > WEIGHTED.sort_key(x)
    assert WEIGHTED.sort_key(y) > WEIGHTED.sort_key(x * x)


words = st.lists(st.integers(0, 1), max_size=6).map(lambda ls: Word(XY, tuple(ls)))


@given(words, words, words)
def test_strict_total_order(u, v, t):
    ku, kv = SPEC.sort_key(u), SPEC.sort_key(v)
    # trichotomy, with equal keys only for equal words
    assert [ku < kv, ku == kv, ku > kv].count(True) == 1
    assert (ku == kv) == (u == v)
    # antisymmetry
    assert (ku < kv) == (kv > ku)
    # transitivity via the key being a total order key
    kt = SPEC.sort_key(t)
    if ku < kv and kv < kt:
        assert ku < kt


@given(words, words, words, words)
def test_semigroup_law(u, v, a, b):
    if SPEC.sort_key(u) < SPEC.sort_key(v):
        assert SPEC.sort_key(a * u * b) < SPEC.sort_key(a * v * b)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_dcc_finitely_many_below_degree(bound):
    # exhaustive: the number of words of degree <= bound is finite and
    # every word below a degree-bound word lands in that finite set
    below = list(XY.words_up_to_degree(bound))
    assert len(below) == 2 ** (bound + 1) - 1
    top = Word(XY, (1,) * bound)
    smaller = [u for u in below if SPEC.sort_key(u) < SPEC.sort_key(top)]
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

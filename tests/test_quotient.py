import itertools
import math
import random
import sys
from collections import Counter

import pytest

from ncrewrite.freealg import Polynomial, Word
from ncrewrite.quotient import (
    NotConfluentError,
    QuotientError,
    QuotientRing,
    independence_check,
)
from ncrewrite.rewrite import ReductionSystem
from ncrewrite.syntax import parse_polynomial

from conftest import PRESENTATIONS, as_reference, load, load_over

sys.path.insert(0, str(PRESENTATIONS.parent / "bench"))
import reference  # noqa: E402  the benchmark's checks, written without ncrewrite


def expr(text, p):
    return parse_polynomial(text, p.field, p.alphabet)


@pytest.fixture(scope="module")
def weyl_ring(weyl):
    return QuotientRing.build(weyl.system, weyl.ordering)


def test_build_refuses_nonconfluent(dup_lhs):
    with pytest.raises(NotConfluentError):
        QuotientRing.build(dup_lhs.system, dup_lhs.ordering)


def test_multiply_weyl(weyl, weyl_ring):
    y = expr("y", weyl)
    x = expr("x", weyl)
    assert weyl_ring.multiply(y, x) == expr("x*y + 1", weyl)
    assert weyl_ring.multiply(x, y) == expr("x*y", weyl)


def test_multiply_differential_operator_oracle(weyl, weyl_ring):
    # y acts as d/dx on polynomials in x, and (d/dx) x (d/dx) x = x^2 d^2 + 3 x d + 1
    yx = weyl_ring.multiply(expr("y", weyl), expr("x", weyl))
    assert weyl_ring.multiply(yx, yx) == expr("x*x*y*y + 3*x*y + 1", weyl)


def test_multiply_rejects_reducible(weyl, weyl_ring):
    with pytest.raises(QuotientError):
        weyl_ring.multiply(expr("y*x", weyl), expr("x", weyl))


def test_ideal_member_generator(weyl, weyl_ring):
    assert weyl_ring.ideal_member(expr("y*x - x*y - 1", weyl))
    assert not weyl_ring.ideal_member(expr("x", weyl))


def test_ideal_member_random_products(weyl, weyl_ring):
    rng = random.Random(3)
    rule = weyl.system.rules[0]
    gen = Polynomial.monomial(rule.lhs, weyl.field.one()) - rule.rhs
    for _ in range(30):
        A = Word(weyl.alphabet, tuple(rng.randrange(2)
                                      for _ in range(rng.randint(0, 3))))
        B = Word(weyl.alphabet, tuple(rng.randrange(2)
                                      for _ in range(rng.randint(0, 3))))
        assert weyl_ring.ideal_member(gen.sandwich(A, B))


def test_basis_weyl_degree2(weyl, weyl_ring):
    words = weyl_ring.basis_words(2)
    assert [str(w) for w in words] == ["1", "x", "y", "x*x", "x*y", "y*y"]


def test_basis_commuting_counts(comm3):
    ring = QuotientRing.build(comm3.system, comm3.ordering)
    degree2 = [w for w in ring.basis_words(2) if w.degree() == 2]
    assert len(degree2) == 6  # non-decreasing pairs of 3 generators


def test_basis_no_rules(weyl):
    free = ReductionSystem(weyl.alphabet, weyl.field, ())
    ring = QuotientRing.build(free, weyl.ordering)
    assert len(ring.basis_words(3)) == 2 ** 4 - 1


def test_independence_empty_subset(weyl):
    empty = ReductionSystem(weyl.alphabet, weyl.field, ())
    verdict = independence_check(empty, weyl.system, weyl.ordering)
    assert verdict.strict
    assert verdict.witness == 0


def test_independence_equal_systems(comm3):
    verdict = independence_check(comm3.system, comm3.system, comm3.ordering)
    assert not verdict.strict


def test_independence_weyl_no_ambiguities(weyl):
    empty = ReductionSystem(weyl.alphabet, weyl.field, ())
    verdict = independence_check(empty, weyl.system, weyl.ordering)
    # Weyl has no ambiguities, so its single relation is independent
    assert verdict.independent_rules == (0,)


def test_independence_precondition(weyl, comm3):
    with pytest.raises(QuotientError):
        independence_check(comm3.system, weyl.system, weyl.ordering)


def _random_poly(rng, p, max_terms=4, max_len=4):
    poly = Polynomial.zero(p.field, p.alphabet)
    n = len(p.alphabet.symbols)
    for _ in range(rng.randint(0, max_terms)):
        letters = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_len)))
        poly = poly + Polynomial.monomial(Word(p.alphabet, letters),
                                          p.field.coeff(rng.randint(-5, 5)))
    return poly


def test_splitting_decomposition(weyl, weyl_ring):
    rng = random.Random(17)
    for _ in range(40):
        a = _random_poly(rng, weyl)
        nf = weyl_ring.normal_form(a)
        assert weyl_ring.ideal_member(a - nf)
        assert weyl_ring.normal_form(nf) == nf


def test_normal_form_fixes_basis(sl2):
    ring = QuotientRing.build(sl2.system, sl2.ordering)
    for word in ring.basis_words(3):
        mono = Polynomial.monomial(word, sl2.field.one())
        assert ring.normal_form(mono) == mono


@pytest.mark.parametrize("fixture", ["weyl", "sl2"])
def test_ring_laws(fixture, request):
    p = request.getfixturevalue(fixture)
    ring = QuotientRing.build(p.system, p.ordering)
    rng = random.Random(29)
    for _ in range(25):
        a = ring.normal_form(_random_poly(rng, p, max_len=3))
        b = ring.normal_form(_random_poly(rng, p, max_len=3))
        c = ring.normal_form(_random_poly(rng, p, max_len=3))
        assert ring.multiply(ring.multiply(a, b), c) == \
            ring.multiply(a, ring.multiply(b, c))
        assert ring.multiply(a, b + c) == \
            ring.multiply(a, b) + ring.multiply(a, c)


def test_representative_soundness(weyl, weyl_ring):
    rng = random.Random(41)
    for _ in range(40):
        a = _random_poly(rng, weyl)
        b = _random_poly(rng, weyl)
        same = weyl_ring.normal_form(a) == weyl_ring.normal_form(b)
        assert same == weyl_ring.ideal_member(a - b)


@pytest.mark.parametrize("name,n,max_degree", [
    ("sl2.pres", 3, 9), ("weyl.pres", 2, 14), ("commuting4.pres", 4, 7)],
    ids=["sl2", "weyl", "commuting4"])
def test_basis_counts_are_the_pbw_counts(name, n, max_degree):
    # each has a PBW basis, the ordered words: C(d+n-1, n-1) of them in degree d
    p = load(name)
    words = QuotientRing.build(p.system, p.ordering).basis_words(max_degree)
    counts = Counter(w.degree() for w in words)
    assert [counts[d] for d in range(max_degree + 1)] == \
        [math.comb(d + n - 1, n - 1) for d in range(max_degree + 1)]


@pytest.mark.parametrize("modulus", [None, 32003], ids=["Q", "F32003"])
@pytest.mark.parametrize("name,lhss,reps,max_degree", [
    ("sl2.pres", [("f", "e"), ("h", "e"), ("h", "f")], reference.sl2_reps, 3),
    ("weyl.pres", [("y", "x")], lambda modulus: [reference.weyl_rep(modulus)], 4)],
    ids=["sl2", "weyl"])
def test_products_of_basis_words_act_like_the_products(name, lhss, reps, max_degree,
                                                       modulus):
    # the basis to max_degree is the PBW basis; every product of two of its
    # words is irreducible and acts like the product of their actions
    p = load_over(name, modulus)
    ring, n = QuotientRing.build(p.system, p.ordering), len(p.alphabet.symbols)
    words = ring.basis_words(max_degree)
    ranks = {name: i for i, name in enumerate(p.ordering.precedence)}
    assert reference.check_basis(
        [tuple(p.alphabet.symbols[i] for i in w.letters) for w in words], max_degree,
        lhss, ranks, lambda d: math.comb(d + n - 1, n - 1)) is None
    reps = reps(modulus)
    monomials = [Polynomial.monomial(w, p.field.one()) for w in words]
    for a, b in itertools.product(monomials, repeat=2):
        assert reference.check_product(as_reference(ring.multiply(a, b)), as_reference(a),
                                       as_reference(b), lhss, reps) is None

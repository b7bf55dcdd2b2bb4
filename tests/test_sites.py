"""Everything that asks where a left side occurs goes through rewrite._sites;
compare each such result with the naive reference matcher in conftest."""

import random

import pytest

from ncrewrite.ambiguity import INCLUSION, Ambiguity, enumerate_inclusions, simplify_system
from ncrewrite.cli import parse_presentation
from ncrewrite.coeff import RATIONALS
from ncrewrite.freealg import Alphabet, Polynomial, Word
from ncrewrite.order import OrderingSpec
from ncrewrite.quotient import QuotientRing, independence_check
from ncrewrite.rewrite import ReductionSystem, Rule

from conftest import contains, load, occurrences_of


def naive_inclusions(system):
    out = []
    for s, rs in enumerate(system.rules):
        for t, rt in enumerate(system.rules):
            if s == t or (rs.lhs == rt.lhs and s > t):
                continue
            for prefix, suffix in occurrences_of(rt.lhs, rs.lhs):
                out.append(Ambiguity(INCLUSION, s, t, prefix, rs.lhs, suffix))
    return out


def naive_simplify(system):
    lhss = [r.lhs for r in system.rules]
    kept = []
    for rule in system.rules:
        if any(v != rule.lhs and contains(rule.lhs, v) for v in lhss):
            continue
        if any(k.lhs == rule.lhs for k in kept):
            continue
        kept.append(rule)
    return ReductionSystem(system.alphabet, system.field, tuple(kept))


def naive_basis(system, spec, max_degree):
    words = [w for w in system.alphabet.words_up_to_degree(max_degree)
             if not any(contains(w, r.lhs) for r in system.rules)]
    return sorted(words, key=spec.sort_key)


def naive_independence(s1, s2):
    """(witness, independent_rules) as independence_check defines them."""
    def irreducible(word, rules):
        return not any(contains(word, r.lhs) for r in rules)

    witness = next((i for i, r in enumerate(s2.rules) if irreducible(r.lhs, s1.rules)),
                   None)
    independent = ()
    if not naive_inclusions(s2) and not any(
            rs.lhs.letters[-n:] == rt.lhs.letters[:n]
            for rs in s2.rules for rt in s2.rules
            for n in range(1, min(len(rs.lhs), len(rt.lhs)))):
        independent = tuple(
            i for i, r in enumerate(s2.rules)
            if irreducible(r.lhs, [o for j, o in enumerate(s2.rules) if j != i]))
    return witness, independent


def monomial_system(rng):
    """2-3 letters, 1-5 left sides of length 1-3 (repeats and inclusions
    welcome), every right side 0: compatible with deglex and confluent."""
    n = rng.randint(2, 3)
    alphabet = Alphabet(tuple("abc"[:n]))
    rules = tuple(
        Rule(Word(alphabet, tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))),
             Polynomial.zero(RATIONALS, alphabet))
        for _ in range(rng.randint(1, 5)))
    spec = OrderingSpec(alphabet, alphabet.symbols)
    return ReductionSystem(alphabet, RATIONALS, rules), spec


def test_inclusions_and_simplify_match_naive_matcher():
    rng = random.Random(1975)
    found = 0
    for _ in range(200):
        system, _ = monomial_system(rng)
        inclusions = enumerate_inclusions(system)
        assert inclusions == naive_inclusions(system)
        found += bool(inclusions)
        assert simplify_system(system) == naive_simplify(system)
    assert 0 < found < 200


def test_basis_and_independence_match_naive_matcher():
    rng = random.Random(1978)
    strict = independent = 0
    for _ in range(100):
        s2, spec = monomial_system(rng)
        ring = QuotientRing.build(s2, spec)
        assert ring.basis_words(4) == naive_basis(s2, spec, 4)
        s1 = ReductionSystem(s2.alphabet, s2.field, tuple(
            r for r in s2.rules if rng.random() < 0.5))
        verdict = independence_check(s1, s2, spec)
        assert (verdict.witness, verdict.independent_rules) == naive_independence(s1, s2)
        assert verdict.strict == (verdict.witness is not None)
        strict += verdict.strict
        independent += bool(verdict.independent_rules)
    assert 0 < strict < 100 and 0 < independent < 100


def test_independent_rules_without_ambiguities():
    p = parse_presentation("field Q\ngenerators x < y < z\n"
                           "rule y*x -> x*y\nrule z*x -> x*z + y\n")
    empty = ReductionSystem(p.alphabet, p.field, ())
    verdict = independence_check(empty, p.system, p.ordering)
    assert verdict.independent_rules == (0, 1)
    assert (verdict.strict, verdict.witness) == (True, 0)


@pytest.mark.parametrize("name", ["weyl.pres", "commuting3.pres", "commuting4.pres",
                                  "sl2.pres"])
def test_basis_matches_naive_matcher_on_shipped_presentations(name):
    p = load(name)
    ring = QuotientRing.build(p.system, p.ordering)
    assert ring.basis_words(6) == naive_basis(p.system, p.ordering, 6)

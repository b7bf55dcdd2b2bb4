import itertools
import random

import pytest

from ncrewrite.cli import parse_presentation
from ncrewrite.coeff import FieldDescriptor, RATIONALS
from ncrewrite.freealg import Alphabet, FreeAlgebraError, Occurrence, Polynomial, Word
from ncrewrite.rewrite import (
    BudgetExceededError,
    IncompatibleSystemError,
    InvalidSystemError,
    NormalFormResult,
    ReductionStep,
    ReductionSystem,
    Rule,
    all_normal_forms,
    apply_reduction,
    format_trace,
    is_irreducible,
    normal_form,
    validate_system,
)
from ncrewrite.order import OrderingSpec
from ncrewrite.syntax import parse_polynomial

from conftest import PRESENTATIONS, occurrences_of


def expr(text, p):
    return parse_polynomial(text, p.field, p.alphabet)


def test_validate_empty_lhs_fatal(weyl):
    with pytest.raises(InvalidSystemError):
        ReductionSystem(
            weyl.alphabet, weyl.field,
            (Rule(weyl.alphabet.one(), expr("x", weyl)),))


def test_validate_clean_system(weyl):
    assert validate_system(weyl.system) is None


def test_foreign_rules_and_polynomials_rejected(weyl, comm3):
    with pytest.raises(InvalidSystemError):
        ReductionSystem(weyl.alphabet, FieldDescriptor(7), weyl.system.rules)
    with pytest.raises(FreeAlgebraError):
        normal_form(expr("z*y", comm3), weyl.system, weyl.ordering)


def test_apply_reduction_weyl(weyl):
    a = expr("2*y*x + x", weyl)
    occ = Occurrence(weyl.alphabet.one(), 0, weyl.alphabet.one())
    assert apply_reduction(a, weyl.system, occ) == expr("2*x*y + x + 2", weyl)


def test_apply_reduction_trivial_site(weyl):
    a = expr("x", weyl)
    occ = Occurrence(weyl.alphabet.one(), 0, weyl.alphabet.one())
    assert apply_reduction(a, weyl.system, occ) == a


def test_apply_reduction_single_monomial(weyl):
    # lambda * A W B maps to lambda * A f B
    lam = RATIONALS.coeff(5)
    A = weyl.alphabet.word("x")
    B = weyl.alphabet.word("y")
    a = Polynomial.monomial(A * weyl.system.rules[0].lhs * B, lam)
    expected = weyl.system.rules[0].rhs.sandwich(A, B).scale(lam)
    assert apply_reduction(a, weyl.system, Occurrence(A, 0, B)) == expected


def _random_poly(rng, alphabet, field, max_terms=4, max_len=4):
    poly = Polynomial.zero(field, alphabet)
    for _ in range(rng.randint(0, max_terms)):
        letters = tuple(rng.randrange(len(alphabet.symbols))
                        for _ in range(rng.randint(0, max_len)))
        coeff = field.coeff(rng.randint(-6, 6))
        poly = poly + Polynomial.monomial(Word(alphabet, letters), coeff)
    return poly


@pytest.mark.parametrize("field", [RATIONALS, FieldDescriptor(7)])
def test_reduction_formula_randomized(field):
    # r(a) = a - lambda * A (W - f) B, exactly
    rng = random.Random(11)
    alphabet = Alphabet(("x", "y"))
    lhs = alphabet.word("y", "x")
    rhs = (Polynomial.monomial(alphabet.word("x", "y"), field.one())
           + Polynomial.one(field, alphabet))
    system = ReductionSystem(alphabet, field, (Rule(lhs, rhs),))
    for _ in range(100):
        a = _random_poly(rng, alphabet, field)
        prefix = Word(alphabet, tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))))
        suffix = Word(alphabet, tuple(rng.randrange(2) for _ in range(rng.randint(0, 2))))
        occ = Occurrence(prefix, 0, suffix)
        lam = a.coefficient(prefix * lhs * suffix)
        diff = (Polynomial.monomial(lhs, field.one()) - rhs).sandwich(prefix, suffix)
        assert apply_reduction(a, system, occ) == a - diff.scale(lam)


def test_is_irreducible(weyl):
    assert is_irreducible(Polynomial.zero(weyl.field, weyl.alphabet), weyl.system)
    assert is_irreducible(expr("x*y + 1", weyl), weyl.system)
    assert not is_irreducible(expr("y*x", weyl), weyl.system)


def test_normal_form_single_step(weyl):
    result = normal_form(expr("y*x", weyl), weyl.system, weyl.ordering)
    assert result.value == expr("x*y + 1", weyl)
    assert len(result.trace) == 1


def test_normal_form_yyx(weyl):
    # frozen from the exhaustive oracle on this word
    result = normal_form(expr("y*y*x", weyl), weyl.system, weyl.ordering)
    assert result.value == expr("x*y*y + 2*y", weyl)
    assert all_normal_forms(expr("y*y*x", weyl), weyl.system) == {result.value}


def test_normal_form_already_irreducible(weyl):
    result = normal_form(expr("x", weyl), weyl.system, weyl.ordering)
    assert result.value == expr("x", weyl)
    assert result.trace == ()


def test_normal_form_trace_replays(weyl):
    a = expr("y*x*y*x - 3*y*y*x", weyl)
    result = normal_form(a, weyl.system, weyl.ordering)
    replay = a
    for step in result.trace:
        assert step.coefficient
        assert replay.coefficient(
            step.occurrence.prefix * weyl.system.rules[step.occurrence.rule].lhs
            * step.occurrence.suffix) == step.coefficient
        replay = apply_reduction(replay, weyl.system, step.occurrence)
    assert replay == result.value


def test_normal_form_refuses_incompatible(weyl):
    flipped = OrderingSpec(weyl.alphabet, ("y", "x"))
    with pytest.raises(IncompatibleSystemError):
        normal_form(expr("y*x", weyl), weyl.system, flipped)


def test_trace_serialization(weyl):
    result = normal_form(expr("y*x", weyl), weyl.system, weyl.ordering)
    assert format_trace(result.trace) == "1 | 0 | 1 | 1"


def test_all_normal_forms_weyl(weyl):
    forms = all_normal_forms(expr("y*x", weyl), weyl.system)
    assert forms == {expr("x*y + 1", weyl)}


def test_all_normal_forms_branching(dup_lhs):
    forms = all_normal_forms(expr("a*b", dup_lhs), dup_lhs.system)
    assert forms == {expr("a", dup_lhs), expr("b", dup_lhs)}


def test_all_normal_forms_commuting(comm3):
    forms = all_normal_forms(expr("z*y*x", comm3), comm3.system)
    assert forms == {expr("x*y*z", comm3)}


def test_all_normal_forms_budget(weyl):
    with pytest.raises(BudgetExceededError):
        all_normal_forms(expr("y^6*x^6", weyl), weyl.system, budget=50)


def test_all_normal_forms_fallback_budget(dup_lhs):
    # the word walk stops at a non-unique word well inside the budget; the
    # exhaustive search that decides instead needs 121 states and runs out
    with pytest.raises(BudgetExceededError) as err:
        all_normal_forms(expr("a*b*a*b + b*a*b*a*b*a", dup_lhs),
                         dup_lhs.system, budget=50)
    assert err.value.visited == 50
    assert "polynomial states" in str(err.value)


def test_all_normal_forms_deep_walk(weyl):
    # 1,202 words in one chain: deeper than Python's recursion limit
    a = expr("y*x^1200", weyl)
    assert all_normal_forms(a, weyl.system) == {
        normal_form(a, weyl.system, weyl.ordering).value}


def test_irreducibles_closed_under_combination(weyl):
    # Prop: irreducible elements form a submodule
    rng = random.Random(5)
    for _ in range(50):
        a = _random_poly(rng, weyl.alphabet, weyl.field)
        b = _random_poly(rng, weyl.alphabet, weyl.field)
        na = normal_form(a, weyl.system, weyl.ordering).value
        nb = normal_form(b, weyl.system, weyl.ordering).value
        alpha = weyl.field.coeff(rng.randint(-4, 4))
        assert is_irreducible(na.scale(alpha) + nb, weyl.system)


@pytest.mark.parametrize("fixture", ["weyl", "comm3", "sl2"])
def test_normal_form_linear_on_confluent(fixture, request):
    rng = random.Random(23)
    p = request.getfixturevalue(fixture)
    for _ in range(40):
        a = _random_poly(rng, p.alphabet, p.field)
        b = _random_poly(rng, p.alphabet, p.field)
        alpha = p.field.coeff(rng.randint(-5, 5))
        nf = lambda x: normal_form(x, p.system, p.ordering).value
        assert nf(a.scale(alpha) + b) == nf(a).scale(alpha) + nf(b)


@pytest.mark.parametrize("fixture", ["weyl", "comm3"])
def test_sandwich_property(fixture, request):
    # reducing the middle factor first never changes the final value
    rng = random.Random(31)
    p = request.getfixturevalue(fixture)
    nf = lambda x: normal_form(x, p.system, p.ordering).value
    for _ in range(40):
        n = len(p.alphabet.symbols)
        rand_word = lambda: Word(p.alphabet, tuple(
            rng.randrange(n) for _ in range(rng.randint(0, 3))))
        A, B, C = rand_word(), rand_word(), rand_word()
        b = Polynomial.monomial(B, p.field.one())
        sites = [Occurrence(prefix, idx, suffix)
                 for idx, rule in enumerate(p.system.rules)
                 for prefix, suffix in occurrences_of(B, rule.lhs)]
        if not sites:
            continue
        reduced = apply_reduction(b, p.system, rng.choice(sites))
        assert nf(reduced.sandwich(A, C)) == nf(
            Polynomial.monomial(A * B * C, p.field.one()))


@pytest.mark.parametrize("fixture,maxlen", [("weyl", 5), ("comm3", 5), ("sl2", 4)])
def test_oracle_agrees_with_normal_form(fixture, maxlen, request):
    p = request.getfixturevalue(fixture)
    n = len(p.alphabet.symbols)
    for length in range(maxlen + 1):
        for letters in itertools.product(range(n), repeat=length):
            a = Polynomial.monomial(Word(p.alphabet, letters), p.field.one())
            assert all_normal_forms(a, p.system) == {
                normal_form(a, p.system, p.ordering).value}


def test_monomial_multiset_decreases(weyl):
    # every step rewrites one monomial into strictly smaller ones, so
    # traces stay finite; spot-check step counts on random inputs
    rng = random.Random(7)
    for _ in range(30):
        a = _random_poly(rng, weyl.alphabet, weyl.field, max_terms=3, max_len=5)
        result = normal_form(a, weyl.system, weyl.ordering)
        assert len(result.trace) < 500
        key = weyl.ordering.sort_key
        replay = a
        for step in result.trace:
            target = (step.occurrence.prefix
                      * weyl.system.rules[step.occurrence.rule].lhs
                      * step.occurrence.suffix)
            after = apply_reduction(replay, weyl.system, step.occurrence)
            new_words = set(after.words()) - set(replay.words())
            assert all(key(w) < key(target) for w in new_words)
            replay = after


def naive_normal_form(a, system, spec):
    """Reference for normal_form: the same strategy by rescanning.

    After every step, rescan every monomial against every rule; reduce the
    deglex-largest reducible monomial at its leftmost site with the
    lowest-indexed rule there, by a - lambda*AWB + lambda*AfB.
    """
    trace = []
    while True:
        best = None
        for word in a.words():
            for idx, rule in enumerate(system.rules):
                for prefix, suffix in occurrences_of(word, rule.lhs):
                    rank = (spec.sort_key(word), -len(prefix), -idx)
                    if best is None or rank > best[0]:
                        best = (rank, word, Occurrence(prefix, idx, suffix))
        if best is None:
            return NormalFormResult(a, tuple(trace))
        _, target, occ = best
        lam = a.coefficient(target)
        trace.append(ReductionStep(occ, lam))
        f = system.rules[occ.rule].rhs
        a = (a - Polynomial.monomial(target, lam)
             + f.sandwich(occ.prefix, occ.suffix).scale(lam))


NAIVE_SYSTEMS = {
    "weyl": (PRESENTATIONS / "weyl.pres").read_text(),
    "sl2": (PRESENTATIONS / "sl2.pres").read_text(),
    "sl2-F7": (PRESENTATIONS / "sl2.pres").read_text().replace(
        "field Q", "field F 7"),
    "comm3": (PRESENTATIONS / "commuting3.pres").read_text(),
    "qplane": "field Q\ngenerators x < y\nrule y*x -> 3/2*x*y\n",
    "weighted": "field Q\ngenerators a < b < c\nweight c 2\n"
                "rule c -> a*b + b*a\nrule b*a -> a*b + 1\nrule c*a -> a*c\n",
}


@pytest.mark.parametrize("name", sorted(NAIVE_SYSTEMS))
def test_normal_form_matches_naive_reference(name):
    p = parse_presentation(NAIVE_SYSTEMS[name])
    rng = random.Random(1978)
    for _ in range(100):
        a = _random_poly(rng, p.alphabet, p.field, max_terms=4, max_len=5)
        assert normal_form(a, p.system, p.ordering) == naive_normal_form(
            a, p.system, p.ordering)


def exhaustive_normal_forms(a, system):
    """Reference for all_normal_forms: every irreducible polynomial reachable
    from a, by searching all polynomial states reached by apply_reduction at
    every site.  Unbudgeted, so only for inputs with a small state space."""
    seen, stack, normals = {a}, [a], set()
    while stack:
        state = stack.pop()
        successors = [apply_reduction(state, system, Occurrence(prefix, idx, suffix))
                      for word in state.words()
                      for idx, rule in enumerate(system.rules)
                      for prefix, suffix in occurrences_of(word, rule.lhs)]
        if not successors:
            normals.add(state)
        for q in successors:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return normals


ORACLE_SYSTEMS = {
    "weyl": ((PRESENTATIONS / "weyl.pres").read_text(), 5),
    "comm3": ((PRESENTATIONS / "commuting3.pres").read_text(), 5),
    "sl2": ((PRESENTATIONS / "sl2.pres").read_text(), 4),
    "sl2-F7": ((PRESENTATIONS / "sl2.pres").read_text().replace(
        "field Q", "field F 7"), 4),
    "aba": ((PRESENTATIONS / "aba.pres").read_text(), 5),
    "dup_lhs": ((PRESENTATIONS / "dup_lhs.pres").read_text(), 5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_all_normal_forms_matches_exhaustive_reference(name):
    text, maxlen = ORACLE_SYSTEMS[name]
    p = parse_presentation(text)
    n = len(p.alphabet.symbols)
    inputs = [Polynomial.monomial(Word(p.alphabet, letters), p.field.one())
              for length in range(maxlen + 1)
              for letters in itertools.product(range(n), repeat=length)]
    rng = random.Random(1101)
    inputs += [_random_poly(rng, p.alphabet, p.field, max_terms=3, max_len=3)
               for _ in range(30)]
    for a in inputs:
        assert all_normal_forms(a, p.system) == exhaustive_normal_forms(a, p.system)


def test_all_normal_forms_cyclic_system():
    # a*b and b*a rewrite into each other: no irreducible form is reachable
    # from either, and the word walk must not take the cycle for uniqueness
    p = parse_presentation(
        "field Q\ngenerators a < b\nrule b*a -> a*b\nrule a*b -> b*a\n")
    for text, forms in [("a*b", set()), ("a*b - b*a", {expr("0", p)}),
                        ("a*a + b*a*b", set()), ("a*a", {expr("a*a", p)})]:
        a = expr(text, p)
        assert all_normal_forms(a, p.system) == forms
        assert exhaustive_normal_forms(a, p.system) == forms

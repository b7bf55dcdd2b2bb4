import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncrewrite.ambiguity import (
    INCLUSION,
    Ambiguity,
    OVERLAP,
    check_all,
    check_resolvable,
    check_resolvable_relative,
    enumerate_inclusions,
    enumerate_overlaps,
    simplify_system,
)
from ncrewrite.cli import parse_presentation
from ncrewrite.coeff import FieldDescriptor, RATIONALS
from ncrewrite.freealg import Alphabet, Polynomial, Word
from ncrewrite.order import OrderingSpec
from ncrewrite.rewrite import BudgetExceededError, ReductionSystem, Rule, all_normal_forms
from ncrewrite.syntax import parse_polynomial

from conftest import contains, inv, mul, sub


def expr(text, p):
    return parse_polynomial(text, p.field, p.alphabet)


def test_no_overlaps_weyl(weyl):
    assert enumerate_overlaps(weyl.system) == []
    assert enumerate_inclusions(weyl.system) == []


def test_single_overlap_commuting(comm3):
    ambs = enumerate_overlaps(comm3.system)
    assert len(ambs) == 1
    amb = ambs[0]
    assert amb.kind == OVERLAP
    assert (amb.a, amb.b, amb.c) == (
        comm3.alphabet.word("z"), comm3.alphabet.word("y"),
        comm3.alphabet.word("x"))
    assert amb.word == comm3.alphabet.word("z", "y", "x")
    assert enumerate_inclusions(comm3.system) == []


def test_self_overlap():
    p = parse_presentation("field Q\ngenerators a\nrule a*a -> a\n")
    ambs = enumerate_overlaps(p.system)
    assert len(ambs) == 1
    amb = ambs[0]
    assert amb.sigma == amb.tau == 0
    assert amb.word == p.alphabet.word("a", "a", "a")


def test_inclusion_duplicate_lhs(dup_lhs):
    ambs = enumerate_inclusions(dup_lhs.system)
    assert len(ambs) == 1
    amb = ambs[0]
    assert amb.kind == INCLUSION
    assert amb.a.is_one() and amb.c.is_one()


def test_inclusion_proper_subword():
    p = parse_presentation(
        "field Q\ngenerators a < b < c\nrule b -> 1\nrule a*b*a -> c\n")
    ambs = enumerate_inclusions(p.system)
    assert len(ambs) == 1
    amb = ambs[0]
    assert (amb.a, amb.b, amb.c) == (
        p.alphabet.word("a"), p.alphabet.word("b"), p.alphabet.word("a"))


def _brute_force_counts(system):
    overlaps = inclusions = 0
    rules = system.rules
    for s, rs in enumerate(rules):
        for t, rt in enumerate(rules):
            ws, wt = rs.lhs.letters, rt.lhs.letters
            for blen in range(1, min(len(ws), len(wt))):
                if ws[-blen:] == wt[:blen]:
                    overlaps += 1
            if s != t and not (rs.lhs == rt.lhs and s > t):
                for i in range(len(wt) - len(ws) + 1):
                    if wt[i:i + len(ws)] == ws:
                        inclusions += 1
    return overlaps, inclusions


def test_enumeration_complete_random_systems():
    rng = random.Random(42)
    from ncrewrite.freealg import Alphabet

    alphabet = Alphabet(("a", "b"))
    for _ in range(60):
        rules = tuple(
            Rule(Word(alphabet, tuple(rng.randrange(2)
                                      for _ in range(rng.randint(1, 4)))),
                 Polynomial.zero(RATIONALS, alphabet))
            for _ in range(rng.randint(1, 4)))
        system = ReductionSystem(alphabet, RATIONALS, rules)
        ov, inc = _brute_force_counts(system)
        assert len(enumerate_overlaps(system)) == ov
        assert len(enumerate_inclusions(system)) == inc


def naive_overlaps(system):
    """Reference for enumerate_overlaps: every ordered pair of rules, every
    overlap length, in that order."""
    out = []
    for s, rs in enumerate(system.rules):
        ws = rs.lhs.letters
        for t, rt in enumerate(system.rules):
            wt = rt.lhs.letters
            for blen in range(1, min(len(ws), len(wt))):
                if ws[len(ws) - blen:] == wt[:blen]:
                    out.append(Ambiguity(
                        OVERLAP, s, t,
                        Word(system.alphabet, ws[:len(ws) - blen]),
                        Word(system.alphabet, ws[len(ws) - blen:]),
                        Word(system.alphabet, wt[blen:])))
    return out


def test_overlaps_match_naive_reference_in_order():
    rng = random.Random(1975)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        alphabet = Alphabet(tuple("abc"[:n]))
        lhss = []
        for _ in range(rng.randint(1, 5)):
            lhss.append(rng.choice(lhss) if lhss and rng.random() < 0.2 else
                        tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))))
        system = ReductionSystem(alphabet, RATIONALS, tuple(
            Rule(Word(alphabet, lhs), Polynomial.zero(RATIONALS, alphabet)) for lhs in lhss))
        overlaps = enumerate_overlaps(system)
        assert overlaps == naive_overlaps(system)
        found += len(overlaps) > 1
    assert 0 < found < 200


def test_resolvable_commuting(comm3):
    amb = enumerate_overlaps(comm3.system)[0]
    verdict = check_resolvable(amb, comm3.system, comm3.ordering)
    assert verdict.branch_left == expr("y*z*x", comm3)
    assert verdict.branch_right == expr("z*x*y", comm3)
    assert verdict.nf_left == verdict.nf_right == expr("x*y*z", comm3)
    assert verdict.resolvable


def test_not_resolvable_duplicate(dup_lhs):
    amb = enumerate_inclusions(dup_lhs.system)[0]
    verdict = check_resolvable(amb, dup_lhs.system, dup_lhs.ordering)
    assert {verdict.nf_left, verdict.nf_right} == {
        expr("a", dup_lhs), expr("b", dup_lhs)}
    assert not verdict.resolvable


def test_not_resolvable_self_overlap(aba):
    amb = enumerate_overlaps(aba.system)[0]
    assert amb.word == aba.alphabet.word("a", "b", "a", "b", "a")
    verdict = check_resolvable(amb, aba.system, aba.ordering)
    assert {verdict.nf_left, verdict.nf_right} == {
        expr("b*b*a", aba), expr("a*b*b", aba)}
    assert not verdict.resolvable


def test_relative_commuting_with_certificate(comm3):
    amb = enumerate_overlaps(comm3.system)[0]
    rel = check_resolvable_relative(amb, comm3.system, comm3.ordering)
    assert rel.resolvable
    left = expr("y*z*x", comm3)
    right = expr("z*x*y", comm3)
    assert rel.expand(comm3.system) == left - right


def test_relative_zero_difference():
    p = parse_presentation(
        "field Q\ngenerators a\nrule a*a -> a\n")
    # branches of the aaa self-overlap are both a*a: difference is zero
    amb = enumerate_overlaps(p.system)[0]
    rel = check_resolvable_relative(amb, p.system, p.ordering)
    assert rel.resolvable
    assert rel.certificate == ()


def test_relative_fails_duplicate(dup_lhs):
    amb = enumerate_inclusions(dup_lhs.system)[0]
    rel = check_resolvable_relative(amb, dup_lhs.system, dup_lhs.ordering)
    assert not rel.resolvable
    assert rel.certificate is None


@pytest.mark.parametrize("fixture", ["weyl", "comm3", "comm4", "sl2",
                                     "dup_lhs", "aba"])
def test_plain_and_relative_agree(fixture, request):
    p = request.getfixturevalue(fixture)
    for amb in enumerate_overlaps(p.system) + enumerate_inclusions(p.system):
        plain = check_resolvable(amb, p.system, p.ordering).resolvable
        assert check_resolvable_relative(
            amb, p.system, p.ordering).resolvable == plain


def dense_solve(columns: list[Polynomial], target: Polynomial, field):
    """Solve sum x_j * columns[j] = target by dense Gauss-Jordan elimination
    over Coefficient objects with the reference scalar arithmetic; None if
    inconsistent.  The slow reference."""
    words = set(target.words())
    for col in columns:
        words.update(col.words())
    rows = sorted(words, key=lambda w: (len(w), w.letters))
    index = {w: i for i, w in enumerate(rows)}
    zero = field.zero()
    matrix = [[zero] * len(columns) + [zero] for _ in rows]
    for j, col in enumerate(columns):
        for w, c in col.items():
            matrix[index[w]][j] = c
    for w, c in target.items():
        matrix[index[w]][len(columns)] = c
    pivots = []
    r = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inverse = inv(matrix[r][j])
        matrix[r] = [mul(x, inverse) for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][j]:
                factor = matrix[i][j]
                matrix[i] = [sub(x, mul(factor, y)) for x, y in zip(matrix[i], matrix[r])]
        pivots.append(j)
        r += 1
    for i in range(r, len(matrix)):
        if matrix[i][len(columns)]:
            return None
    solution = [zero] * len(columns)
    for i, j in enumerate(pivots):
        solution[j] = matrix[i][len(columns)]
    return solution


def dense_resolvable_relative(amb, system, spec) -> bool:
    """The relative check on Word/Polynomial objects: every B(W - f)C with
    deg BWC <= deg D and BWC < D as a column, solved by dense_solve."""
    verdict = check_resolvable(amb, system, spec)
    d = amb.word
    columns = []
    for rule in system.rules:
        slack = d.degree() - rule.lhs.degree()
        gen = Polynomial.monomial(rule.lhs, system.field.one()) - rule.rhs
        for b in system.alphabet.words_up_to_degree(slack):
            for c in system.alphabet.words_up_to_degree(slack - b.degree()):
                if spec.sort_key(b * rule.lhs * c) < spec.sort_key(d):
                    columns.append(gen.sandwich(b, c))
    diff = verdict.branch_left - verdict.branch_right
    return dense_solve(columns, diff, system.field) is not None


def _random_system(rng, field, coefficients):
    """2-3 letters (weights 1 or 2), 1-4 rules, each right side a combination
    of at most two words below its left side, so spec is compatible."""
    n = rng.randint(2, 3)
    alphabet = Alphabet(tuple("abc"[:n]), tuple(rng.choice((1, 1, 1, 2))
                                                for _ in range(n)))
    spec = OrderingSpec(alphabet, alphabet.symbols)
    rules = []
    for _ in range(rng.randint(1, 4)):
        lhs = Word(alphabet, tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))))
        below = [w for w in alphabet.words_up_to_degree(lhs.degree())
                 if spec.sort_key(w) < spec.sort_key(lhs)]
        rhs = Polynomial(field, alphabet, {
            w: field.coeff(rng.choice(coefficients))
            for w in rng.sample(below, min(len(below), rng.randint(0, 2)))})
        rules.append(Rule(lhs, rhs))
    return ReductionSystem(alphabet, field, tuple(rules)), spec


@pytest.mark.parametrize("field,coefficients", [
    (RATIONALS, (1, -1, 2, 3)),
    (FieldDescriptor(7), (1, 2, 3, 4, 5, 6)),
    (RATIONALS, (1, -1, Fraction(3, 2), Fraction(-1, 2))),
])
def test_relative_matches_dense_reference(field, coefficients):
    rng = random.Random(str(field) + str(coefficients))
    verdicts = set()
    for _ in range(40):
        system, spec = _random_system(rng, field, coefficients)
        for amb in enumerate_overlaps(system) + enumerate_inclusions(system):
            if amb.word.degree() > 4:  # keeps the dense reference fast
                continue
            rel = check_resolvable_relative(amb, system, spec)
            assert rel.resolvable == dense_resolvable_relative(amb, system, spec)
            if rel.resolvable:
                verdict = check_resolvable(amb, system, spec)
                assert rel.expand(system) == verdict.branch_left - verdict.branch_right
            verdicts.add(rel.resolvable)
    assert verdicts == {True, False}


def test_relative_fractional_coefficients():
    p = parse_presentation("field Q\ngenerators x < y < z\nrule y*x -> 3/2*x*y\n"
                           "rule z*x -> x*z\nrule z*y -> -1/2*y*z\n")
    amb, = enumerate_overlaps(p.system)
    rel = check_resolvable_relative(amb, p.system, p.ordering)
    assert rel.resolvable == dense_resolvable_relative(amb, p.system, p.ordering)
    verdict = check_resolvable(amb, p.system, p.ordering)
    assert rel.expand(p.system) == verdict.branch_left - verdict.branch_right


def test_check_all_cross_check_commuting8():
    names = [f"x{i}" for i in range(8)]
    p = parse_presentation("field Q\ngenerators " + " < ".join(names) + "\n" + "".join(
        f"rule {names[j]}*{names[i]} -> {names[i]}*{names[j]}\n"
        for j in range(8) for i in range(j)))
    report = check_all(p.system, p.ordering, cross_check=True)
    assert len(report.verdicts) == 56
    assert report.relative_agrees is True


def test_check_all_weyl(weyl):
    report = check_all(weyl.system, weyl.ordering)
    assert report.confluent
    assert report.verdicts == ()


def test_check_all_commuting4(comm4):
    report = check_all(comm4.system, comm4.ordering)
    assert len(report.verdicts) == 4
    assert all(v.ambiguity.kind == OVERLAP for v in report.verdicts)
    assert report.confluent


def test_check_all_not_confluent(dup_lhs):
    report = check_all(dup_lhs.system, dup_lhs.ordering)
    assert len(report.verdicts) == 1
    assert not report.confluent
    # the ambiguity word really has two distinct normal forms
    d = Polynomial.monomial(report.verdicts[0].ambiguity.word,
                            dup_lhs.field.one())
    assert len(all_normal_forms(d, dup_lhs.system)) == 2


def test_check_all_cross_check(sl2):
    report = check_all(sl2.system, sl2.ordering, cross_check=True)
    assert report.relative_agrees is True


def test_simplify_drops_containing_rule():
    p = parse_presentation(
        "field Q\ngenerators a < b < c\nrule b -> 1\nrule a*b*a -> c\n")
    simplified = simplify_system(p.system)
    assert [r.lhs for r in simplified.rules] == [p.alphabet.word("b")]


def test_simplify_keeps_lowest_duplicate(dup_lhs):
    simplified = simplify_system(dup_lhs.system)
    assert simplified.rules == (dup_lhs.system.rules[0],)


def test_simplify_identity_on_clean_system(comm3):
    assert simplify_system(comm3.system) is not None
    assert simplify_system(comm3.system).rules == comm3.system.rules


def test_simplify_random_injected_inclusions():
    rng = random.Random(99)
    from ncrewrite.freealg import Alphabet

    alphabet = Alphabet(("a", "b"))
    for _ in range(30):
        base = [Word(alphabet, tuple(rng.randrange(2)
                                     for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 3))]
        # inject: a duplicate and a proper superword of some base lhs
        culprit = rng.choice(base)
        padded = (Word(alphabet, (rng.randrange(2),)) * culprit
                  * Word(alphabet, (rng.randrange(2),)))
        lhss = base + [culprit, padded]
        rules = tuple(Rule(w, Polynomial.zero(RATIONALS, alphabet))
                      for w in lhss)
        system = ReductionSystem(alphabet, RATIONALS, rules)
        simplified = simplify_system(system)
        assert enumerate_inclusions(simplified) == []
        # reducibility is preserved on random words
        for _ in range(20):
            word = Word(alphabet, tuple(rng.randrange(2)
                                        for _ in range(rng.randint(0, 6))))
            reducible_full = any(contains(word, r.lhs) for r in system.rules)
            reducible_slim = any(contains(word, r.lhs)
                                 for r in simplified.rules)
            assert reducible_full == reducible_slim


@st.composite
def compatible_systems(draw):
    """Q or F 7, 2-3 letters, 1-4 rules with left sides of 1-3 letters, each
    right side a combination of at most two words below its left side in
    deglex, so the order is compatible."""
    field = draw(st.sampled_from([RATIONALS, FieldDescriptor(7)]))
    values = (st.sampled_from([1, -1, 2, Fraction(1, 2)]) if field.is_rationals
              else st.integers(1, 6))
    n = draw(st.integers(2, 3))
    alphabet = Alphabet(tuple("abc"[:n]))
    spec = OrderingSpec(alphabet, alphabet.symbols)
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = Word(alphabet, tuple(draw(st.lists(st.integers(0, n - 1),
                                                 min_size=1, max_size=3))))
        below = [w for w in alphabet.words_up_to_degree(len(lhs))
                 if spec.sort_key(w) < spec.sort_key(lhs)]
        words = draw(st.lists(st.sampled_from(below), max_size=2, unique=True))
        rules.append(Rule(lhs, Polynomial(field, alphabet, {
            w: field.coeff(draw(values)) for w in words})))
    return ReductionSystem(alphabet, field, tuple(rules)), spec


def test_diamond_lemma_three_ways():
    """Bergman's Theorem 1.2 under a compatible order: every ambiguity
    resolves (check_all), every ambiguity resolves relative to the order,
    and every ambiguity word has one normal form by the oracle, all or
    none.  Draws where the oracle exceeds its budget are skipped and
    counted."""
    counts = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(compatible_systems())
    def agree(case):
        system, spec = case
        report = check_all(system, spec)
        assert report.compatible
        ambs = [v.ambiguity for v in report.verdicts]
        relative = all(check_resolvable_relative(a, system, spec).resolvable for a in ambs)
        try:
            unique = all(len(all_normal_forms(Polynomial.monomial(a.word, system.field.one()),
                                              system, budget=2_000)) == 1
                         for a in ambs)
        except BudgetExceededError:
            counts["skipped"] += 1
            return
        assert report.confluent == relative == unique
        counts[report.confluent] += 1

    agree()
    assert counts[True] > 0 and counts[False] > 0
    assert counts["skipped"] * 10 <= counts[True] + counts[False], counts

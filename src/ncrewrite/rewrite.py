"""Reduction machinery: single reductions, normal forms, and an exhaustive oracle.

A single reduction at site (A, sigma, B) subtracts
lambda * A * (W_sigma - f_sigma) * B, where lambda is the coefficient of
A * W_sigma * B in the polynomial.  Systems are validated on construction.
One kernel works on a copy of the raw {letters: value} dict a Polynomial
stores and wraps its result without converting a term; it finds sites and
applies the step for apply_reduction, normal_form, is_irreducible and the
oracle, and the ambiguity and quotient modules find left sides with the
same site finder.  A system compiles its left sides once, on construction,
into one table {lhs letters: rule indices} with the distinct left-side
lengths; the site finder looks word[i:i+m] up in it for each length m at
each position i, so its cost per position grows with the number of
distinct lengths, not of rules, and it yields the sites leftmost first,
then by lowest rule index.  Under an order compatible with the system,
normal_form's strategy always terminates.

all_normal_forms ignores the order and returns every irreducible polynomial
reachable by any reduction sequence.  It first decides reduction-uniqueness
word by word (Bergman's Lemma 1.1: in a reduction-finite system the
reduction-unique elements form a subspace on which r_S is linear).  The
hypothesis is checked on the way: the graph of words reachable from the
input's monomials by single reductions must be acyclic, so the multiset of
monomials decreases under every reduction.  Where a word is not provably
unique, or the walk runs out of budget, the exhaustive search over
polynomial states decides, so the returned set stays exact for
non-confluent and cyclic systems.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush

from .coeff import Coefficient, FieldDescriptor, Value, _set
from .freealg import Alphabet, FreeAlgebraError, Occurrence, Polynomial, Word, add_scaled
from .order import CompatibilityReport, OrderingSpec, check_compatibility, format_violations
from .syntax import format_coefficient


class RewriteError(Exception):
    pass


class InvalidSystemError(RewriteError):
    pass


class IncompatibleSystemError(RewriteError):
    """Raised when normalization is requested without a compatible order."""


class BudgetExceededError(RewriteError):
    """The oracle's exhaustive search would visit more polynomial states than
    its budget."""

    def __init__(self, visited: int):
        super().__init__(f"budget exhausted after {visited} polynomial states")
        self.visited = visited


DEFAULT_ORACLE_BUDGET = 10_000


Rule = namedtuple("Rule", "lhs rhs")


class ReductionSystem(Value):
    """Rules W_sigma -> f_sigma over one alphabet and field; validated on construction."""

    _fields = ("alphabet", "field", "rules")
    __slots__ = (*_fields, "_compatibility", "_compiled", "_left_sides")

    def __init__(self, alphabet: Alphabet, field: FieldDescriptor, rules: tuple[Rule, ...]):
        rules = tuple(rules)
        _set(self, "alphabet", alphabet)
        _set(self, "field", field)
        _set(self, "rules", rules)
        validate_system(self)
        _set(self, "_compatibility", {})  # spec -> CompatibilityReport
        # the kernel's form of each rule: (lhs letters, ((letters, value), ...))
        _set(self, "_compiled", tuple((r.lhs.letters, tuple(r.rhs._terms.items())) for r in rules))
        _set(self, "_left_sides", _lhs_table(lhs for lhs, _ in self._compiled))


def validate_system(system: ReductionSystem) -> None:
    """Raise InvalidSystemError on a rule over another alphabet or field or with lhs 1."""
    for i, rule in enumerate(system.rules):
        if (rule.lhs.alphabet, rule.rhs.alphabet, rule.rhs.field) != (
                system.alphabet, system.alphabet, system.field):
            raise InvalidSystemError(f"rule {i} over another alphabet or field")
        if rule.lhs.is_one():
            raise InvalidSystemError(f"rule {i} has an empty left side")


def compatibility(system: ReductionSystem, spec: OrderingSpec) -> CompatibilityReport:
    """check_compatibility(system, spec), remembered on the system, so each
    order is checked once per system."""
    report = system._compatibility.get(spec)
    if report is None:
        report = system._compatibility[spec] = check_compatibility(system, spec)
    return report


def require_compatible(system: ReductionSystem, spec: OrderingSpec) -> None:
    """Raise IncompatibleSystemError unless every rule decreases under spec."""
    report = compatibility(system, spec)
    if not report.compatible:
        raise IncompatibleSystemError(
            f"system not compatible with the ordering: {format_violations(report)}")


def _terms(a: Polynomial, system: ReductionSystem) -> dict:
    """A copy of a's raw {letters: value} terms, for the kernel to mutate."""
    if (a.alphabet, a.field) != (system.alphabet, system.field):
        raise FreeAlgebraError("polynomial over another alphabet or field than the system")
    return dict(a._terms)


def _lhs_table(lhss) -> tuple[dict, tuple]:
    """The table _sites looks left sides up in: ({lhs letters: rule indices,
    ascending}, the distinct left-side lengths, ascending)."""
    table = {}
    for idx, lhs in enumerate(lhss):
        table[lhs] = table.get(lhs, ()) + (idx,)
    return table, tuple(sorted({len(lhs) for lhs in table}))


def _sites(word: tuple, left_sides):
    """Sites (len(A), rule index) in word of the left sides in a system's
    _left_sides table: leftmost first, then lowest rule index.  The one
    left-side matcher; a site is a nonempty tuple, so
    any(_sites(word, left_sides)) means reducible.

    Each position costs one lookup of word[i:i+m] per distinct left-side
    length m, up to the first m that runs past the end of the word, however
    many rules there are; the indices are merged only when left sides of
    two lengths start at one position.
    """
    table, lengths = left_sides
    n = len(word)
    for i in range(n):
        hits = ()
        for m in lengths:
            if i + m > n:
                break
            found = table.get(word[i:i + m])
            if found:
                hits = sorted((*hits, *found)) if hits else found
        for idx in hits:
            yield i, idx


def _reduce(terms: dict, system: ReductionSystem, word: tuple, i: int, idx: int):
    """terms -= lambda * A (W - f) B in place at site (i, idx) of word = A W B;
    returns lambda = terms[word] and the words A z B (z in f) added to terms."""
    lhs, rhs = system._compiled[idx]
    lam = terms.pop(word)
    prefix, suffix = word[:i], word[i + len(lhs):]
    reduct = {prefix + z + suffix: c for z, c in rhs}
    added = [t for t in reduct if t not in terms]
    add_scaled(terms, reduct, lam, system.field.modulus)
    return lam, added


def apply_reduction(a: Polynomial, system: ReductionSystem, occ: Occurrence) -> Polynomial:
    """a - lambda * A (W_sigma - f_sigma) B; the identity when lambda = 0."""
    target = (occ.prefix * system.rules[occ.rule].lhs * occ.suffix).letters
    terms = _terms(a, system)
    if target not in terms:
        return a
    _reduce(terms, system, target, len(occ.prefix), occ.rule)
    return Polynomial._raw(system.field, system.alphabet, terms)


def is_irreducible(a: Polynomial, system: ReductionSystem) -> bool:
    return not any(any(_sites(w, system._left_sides)) for w in _terms(a, system))


class ReductionStep(namedtuple("ReductionStep", "occurrence coefficient")):
    """coefficient: the lambda removed; nonzero by construction."""

    __slots__ = ()


NormalFormResult = namedtuple("NormalFormResult", "value trace")


def normal_form(a: Polynomial, system: ReductionSystem,
                spec: OrderingSpec) -> NormalFormResult:
    """Deterministic full reduction.

    Strategy: reduce the deglex-largest reducible monomial, at its leftmost
    site, with the lowest-indexed rule there.  A compatible order puts every
    reduct below the monomial it replaces, so monomials come from a heap,
    largest first.  Refuses systems the order is not compatible with, since
    termination is then unguaranteed.
    """
    def descending(word):
        # negated ranks sort in reverse: no word prefixes another of equal degree
        degree, ranks = spec.letters_key(word)
        return -degree, tuple(-r for r in ranks), word

    require_compatible(system, spec)
    terms = _terms(a, system)
    rules, left_sides = system._compiled, system._left_sides
    heap = [descending(w) for w in terms]
    heapify(heap)
    trace = []
    while heap:
        word = heappop(heap)[2]
        site = next(_sites(word, left_sides), None) if word in terms else None
        if site is None:
            continue
        i, idx = site
        lam, added = _reduce(terms, system, word, i, idx)
        trace.append(ReductionStep(Occurrence(
            Word(system.alphabet, word[:i]), idx,
            Word(system.alphabet, word[i + len(rules[idx][0]):])),
            Coefficient(system.field, lam)))
        for t in added:
            heappush(heap, descending(t))
    value = Polynomial._raw(system.field, system.alphabet, terms)
    return NormalFormResult(value, tuple(trace))


def _unique_value(start: dict, system: ReductionSystem, budget: int):
    """The sum of c_w * r(w) over start's monomials, or None unless every word
    reachable from them is provably reduction-unique within ``budget`` words.

    A word is unique when it is irreducible, or when all its one-step
    reducts A f B, expanded through the values of the words below it, agree.
    Post-order walk with an explicit stack; a word met again while still on
    the walk's path closes a cycle, so reduction-finiteness is not shown.
    """
    left_sides = system._left_sides
    modulus = system.field.modulus
    memo = {}  # word -> r(word) as {letters: value}
    on_path = set()
    stack = [(w, None) for w in start]
    while stack:
        word, reducts = stack.pop()
        if reducts is None:  # first visit
            if word in memo:
                continue
            if len(memo) + len(on_path) >= budget:
                return None
            reducts = []
            for i, idx in _sites(word, left_sides):
                reduct = {word: 1}
                _reduce(reduct, system, word, i, idx)
                reducts.append(reduct)
            if not reducts:
                memo[word] = {word: 1}
                continue
            on_path.add(word)
            stack.append((word, reducts))
            for reduct in reducts:
                for t in reduct:
                    if t in on_path:
                        return None
                    if t not in memo:
                        stack.append((t, None))
            continue
        values = []  # every reduct word is decided by now
        for reduct in reducts:
            value = {}
            for t, c in reduct.items():
                add_scaled(value, memo[t], c, modulus)
            values.append(value)
        if any(v != values[0] for v in values[1:]):
            return None
        on_path.discard(word)
        memo[word] = values[0]
    total = {}
    for w, c in start.items():
        add_scaled(total, memo[w], c, modulus)
    return total


def all_normal_forms(a: Polynomial, system: ReductionSystem,
                     budget: int = DEFAULT_ORACLE_BUDGET) -> set[Polynomial]:
    """Every irreducible polynomial reachable from a by any reduction sequence.

    First walks the words reachable from a's monomials, deciding each
    word's reduction-uniqueness from its one-step reducts (see the module
    docstring); when every one is unique the answer is {sum of c_w * r(w)}.
    The walk's hypothesis is an acyclic word graph.  Otherwise (two reducts
    disagree, the graph has a cycle, or more than ``budget`` words would be
    walked) the exhaustive search over polynomial states decides, memoized
    on visited polynomials; it raises BudgetExceededError when more than
    ``budget`` distinct states would be visited.
    """
    left_sides = system._left_sides
    start = _terms(a, system)
    value = _unique_value(start, system, budget)
    if value is not None:
        return {Polynomial._raw(system.field, system.alphabet, value)}
    seen = {frozenset(start.items())}
    stack = [start]
    normals = []
    while stack:
        state = stack.pop()
        successors = []
        for word in state:
            for i, idx in _sites(word, left_sides):
                new = dict(state)
                _reduce(new, system, word, i, idx)
                successors.append(new)
        if not successors:
            normals.append(state)
            continue
        for q in successors:
            key = frozenset(q.items())
            if key not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(len(seen))
                seen.add(key)
                stack.append(q)
    return {Polynomial._raw(system.field, system.alphabet, state) for state in normals}


def format_trace(trace) -> str:
    """One line per step: ``A | rule-index | B | lambda``."""
    return "\n".join(
        f"{step.occurrence.prefix} | {step.occurrence.rule} | "
        f"{step.occurrence.suffix} | {format_coefficient(step.coefficient.value)}"
        for step in trace)

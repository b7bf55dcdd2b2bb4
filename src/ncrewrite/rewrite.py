"""Reduction machinery: single reductions, normal forms, and an exhaustive oracle.

A single reduction at site (A, sigma, B) subtracts
lambda * A * (W_sigma - f_sigma) * B, where lambda is the coefficient of
A * W_sigma * B in the polynomial.  Systems are validated on construction;
one kernel on raw {letters: value} dicts finds sites and applies the step
for apply_reduction, normal_form, is_irreducible and the oracle, and the
ambiguity and quotient modules find left sides with the same site finder.
Under an order compatible with the system, normal_form's strategy always
terminates.

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

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .coeff import Coefficient, FieldDescriptor
from .freealg import Alphabet, FreeAlgebraError, Occurrence, Polynomial, Word
from .order import CompatibilityReport, OrderingSpec, check_compatibility


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


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: Polynomial


@dataclass(frozen=True)
class ReductionSystem:
    """Rules W_sigma -> f_sigma over one alphabet and field; validated on construction."""

    alphabet: Alphabet
    field: FieldDescriptor
    rules: tuple[Rule, ...]

    def __post_init__(self):
        validate_system(self)
        object.__setattr__(self, "_compatibility", {})  # spec -> CompatibilityReport
        # the kernel's form of each rule: (lhs letters, ((letters, value), ...))
        object.__setattr__(self, "_compiled", tuple(
            (r.lhs.letters, tuple((w.letters, c.value) for w, c in r.rhs.items()))
            for r in self.rules))


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
            f"system not compatible with the ordering: {report.violations}")


def _terms(a: Polynomial, system: ReductionSystem) -> dict:
    if (a.alphabet, a.field) != (system.alphabet, system.field):
        raise FreeAlgebraError("polynomial over another alphabet or field than the system")
    return {w.letters: c.value for w, c in a.items()}


def _polynomial(terms: dict, system: ReductionSystem) -> Polynomial:
    field, alphabet = system.field, system.alphabet
    return Polynomial(field, alphabet, {Word(alphabet, w): Coefficient(field, c)
                                        for w, c in terms.items()})


def _sites(word: tuple, rules):
    """Sites (len(A), rule index) of a system's _compiled rules in word:
    leftmost first, then lowest rule index.  The one left-side matcher; a
    site is a nonempty tuple, so any(_sites(word, rules)) means reducible."""
    for i in range(len(word)):
        for idx, (lhs, _) in enumerate(rules):
            if word[i:i + len(lhs)] == lhs:
                yield i, idx


def _reduce(terms: dict, system: ReductionSystem, word: tuple, i: int, idx: int):
    """terms -= lambda * A (W - f) B in place at site (i, idx) of word = A W B;
    returns lambda = terms[word] and the words A z B (z in f) added to terms."""
    lhs, rhs = system._compiled[idx]
    modulus = system.field.modulus
    lam = terms.pop(word)
    prefix, suffix = word[:i], word[i + len(lhs):]
    added = []
    for z, c in rhs:
        t = prefix + z + suffix
        if t not in terms:
            added.append(t)
        v = terms.get(t, 0) + lam * c
        if modulus:
            v %= modulus
        if v:
            terms[t] = v
        else:
            del terms[t]
    return lam, added


def apply_reduction(a: Polynomial, system: ReductionSystem, occ: Occurrence) -> Polynomial:
    """a - lambda * A (W_sigma - f_sigma) B; the identity when lambda = 0."""
    target = (occ.prefix * system.rules[occ.rule].lhs * occ.suffix).letters
    terms = _terms(a, system)
    if target not in terms:
        return a
    _reduce(terms, system, target, len(occ.prefix), occ.rule)
    return _polynomial(terms, system)


def is_irreducible(a: Polynomial, system: ReductionSystem) -> bool:
    return not any(any(_sites(w, system._compiled)) for w in _terms(a, system))


@dataclass(frozen=True)
class ReductionStep:
    occurrence: Occurrence
    coefficient: Coefficient  # the lambda removed; nonzero by construction


@dataclass(frozen=True)
class NormalFormResult:
    value: Polynomial
    trace: tuple[ReductionStep, ...]


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
    rules = system._compiled
    heap = [descending(w) for w in terms]
    heapify(heap)
    trace = []
    while heap:
        word = heappop(heap)[2]
        site = next(_sites(word, rules), None) if word in terms else None
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
    return NormalFormResult(_polynomial(terms, system), tuple(trace))


def _add_scaled(into: dict, terms: dict, c, modulus: int) -> None:
    """into += c * terms, in place, dropping zero coefficients."""
    for u, v in terms.items():
        v = c * v % modulus if modulus else c * v
        if u in into:
            v += into[u]
            if modulus:
                v %= modulus
            if not v:
                del into[u]
                continue
        into[u] = v


def _unique_value(start: dict, system: ReductionSystem, budget: int):
    """The sum of c_w * r(w) over start's monomials, or None unless every word
    reachable from them is provably reduction-unique within ``budget`` words.

    A word is unique when it is irreducible, or when all its one-step
    reducts A f B, expanded through the values of the words below it, agree.
    Post-order walk with an explicit stack; a word met again while still on
    the walk's path closes a cycle, so reduction-finiteness is not shown.
    """
    rules = system._compiled
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
            for i, idx in _sites(word, rules):
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
                _add_scaled(value, memo[t], c, modulus)
            values.append(value)
        if any(v != values[0] for v in values[1:]):
            return None
        on_path.discard(word)
        memo[word] = values[0]
    total = {}
    for w, c in start.items():
        _add_scaled(total, memo[w], c, modulus)
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
    rules = system._compiled
    start = _terms(a, system)
    value = _unique_value(start, system, budget)
    if value is not None:
        return {_polynomial(value, system)}
    seen = {frozenset(start.items())}
    stack = [start]
    normals = []
    while stack:
        state = stack.pop()
        successors = []
        for word in state:
            for i, idx in _sites(word, rules):
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
    return {_polynomial(state, system) for state in normals}


def format_trace(trace) -> str:
    """One line per step: ``A | rule-index | B | lambda``."""
    return "\n".join(
        f"{step.occurrence.prefix} | {step.occurrence.rule} | "
        f"{step.occurrence.suffix} | {step.coefficient}"
        for step in trace)
